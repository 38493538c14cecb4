"""Steady-state benchmark of the State-Slice runtime (see bench/README.md)."""
