"""Chain specifications.

A :class:`ChainSpec` is the declarative description of a state-slice chain:
an ordered list of :class:`SliceSpec` intervals covering ``[0, W_max)``
together with the workload they serve.  The Mem-Opt builder produces one
slice per distinct query window (Section 5.1); the CPU-Opt builder may merge
adjacent slices (Section 5.2); the plan builder turns a spec into an
executable :class:`~repro.engine.plan.QueryPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.engine.errors import ChainError
from repro.query.query import ContinuousQuery, QueryWorkload

__all__ = ["SliceSpec", "ChainSpec"]

#: Tolerance used when comparing window boundaries (floats).
_EPSILON = 1e-9


@dataclass(frozen=True)
class SliceSpec:
    """One slice ``[start, end)`` of a chain and the query windows it covers.

    ``covered_windows`` are the distinct query window sizes ``w`` with
    ``start < w <= end`` — the queries whose answers are completed inside
    this slice.  When a slice covers more than one window (a CPU-Opt merge)
    or covers a window strictly smaller than its end, a router is required
    on its output (Figure 13(b) / 16(b)).
    """

    start: float
    end: float
    covered_windows: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ChainError(f"slice start must be non-negative, got {self.start}")
        if self.end <= self.start:
            raise ChainError(f"slice end must exceed start: [{self.start}, {self.end})")
        for window in self.covered_windows:
            if not (self.start - _EPSILON < window <= self.end + _EPSILON):
                raise ChainError(
                    f"covered window {window} lies outside slice [{self.start}, {self.end})"
                )

    @property
    def length(self) -> float:
        return self.end - self.start

    @property
    def needs_router(self) -> bool:
        """True when some covered window ends strictly inside the slice."""
        return any(window < self.end - _EPSILON for window in self.covered_windows)

    def inner_windows(self) -> tuple[float, ...]:
        """Covered windows that end strictly inside the slice (need a check)."""
        return tuple(w for w in self.covered_windows if w < self.end - _EPSILON)

    def describe(self) -> str:
        covered = ", ".join(f"{w:g}" for w in self.covered_windows)
        return f"[{self.start:g}, {self.end:g}) covering windows {{{covered}}}"


class ChainSpec:
    """A complete chain specification for a query workload."""

    def __init__(self, workload: QueryWorkload, slices: Sequence[SliceSpec]) -> None:
        self.workload = workload
        self.slices = list(slices)
        self._validate()

    # -- validation ----------------------------------------------------------------
    def _validate(self) -> None:
        if not self.slices:
            raise ChainError("a chain requires at least one slice")
        if abs(self.slices[0].start) > _EPSILON:
            raise ChainError(
                f"the first slice must start at 0, got {self.slices[0].start}"
            )
        previous_end = self.slices[0].start
        for slice_spec in self.slices:
            if abs(slice_spec.start - previous_end) > _EPSILON:
                raise ChainError(
                    f"slices must be contiguous: slice {slice_spec.describe()} does not "
                    f"start at previous end {previous_end:g}"
                )
            previous_end = slice_spec.end
        expected_windows = self.workload.window_sizes()
        if abs(previous_end - expected_windows[-1]) > _EPSILON:
            raise ChainError(
                f"the chain must end at the largest query window "
                f"{expected_windows[-1]:g}, got {previous_end:g}"
            )
        covered = sorted(w for s in self.slices for w in s.covered_windows)
        if len(covered) != len(expected_windows) or any(
            abs(a - b) > _EPSILON for a, b in zip(covered, expected_windows)
        ):
            raise ChainError(
                f"chain covers windows {covered} but the workload requires "
                f"{expected_windows}"
            )

    # -- lookups -----------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.slices)

    def __iter__(self) -> Iterator[SliceSpec]:
        return iter(self.slices)

    def boundaries(self) -> list[float]:
        """Chain boundaries including 0 and the largest window."""
        return [self.slices[0].start] + [s.end for s in self.slices]

    def slice_for_window(self, window: float) -> int:
        """Index of the slice that completes a query with ``window``."""
        for index, slice_spec in enumerate(self.slices):
            if any(abs(window - w) <= _EPSILON for w in slice_spec.covered_windows):
                return index
        raise ChainError(f"no slice covers window {window:g}")

    def queries_completing_in(self, slice_index: int) -> list[ContinuousQuery]:
        """Queries whose window is covered by slice ``slice_index``."""
        slice_spec = self.slices[slice_index]
        return [
            query
            for query in self.workload
            if any(abs(query.window - w) <= _EPSILON for w in slice_spec.covered_windows)
        ]

    def queries_tapping(self, slice_index: int) -> list[ContinuousQuery]:
        """Queries that consume the output of slice ``slice_index``.

        These are all queries whose window reaches at least this slice —
        i.e. whose own completing slice is this one or a later one.
        """
        start = self.slices[slice_index].start
        return [query for query in self.workload if query.window > start + _EPSILON]

    @property
    def is_memory_optimal(self) -> bool:
        """True when every slice covers exactly one window (the Mem-Opt shape)."""
        return all(len(s.covered_windows) == 1 and not s.needs_router for s in self.slices)

    def describe(self) -> str:
        lines = [f"chain of {len(self.slices)} slices over {len(self.workload)} queries:"]
        for index, slice_spec in enumerate(self.slices):
            completing = [q.name for q in self.queries_completing_in(index)]
            lines.append(
                f"  J{index + 1}: {slice_spec.describe()} -> completes {completing}"
            )
        return "\n".join(lines)
