"""Tests for the command-line interface."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTED = [
    ROOT / "README.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]


def documented_command_lines() -> list[tuple[str, list[str]]]:
    """Every ``python -m repro …`` line inside a fenced block of the docs, as
    ``(where, argv)``; a trailing ``# comment`` is dropped."""
    found = []
    for path in DOCUMENTED:
        fenced = False
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                fenced = not fenced
            elif fenced and (match := re.search(r"python3? -m repro\s+(.*)", line)):
                argv = shlex.split(match.group(1), comments=True)
                found.append((f"{path.name}:{number}", argv))
    return found


def run_cli(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_figure_number_is_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "12"])

    def test_nothing_has_a_batch_size(self, capsys):
        """A static plan runs one arrival at a time; a session's batch is the
        caller's quantum.  Nor is there a probe to pick: a slice probes by
        nested loop."""
        for command, flag, value in (
            ("compare", "--batch-size", "8"),
            ("runtime", "--batch-size", "8"),
            ("compare", "--probe", "hash"),
            ("optimize", "--probe", "hash"),
            ("runtime", "--probe", "hash"),
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--help"])
            assert flag not in capsys.readouterr().out
            with pytest.raises(SystemExit) as usage:
                build_parser().parse_args([command, flag, value])
            assert usage.value.code == 2

    def test_a_session_has_no_chain_selector(self, capsys):
        """A session's chain follows from its queries: nothing to switch on."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["runtime", "--help"])
        listed = capsys.readouterr().out
        for flag in ("--adaptive", "--drift-threshold", "--policy-window", "--cooldown"):
            assert flag not in listed
        with pytest.raises(SystemExit) as usage:
            build_parser().parse_args(["runtime", "--adaptive"])
        assert usage.value.code == 2

    def test_documented_command_lines_parse(self):
        lines = documented_command_lines()
        assert len(lines) >= 12, "the README and the verify skill show the CLI"
        for where, argv in lines:
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"{where}: `python -m repro {' '.join(argv)}` is not accepted")


class TestCommands:
    def test_cost_command(self, capsys):
        out = run_cli(capsys, "cost", "--rho", "0.25", "--ssigma", "0.2", "--s1", "0.1")
        assert "state-slice" in out
        assert "memory vs pull-up" in out

    def test_table_command(self, capsys):
        out = run_cli(capsys, "table", "2")
        assert "Queue" in out
        assert "a1" in out

    def test_chains_command(self, capsys):
        out = run_cli(
            capsys,
            "chains",
            "--queries",
            "12",
            "--windows",
            "small-large",
            "--csys",
            "4.0",
        )
        assert "Mem-Opt chain (12 slices)" in out
        assert "CPU-Opt chain" in out

    def test_compare_command(self, capsys):
        out = run_cli(
            capsys,
            "compare",
            "--rate",
            "20",
            "--time-scale",
            "0.05",
            "--s1",
            "0.1",
        )
        assert "state-slice" in out
        assert "selection-pullup" in out

    def test_compare_labels_no_probe(self, capsys):
        """The state-slice strategies run the one probe: no probe kind
        appears in the configuration label."""
        out = run_cli(capsys, "compare", "--rate", "15", "--time-scale", "0.05")
        assert "probe=" not in out
        assert "state-slice-cpu-opt" in out

    def test_figure_11_command(self, capsys):
        out = run_cli(capsys, "figure", "11")
        assert "Figure 11(a)" in out
        assert "S1=0.4" in out

    def test_figure_17_command(self, capsys):
        out = run_cli(
            capsys,
            "figure",
            "17",
            "--panels",
            "b",
            "--rates",
            "20",
            "--time-scale",
            "0.05",
        )
        assert "Figure 17(b)" in out
        assert "state-slice" in out

    def test_figure_19_command(self, capsys):
        out = run_cli(
            capsys,
            "figure",
            "19",
            "--panels",
            "c",
            "--rates",
            "20",
            "--time-scale",
            "0.04",
        )
        assert "Figure 19(c)" in out
        assert "slices" in out


class TestOptimizeCommand:
    def test_optimize_nested_loop(self, capsys):
        out = run_cli(
            capsys,
            "optimize",
            "--queries",
            "12",
            "--windows",
            "small-large",
            "--csys",
            "4.0",
        )
        assert "Mem-Opt chain" in out
        assert "CPU-Opt chain" in out
        assert "nested loops" in out
        assert "CPU (cmp/s)" in out

    def test_optimize_prices_the_nested_loop_only(self, capsys):
        """The cost model has one probe term: the paper's nested loop."""
        out = run_cli(
            capsys, "optimize", "--queries", "3", "--windows", "uniform", "--s1", "0.1"
        )
        assert "probe model: nested loops" in out
        assert "hash" not in out


class TestRuntimeCommand:
    def test_runtime_demo(self, capsys):
        out = run_cli(
            capsys, "runtime", "--duration", "8", "--rate", "10", "--seed", "5"
        )
        assert "StreamEngine demo" in out
        assert "final chain" in out

    def test_runtime_stats_and_adaptive(self, capsys):
        out = run_cli(
            capsys,
            "runtime",
            "--duration",
            "16",
            "--rate",
            "20",
            "--stats",
        )
        assert "engine stats:" in out
        assert "migration history:" in out

    def test_runtime_count_windows_with_stats(self, capsys):
        out = run_cli(
            capsys,
            "runtime",
            "--duration",
            "8",
            "--rate",
            "12",
            "--window-kind",
            "count",
            "--windows",
            "6",
            "3",
            "--stats",
        )
        assert "count windows" in out
        assert "engine stats:" in out

    def test_runtime_count_windows_under_a_budget_report_rows(self, capsys):
        """A count session's tier is the cold prefix too: the report counts
        evicted *rows*, and the window unit comes from the chain class."""
        out = run_cli(
            capsys,
            "runtime",
            "--duration",
            "8",
            "--rate",
            "40",
            "--window-kind",
            "count",
            "--windows",
            "200",
            "50",
            "--memory-budget",
            "64K",
            "--stats",
        )
        assert "+Q1 (window 200 rows)" in out and "Q2: window 50 rows" in out
        spill = next(line for line in out.splitlines() if line.startswith("spill:"))
        assert "budget 65536 B, 2 segments written" in spill  # one log per stream
        assert " row evictions, " in spill and "slice" not in spill
        assert " 0 row evictions" not in spill and "spilled 0 B" not in spill

    def test_runtime_sharded_with_stats(self, capsys):
        out = run_cli(
            capsys,
            "runtime",
            "--duration",
            "8",
            "--rate",
            "20",
            "--shards",
            "3",
            "--stats",
        )
        assert "3 serial shard(s)" in out
        assert "ShardedStreamEngine[3x serial" in out
        assert "aggregated across shards" in out
        # The skew shares must state the modulus they were measured under
        # (ambiguous after any reshard otherwise).
        assert "per-shard arrivals (measured under modulus 3" in out

    def test_runtime_reshard_once_mid_stream(self, capsys):
        out = run_cli(
            capsys,
            "runtime",
            "--duration",
            "10",
            "--rate",
            "20",
            "--shards",
            "2",
            "--reshard",
            "4",
            "--stats",
        )
        assert "reshard 2->4" in out
        assert "reshard history:" in out
        assert "operator request (--reshard)" in out
        assert "per-shard arrivals (measured under modulus 4" in out

    def test_runtime_reshard_takes_a_shard_count_only(self, capsys):
        # The shard count is the caller's: there is no sizing policy to ask.
        with pytest.raises(SystemExit) as refusal:
            main(["runtime", "--reshard", "auto", "--duration", "4"])
        assert refusal.value.code == 2
        capsys.readouterr()
        out = run_cli(
            capsys,
            "runtime",
            "--duration",
            "8",
            "--rate",
            "20",
            "--shards",
            "2",
            "--reshard",
            "4",
        )
        assert "reshard 2->4" in out

    def test_runtime_reshard_rejects_garbage(self):
        with pytest.raises(SystemExit):
            main(["runtime", "--reshard", "bogus", "--duration", "4"])
        with pytest.raises(SystemExit):
            main(["runtime", "--reshard", "0", "--duration", "4"])

    def test_runtime_sharded_rejects_count_windows(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "runtime",
                    "--shards",
                    "2",
                    "--window-kind",
                    "count",
                    "--duration",
                    "4",
                ]
            )

    def test_runtime_sharded_rejects_adaptive(self):
        with pytest.raises(SystemExit):
            main(["runtime", "--shards", "2", "--adaptive", "--duration", "4"])
