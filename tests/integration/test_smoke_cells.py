"""The smoke scenario table (``benchmarks/run_smoke.py``) as a tier-1 gate.

Every cell runs in a fresh interpreter, so each one reproduces its
baseline on its own, not only after the cells before it.  The subprocess
inherits the environment, so a run under ``REPRO_MODMATH=gmpy2`` gates
every cell on that backend against the committed pure-python baselines.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
BENCH = REPO / "benchmarks"

sys.path.insert(0, str(BENCH))
import run_smoke  # noqa: E402

ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])
    ),
}

_GATE_ONE = (
    "import pathlib, sys; sys.path.insert(0, sys.argv[1]); import run_smoke; "
    "drift = run_smoke.gate(sys.argv[2], *map(pathlib.Path, sys.argv[3:])); "
    "print('DRIFTED', drift); raise SystemExit(1 if drift else 0)"
)


def _gate(bench_dir: pathlib.Path, cell: str, *out: pathlib.Path):
    return subprocess.run(
        [sys.executable, "-c", _GATE_ONE, str(bench_dir), cell, *map(str, out)],
        env=ENV,
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize("cell", [c.name for c in run_smoke.CELLS])
def test_cell_reproduces_committed_baseline(cell, tmp_path):
    run = _gate(BENCH, cell, tmp_path)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert list(tmp_path.glob("BENCH_*.json")), "no fresh report written"


def _bench_copy(tmp_path: pathlib.Path) -> pathlib.Path:
    """The harness plus the range cell's committed baselines, to perturb."""
    bench = tmp_path / "benchmarks"
    (bench / "reports").mkdir(parents=True)
    for name in (
        "run_smoke.py",
        "_harness.py",
        "reports/BENCH_range.json",
        "reports/AUDIT_range.jsonl",
    ):
        shutil.copy(BENCH / name, bench / name)
    return bench


def test_drifted_baseline_fails_on_every_run(tmp_path):
    bench = _bench_copy(tmp_path)
    baseline = bench / "reports" / "BENCH_range.json"
    report = json.loads(baseline.read_text())
    report["planner"]["planner.dedup_saved"] += 1
    baseline.write_text(json.dumps(report, indent=2) + "\n")
    perturbed = baseline.read_bytes()

    # Default --out: a gate that overwrote its baseline would pass run two.
    for attempt in (1, 2):
        run = _gate(bench, "range")
        assert run.returncode == 1, f"run {attempt} passed a drifted baseline"
        assert "planner.planner.dedup_saved" in run.stdout
        assert baseline.read_bytes() == perturbed
    assert (bench / "reports" / "fresh" / "BENCH_range.json").exists()


def test_drifted_audit_record_fails_on_every_run(tmp_path):
    bench = _bench_copy(tmp_path)
    audit = bench / "reports" / "AUDIT_range.jsonl"
    lines = audit.read_text().splitlines()
    record = json.loads(lines[2])
    record["gas"] += 1
    lines[2] = json.dumps(record, sort_keys=True)
    audit.write_text("\n".join(lines) + "\n")
    perturbed = audit.read_bytes()

    for attempt in (1, 2):
        run = _gate(bench, "range")
        assert run.returncode == 1, f"run {attempt} passed a drifted audit log"
        assert "DRIFTED ['AUDIT_range.jsonl:line 3']" in run.stdout
        assert audit.read_bytes() == perturbed


def test_full_gate_leaves_committed_reports_untouched():
    if shutil.which("git") is None or not (REPO / ".git").exists():
        pytest.skip("needs a git checkout")

    def status() -> str:
        return subprocess.run(
            ["git", "status", "--porcelain", "--", "benchmarks/reports"],
            cwd=REPO,
            capture_output=True,
            text=True,
            check=True,
        ).stdout

    before = status()
    run = subprocess.run(
        [sys.executable, str(BENCH / "run_smoke.py")],
        env=ENV,
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert status() == before
