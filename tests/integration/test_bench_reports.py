"""Benchmark sweeps write fresh reports, never over the committed ones.

``benchmarks/_harness.write_report`` is what every sweep calls; without an
``out`` it must write under the git-ignored ``reports/fresh/``, so a sweep
at any scale leaves the committed default-scale reports as they are.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import shutil
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]


def test_default_write_report_leaves_committed_reports_untouched(tmp_path, monkeypatch):
    bench = tmp_path / "benchmarks"
    reports = bench / "reports"
    reports.mkdir(parents=True)
    shutil.copy(REPO / "benchmarks" / "_harness.py", bench / "_harness.py")
    (reports / "BENCH_sweep.json").write_text('{"committed": true}\n')
    (reports / "sweep.txt").write_text("committed table\n")

    def committed() -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in reports.iterdir() if p.is_file()}

    before = committed()
    spec = importlib.util.spec_from_file_location("harness_copy", bench / "_harness.py")
    harness = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, harness)  # dataclasses look it up
    spec.loader.exec_module(harness)
    harness.write_report("sweep", "fresh table", data={"rows": [1]})

    assert committed() == before
    fresh = reports / "fresh"
    assert (fresh / "sweep.txt").read_text() == "fresh table\n"
    assert json.loads((fresh / "BENCH_sweep.json").read_text())["rows"] == [1]
