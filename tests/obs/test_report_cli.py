"""The ``python -m repro report`` command over real JSONL artifacts."""

import json

import pytest

from repro.cli import main
from repro.obs.audit import VERDICT_PAID, VERDICT_REFUNDED, SettlementAuditLog
from repro.obs.trace import Tracer


@pytest.fixture()
def audit_file(tmp_path):
    log = SettlementAuditLog()
    log.set_sink(str(tmp_path / "audit.jsonl"))
    log.append(query_id="0", verdict=VERDICT_PAID, tokens_posted=3, gas=120, amount=9)
    log.append(query_id="1", verdict=VERDICT_REFUNDED, tokens_posted=2, gas=90, amount=9)
    return str(tmp_path / "audit.jsonl")


@pytest.fixture()
def trace_file(tmp_path):
    tracer = Tracer(clock=iter(range(100)).__next__)
    tracer.set_sink(str(tmp_path / "trace.jsonl"))
    with tracer.span("search"):
        with tracer.span("submit"):
            tracer.event("fault", kind="drop", step=2)
        with tracer.span("verify_settle"):
            pass
    return str(tmp_path / "trace.jsonl")


class TestReportCommand:
    def test_audit_table_and_totals(self, audit_file, capsys):
        assert main(["report", "--audit", audit_file]) == 0
        out = capsys.readouterr().out
        assert "paid" in out and "refunded" in out
        assert "2 records" in out
        assert "gas 210" in out

    def test_verdict_filter(self, audit_file, capsys):
        assert main(["report", "--audit", audit_file, "--verdict", "paid"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if line.lstrip().startswith(("0", "1"))]
        assert len(rows) == 1

    def test_trace_tree_rendering(self, trace_file, capsys):
        assert main(["report", "--trace", trace_file]) == 0
        out = capsys.readouterr().out
        assert "search" in out
        # children indented under the root
        assert "  submit" in out and "  verify_settle" in out
        # fault events rendered inline
        assert "fault" in out and "kind=drop" in out

    def test_combined_json_summary(self, audit_file, trace_file, capsys):
        assert main(["report", "--audit", audit_file, "--trace", trace_file, "--json"]) == 0
        out = capsys.readouterr().out
        decoder = json.JSONDecoder()
        chunks, pos = [], 0
        while pos < len(out.rstrip()):
            obj, end = decoder.raw_decode(out, pos)
            chunks.append(obj)
            pos = end + 1  # skip the newline joining the summaries
        audit_summary, trace_summary = chunks
        assert audit_summary["records"] == 2
        assert trace_summary["spans"] == 3 and trace_summary["traces"] == 1

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["report", "--audit", missing]) == 1
        assert "cannot render report" in capsys.readouterr().err

    def test_truncated_audit_fails_loudly(self, audit_file, capsys):
        lines = open(audit_file).read().strip().splitlines()
        with open(audit_file, "w") as handle:
            handle.write(lines[1] + "\n")  # drop seq 0: a gap
        assert main(["report", "--audit", audit_file]) == 1
        assert "gap" in capsys.readouterr().err

    def test_no_inputs_prints_hint(self, capsys):
        assert main(["report"]) == 0
        assert "nothing to report" in capsys.readouterr().out


@pytest.fixture()
def metrics_file(tmp_path):
    path = tmp_path / "BENCH_fake.json"
    path.write_text(json.dumps({
        "counters": {
            "cloud.entry_cache.hit": 9,
            "cloud.entry_cache.miss": 3,
            "cloud.entry_cache.spliced_entries": 42,
            "cloud.entry_cache.evicted": 1,
            "cloud.collect.index_probes": 17,
            "batch.unique_tokens": 5,
            "batch.dedup_saved": 7,
        }
    }))
    return str(path)


class TestMetricsSection:
    def test_cache_table_and_savings(self, metrics_file, capsys):
        assert main(["report", "--metrics", metrics_file]) == 0
        out = capsys.readouterr().out
        assert "cloud.entry_cache" in out and "0.75" in out
        assert "spliced 42 entries" in out
        assert "17 index probes" in out
        assert "5 unique tokens" in out and "7 duplicate collections" in out

    def test_never_consulted_cache_shows_na(self, metrics_file, capsys):
        """A known cache with zero hits and misses renders as n/a, not 0.00 —
        never-asked is a different finding than always-missing."""
        assert main(["report", "--metrics", metrics_file]) == 0
        out = capsys.readouterr().out
        # hash_to_prime is a known cache the fixture never consults.
        memo_row = next(
            line for line in out.splitlines() if line.startswith("hash_to_prime")
        )
        assert "n/a" in memo_row

    def test_json_stats(self, metrics_file, capsys):
        assert main(["report", "--metrics", metrics_file, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["cloud.entry_cache"]["hits"] == 9
        assert stats["cloud.entry_cache"]["hit_rate"] == 0.75
        assert stats["cloud.entry_cache"]["evicted"] == 1
        assert stats["hash_to_prime"]["hit_rate"] is None

    def test_raw_counter_dict_accepted(self, tmp_path, capsys):
        path = tmp_path / "counters.json"
        path.write_text(json.dumps({"cloud.entry_cache.hit": 1, "cloud.entry_cache.miss": 1}))
        assert main(["report", "--metrics", str(path)]) == 0
        assert "0.50" in capsys.readouterr().out

    def test_non_counter_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"counters": {"x": "not-an-int"}}))
        assert main(["report", "--metrics", str(path)]) == 1
        assert "not a counter snapshot" in capsys.readouterr().err


class TestBlockSettlementTable:
    def test_per_block_table_rendered_for_block_ledgers(self, tmp_path, capsys):
        log = SettlementAuditLog()
        log.set_sink(str(tmp_path / "blocks.jsonl"))
        log.append(query_id="0", verdict=VERDICT_PAID, gas=100, amount=9, block=3)
        log.append(query_id="1", verdict=VERDICT_REFUNDED, gas=90, amount=9, block=3)
        log.append(query_id="2", verdict=VERDICT_PAID, gas=110, amount=9, block=5)
        assert main(["report", "--audit", str(tmp_path / "blocks.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "settlements by block:" in out
        lines = [l for l in out.splitlines() if l.strip().startswith(("3", "5"))]
        # block 3: two settlements (one paid, one refunded), block 5: one.
        row3 = next(l for l in lines if l.split()[0] == "3")
        assert row3.split()[1:5] == ["2", "1", "1", "190"]
        row5 = next(l for l in lines if l.split()[0] == "5")
        assert row5.split()[1:5] == ["1", "1", "0", "110"]

    def test_sync_ledger_gets_no_block_section(self, audit_file, capsys):
        assert main(["report", "--audit", audit_file]) == 0
        assert "settlements by block:" not in capsys.readouterr().out
