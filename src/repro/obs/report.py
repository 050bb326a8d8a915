"""``python -m repro report`` — render JSONL trace and audit artifacts.

The observability layer emits two kinds of append-only JSONL files: span
records from :mod:`repro.obs.trace` and settlement records from
:mod:`repro.obs.audit`.  This module turns them back into something a
human (or a CI log reader) can audit:

* ``repro report --audit AUDIT.jsonl`` — the settlement ledger as a table
  plus verdict/gas/escrow totals, with ``--verdict`` filtering;
* ``repro report --trace TRACE.jsonl`` — span trees, one per trace id,
  children indented under parents with durations and fault/retry events;
* ``repro report --metrics BENCH.json`` — cache effectiveness from a saved
  counter snapshot (a ``BENCH_*.json`` report or a raw counter dict): hit
  rates per cache family ("n/a" when never consulted), epoch-suffix splice
  savings, and cross-query batch dedup.

Both accept multiple files and can be combined in one invocation; replay
validates audit-sequence contiguity, so a truncated ledger fails loudly
instead of rendering as a shorter, plausible one.
"""

from __future__ import annotations

import json
from typing import Iterable

from .audit import SettlementAuditLog


def _fmt_duration(span: dict) -> str:
    start, end = span.get("start_s"), span.get("end_s")
    if start is None or end is None:
        return "?"
    return f"{end - start:.6f}s"


def load_spans(path: str) -> list[dict]:
    """Span records from a JSONL trace file (non-span lines are skipped)."""
    spans: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            if data.get("type") == "span":
                spans.append(data)
    return spans


def trace_trees(spans: Iterable[dict]) -> dict[str, list[dict]]:
    """Group spans by trace id, each list in emission (finish) order."""
    trees: dict[str, list[dict]] = {}
    for span in spans:
        trees.setdefault(span["trace_id"], []).append(span)
    return trees


def render_trace(spans: list[dict]) -> list[str]:
    """Indented span trees, children under parents, events inline."""
    lines: list[str] = []
    by_parent: dict[str | None, list[dict]] = {}
    by_id = {s["span_id"]: s for s in spans}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None and parent not in by_id:
            parent = None  # orphan (parent span in another file): treat as root
        by_parent.setdefault(parent, []).append(span)

    def walk(span: dict, depth: int) -> None:
        indent = "  " * depth
        status = span.get("status", "ok")
        flag = "" if status == "ok" else f"  [{status}]"
        lines.append(f"{indent}{span['name']}  ({_fmt_duration(span)}){flag}")
        for event in span.get("events", ()):
            detail = ", ".join(
                f"{k}={v}" for k, v in sorted(event.items()) if k != "event"
            )
            suffix = f": {detail}" if detail else ""
            lines.append(f"{indent}  · {event['event']}{suffix}")
        for child in by_parent.get(span["span_id"], ()):
            walk(child, depth + 1)

    for trace_id, tree in sorted(trace_trees(spans).items()):
        lines.append(f"trace {trace_id}  ({len(tree)} spans)")
        roots = [s for s in by_parent.get(None, ()) if s["trace_id"] == trace_id]
        # Roots finish last in emission order; show them first-started first.
        for root in sorted(roots, key=lambda s: s.get("start_s") or 0.0):
            walk(root, 1)
        lines.append("")
    return lines


def render_audit(log: SettlementAuditLog, verdict: str | None = None) -> list[str]:
    """The settlement ledger as an aligned table plus totals."""
    records = log.records(verdict)
    lines: list[str] = []
    header = f"{'seq':>4}  {'query_id':<14} {'verdict':<9} {'tokens':>6} {'results':>7} {'gas':>8} {'amount':>7}  detail"
    lines.append(header)
    lines.append("-" * len(header))
    for r in records:
        lines.append(
            f"{r.seq:>4}  {r.query_id:<14} {r.verdict:<9} {r.tokens_posted:>6} "
            f"{r.result_count:>7} {r.gas:>8} {r.amount:>7}  {r.detail or ''}"
        )
    totals = log.totals()
    lines.append("")
    lines.append(
        "totals: {records} records — paid {paid}, refunded {refunded}, degraded "
        "{degraded}; gas {gas_total}, escrow paid out {paid_out}, escrow "
        "refunded {refunded_amt}".format(
            records=totals["records"],
            paid=totals["verdicts"]["paid"],
            refunded=totals["verdicts"]["refunded"],
            degraded=totals["verdicts"]["degraded"],
            gas_total=totals["gas_total"],
            paid_out=totals["paid_out"],
            refunded_amt=totals["refunded"],
        )
    )
    lines.extend(render_block_settlements(records))
    return lines


def render_block_settlements(records) -> list[str]:
    """Per-block settlement table for block-mode ledgers.

    Block-settled records carry the height they landed at in
    ``extra["block"]``; grouping them shows the batching the mempool
    actually achieved (settlements per block, verdict split, gas).  Ledgers
    from synchronous runs have no height-stamped records and get no
    section — the table never renders empty.
    """
    by_block: dict[int, list] = {}
    for r in records:
        height = r.extra.get("block")
        if height is not None:
            by_block.setdefault(int(height), []).append(r)
    if not by_block:
        return []
    lines = ["", "settlements by block:"]
    header = f"{'block':>6} {'settled':>8} {'paid':>5} {'refunded':>9} {'gas':>9}  seqs"
    lines.append(header)
    lines.append("-" * len(header))
    for height in sorted(by_block):
        group = by_block[height]
        paid = sum(1 for r in group if r.verdict == "paid")
        refunded = sum(1 for r in group if r.verdict == "refunded")
        seqs = ",".join(str(r.seq) for r in group)
        lines.append(
            f"{height:>6} {len(group):>8} {paid:>5} {refunded:>9} "
            f"{sum(r.gas for r in group):>9}  {seqs}"
        )
    return lines


#: Cache families always listed in the metrics section, even at zero
#: consultations — a hot path that *never asked* its cache is itself a
#: finding ("n/a" hit rate), invisible if rows only appear on activity.
KNOWN_CACHES = (
    "cloud.entry_cache",
    "hash_to_prime",
)


def load_counters(path: str) -> dict[str, int]:
    """Counter snapshot from a saved report.

    Accepts either a ``BENCH_*.json`` twin (counters under a ``"counters"``
    key) or a raw ``{counter_name: value}`` dict.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    counters = data.get("counters", data) if isinstance(data, dict) else None
    if not isinstance(counters, dict) or not all(
        isinstance(v, int) for v in counters.values()
    ):
        raise ValueError(f"{path}: not a counter snapshot")
    return counters


def cache_stats(counters: dict[str, int]) -> dict[str, dict]:
    """Per-family hit/miss/eviction stats from a counter snapshot.

    Families are every ``<prefix>.hit`` / ``<prefix>.miss`` pair present,
    plus :data:`KNOWN_CACHES`.  ``hit_rate`` is ``None`` when the cache was
    never consulted (rendered as "n/a"), distinct from a measured 0.0.
    """
    families = set(KNOWN_CACHES)
    for key in counters:
        for suffix in (".hit", ".miss"):
            if key.endswith(suffix):
                families.add(key[: -len(suffix)])
    stats: dict[str, dict] = {}
    for family in sorted(families):
        hits = counters.get(f"{family}.hit", 0)
        misses = counters.get(f"{family}.miss", 0)
        consulted = hits + misses
        stats[family] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / consulted if consulted else None,
            "evicted": counters.get(f"{family}.evicted", 0),
        }
    return stats


def render_cache_stats(counters: dict[str, int]) -> list[str]:
    """The cache-effectiveness section: hit rates plus splice/dedup savings."""
    stats = cache_stats(counters)
    header = f"{'cache':<24} {'hits':>8} {'misses':>8} {'rate':>6} {'evicted':>8}"
    lines = [header, "-" * len(header)]
    for family, s in stats.items():
        rate = "n/a" if s["hit_rate"] is None else f"{s['hit_rate']:.2f}"
        lines.append(
            f"{family:<24} {s['hits']:>8} {s['misses']:>8} {rate:>6} {s['evicted']:>8}"
        )
    spliced = counters.get("cloud.entry_cache.spliced_entries", 0)
    probes = counters.get("cloud.collect.index_probes", 0)
    lines.append("")
    lines.append(
        f"entry cache spliced {spliced} entries from cached epoch suffixes "
        f"({probes} index probes paid for fresh epochs)"
    )
    unique = counters.get("batch.unique_tokens", 0)
    saved = counters.get("batch.dedup_saved", 0)
    if unique or saved:
        lines.append(
            f"batched search: {unique} unique tokens collected, "
            f"{saved} duplicate collections saved by cross-query dedup"
        )
    return lines


def render_primality_stats(counters: dict[str, int]) -> list[str]:
    """The backend/primality section: ``H_prime`` pipeline cost accounting.

    The ``hprime.*`` counters are value-deterministic (functions of the
    candidate integers, identical on every modmath backend), so this section
    reads the same from a pure-python or a gmpy2 run — only wall-clock
    differs between backends.
    """
    from ..crypto.modmath import backend_info

    candidates = counters.get("hprime.candidates", 0)
    lines: list[str] = []
    info = backend_info()
    backend_line = f"modmath backend: {info['active']} (available: {info['available']})"
    if info["fallback_reason"]:
        backend_line += f" — requested {info['requested']!r}, {info['fallback_reason']}"
    lines.append(backend_line)
    if not candidates:
        lines.append("no H_prime pipeline activity in this snapshot")
        return lines
    fast = counters.get("hprime.fast_rejects", 0)
    mr = counters.get("hprime.mr_rounds", 0)
    lucas = counters.get("hprime.lucas_tests", 0)
    lines.append(
        f"H_prime pipeline: {candidates} candidates, {fast} fast-rejected "
        f"({fast / candidates:.0%} before the witness schedule)"
    )
    lines.append(
        f"  {mr} Miller-Rabin rounds ({mr / candidates:.2f} per candidate), "
        f"{lucas} strong Lucas tests (Baillie-PSW completions)"
    )
    wnaf = counters.get("wnaf.pow", 0)
    if wnaf:
        lines.append(
            f"wNAF witness exponentiations: {wnaf} "
            f"({counters.get('wnaf.table_builds', 0)} table builds)"
        )
    return lines


def run_report(
    audit_paths: list[str],
    trace_paths: list[str],
    metrics_paths: list[str] | None = None,
    verdict: str | None = None,
    as_json: bool = False,
) -> str:
    """The ``repro report`` entry point; returns the rendered text."""
    sections: list[str] = []
    for path in audit_paths:
        log = SettlementAuditLog.load(path)
        if as_json:
            sections.append(json.dumps(log.totals(), sort_keys=True, indent=2))
        else:
            sections.append(f"== settlement audit: {path} ==")
            sections.extend(render_audit(log, verdict))
            sections.append("")
    for path in trace_paths:
        spans = load_spans(path)
        if as_json:
            summary = {
                "spans": len(spans),
                "traces": len(trace_trees(spans)),
                "errors": sum(1 for s in spans if s.get("status") != "ok"),
            }
            sections.append(json.dumps(summary, sort_keys=True, indent=2))
        else:
            sections.append(f"== trace: {path} ==")
            sections.extend(render_trace(spans))
    for path in metrics_paths or []:
        counters = load_counters(path)
        if as_json:
            sections.append(json.dumps(cache_stats(counters), sort_keys=True, indent=2))
        else:
            sections.append(f"== cache effectiveness: {path} ==")
            sections.extend(render_cache_stats(counters))
            sections.append("")
            sections.append(f"== backend / primality: {path} ==")
            sections.extend(render_primality_stats(counters))
            sections.append("")
    if not sections:
        return "nothing to report (pass --audit, --trace and/or --metrics)"
    return "\n".join(sections).rstrip() + "\n"
