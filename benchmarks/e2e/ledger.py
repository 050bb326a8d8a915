"""Outside-in tracing: spans around each layer's public functions.

The benchmark wraps the public entry points of every layer from here, so no
file of the program changes to be measured.  A span records its name, start,
end, parent and the op it belongs to; spans stay in memory and are written
as ``TRACE_<workload>.jsonl`` when the run ends.  A layer's self time is its
spans' duration minus the part covered by child spans.

``CloudServer`` spans are split three ways with the server's own stopwatch:
the ``results`` delta is the collection walk, the ``vo`` delta is witness
generation, and the remainder is front-end work.  ``DataOwner.insert`` spans
carry the owner's ``index`` / ``ads`` stopwatch deltas the same way, as a
split of ``owner.insert`` rather than separate layers.
"""

from __future__ import annotations

import functools
import json
import time

from repro.blockchain.block_builder import BlockBuilder
from repro.blockchain.chain import Blockchain
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.user import DataUser
from repro.sharding.frontend import ShardedCloudFrontend
from repro.system import SlicerSystem

#: Contract method -> the layer its transaction belongs to.
CHAIN_LAYERS = {
    "submit_query": "chain.submit",
    "verify_and_settle": "chain.verify_settle",
    "batch_verify_and_settle": "chain.verify_settle",
    "update_ads": "chain.update_ads",
}

#: (class, method, span name).  Chain calls are named by contract method.
TARGETS = [
    (SlicerSystem, "setup", "system.setup"),
    (SlicerSystem, "search", "system.search"),
    (SlicerSystem, "batch_search", "system.batch_search"),
    (SlicerSystem, "search_plans", "system.search_plans"),
    (SlicerSystem, "insert", "system.insert"),
    (DataUser, "make_tokens", "user.make_tokens"),
    (DataUser, "decrypt_results", "user.decrypt_results"),
    (DataOwner, "build", "owner.build"),
    (DataOwner, "insert", "owner.insert"),
    (Blockchain, "call", "chain.call"),
    (Blockchain, "deploy", "chain.deploy"),
    (Blockchain, "mine", "chain.mine"),
    (BlockBuilder, "execute_now", "builder.execute_now"),
    (BlockBuilder, "seal_block", "builder.seal_block"),
    (CloudServer, "search", "cloud.search"),
    (CloudServer, "search_many", "cloud.search_many"),
    (CloudServer, "install", "cloud.install"),
    (CloudServer, "precompute_witnesses", "cloud.precompute_witnesses"),
    (ShardedCloudFrontend, "search", "frontend.search"),
    (ShardedCloudFrontend, "search_many", "frontend.search_many"),
    (ShardedCloudFrontend, "install_shards", "frontend.install_shards"),
    (ShardedCloudFrontend, "precompute_witnesses", "frontend.precompute_witnesses"),
]

#: Span name -> layer.  Names missing here are chain calls (see
#: :data:`CHAIN_LAYERS`) or cloud searches (split by stopwatch).
LAYER_OF = {
    "system.setup": "system.self",
    "system.search": "system.self",
    "system.batch_search": "system.self",
    "system.search_plans": "system.self",
    "system.insert": "system.self",
    "user.make_tokens": "user.tokens",
    "user.decrypt_results": "user.decrypt",
    "owner.build": "owner.build",
    "owner.insert": "owner.insert",
    "chain.deploy": "chain.deploy",
    "chain.mine": "chain.mine",
    "builder.seal_block": "chain.verify_settle",
    "cloud.install": "cloud.install",
    "frontend.install_shards": "cloud.install",
    "cloud.precompute_witnesses": "cloud.precompute",
    "frontend.precompute_witnesses": "cloud.precompute",
    "frontend.search": "cloud.frontend",
    "frontend.search_many": "cloud.frontend",
}

_CLOUD_SEARCH = ("cloud.search", "cloud.search_many")
_CHAIN_CALL = ("chain.call", "builder.execute_now")

#: Traced ops of each kind whose spans go to the TRACE file (see ``write``).
TRACE_OPS_PER_KIND = 10


def _method_of(args: tuple, kwargs: dict) -> str:
    return args[2] if len(args) > 2 else kwargs.get("method", "?")


class Ledger:
    """Span recorder plus the patches that feed it.

    :meth:`install` / :meth:`uninstall` swap the wrappers in and out, so a
    traced run can alternate traced and untraced ops and measure what the
    tracing itself costs.  Targets a refactor removed are skipped and
    listed in :attr:`missing`; the coverage check then shows the time they
    no longer account for.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.op_id: int | None = None
        self.op_kind: str | None = None
        self.t0 = time.perf_counter()
        self._stack: list[int] = []
        self._originals: list[tuple[type, str, object]] = []
        self._wrappers: list[tuple[type, str, object]] = []
        for cls, attr, name in TARGETS:
            original = cls.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{cls.__name__}.{attr}")
                continue
            self._originals.append((cls, attr, original))
            self._wrappers.append((cls, attr, self._wrap(original, name)))

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        for cls, attr, wrapper in self._wrappers:
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for cls, attr, original in self._originals:
            setattr(cls, attr, original)

    def _wrap(self, fn, name: str):
        by_method = name in _CHAIN_CALL

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            label = f"{name}:{_method_of(args, kwargs)}" if by_method else name
            return self._call(label, fn, obj, args, kwargs)

        return wrapper

    def _call(self, name: str, fn, obj, args, kwargs):
        stopwatch = getattr(obj, "stopwatch", None)
        before = dict(stopwatch.durations) if stopwatch is not None else None
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = {"id": sid, "parent": parent, "name": name, "op": self.op_id, "kind": self.op_kind}
        self.spans.append(span)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(obj, *args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span["start"] = start - self.t0
            span["end"] = end - self.t0
        if before is not None:
            span["sw"] = {
                k: v - before.get(k, 0.0)
                for k, v in stopwatch.durations.items()
                if v != before.get(k, 0.0)
            }
        gas = getattr(result, "gas_used", None)
        if name.startswith("chain.call:") and gas is not None:
            span["gas"] = gas
        return result

    # ------------------------------------------------------------- ledger

    def self_times(self, kinds: tuple[str, ...]) -> dict[str, float]:
        """Seconds of self time per layer over spans of the given op kinds."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        out: dict[str, float] = {}
        for span in self.spans:
            if span["kind"] not in kinds:
                continue
            self_s = span["end"] - span["start"] - child_time[span["id"]]
            for layer, seconds in self._split(span, self_s):
                out[layer] = out.get(layer, 0.0) + seconds
        return out

    @staticmethod
    def _split(span: dict, self_s: float) -> list[tuple[str, float]]:
        name = span["name"]
        if name in _CLOUD_SEARCH:
            sw = span.get("sw", {})
            results, vo = sw.get("results", 0.0), sw.get("vo", 0.0)
            return [
                ("cloud.results", results),
                ("cloud.vo", vo),
                ("cloud.frontend", self_s - results - vo),
            ]
        if name.startswith(_CHAIN_CALL):
            method = name.split(":", 1)[1]
            return [(CHAIN_LAYERS.get(method, "chain.other"), self_s)]
        return [(LAYER_OF.get(name, name), self_s)]

    def stopwatch_total(self, span_name: str, label: str, kinds: tuple[str, ...]) -> float:
        """Summed stopwatch delta ``label`` over spans named ``span_name``."""
        return sum(
            s.get("sw", {}).get(label, 0.0)
            for s in self.spans
            if s["name"] == span_name and s["kind"] in kinds
        )

    def gas(self, layer: str, kinds: tuple[str, ...]) -> int:
        """Gas of every chain call of ``layer`` within the given op kinds."""
        return sum(
            s.get("gas", 0)
            for s in self.spans
            if s["kind"] in kinds
            and s["name"].startswith("chain.call:")
            and CHAIN_LAYERS.get(s["name"].split(":", 1)[1]) == layer
        )

    def write(self, path) -> None:
        """One JSON line per span, times in milliseconds from the run start.

        The file keeps every set-up span and the spans of the first
        ``TRACE_OPS_PER_KIND`` traced ops of each kind, which shows every op
        shape at a size fit to commit; the ledger itself uses every span.
        """
        kept: dict[str, set] = {}
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                ops = kept.setdefault(span["kind"], set())
                if span["kind"] != "setup" and span["op"] not in ops:
                    if len(ops) >= TRACE_OPS_PER_KIND:
                        continue
                    ops.add(span["op"])
                record = dict(span)
                record["start"] = round(span["start"] * 1e3, 4)
                record["end"] = round(span["end"] * 1e3, 4)
                if "sw" in record:
                    record["sw"] = {k: round(v * 1e3, 4) for k, v in record["sw"].items()}
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")
