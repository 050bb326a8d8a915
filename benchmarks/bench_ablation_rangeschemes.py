"""Ablation — the range-search design space Slicer sits in.

Four ways to answer ``lo <= a <= hi`` over outsourced encrypted data, all
implemented in this repository, measured on one workload:

| scheme | tokens | verifiable | value privacy at verification |
|---|---|---|---|
| keyword SSE + enumeration | O(range width) | no | n/a |
| dyadic range-tree SSE | O(b) | no | n/a |
| ServeDB-style Merkle tree | O(b) nodes | yes | **values leak** |
| Slicer (SORE + accumulator) | O(b) | yes, publicly | preserved |

The bench measures token counts, index blowup, VO sizes and the privacy
leak surface, asserting the qualitative table above.
"""

from __future__ import annotations

import pytest

from _harness import touch_benchmark, write_report
from repro.analysis.reporting import render_kv_table
from repro.baselines.keyword_sse import KeywordSse
from repro.baselines.range_tree_sse import RangeTreeSse
from repro.baselines.servedb import ServeDbIndex, ServeDbVerifier
from repro.common.rng import default_rng
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.params import KeyBundle, SlicerParams
from repro.core.query import Range
from repro.core.records import Database
from repro.core.user import DataUser
from repro.core.verify import verify_response

BITS = 8
N = 120
LO, HI = 40, 180

RECORDS = [((7919 * i % 1000).to_bytes(8, "big"), (i * 37) % 256) for i in range(N)]
EXPECTED = {rid for rid, v in RECORDS if LO <= v <= HI}

_ROWS: dict[str, str] = {}


def test_ablation_keyword_enumeration(benchmark):
    sse = KeywordSse(default_rng(1), trapdoor_bits=512)
    sse.insert_values(RECORDS)
    ids, tokens = benchmark.pedantic(
        lambda: sse.range_search_by_enumeration(LO, HI), rounds=1, iterations=1
    )
    assert ids == EXPECTED
    _ROWS["keyword-SSE enumeration tokens"] = str(tokens)
    assert tokens > 4 * BITS  # the infeasibility gap


def test_ablation_range_tree(benchmark):
    tree = RangeTreeSse(BITS, default_rng(2), trapdoor_bits=512)
    tree.insert_values(RECORDS)
    ids, tokens = benchmark.pedantic(
        lambda: tree.range_search(LO, HI), rounds=1, iterations=1
    )
    assert ids == EXPECTED
    _ROWS["range-tree SSE tokens"] = str(tokens)
    _ROWS["range-tree SSE index entries"] = str(tree.index_entries)
    assert tokens <= 2 * BITS


def test_ablation_servedb(benchmark):
    index = ServeDbIndex(RECORDS, BITS, default_rng(3))
    verifier = ServeDbVerifier(index.root, BITS)
    response = benchmark.pedantic(lambda: index.query(LO, HI), rounds=1, iterations=1)
    assert verifier.verify(LO, HI, response)
    got = {index.cipher.decrypt(c) for n in response.nodes for c in n.ciphertexts}
    assert got == EXPECTED
    _ROWS["ServeDB VO bytes"] = str(response.vo_bytes)
    _ROWS["ServeDB values revealed to verifier"] = str(len(response.revealed_values))
    assert response.revealed_values  # the privacy leak


def test_ablation_slicer(benchmark):
    params = SlicerParams.testing(value_bits=BITS)
    keys = KeyBundle.generate(default_rng(4), 512)
    owner = DataOwner(params, keys=keys, rng=default_rng(5))
    db = Database(BITS)
    for rid, v in RECORDS:
        db.add(rid, v)
    out = owner.build(db)
    cloud = CloudServer(params, keys.trapdoor.public)
    cloud.install(out.cloud_package)
    user = DataUser(params, out.user_package, default_rng(6))

    def run():
        sides = []
        total_tokens = 0
        vo_bytes = 0
        for query in Range(LO, HI).to_queries(BITS):
            tokens = user.make_tokens(query)
            total_tokens += len(tokens)
            response = cloud.search(tokens)
            vo_bytes += response.witness_bytes
            assert verify_response(params, cloud.ads_value, response).ok
            sides.append(user.decrypt_results(response))
        return set.intersection(*sides), total_tokens, vo_bytes

    ids, tokens, vo_bytes = benchmark.pedantic(run, rounds=1, iterations=1)
    assert ids == EXPECTED
    _ROWS["Slicer tokens (two-sided)"] = str(tokens)
    _ROWS["Slicer VO bytes"] = str(vo_bytes)
    _ROWS["Slicer index entries"] = str(len(out.cloud_package.index))
    _ROWS["Slicer values revealed to verifier"] = "0"
    assert tokens <= 2 * BITS


def test_ablation_rangeschemes_report(benchmark):
    touch_benchmark(benchmark)
    rows = [("Scheme / metric", "value")] + sorted(_ROWS.items())
    write_report(
        "ablation_rangeschemes",
        render_kv_table("Ablation: range-search design space", rows),
        data={"metrics": dict(sorted(_ROWS.items()))},
    )
    # The qualitative claims of the comparison table:
    if "keyword-SSE enumeration tokens" in _ROWS and "Slicer tokens (two-sided)" in _ROWS:
        assert int(_ROWS["keyword-SSE enumeration tokens"]) > int(
            _ROWS["Slicer tokens (two-sided)"]
        )
    if "ServeDB values revealed to verifier" in _ROWS:
        assert int(_ROWS["ServeDB values revealed to verifier"]) > 0
