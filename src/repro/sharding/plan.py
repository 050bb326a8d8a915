"""Deterministic keyword -> shard routing and the per-shard package split.

The serving tier splits the encrypted index ``I`` across N independent
:class:`~repro.core.cloud.CloudServer` instances.  The routing key is the
keyword's PRF output ``G1``:

* **stable** — ``G1 = G(K, w||1)`` depends only on the PRF key and the
  keyword, never on the epoch, so a keyword's *entire* trapdoor chain lives
  on exactly one shard and epoch walks never cross shard boundaries;
* **available on both sides** — the owner sees ``G1`` while staging
  Build/Insert (``DataOwner._index_batch``) and the serving
  tier sees it on every :class:`~repro.core.tokens.SearchToken`, so install
  and search route identically without extra state;
* **keyword-blind** — ``G1`` is pseudorandom, so the router learns nothing
  about the keyword beyond what the token already reveals.

What is sharded and what is replicated: the index slice (``O(postings)``)
is sharded; the prime list ``X`` and the accumulation value ``Ac``
(``O(keyword-epochs)`` small integers) are replicated to every shard, so
each shard can produce witnesses over the *full* product — witness values
``g^(prod(X)/p)`` do not depend on which shard computes them, which is what
keeps sharded responses byte-identical to the single-cloud path at any N.
"""

from __future__ import annotations

import hashlib

from ..common.errors import ParameterError, StateError
from ..core.cloud import SearchResponse
from ..core.state import CloudPackage, EncryptedIndex
from ..core.tokens import SearchToken

#: Domain separator for the routing hash — shard ids must not correlate
#: with any other hash of ``G1`` used elsewhere in the protocol.
_ROUTE_DOMAIN = b"repro.shard.route:"


class HashShardPlan:
    """The deterministic router: ``sha256(domain || G1) mod N`` (stable hash).

    Everything downstream (owner splitting, frontend scatter, fault
    channels) consumes the plan through :meth:`shard_of` and ``shards``.
    """

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ParameterError("shard count must be >= 1")
        self.shards = shards

    def shard_of(self, g1: bytes) -> int:
        digest = hashlib.sha256(_ROUTE_DOMAIN + g1).digest()
        return int.from_bytes(digest[:8], "big") % self.shards


def route_tokens(
    plan: HashShardPlan, tokens: list[SearchToken]
) -> tuple[list[int], dict[int, list[SearchToken]]]:
    """Route every token to its home shard by ``G1``.

    Returns the per-token route and the per-shard token slices, in ascending
    shard id and original token order — the request each shard serves.
    """
    route = [plan.shard_of(token.g1) for token in tokens]
    slices: dict[int, list[SearchToken]] = {}
    for sid, token in zip(route, tokens):
        slices.setdefault(sid, []).append(token)
    return route, dict(sorted(slices.items()))


def merge_responses(
    route: list[int], partials: dict[int, SearchResponse]
) -> SearchResponse:
    """Merge per-shard partial responses back into the original token order.

    A pure permutation: a token's result comes from the one shard its route
    names.  A partial whose length does not match its slice is refused.
    """
    for sid, partial in partials.items():
        if len(partial.results) != route.count(sid):
            raise StateError(
                f"shard {sid} answered {len(partial.results)} results "
                f"for {route.count(sid)} tokens"
            )
    cursors = {sid: iter(partial.results) for sid, partial in partials.items()}
    return SearchResponse([next(cursors[sid]) for sid in route])


def split_package(
    plan: HashShardPlan,
    routed: list[tuple[int, list[tuple[bytes, bytes]]]],
    all_primes: list[int],
    accumulation: int,
    witnesses: list[dict[int, int]] | None = None,
) -> list[CloudPackage]:
    """Assemble per-shard packages (indexed by shard id) from routed build output.

    ``routed`` holds one ``(shard_id, entries)`` pair per keyword job, in
    job order — the owner computes the shard id while it still knows each
    entry's keyword (``G1`` is not recoverable from a PRF label).  Every
    shard receives the full ``all_primes`` delta; only the index entries
    are sharded.  ``witnesses`` (owner issued, already grouped by home
    shard) gives each shard the witnesses of the primes its keywords own.
    """
    slices = [EncryptedIndex() for _ in range(plan.shards)]
    for shard_id, entries in routed:
        for label, payload in entries:
            slices[shard_id].put(label, payload)
    return [
        CloudPackage(
            slices[sid],
            list(all_primes),
            accumulation,
            None if witnesses is None else witnesses[sid],
        )
        for sid in range(plan.shards)
    ]


def equality_route(prf_key: bytes, value_bits: int, plan: HashShardPlan):
    """``Query -> shard id`` for equality queries (test/benchmark side).

    Benchmarks and the :class:`~repro.workloads.generator.ShardSkew`
    machinery need to know where a query will land *before* tokens exist;
    an equality query maps to exactly one keyword, hence one shard.
    """
    from ..core.keywords import equality_keyword
    from ..core.tokens import derive_g1_g2

    def route(query) -> int:
        keyword = equality_keyword(query.value, value_bits, query.attribute)
        g1, _ = derive_g1_g2(prf_key, keyword)
        return plan.shard_of(g1)

    return route
