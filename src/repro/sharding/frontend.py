"""The scatter/gather front-end over N independent cloud shards.

:class:`ShardedCloudFrontend` duck-types the :class:`~repro.core.cloud.
CloudServer` surface :class:`~repro.system.SlicerSystem` consumes
(search/search_many/snapshot/restore/attach_store/reopen/ads_value), so the
system routes submit/search/settle through it untouched; installs arrive
pre-split by the owner (:meth:`install_shards`).  Internally every
search is

1. **scatter** — tokens are routed per shard by the plan (``G1`` hash);
2. **serve** — each shard runs the ordinary Algorithm 4 over its slice
   (its own trapdoor-chain walks, entry cache and witness map);
3. **gather/merge** — partial responses are reassembled in the original
   token order.

Merging is a pure permutation: a token's entries come from the one shard
holding its keyword's chain, and its witness is computed over the *full*
replicated prime set, so the merged response is byte-identical to the
single-cloud response at any shard count (the property suite asserts this
bit for bit).

Shards are served in-process, one after another in shard-id order, so
execution is deterministic.  Each shard's slice of a scatter, for
:meth:`search` and :meth:`search_many` alike, is one delivery on the tier's
``transport`` over its own channel (``contract->cloud#shardK``), so under a
:class:`~repro.chaos.ChaosTransport` every shard fails, retries and
crash-restarts independently; the default direct transport calls the shard.

A shard marked dead (:meth:`kill_shard`, no snapshot to restart from)
degrades *detectably*: its tokens get empty results with an invalid
witness, so the contract refunds exactly the queries that touched it while
queries served entirely by honest live shards still settle paid.
"""

from __future__ import annotations

import pathlib

from ..chaos import CONTRACT_TO_CLOUD, DIRECT, shard_channel
from ..common import perfstats
from ..common.encoding import encode_parts, encode_uint
from ..common.errors import ParameterError, StateError
from ..crypto.accumulator import MembershipWitness
from ..obs import metrics, trace
from ..core import wire
from ..core.cloud import CloudServer, SearchResponse, TokenResult
from ..core.params import SlicerParams
from ..core.state import CloudPackage
from ..core.tokens import SearchToken
from ..crypto.trapdoor import TrapdoorPublicKey
from ..storage import codec
from .plan import HashShardPlan, merge_responses, route_tokens

_KIND_TIER = b"shard-tier"


class ShardedCloudFrontend:
    """N cloud shards behind one deterministic scatter/gather front door."""

    def __init__(
        self,
        params: SlicerParams,
        trapdoor_public: TrapdoorPublicKey,
        plan: HashShardPlan,
        transport=None,
    ) -> None:
        self.params = params.public()
        self.plan = plan
        self.shard_servers = [
            CloudServer(params, trapdoor_public) for _ in range(plan.shards)
        ]
        self.transport = transport or DIRECT
        #: Shards taken down hard (no restart): served as detectable failures.
        self._dead: set[int] = set()
        #: Root of the per-shard segment stores once :meth:`attach_store` ran.
        self._store_root: pathlib.Path | None = None

    # ---------------------------------------------------------------- state

    @property
    def ads_value(self) -> int:
        """The accumulation value — replicated, so any shard's copy serves."""
        return self.shard_servers[0].ads_value

    @property
    def prime_count(self) -> int:
        return self.shard_servers[0].prime_count

    def install_shards(self, shard_packages: list[CloudPackage]) -> None:
        """Install one Build/Insert delta, pre-split by the owner."""
        if len(shard_packages) != len(self.shard_servers):
            raise ParameterError(
                f"expected {len(self.shard_servers)} shard packages, "
                f"got {len(shard_packages)}"
            )
        for shard_id, package in enumerate(shard_packages):
            self.install_shard(shard_id, package)

    def install_shard(self, shard_id: int, package: CloudPackage) -> None:
        self.shard_servers[shard_id].install(package)

    # -------------------------------------------------------- segment stores

    def _shard_plan_tag(self, sid: int) -> bytes:
        """The plan fingerprint stamped into shard ``sid``'s store manifest.

        Binds the store to the routing function: reopening a shard directory
        under a different shard count or slot would silently misroute
        tokens, so the manifest's plan check turns that into a loud
        :class:`StateError` instead.  The leading name is a fixed literal
        because every shard store on disk carries it; changing it would
        refuse them all.
        """
        return encode_parts(
            b"HashShardPlan",
            encode_uint(self.plan.shards),
            encode_uint(sid),
        )

    def attach_store(self, path) -> None:
        """Create one segment store per shard under ``path/shard-<sid>``."""
        root = pathlib.Path(path)
        for sid, server in enumerate(self.shard_servers):
            server.attach_store(root / f"shard-{sid}", plan_tag=self._shard_plan_tag(sid))
        self._store_root = root

    @property
    def has_store(self) -> bool:
        """Whether per-shard segment stores are attached."""
        return self._store_root is not None

    def reopen(self, path=None) -> None:
        """Restart the whole tier from its per-shard segment stores.

        Every shard replays its own segment chain and warm checkpoint,
        lazily on its first state access, as a single cloud does.
        """
        if path is None:
            if self._store_root is None:
                raise StateError("no segment stores attached; pass a path to reopen()")
            path = self._store_root
        root = pathlib.Path(path)
        for sid, server in enumerate(self.shard_servers):
            server.reopen(root / f"shard-{sid}", plan_tag=self._shard_plan_tag(sid))
        self._store_root = root
        self._dead.clear()

    # ------------------------------------------------- snapshots and crashes

    def snapshot(self) -> bytes:
        """Whole-tier snapshot: every shard's ``(I, X, Ac)``."""
        return codec.pack(
            _KIND_TIER,
            codec.encode_int(len(self.shard_servers)),
            *[server.snapshot() for server in self.shard_servers],
        )

    def restore(self, snapshot: bytes) -> None:
        """Cold-restart the whole tier from a :meth:`snapshot` blob."""
        parts = codec.unpack(snapshot, _KIND_TIER)
        count = codec.decode_int(parts[0])
        if count != len(self.shard_servers) or len(parts) != 1 + count:
            raise ParameterError("tier snapshot does not match this frontend's shape")
        for server, shard_snapshot in zip(self.shard_servers, parts[1:]):
            server.restore(shard_snapshot)
        self._dead.clear()

    def snapshot_shard(self, shard_id: int) -> bytes:
        return self.shard_servers[shard_id].snapshot()

    def restore_shard(self, shard_id: int, snapshot: bytes) -> None:
        """Recover one crashed shard from its own state_io snapshot."""
        self.shard_servers[shard_id].restore(snapshot)
        self._dead.discard(shard_id)

    def kill_shard(self, shard_id: int) -> None:
        """Take a shard down hard: no restart, failures become detectable."""
        self._dead.add(shard_id)

    # --------------------------------------------------------------- search

    def search(self, tokens: list[SearchToken]) -> SearchResponse:
        """Scatter, serve per shard, merge back into token order."""
        route, slices = route_tokens(self.plan, tokens)
        perfstats.incr("shard.scatter")
        partials: dict[int, SearchResponse] = {}
        for sid, shard_tokens in slices.items():
            perfstats.incr(f"shard.route.tokens.s{sid}", len(shard_tokens))
            with trace.span("shard.search", shard=sid, tokens=len(shard_tokens)):
                partials[sid] = self._shard_search(sid, shard_tokens)
            perfstats.incr(
                f"shard.route.entries.s{sid}",
                sum(len(r.entries) for r in partials[sid].results),
            )
        response = merge_responses(route, partials)
        self._observe_search(tokens, response)
        return response

    def search_many(self, token_lists: list[list[SearchToken]]) -> list[SearchResponse]:
        """Batched search: each shard sees the whole batch's slice at once.

        Cross-query token dedup happens *inside* each shard (dedup classes
        are shard-local because identical tokens share ``G1``), so the
        summed ``batch.*`` counters equal the single-cloud run and per-query
        responses stay byte-identical to sequential :meth:`search` calls.
        """
        scattered = [route_tokens(self.plan, tokens) for tokens in token_lists]
        shard_ids = sorted({sid for _, slices in scattered for sid in slices})
        partials: dict[int, list[SearchResponse]] = {}
        for sid in shard_ids:
            shard_lists = [slices.get(sid, []) for _, slices in scattered]
            with trace.span("shard.search", shard=sid, batch=len(shard_lists)):
                partials[sid] = self._shard_search_many(sid, shard_lists)
        responses: list[SearchResponse] = []
        for qi, (tokens, (route, slices)) in enumerate(zip(token_lists, scattered)):
            response = merge_responses(route, {sid: partials[sid][qi] for sid in slices})
            self._observe_search(tokens, response)
            responses.append(response)
        return responses

    def shards_for_tokens(self, tokens: list[SearchToken]) -> list[int]:
        """The sorted shard ids a token list touches (audit/metrics labels)."""
        return sorted({self.plan.shard_of(token.g1) for token in tokens})

    # ------------------------------------------------------------ internals

    def _shard_search(self, sid: int, shard_tokens: list[SearchToken]) -> SearchResponse:
        if sid in self._dead:
            return self._dead_response(sid, shard_tokens)
        return self._scatter(sid, shard_tokens, wire.TOKENS, "search")

    def _shard_search_many(
        self, sid: int, shard_lists: list[list[SearchToken]]
    ) -> list[SearchResponse]:
        if sid in self._dead:
            return [self._dead_response(sid, tokens) for tokens in shard_lists]
        return self._scatter(sid, shard_lists, wire.TOKEN_LISTS, "search_many")

    def _scatter(self, sid: int, request, codec, method: str):
        """Shard ``sid``'s leg of a scatter: its own channel, retries and restart."""
        server = self.shard_servers[sid]
        serve = getattr(server, method)
        transport = self.transport
        return transport.retried(
            f"shard{sid}.search",
            lambda attempt: transport.deliver(
                shard_channel(CONTRACT_TO_CLOUD, sid),
                request,
                lambda message: serve(message, _observe=False),
                codec=codec,
                endpoint=server,
            ),
        )

    def _dead_response(self, sid: int, shard_tokens: list[SearchToken]) -> SearchResponse:
        """A hard-down shard's share: empty results, witness that cannot verify.

        ``w = 1`` fails ``w^p == Ac`` for every prime, so the contract
        refunds exactly the queries whose tokens routed here — a crashed
        shard can degrade its own queries but never poison another shard's
        settlement.
        """
        perfstats.incr("shard.dead_served", len(shard_tokens))
        return SearchResponse(
            [TokenResult(t, [], MembershipWitness(1)) for t in shard_tokens]
        )

    def _observe_search(
        self, tokens: list[SearchToken], response: SearchResponse
    ) -> None:
        """The per-query observations the shards suppressed, made once.

        Shards are called with ``_observe=False`` so the merged response is
        observed exactly as the single-cloud path would — same histogram
        names, same values, one observation per query.
        """
        metrics.observe("cloud.search.tokens", len(tokens))
        metrics.observe(
            "cloud.search.entries", sum(len(r.entries) for r in response.results)
        )
        metrics.observe("cloud.search.result_bytes", response.encrypted_result_bytes)
        metrics.observe("cloud.search.witness_bytes", response.witness_bytes)
