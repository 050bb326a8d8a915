"""The cloud server: storage, Cloud.Search (Algorithm 4), and adversaries.

The honest cloud stores the encrypted index ``I`` and the prime list ``X``.
Given a search token ``(t_j, j, G1, G2)`` it walks epochs ``j`` down to 0 —
deriving each older trapdoor with the *public* permutation ``π_pk`` — and
inside each epoch scans counters until the PRF label misses.  It then hashes
the collected result multiset, recomputes the prime representative, and
produces the RSA-accumulator membership witness (the verification object).

:class:`MaliciousCloud` wraps the honest search with the paper's threat-model
behaviours (return incorrect or incomplete results) so the tests and the
fairness example can demonstrate that every such deviation is caught by
public verification (Theorem 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..common.encoding import sizeof
from ..common.rng import DeterministicRNG, default_rng
from ..common import perfstats
from ..common.timing import Stopwatch
from ..common.errors import ParameterError, StateError
from ..crypto import kernels
from ..crypto.accumulator import MembershipWitness, root_factor, verify_membership
from ..obs import metrics, trace
from ..crypto.modmath import ProductTree, product
from ..crypto.multiset_hash import MultisetHash
from ..crypto.trapdoor import TrapdoorPublicKey
from .entry_cache import CacheNode, CollectResult, EntryCache, collect_entries
from .params import SlicerParams
from .state import CloudPackage, EncryptedIndex, prime_input, set_hash_key
from .tokens import SearchToken


@dataclass
class TokenResult:
    """One token's share of the response: encrypted results + its VO."""

    token: SearchToken
    entries: list[bytes]
    witness: MembershipWitness

    @property
    def result_bytes(self) -> int:
        return sizeof(self.entries)

    @property
    def witness_bytes(self) -> int:
        return (self.witness.value.bit_length() + 7) // 8


@dataclass
class SearchResponse:
    """Everything the cloud posts to the blockchain for one query."""

    results: list[TokenResult] = field(default_factory=list)

    @property
    def encrypted_result_bytes(self) -> int:
        """Total ``er`` size — Fig. 6b/6c measurement."""
        return sum(r.result_bytes for r in self.results)

    @property
    def witness_bytes(self) -> int:
        """Total VO size — Fig. 6d measurement."""
        return sum(r.witness_bytes for r in self.results)

    def all_entries(self) -> list[bytes]:
        return [entry for result in self.results for entry in result.entries]


class CloudServer:
    """Honest-but-curious (and possibly dishonest) storage/search provider."""

    def __init__(self, params: SlicerParams, trapdoor_public: TrapdoorPublicKey) -> None:
        self.params = params.public()
        self.trapdoor_public = trapdoor_public
        self.index = EncryptedIndex()
        #: Accumulated primes in installation order (dict used as an ordered set).
        self._primes: dict[int, None] = {}
        #: Cached balanced product over ``_primes`` — witness generation
        #: reads ``prod(X)`` per query; the tree keeps it incremental.
        self._product_tree = ProductTree()
        self.ads_value = 0
        self._hash_to_prime = params.hash_to_prime()
        #: Ready witnesses, valid for exactly the current ``Ac``: owner-issued
        #: (:meth:`install`) or cloud-computed (:meth:`precompute_witnesses`,
        #: warm checkpoint).  ``_checked`` holds the primes whose witness
        #: passed the per-item ``VerifyMem`` of :meth:`_lookup_witness`; no
        #: witness is served before it is in there.
        self._witnesses: dict[int, int] = {}
        self._checked: set[int] = set()
        #: Epoch-suffix result cache: needs no invalidation (epochs are
        #: immutable, :meth:`install` leaves it intact); :meth:`restore`
        #: keeps it only when the incoming snapshot provably matches it.
        self._entry_cache = EntryCache()
        #: Durable epoch-segment store (attach_store/reopen); None keeps the
        #: cloud purely in-memory, exactly as before the store existed.
        self._store = None
        #: False between reopen() and the first state access: segments are
        #: replayed lazily so a restarted-but-idle cloud costs nothing.
        self._hydrated = True
        #: Phase timings ("results" / "vo") for the Fig. 5 benches.
        self.stopwatch = Stopwatch()

    # ---------------------------------------------------------------- setup

    def install(self, package: CloudPackage) -> None:
        """Receive ``(I, X, Ac)`` from the owner (Build or Insert delta).

        An install that moves ``Ac`` empties the witness map; the package's
        owner-issued witnesses, if any, fill it again.  Primes left
        uncovered are served by the cloud-side ``MemWit`` per query until a
        :meth:`precompute_witnesses` covers them.

        With a segment store attached the delta is also committed as one
        immutable segment (without witnesses).
        """
        modulus = self.params.accumulator.modulus
        if package.witnesses and not all(0 < w < modulus for w in package.witnesses.values()):
            # A witness congruent mod n to a valid one would pass VerifyMem.
            raise StateError("owner witness outside [1, n)")
        self._ensure_hydrated()
        moved = package.accumulation != self.ads_value
        self.index.merge(package.index)
        fresh = [p for p in package.primes if p not in self._primes]
        for prime in fresh:
            self._primes[prime] = None
        self._product_tree.extend(fresh)
        self.ads_value = package.accumulation
        if self._store is not None:
            self._store.append(
                dict(package.index.entries), list(package.primes), package.accumulation
            )
        if moved:
            self._witnesses, self._checked = {}, set()
        if package.witnesses:
            self._witnesses.update(package.witnesses)
            self._checked.difference_update(package.witnesses)

    def precompute_witnesses(self) -> int:
        """Have a witness ready for every accumulated prime.

        Primes with an owner-issued witness are already covered; the rest
        get cloud-side witnesses by one root-factor batch (``O(k log k)``
        exponentiations for ``k`` uncovered primes), traded for
        near-zero VO-generation latency per query until ``Ac`` moves.
        Like an owner witness, each is checked on its first serve.
        Returns the number of covered primes.
        """
        self._ensure_hydrated()
        self._witnesses.update(
            self._root_witnesses([p for p in self._primes if p not in self._witnesses])
        )
        return len(self._primes)

    def _root_witnesses(self, subset: list[int]) -> dict[int, int]:
        """Cloud-side ``MemWit`` for ``subset``: the paper's ``g^(prod(X)/x)``.

        The shared base ``g^(prod(X \\ subset))`` comes from the fixed-base
        kernel over the incrementally maintained product tree, then
        root-factor recursion splits it into one witness per prime.
        """
        if not subset:
            return {}
        acc = self.params.accumulator
        g = acc.generator % acc.modulus
        if len(subset) == len(self._primes):
            base = g
        else:
            base = kernels.fixed_base_pow(
                g, acc.modulus, self._product_tree.root // product(subset)
            )
        return root_factor(base, subset, acc.modulus)

    def snapshot(self) -> bytes:
        """Serialize the full working state ``(I, X, Ac)`` for crash recovery."""
        from ..storage import state_io  # local: storage depends on core

        self._ensure_hydrated()
        return state_io.dump_cloud_state(
            self.index, list(self._primes), self.ads_value
        )

    def restore(self, snapshot: bytes) -> None:
        """Snapshot-based recovery, keeping caches the snapshot cannot stale.

        Reloads a :meth:`snapshot` blob.  The snapshot is integrity-checked
        before anything is mutated, so a corrupt file raises
        :class:`~repro.common.errors.StateError` and leaves the current
        state untouched.

        Caches whose validity is provable against the incoming state are
        *kept* rather than nuked: when the snapshot's accumulation value and
        prime-set digest equal the live ones, every cached witness is still
        exact (witnesses are a pure function of ``(X, Ac)``), and when the
        index entries also match, the entry cache's nodes still describe the
        stored epochs.  Restoring a cloud from its own snapshot is therefore
        counter-identical to not restarting at all — the property test
        asserts this — while restoring *older* state still drops every cache
        that could have gone stale.

        A cloud with a segment store attached restarts through
        :meth:`reopen` instead (the store is the durable source of truth);
        mixing the two would fork the history, so this raises.
        """
        from ..storage import segment_store, state_io  # local: storage depends on core

        if self._store is not None:
            raise StateError(
                "snapshot restore unavailable with a segment store attached; "
                "use reopen()"
            )
        index, primes, ads_value = state_io.load_cloud_state(snapshot)
        keep_witness = (
            ads_value == self.ads_value
            and segment_store.primes_digest(primes)
            == segment_store.primes_digest(self._primes)
        )
        keep_entries = keep_witness and index.entries == self.index.entries
        kept = (self._witnesses, self._checked) if keep_witness else ({}, set())
        entry_cache = self._entry_cache if keep_entries else EntryCache()
        self._reset_state()
        self._entry_cache = entry_cache
        self.install(CloudPackage(index, list(primes), ads_value))
        self._witnesses, self._checked = kept
        perfstats.incr(
            "cloud.restore.caches_kept" if keep_witness else "cloud.restore.caches_dropped"
        )

    # -------------------------------------------------------- segment store

    def attach_store(self, path, plan_tag: bytes | None = None) -> None:
        """Create a durable epoch-segment store at ``path`` and write through.

        Every subsequent :meth:`install` appends one immutable segment; a
        cloud that already holds state bootstraps the store with one
        full-state segment so the on-disk chain is complete from segment 0.
        """
        from ..storage import segment_store  # local: storage depends on core

        if self._store is not None:
            raise StateError("a segment store is already attached")
        self._ensure_hydrated()
        store = segment_store.SegmentStore.create(
            path, plan=plan_tag if plan_tag is not None else segment_store.SINGLE_PLAN
        )
        if self._primes or len(self.index):
            store.append(dict(self.index.entries), list(self._primes), self.ads_value)
        self._store = store

    @property
    def has_store(self) -> bool:
        """Whether a segment store is attached (a crash restarts from it)."""
        return self._store is not None

    def reopen(self, path=None, plan_tag: bytes | None = None) -> None:
        """Restart this cloud from a segment store (the durable truth).

        Models a crashed process coming back up over its store directory:
        all in-memory state dies, the manifest is validated (torn tail
        truncated, interior corruption refused, plan mismatch refused) and
        ``Ac`` is immediately served from it; segments replay **lazily** on
        the first state access, and the warm checkpoint — when its stamps
        match the replayed state — rehydrates the entry cache, the witness
        map and the kernel memos, so the first repeat query runs at cache
        speed with byte-identical output.

        With no ``path`` the currently attached store's directory is reused
        (the chaos layer's in-place crash-restart hook).
        """
        from ..storage import segment_store  # local: storage depends on core

        if path is None:
            if self._store is None:
                raise StateError("no segment store attached; pass a path to reopen()")
            path = self._store.root
            if plan_tag is None:
                plan_tag = self._store.plan
        elif plan_tag is None:
            plan_tag = segment_store.SINGLE_PLAN
        store = segment_store.SegmentStore.open(path, plan=plan_tag)
        self._reset_state()
        self._entry_cache = EntryCache()
        self.ads_value = store.ads_value
        self._store = store
        self._hydrated = False
        perfstats.incr("segstore.reopens")

    def _reset_state(self) -> None:
        """Forget ``(I, X, Ac)`` and every witness derived from them."""
        self.index = EncryptedIndex()
        self._primes = {}
        self._product_tree = ProductTree()
        self.ads_value = 0
        self._witnesses = {}
        self._checked = set()

    def checkpoint(self) -> None:
        """Persist the warm-restart checkpoint (caches + kernel memo slices).

        Purely an accelerator: the next :meth:`reopen` serves repeat
        queries warm from it, and a checkpoint that went stale (state moved
        on after it was written) is detected by its stamps and ignored.
        """
        from ..storage import segment_store  # local: storage depends on core

        if self._store is None:
            raise StateError("no segment store attached; call attach_store() first")
        self._ensure_hydrated()
        # Witnesses go in only after their per-item check, so the
        # checkpoint holds nothing the cloud would not serve.
        witnesses = {
            prime: witness
            for prime in list(self._witnesses)
            if (witness := self._lookup_witness(prime)) is not None
        }
        blob = segment_store.pack_warm_state(
            self.ads_value,
            segment_store.primes_digest(self._primes),
            segment_store.index_digest(self.index.entries),
            [
                (key, (node.entries, node.suffix_hash, node.next_trapdoor))
                for key, node in self._entry_cache.nodes.items()
            ],
            witnesses,
            kernels.hash_memo_items(self.params.prime_bits),
        )
        self._store.write_warm(blob)
        perfstats.incr("segstore.checkpoints")

    def _ensure_hydrated(self) -> None:
        """Replay committed segments into memory on the first state access."""
        if self._hydrated:
            return
        self._hydrated = True
        store = self._store
        assert store is not None
        with self.stopwatch.measure("rehydrate"), trace.span("cloud.rehydrate"):
            for segment in store.replay():
                for label, payload in segment.entries.items():
                    self.index.put(label, payload)
                fresh = [p for p in segment.primes if p not in self._primes]
                for prime in fresh:
                    self._primes[prime] = None
                self._product_tree.extend(fresh)
                self.ads_value = segment.ads_value
            self._load_warm()
        perfstats.incr("segstore.rehydrations")

    def _load_warm(self) -> None:
        """Rehydrate caches from the warm checkpoint, when its stamps hold."""
        from ..storage import segment_store  # local: storage depends on core

        assert self._store is not None
        payload = self._store.read_warm()
        if payload is None:
            return
        try:
            warm = segment_store.unpack_warm_state(payload)
        except (ParameterError, ValueError):
            perfstats.incr("segstore.warm.invalid")
            return
        if (
            warm.ads_value != self.ads_value
            or warm.primes_digest != segment_store.primes_digest(self._primes)
        ):
            # The checkpoint predates later installs: its witnesses would be
            # stale.  Cold rebuild, correct answers.
            perfstats.incr("segstore.warm.stale")
            return
        # Checkpoint bytes are checked per item on first serve, like any
        # other stored witness.
        self._witnesses = dict(warm.witnesses)
        if warm.index_digest == segment_store.index_digest(self.index.entries):
            for key, (entries, suffix_hash, next_trapdoor) in warm.entry_nodes:
                self._entry_cache.install(
                    key, CacheNode(entries, suffix_hash, next_trapdoor)
                )
        else:
            perfstats.incr("segstore.warm.stale_entries")
        kernels.load_hash_memo(self.params.prime_bits, warm.hash_items)
        perfstats.incr("segstore.warm.loaded")

    @property
    def prime_count(self) -> int:
        self._ensure_hydrated()
        return len(self._primes)

    # --------------------------------------------------------------- search

    def search(
        self,
        tokens: list[SearchToken],
        *,
        _observe: bool = True,
    ) -> SearchResponse:
        """Algorithm 4 (Cloud.Search) over a token list.

        Identical tokens are probed once: the *b* boundary tokens of a range
        query can repeat (shared slice prefixes), and duplicate tokens walk
        the same epochs to the same entries, so the index walk runs per
        *unique* token and the results fan back out — the response still
        carries one ``TokenResult`` per submitted token, byte-identical to
        the undeduplicated walk.

        Ready witnesses (owner-issued or precomputed) are looked up first;
        the rest are batched: those tokens share the
        ``g^{prod(X \\ subset)}`` base and the per-token witnesses are filled
        in by root-factor recursion over the (small) subset.  One query costs
        one full-product exponentiation instead of one per token, which is
        what keeps order-search VO generation (paper Fig. 5d) tractable.

        ``_observe=False`` (the sharded frontend's hook) suppresses the
        per-query metric observations so the frontend can observe the
        *merged* response exactly once.
        """
        self._ensure_hydrated()
        with self.stopwatch.measure("results"), trace.span("cloud.results"):
            unique: dict[SearchToken, int] = {}
            slots = [unique.setdefault(token, len(unique)) for token in tokens]
            perfstats.incr("cloud.token_dedup.saved", len(tokens) - len(unique))
            collected = [self._collect(token) for token in unique]
            partials = [(token, collected[slot]) for token, slot in zip(tokens, slots)]
        with self.stopwatch.measure("vo"), trace.span("cloud.vo"):
            witnesses = self._batch_witnesses(partials)
        response = SearchResponse(
            [TokenResult(t, c.entries, w) for (t, c), w in zip(partials, witnesses)]
        )
        if _observe:
            self._observe_search(tokens, partials, response)
        return response

    def search_many(
        self, token_lists: list[list[SearchToken]], *, _observe: bool = True
    ) -> list[SearchResponse]:
        """One batch of queries, collected over the batch-wide token union.

        The cross-query extension of :meth:`search`'s per-query dedup:
        identical tokens across the staged queries (hot boundary keywords
        under skewed traffic) walk the index once.  Responses are
        byte-identical to ``[search(tokens) for tokens in token_lists]``:
        collection is a pure function per unique token, and witness values
        ``g^(prod(X)/p)`` do not depend on how queries group the primes.
        """
        self._ensure_hydrated()
        unique: dict[SearchToken, int] = {}
        slot_lists = [
            [unique.setdefault(token, len(unique)) for token in tokens]
            for tokens in token_lists
        ]
        total = sum(len(tokens) for tokens in token_lists)
        perfstats.incr("batch.unique_tokens", len(unique))
        perfstats.incr("batch.dedup_saved", total - len(unique))
        with self.stopwatch.measure("results"), trace.span("cloud.results", batch=len(token_lists)):
            collected = [self._collect(token) for token in unique]
        responses: list[SearchResponse] = []
        for tokens, slots in zip(token_lists, slot_lists):
            perfstats.incr("cloud.token_dedup.saved", len(tokens) - len(set(slots)))
            partials = [(token, collected[slot]) for token, slot in zip(tokens, slots)]
            with self.stopwatch.measure("vo"), trace.span("cloud.vo"):
                witnesses = self._batch_witnesses(partials)
            response = SearchResponse(
                [TokenResult(t, c.entries, w) for (t, c), w in zip(partials, witnesses)]
            )
            if _observe:
                self._observe_search(tokens, partials, response)
            responses.append(response)
        return responses

    def _observe_search(
        self,
        tokens: list[SearchToken],
        partials: list[tuple[SearchToken, CollectResult]],
        response: SearchResponse,
    ) -> None:
        metrics.observe("cloud.search.tokens", len(tokens))
        metrics.observe("cloud.search.entries", sum(len(c.entries) for _, c in partials))
        metrics.observe("cloud.search.result_bytes", response.encrypted_result_bytes)
        metrics.observe("cloud.search.witness_bytes", response.witness_bytes)

    def _search_token(self, token: SearchToken) -> TokenResult:
        collected = self._collect(token)
        witness = self._batch_witnesses([(token, collected)])[0]
        return TokenResult(token, collected.entries, witness)

    def _collect(self, token: SearchToken, max_epochs: int | None = None) -> CollectResult:
        """The cache-aware epoch walk for one token.

        Delegates to :func:`repro.core.entry_cache.collect_entries` against
        this cloud's own suffix cache.  Truncated walks (``max_epochs``) and
        ``REPRO_KERNELS=0`` bypass the cache and reproduce the legacy loop
        byte for byte.
        """
        cache = self._entry_cache if kernels.kernels_enabled() else None
        return collect_entries(
            cache,
            self.index.find,
            self.params.label_len,
            self.trapdoor_public,
            self.params.multiset_field,
            token.trapdoor,
            token.epoch,
            token.g1,
            token.g2,
            max_epochs,
        )

    def _collect_entries(self, token: SearchToken, max_epochs: int | None = None) -> list[bytes]:
        """Walk epochs j..0 via π_pk; plain entry list (no cache metadata)."""
        return self._collect(token, max_epochs).entries

    def _token_prime(self, token: SearchToken, collected: CollectResult) -> int:
        """The prime representative of (token state, result multiset hash).

        A warm walk already knows the full multiset-hash value — the head
        cache node's suffix hash — so the fold is free; a bypassed walk
        (``hash_value is None``) hashes the multiset from scratch, exactly
        as before the cache existed.
        """
        if collected.hash_value is not None:
            result_hash = MultisetHash(collected.hash_value, self.params.multiset_field)
        else:
            result_hash = MultisetHash.of(collected.entries, self.params.multiset_field)
        state_key = set_hash_key(token.trapdoor, token.epoch, token.g1, token.g2)
        return self._hash_to_prime(prime_input(state_key, result_hash))

    def _batch_witnesses(
        self, partials: list[tuple[SearchToken, CollectResult]]
    ) -> list[MembershipWitness]:
        """``MemWit`` for every token of one query.

        Each prime is looked up first among the ready witnesses; the
        accumulated primes it does not cover share one live cloud-side
        ``MemWit`` batch (:meth:`_root_witnesses`), recomputed per query.

        If a derived prime is not in the stored set — which happens when the
        cloud's index is out of sync with the owner's updates (a "lazy"
        cloud) — no valid witness exists.  A real cloud would still have to
        submit *something* to the contract, so those tokens get a best-effort
        (and necessarily invalid) witness over the full product; verification
        rejects it and the payment is refunded.
        """
        acc = self.params.accumulator
        n, g = acc.modulus, acc.generator
        primes = [self._token_prime(token, collected) for token, collected in partials]
        witness_by_prime: dict[int, int] = {}
        for prime in primes:
            if prime not in witness_by_prime:
                found = self._lookup_witness(prime)
                if found is not None:
                    witness_by_prime[prime] = found
        missing = sorted({p for p in primes if p in self._primes and p not in witness_by_prime})
        witness_by_prime.update(self._root_witnesses(missing))

        fallback: int | None = None
        out: list[MembershipWitness] = []
        for prime in primes:
            if prime in witness_by_prime:
                out.append(MembershipWitness(witness_by_prime[prime]))
            else:
                if fallback is None:
                    fallback = kernels.fixed_base_pow(g, n, self._product_tree.root)
                out.append(MembershipWitness(fallback))
        return out

    def _lookup_witness(self, prime: int) -> int | None:
        """The ready witness for ``prime``, or None.

        A stored witness — owner-issued, precomputed or checkpointed — is
        served only after it passed the contract's own per-item
        ``VerifyMem`` against the current ``Ac`` (once per ``Ac``); one that
        fails is counted, discarded and never served.
        """
        witness = self._witnesses.get(prime)
        if witness is None or prime in self._checked:
            return witness
        if verify_membership(
            self.params.accumulator, self.ads_value, prime, MembershipWitness(witness)
        ):
            perfstats.incr("cloud.witness.checked")
            self._checked.add(prime)
            return witness
        perfstats.incr("cloud.witness.rejected")
        del self._witnesses[prime]
        return None


class Misbehavior(enum.Enum):
    """The dishonest-cloud behaviours from the threat model (Section IV.B)."""

    DROP_ENTRY = "drop_entry"  # incomplete results: omit one matching record
    INJECT_ENTRY = "inject_entry"  # incorrect results: add a non-matching record
    TAMPER_ENTRY = "tamper_entry"  # flip bits inside a returned ciphertext
    OMIT_OLD_EPOCHS = "omit_old_epochs"  # return only the newest epoch's entries
    FORGE_WITNESS = "forge_witness"  # random verification object
    STALE_WITNESS = "stale_witness"  # honest witness but for tampered results
    EMPTY_RESULT = "empty_result"  # claim nothing matched


class MaliciousCloud(CloudServer):
    """A cloud that applies one :class:`Misbehavior` to otherwise honest output.

    Witness handling mirrors what a real cheater can do: it cannot *forge* a
    witness for results it did not store (strong-RSA), so except for
    ``FORGE_WITNESS`` it returns the witness for the honest result set and
    hopes the verifier will not notice the result tampering.
    """

    def __init__(
        self,
        params: SlicerParams,
        trapdoor_public: TrapdoorPublicKey,
        misbehavior: Misbehavior,
        rng: DeterministicRNG | None = None,
    ) -> None:
        super().__init__(params, trapdoor_public)
        self.misbehavior = misbehavior
        self.rng = rng or default_rng()

    def search(self, tokens: list[SearchToken], **hooks) -> SearchResponse:
        honest = super().search(tokens, **hooks)
        tampered = [self._tamper(result) for result in honest.results]
        return SearchResponse(tampered)

    def search_many(
        self, token_lists: list[list[SearchToken]], **hooks
    ) -> list[SearchResponse]:
        """Batched search with the same per-result tampering as :meth:`search`.

        Tampering happens per query in order, so the rng draws match a
        per-query ``search`` loop — the batched and unbatched malicious
        clouds misbehave identically (and both get caught identically,
        warm or cold; the conformance matrix asserts this).
        """
        honest = super().search_many(token_lists, **hooks)
        return [
            SearchResponse([self._tamper(result) for result in response.results])
            for response in honest
        ]

    def _tamper(self, result: TokenResult) -> TokenResult:
        kind = self.misbehavior
        entries = list(result.entries)
        witness = result.witness
        if kind is Misbehavior.DROP_ENTRY and entries:
            entries.pop(self.rng.randint_below(len(entries)))
        elif kind is Misbehavior.INJECT_ENTRY:
            from .wire import entry_wire_len  # local: wire imports this module

            # A forged entry must be indistinguishable *in size* from a real
            # one even when the honest result set is empty, so the guessed
            # length comes from the wire codec, not a hand-copied constant
            # that would drift if the cipher overhead ever changed.
            size = len(entries[0]) if entries else entry_wire_len(self.params)
            entries.append(self.rng.token_bytes(size))
        elif kind is Misbehavior.TAMPER_ENTRY and entries:
            victim = self.rng.randint_below(len(entries))
            blob = bytearray(entries[victim])
            blob[self.rng.randint_below(len(blob))] ^= 0xFF
            entries[victim] = bytes(blob)
        elif kind is Misbehavior.OMIT_OLD_EPOCHS and result.token.epoch > 0:
            entries = self._collect_entries(result.token, max_epochs=1)
        elif kind is Misbehavior.FORGE_WITNESS:
            witness = MembershipWitness(
                self.rng.randrange(2, self.params.accumulator.modulus - 1)
            )
        elif kind is Misbehavior.EMPTY_RESULT:
            entries = []
        # STALE_WITNESS keeps the honest witness with honest entries when no
        # tampering applied; combined with any entry change above it is the
        # default because we never recompute the witness over tampered data.
        return TokenResult(result.token, entries, witness)
