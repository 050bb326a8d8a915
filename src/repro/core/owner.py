"""The data owner: Build (Algorithm 1) and forward-secure Insert (Algorithm 2).

The owner is the only fully-trusted party with secrets.  It

1. derives the keyword set ``{v} ∪ {ct_i}`` for every record,
2. writes PRF-labelled index entries ``(l, d)`` per keyword posting,
3. folds each record ciphertext into the keyword's running multiset hash,
4. maps every ``(trapdoor, epoch, G1, G2, hash)`` state to a prime
   representative and accumulates all primes into ``Ac``, and
5. on insertion, advances the keyword's trapdoor with ``π_sk^{-1}`` so the
   new entries are unlinkable to previously released search tokens
   (forward security).

Build is the degenerate case of Insert on empty state — the two algorithms
in the paper differ only in the trapdoor-advance branch — so both public
methods share :meth:`DataOwner._index_batch`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.bitstring import xor_bytes
from ..common.encoding import encode_uint
from ..common.errors import StateError
from ..common.rng import DeterministicRNG, default_rng
from ..common.timing import Stopwatch
from ..crypto.accumulator import Accumulator
from ..crypto.multiset_hash import MultisetHash
from ..crypto.prf import PRF
from ..obs import metrics, trace
from ..crypto.symmetric import NONCE_LEN, SymmetricCipher
from .keywords import keywords_for_record
from .params import KeyBundle, SlicerParams, UserKeys
from .records import AttributedDatabase, AttributedRecord, Database, Record
from .state import (
    CloudPackage,
    EncryptedIndex,
    SetHashState,
    TrapdoorState,
    prime_input,
    set_hash_key,
)
from .tokens import derive_g1_g2


@dataclass
class UserPackage:
    """What the owner shares with an authorised user: keys + trapdoor state.

    ``attributes`` is the index's attribute-name set (``("",)`` for a plain
    single-value database) so users can reject malformed queries — e.g. a
    bare ``attribute=""`` query against a multi-attribute index — before
    paying to search.  ``None`` means the owner has indexed nothing yet.
    """

    keys: UserKeys
    trapdoor_state: TrapdoorState
    ads_value: int
    attributes: tuple[str, ...] | None = None


@dataclass
class OwnerOutput:
    """The three outbound messages after Build or Insert (Algorithm 1 lines
    21-23 / Algorithm 2 lines 26-28): a package for the cloud, the bare
    accumulation value for the blockchain, and the refreshed user package.

    With a sharded serving tier the owner additionally pre-splits the delta
    (``shard_packages``, one per shard, indexed by shard id): routing needs
    ``G1``, which only the owner sees next to each index entry — PRF labels
    are one-way, so the tier cannot split a flat package itself.
    """

    cloud_package: CloudPackage
    chain_ads: int
    user_package: UserPackage
    shard_packages: list[CloudPackage] | None = None


class DataOwner:
    """Holds all secrets; drives Build and Insert."""

    def __init__(
        self,
        params: SlicerParams,
        keys: KeyBundle | None = None,
        rng: DeterministicRNG | None = None,
    ) -> None:
        self.params = params
        self.rng = rng or default_rng()
        #: Optional :class:`~repro.sharding.plan.HashShardPlan`; when set,
        #: every Build/Insert output also carries per-shard packages.  Routing
        #: does not touch the flat package, so setting a plan never changes
        #: the single-cloud bytes.
        self.shard_plan = None
        self.keys = keys or KeyBundle.generate(self.rng)
        self.trapdoor_state = TrapdoorState()
        self.set_hash_state = SetHashState()
        self.accumulator = Accumulator(params.accumulator)
        self._cipher = SymmetricCipher(self.keys.record_key, self.rng)
        #: Each accumulated prime's keyword ``G1`` — its shard routing key.
        self._prime_g1: dict[int, bytes] = {}
        self._built = False
        #: Attribute names seen across every indexed record (shared with
        #: users so they can validate queries before paying to search).
        self._attributes: set[str] = set()
        #: Phase timings ("index" / "ads") for the Fig. 3 and Fig. 7 benches.
        self.stopwatch = Stopwatch()

    # ------------------------------------------------------------------ API

    def build(self, database: Database | AttributedDatabase) -> OwnerOutput:
        """Algorithm 1: build encrypted index and ADS from scratch."""
        if self._built:
            raise StateError("Build may run once; use insert() for updates")
        if database.bits != self.params.value_bits:
            raise StateError(
                f"database bit width {database.bits} != params {self.params.value_bits}"
            )
        self._built = True
        return self._index_batch(list(database))

    def insert(self, additions: Database | AttributedDatabase) -> OwnerOutput:
        """Algorithm 2: forward-secure insertion of new records."""
        if not self._built:
            raise StateError("call build() before insert()")
        if additions.bits != self.params.value_bits:
            raise StateError(
                f"insert bit width {additions.bits} != params {self.params.value_bits}"
            )
        return self._index_batch(list(additions))

    def user_package(self) -> UserPackage:
        """Keys + current trapdoor state for an authorised data user."""
        return UserPackage(
            keys=self.keys.user_view(),
            trapdoor_state=self.trapdoor_state.snapshot(),
            ads_value=self.accumulator.value,
            attributes=tuple(sorted(self._attributes)) if self._attributes else None,
        )

    # ------------------------------------------------------------ internals

    def _postings(self, records: list[Record | AttributedRecord]) -> dict[bytes, list[bytes]]:
        """Group record IDs by every keyword they are indexed under."""
        bits = self.params.value_bits
        postings: dict[bytes, list[bytes]] = {}
        for record in records:
            if isinstance(record, AttributedRecord):
                pairs = record.attributes
            else:
                pairs = (("", record.value),)
            for attribute, value in pairs:
                self._attributes.add(attribute)
                for keyword in keywords_for_record(value, bits, attribute):
                    postings.setdefault(keyword, []).append(record.record_id)
        return postings

    def _index_batch(self, records: list[Record | AttributedRecord]) -> OwnerOutput:
        """The shared core of Build and Insert: one epoch per touched keyword.

        Phase 1 ("index"), per keyword in postings order: sample a fresh
        trapdoor or advance the known one with π_sk^{-1} (the
        forward-security step) and draw one nonce per posting, in the
        owner RNG order a per-record ``encrypt`` loop would draw them.  All
        record IDs are then encrypted in one batch, and each posting gets
        its PRF label and pad and is folded into the keyword's running
        multiset hash.  Phase 2 ("ads"): ``H_prime`` per keyword state,
        then the single accumulator fold.  Phase 3 ("witnesses"), when the
        owner holds the accumulator trapdoor: a fresh witness for every
        accumulated prime, shipped to the cloud with the package.
        """
        new_index = EncryptedIndex()
        with self.stopwatch.measure("index"), trace.span("owner.index"):
            postings = self._postings(records)
            metrics.observe("owner.batch.records", len(records))
            metrics.observe("owner.batch.keywords", len(postings))
            staged = self._index_postings(postings, new_index)

        with self.stopwatch.measure("ads"), trace.span("owner.ads"):
            h_prime = self.params.hash_to_prime()
            new_primes: list[int] = []
            for (g1, _, state_key, running) in staged:
                self.set_hash_state.put(state_key, running)
                prime = h_prime(prime_input(state_key, running))
                new_primes.append(prime)
                self._prime_g1.setdefault(prime, g1)
            self.accumulator.add_many(new_primes)

        witnesses = None
        if self.params.accumulator.has_trapdoor:
            with self.stopwatch.measure("witnesses"), trace.span("owner.witnesses"):
                witnesses = self.accumulator.issue_witnesses()
        package = CloudPackage(new_index, new_primes, self.accumulator.value, witnesses)
        return OwnerOutput(
            cloud_package=package,
            chain_ads=self.accumulator.value,
            user_package=self.user_package(),
            shard_packages=self._split_for_shards(package, staged),
        )

    def _index_postings(
        self, postings: dict[bytes, list[bytes]], new_index: EncryptedIndex
    ) -> list[tuple[bytes, list[tuple[bytes, bytes]], bytes, MultisetHash]]:
        """Phase 1 of :meth:`_index_batch`; returns, per keyword in postings
        order, ``(G1, entries, state key, running hash)``.

        Its batch-wide nonce and ciphertext lists die when it returns.
        """
        field = self.params.multiset_field
        label_len = self.params.label_len
        #: (G1, G2, trapdoor, epoch, running hash, record IDs) per keyword.
        jobs = []
        nonces: list[bytes] = []
        for keyword, record_ids in postings.items():
            g1, g2 = derive_g1_g2(self.keys.prf_key, keyword)
            entry = self.trapdoor_state.find(keyword)
            if entry is None:
                # First sighting: fresh trapdoor, epoch 0, empty hash H(φ).
                trapdoor = self.keys.trapdoor.sample_trapdoor(self.rng)
                epoch = 0
                running = MultisetHash.empty(field)
            else:
                # Known keyword: pop its running hash and advance the
                # trapdoor via π_sk^{-1} (the forward-security step).
                trapdoor, epoch = entry.trapdoor, entry.epoch
                running = self.set_hash_state.pop(set_hash_key(trapdoor, epoch, g1, g2))
                trapdoor = self.keys.trapdoor.invert(trapdoor)
                epoch += 1
            self.trapdoor_state.put(keyword, trapdoor, epoch)
            nonces.extend(self.rng.token_bytes(NONCE_LEN) for _ in record_ids)
            jobs.append((g1, g2, trapdoor, epoch, running, record_ids))
        ciphertexts = iter(
            self._cipher.encrypt_many(
                [rid for *_, record_ids in jobs for rid in record_ids], nonces
            )
        )
        staged = []
        for g1, g2, trapdoor, epoch, running, record_ids in jobs:
            label_prf = PRF(g1, label_len)
            pad_prf = PRF(g2)
            entries: list[tuple[bytes, bytes]] = []
            for counter in range(len(record_ids)):
                record_ct = next(ciphertexts)
                label = label_prf.eval(trapdoor, encode_uint(counter))
                pad = pad_prf.eval_stream(len(record_ct), trapdoor, encode_uint(counter))
                payload = xor_bytes(pad, record_ct)
                entries.append((label, payload))
                new_index.put(label, payload)
                running = running.add(record_ct)
            staged.append((g1, entries, set_hash_key(trapdoor, epoch, g1, g2), running))
        return staged

    def _split_for_shards(self, package: CloudPackage, staged):
        """Route each keyword's entries and witnesses to its home shard.

        ``staged`` holds each keyword's entries in keyword order, so the
        split is a pure regrouping of the exact bytes the flat package
        carries — shard slices merged back together equal the flat
        index, and every shard still receives the full delta prime list
        (see :mod:`repro.sharding.plan`).
        """
        if self.shard_plan is None:
            return None
        from ..sharding.plan import split_package  # local: sharding builds on core

        plan = self.shard_plan
        routed = [(plan.shard_of(g1), entries) for g1, entries, _, _ in staged]
        witnesses = None
        if package.witnesses is not None:
            # Witnesses cover all of X, so each goes to the home shard of
            # the keyword its prime was derived for, new or old.
            witnesses = [{} for _ in range(plan.shards)]
            for prime, value in package.witnesses.items():
                witnesses[plan.shard_of(self._prime_g1[prime])][prime] = value
        return split_package(
            plan, routed, list(package.primes), package.accumulation, witnesses
        )
