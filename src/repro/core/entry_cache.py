"""Epoch-suffix result cache: repeat searches cost O(entries in new epochs).

Slicer's forward-secure index makes every epoch's entry list *immutable*
once written — an Insert advances a touched keyword's trapdoor via
``π_sk⁻¹``, so the epochs ``j..0`` below the new head never change.  The
honest cloud nevertheless re-walks the whole chain per search, re-deriving
every PRF label, index probe and pad stream.  This module caches the walk:

* **CacheNode** — keyed by ``(trapdoor, G1, G2)`` bytes, one per visited
  epoch: that epoch's decrypted entries (counter order), the running
  MSet-Mu-Hash *value* of the whole suffix ``epoch..0``, and a link to the
  next-older trapdoor (so following cached links costs zero ``π_pk``
  modexps).
* **collect_entries** — the cloud's epoch walk: it descends from the
  token head only until it hits a cached node, collects just the fresh epochs, splices the cached
  suffix, and installs nodes for the fresh prefix on the way out.  Each
  fresh epoch steps to the next with one ``π_pk`` modexp, counted as
  ``cloud.collect.pi_steps`` beside the PRF evals and index probes.  The
  head node's suffix hash *is* the full result-multiset hash, so
  ``CloudServer._token_prime`` folds it incrementally instead of rehashing
  the full multiset.

Correct invalidation is the empty set: epochs are immutable and a search
never observes a half-written epoch (``install`` happens before tokens for
the new head exist), so ``CloudServer.install`` leaves the cache intact and
only ``restore`` (crash recovery — in-memory caches die with the process)
drops it.  The cache is **per cloud instance** — entries depend on that
cloud's index contents, never shared across deployments — size-bounded with
FIFO eviction (insertion order), disabled alongside the other kernels by
``REPRO_KERNELS=0`` and emptied by :func:`repro.crypto.kernels.clear_caches`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from ..common import perfstats
from ..common.bitstring import xor_bytes
from ..common.encoding import encode_parts, encode_uint
from ..crypto import kernels
from ..crypto.multiset_hash import element_hash
from ..crypto.prf import PRF

#: Node cap per cache; beyond it the oldest nodes are evicted (FIFO via dict
#: insertion order — nodes install oldest-epoch-first, so eviction sheds the
#: deepest suffix first and the walk transparently re-probes the hole).
ENTRY_CACHE_MAX = 1 << 15


class CacheNode(NamedTuple):
    """One cached epoch of one keyword's chain.

    ``suffix_hash`` is the MSet-Mu-Hash field value over *all* entries in
    epochs ``epoch..0`` (not just this epoch's), so the node found at the
    walk's first hit closes the incremental fold in O(1).
    """

    entries: tuple[bytes, ...]  # this epoch's decrypted entries, counter order
    suffix_hash: int  # multiset-hash value of epochs epoch..0
    next_trapdoor: Optional[bytes]  # link to epoch-1's trapdoor (None at epoch 0)


class CollectResult(NamedTuple):
    """One token's collected entries plus what the cache knew about them."""

    entries: list[bytes]
    #: Full result-multiset hash value, or None when the cache was bypassed
    #: (kernels disabled / truncated walk) and the caller must hash from
    #: scratch.
    hash_value: Optional[int]
    #: Entries served from cache nodes instead of index probes.
    spliced: int


def node_key(trapdoor: bytes, g1: bytes, g2: bytes) -> bytes:
    """Content address of one epoch: injective over the walk state."""
    return encode_parts(trapdoor, g1, g2)


class EntryCache:
    """Bounded FIFO map ``node_key -> CacheNode`` for one cloud instance."""

    __slots__ = ("nodes", "max_nodes", "__weakref__")

    def __init__(self, max_nodes: int = ENTRY_CACHE_MAX) -> None:
        self.nodes: dict[bytes, CacheNode] = {}
        self.max_nodes = max_nodes
        kernels.track_instance_cache(self)

    def get(self, key: bytes) -> Optional[CacheNode]:
        return self.nodes.get(key)

    def install(self, key: bytes, node: CacheNode) -> None:
        """Insert a node (first write wins; nodes for one key are identical)."""
        nodes = self.nodes
        if key in nodes:
            return
        if len(nodes) >= self.max_nodes:
            del nodes[next(iter(nodes))]
            perfstats.incr("cloud.entry_cache.evicted")
        nodes[key] = node

    def clear(self) -> None:
        self.nodes.clear()

    def __len__(self) -> int:
        return len(self.nodes)


# ------------------------------------------------------------- the epoch walk


def _pi_step(trapdoor_public, trapdoor: bytes) -> bytes:
    """One public-permutation step ``π_pk(t)`` (an RSA modexp), counted."""
    perfstats.incr("cloud.collect.pi_steps")
    return trapdoor_public.apply(trapdoor)


def collect_entries(
    cache: Optional[EntryCache],
    find: Callable[[bytes], Optional[bytes]],
    label_len: int,
    trapdoor_public,
    field: int,
    trapdoor: bytes,
    epoch: int,
    g1: bytes,
    g2: bytes,
    max_epochs: Optional[int] = None,
) -> CollectResult:
    """Algorithm 4's epoch walk ``j..0``, spliced through the suffix cache.

    Descend from the head; at each epoch, a cache hit appends that node's
    entries and follows its link (zero PRF/index/modexp work), a miss scans
    counters exactly like the legacy loop.  Fresh epochs *above* the first
    hit are folded into suffix hashes bottom-up and installed oldest-first;
    fresh epochs *below* the first hit (an evicted hole being repaired) are
    already covered by the hit node's suffix hash and are not re-folded.

    ``max_epochs`` truncates the walk (the ``OMIT_OLD_EPOCHS`` misbehaviour);
    truncated walks bypass the cache entirely — their suffix is not the real
    suffix, so no node may be installed for them, and performance is beside
    the point on that path.  With the cache bypassed (or kernels disabled)
    the returned ``hash_value`` is None and output is byte-identical to the
    pre-cache loop.
    """
    epochs = epoch + 1
    truncated = max_epochs is not None and max_epochs < epochs
    if truncated:
        epochs = max_epochs  # type: ignore[assignment]
    label_prf = PRF(g1, label_len)
    pad_prf = PRF(g2)

    if cache is None or not kernels.kernels_enabled() or truncated:
        entries: list[bytes] = []
        probes = prf_evals = 0
        t = trapdoor
        for e in range(epochs):
            counter = 0
            while True:
                label = label_prf.eval(t, encode_uint(counter))
                probes += 1
                prf_evals += 1
                payload = find(label)
                if payload is None:
                    break
                pad = pad_prf.eval_stream(len(payload), t, encode_uint(counter))
                prf_evals += 1
                entries.append(xor_bytes(pad, payload))
                counter += 1
            if e + 1 < epochs:
                t = _pi_step(trapdoor_public, t)
        perfstats.incr("cloud.collect.index_probes", probes)
        perfstats.incr("cloud.collect.prf_evals", prf_evals)
        return CollectResult(entries, None, 0)

    entries = []
    #: Contiguous fresh prefix above the first hit: (trapdoor, epoch entries).
    fresh_prefix: list[tuple[bytes, list[bytes]]] = []
    hit_node: Optional[CacheNode] = None
    hit_trapdoor: Optional[bytes] = None
    probes = prf_evals = spliced = 0
    t = trapdoor
    for e in range(epochs):
        node = cache.get(node_key(t, g1, g2))
        if node is not None:
            if hit_node is None:
                hit_node, hit_trapdoor = node, t
            entries.extend(node.entries)
            spliced += len(node.entries)
            if e + 1 < epochs:
                # Cached link: the saved π_pk modexp.  A node can only lack a
                # link at epoch 0, where the loop ends; the step fallback
                # guards impossible-in-honest-use inconsistency.
                t = (
                    node.next_trapdoor
                    if node.next_trapdoor is not None
                    else _pi_step(trapdoor_public, t)
                )
            continue
        epoch_entries: list[bytes] = []
        counter = 0
        while True:
            label = label_prf.eval(t, encode_uint(counter))
            probes += 1
            prf_evals += 1
            payload = find(label)
            if payload is None:
                break
            pad = pad_prf.eval_stream(len(payload), t, encode_uint(counter))
            prf_evals += 1
            epoch_entries.append(xor_bytes(pad, payload))
            counter += 1
        entries.extend(epoch_entries)
        if hit_node is None:
            fresh_prefix.append((t, epoch_entries))
        if e + 1 < epochs:
            t = _pi_step(trapdoor_public, t)

    # Fold the fresh prefix bottom-up onto the hit node's suffix hash and
    # install one node per fresh epoch.  The final fold value is the hash of
    # the *entire* result multiset: hole-repaired entries below the hit are
    # already inside ``hit_node.suffix_hash``, so they are not re-folded.
    if hit_node is not None:
        suffix_value = hit_node.suffix_hash
        next_trapdoor = hit_trapdoor
    else:
        suffix_value = 1  # H(φ)
        next_trapdoor = None
    for node_trapdoor, epoch_entries in reversed(fresh_prefix):
        for entry in epoch_entries:
            suffix_value = suffix_value * element_hash(entry, field) % field
        cache.install(
            node_key(node_trapdoor, g1, g2),
            CacheNode(tuple(epoch_entries), suffix_value, next_trapdoor),
        )
        next_trapdoor = node_trapdoor

    perfstats.incr("cloud.entry_cache.hit" if hit_node is not None else "cloud.entry_cache.miss")
    perfstats.incr("cloud.entry_cache.spliced_entries", spliced)
    perfstats.incr("cloud.collect.index_probes", probes)
    perfstats.incr("cloud.collect.prf_evals", prf_evals)
    return CollectResult(entries, suffix_value, spliced)
