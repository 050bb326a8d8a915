"""Durable epoch-segment store: append-only persistence for the cloud's state.

Slicer's forward-secure index is append-only by construction — an epoch's
entries are immutable once written — so the natural durable representation
is a chain of immutable **segments**, one per committed install (Build or
Insert delta), instead of the whole-state snapshot blobs
:mod:`repro.storage.state_io` rewrites on every change:

* ``seg-00000.slcr``, ``seg-00001.slcr``, … — one codec-v2-framed record
  per installed delta: the delta's index entries, its primes (installation
  order) and the post-install accumulation value ``Ac``, plus an empty
  fifth part (older shard stores kept a local-prime list there; the
  reader ignores it).  Segment files are written once, fsynced, and never
  modified.
* ``manifest.slcr`` — the small mutable root: the store *plan* fingerprint
  (single-cloud vs a specific shard of a specific tier), the segment chain
  (name, length and SHA-256 digest per segment), the current ``Ac``, and
  the digest of the optional warm-state checkpoint.  Rewritten atomically
  through :func:`state_io.save` (tmp + fsync + rename + directory fsync).
* ``warm.slcr`` — an optional warm-restart checkpoint: entry-cache nodes,
  the cloud's checked witness map and its ``H_prime`` memo slice, stamped
  with the ``(Ac, primes, index)`` digests they were computed against.
  Purely an accelerator: a stale, malformed or missing checkpoint degrades
  to a cold rebuild, never to wrong answers, and its witnesses are checked
  per item again before they are served.

**Commit protocol.**  ``append`` writes + fsyncs the segment file, fsyncs
the directory, *then* swaps the manifest.  A crash between the two leaves
an orphan segment file beyond the manifest's chain — the **torn tail** —
which :meth:`SegmentStore.open` deletes (the install never committed; the
owner will re-send it).  A manifest-listed segment that is missing, short,
or fails its content digest is **interior corruption**: the history cannot
be reconstructed, so opening refuses with :class:`StateError` rather than
serving a silently partial index.

Segment payloads are read lazily (and mmap-backed when the platform
allows): :meth:`SegmentStore.open` only stats + digests nothing — each
segment is loaded and digest-verified on first replay, so a restarted
cloud pays rehydration cost proportional to what it actually walks.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import pathlib
from typing import Iterator, NamedTuple

from ..common import perfstats
from ..common.encoding import encode_parts
from ..common.errors import ParameterError, StateError
from . import codec
from .state_io import fsync_dir, save

_KIND_MANIFEST = b"segment-manifest"
_KIND_SEGMENT = b"epoch-segment"
_KIND_WARM = b"warm-state"

MANIFEST_NAME = "manifest.slcr"
WARM_NAME = "warm.slcr"

#: Default plan fingerprint for a non-sharded cloud's store.
SINGLE_PLAN = b"single-cloud"


def primes_digest(primes) -> bytes:
    """Order-independent digest of a prime set (any iterable of ints)."""
    encoded = sorted(codec.encode_int(p) for p in primes)
    return hashlib.sha256(encode_parts(b"primes-digest", *encoded)).digest()


def index_digest(entries: dict[bytes, bytes]) -> bytes:
    """Deterministic digest of an index's label->payload map."""
    return hashlib.sha256(codec.encode_mapping(entries)).digest()


def _segment_name(seq: int) -> str:
    return f"seg-{seq:05d}.slcr"


class SegmentRecord(NamedTuple):
    """One manifest entry: the chain's view of an on-disk segment file."""

    name: str
    length: int
    digest: bytes


class Segment(NamedTuple):
    """One decoded epoch segment (one committed install)."""

    seq: int
    entries: dict[bytes, bytes]  # the delta's index entries
    primes: list[int]  # the delta's primes, installation order
    ads_value: int  # Ac after this install


class SegmentStore:
    """An append-only segment chain plus its fsynced manifest, in one dir."""

    def __init__(
        self,
        root: pathlib.Path,
        plan: bytes,
        records: list[SegmentRecord],
        ads_value: int,
        warm: SegmentRecord | None,
    ) -> None:
        self.root = root
        self.plan = plan
        self._records = records
        self._ads_value = ads_value
        self._warm = warm

    # ------------------------------------------------------------ lifecycle

    @classmethod
    def create(cls, path: str | pathlib.Path, plan: bytes = SINGLE_PLAN) -> "SegmentStore":
        """Initialise an empty store at ``path`` (directory created if needed).

        Refuses a directory that already holds a manifest: a store is an
        authoritative history, and silently re-initialising one would orphan
        every committed segment.
        """
        root = pathlib.Path(path)
        root.mkdir(parents=True, exist_ok=True)
        if (root / MANIFEST_NAME).exists():
            raise StateError(
                f"segment store already exists at {root}; open() it instead"
            )
        store = cls(root, plan, [], 0, None)
        store._write_manifest()
        return store

    @classmethod
    def open(cls, path: str | pathlib.Path, plan: bytes | None = None) -> "SegmentStore":
        """Open an existing store: validate the manifest, clean the torn tail.

        ``plan`` (when given) must match the fingerprint recorded at
        :meth:`create` time — a shard reopening another shard's store (or a
        tier of a different width) is refused before any segment is read.
        """
        root = pathlib.Path(path)
        manifest_path = root / MANIFEST_NAME
        try:
            blob = manifest_path.read_bytes()
        except FileNotFoundError as exc:
            raise StateError(f"no segment store at {root}") from exc
        except OSError as exc:
            raise StateError(f"cannot read segment manifest {manifest_path}: {exc}") from exc
        try:
            parts = codec.unpack(blob, _KIND_MANIFEST)
        except (ParameterError, ValueError) as exc:
            raise StateError(f"corrupt segment manifest at {manifest_path}: {exc}") from exc
        if len(parts) < 3:
            raise StateError(f"corrupt segment manifest at {manifest_path}: too few fields")
        stored_plan, ads_blob, warm_blob, *seg_blobs = parts
        if plan is not None and stored_plan != plan:
            raise StateError(
                f"segment store plan mismatch at {root}: "
                f"store records {stored_plan!r}, caller expects {plan!r}"
            )
        records = []
        for seg_blob in seg_blobs:
            try:
                name, length, digest = codec.decode_parts(seg_blob)
            except (ParameterError, ValueError) as exc:
                raise StateError(
                    f"corrupt segment record in manifest at {manifest_path}: {exc}"
                ) from exc
            records.append(
                SegmentRecord(name.decode("ascii"), codec.decode_int(length), digest)
            )
        warm: SegmentRecord | None = None
        if warm_blob:
            try:
                wname, wlength, wdigest = codec.decode_parts(warm_blob)
            except (ParameterError, ValueError) as exc:
                raise StateError(
                    f"corrupt warm record in manifest at {manifest_path}: {exc}"
                ) from exc
            warm = SegmentRecord(wname.decode("ascii"), codec.decode_int(wlength), wdigest)
        store = cls(root, stored_plan, records, codec.decode_int(ads_blob), warm)
        store._truncate_torn_tail()
        return store

    def _truncate_torn_tail(self) -> None:
        """Delete segment files beyond the manifest's chain (uncommitted).

        A crash between segment write and manifest swap leaves the new file
        on disk with no manifest entry: the install never committed, the
        idempotent owner re-sends it, and keeping the orphan would collide
        with the re-send's sequence number.  Listed segments are *not*
        checked here — they verify lazily on first replay.
        """
        listed = {record.name for record in self._records}
        removed = 0
        for seg_path in sorted(self.root.glob("seg-*.slcr")):
            if seg_path.name not in listed:
                seg_path.unlink()
                removed += 1
        if removed:
            perfstats.incr("segstore.tail_truncated", removed)
            fsync_dir(self.root)
        # A warm checkpoint written before a crash mid-swap may disagree
        # with the manifest; digest validation happens in read_warm().
        if self._warm is None and (self.root / WARM_NAME).exists():
            (self.root / WARM_NAME).unlink()
            fsync_dir(self.root)

    # --------------------------------------------------------------- append

    @property
    def ads_value(self) -> int:
        return self._ads_value

    @property
    def segment_count(self) -> int:
        return len(self._records)

    def append(
        self,
        entries: dict[bytes, bytes],
        primes: list[int],
        ads_value: int,
    ) -> int:
        """Commit one install delta as an immutable segment; returns its seq.

        Write order is the commit protocol: segment file + fsync, directory
        fsync (the file's existence is durable), then the atomic manifest
        swap (the commit point).  A crash before the swap leaves a torn
        tail; after it, the install is durable.
        """
        seq = len(self._records)
        blob = codec.pack(
            _KIND_SEGMENT,
            codec.encode_int(seq),
            codec.encode_mapping(entries),
            codec.encode_parts(*[codec.encode_int(p) for p in primes]),
            codec.encode_int(ads_value),
            b"",
        )
        name = _segment_name(seq)
        seg_path = self.root / name
        with open(seg_path, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        fsync_dir(self.root)
        self._records.append(SegmentRecord(name, len(blob), hashlib.sha256(blob).digest()))
        self._ads_value = ads_value
        self._write_manifest()
        perfstats.incr("segstore.appends")
        return seq

    def _write_manifest(self) -> None:
        warm_blob = b""
        if self._warm is not None:
            warm_blob = codec.encode_parts(
                self._warm.name.encode("ascii"),
                codec.encode_int(self._warm.length),
                self._warm.digest,
            )
        blob = codec.pack(
            _KIND_MANIFEST,
            self.plan,
            codec.encode_int(self._ads_value),
            warm_blob,
            *[
                codec.encode_parts(
                    record.name.encode("ascii"),
                    codec.encode_int(record.length),
                    record.digest,
                )
                for record in self._records
            ],
        )
        save(self.root / MANIFEST_NAME, blob)

    # --------------------------------------------------------------- replay

    def _read_segment_file(self, record: SegmentRecord) -> bytes:
        path = self.root / record.name
        try:
            with open(path, "rb") as handle:
                try:
                    with mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ) as view:
                        blob = bytes(view)
                except (ValueError, OSError):
                    blob = handle.read()  # empty or unmappable file
        except FileNotFoundError as exc:
            raise StateError(
                f"segment store at {self.root} is corrupt: "
                f"manifest lists {record.name} but the file is missing"
            ) from exc
        except OSError as exc:
            raise StateError(f"cannot read segment {path}: {exc}") from exc
        if len(blob) != record.length or hashlib.sha256(blob).digest() != record.digest:
            raise StateError(
                f"segment store at {self.root} is corrupt: "
                f"{record.name} failed its content digest (interior corruption)"
            )
        return blob

    def replay(self) -> Iterator[Segment]:
        """Yield every committed segment in order, digest-verified lazily."""
        for seq, record in enumerate(self._records):
            blob = self._read_segment_file(record)
            try:
                seq_blob, mapping, primes_blob, ads_blob, _ = codec.unpack(blob, _KIND_SEGMENT)
                if codec.decode_int(seq_blob) != seq:
                    raise ParameterError(
                        f"segment {record.name} carries sequence "
                        f"{codec.decode_int(seq_blob)}, expected {seq}"
                    )
                entries = codec.decode_mapping(mapping)
                primes = [codec.decode_int(p) for p in codec.decode_parts(primes_blob)]
            except (ParameterError, ValueError) as exc:
                raise StateError(
                    f"segment store at {self.root} is corrupt: "
                    f"cannot decode {record.name}: {exc}"
                ) from exc
            perfstats.incr("segstore.segments_replayed")
            yield Segment(seq, entries, primes, codec.decode_int(ads_blob))

    # ----------------------------------------------------- warm checkpoints

    def write_warm(self, blob: bytes) -> None:
        """Persist a warm-restart checkpoint and record it in the manifest."""
        framed = codec.pack(_KIND_WARM, blob)
        path = self.root / WARM_NAME
        with open(path, "wb") as handle:
            handle.write(framed)
            handle.flush()
            os.fsync(handle.fileno())
        fsync_dir(self.root)
        self._warm = SegmentRecord(WARM_NAME, len(framed), hashlib.sha256(framed).digest())
        self._write_manifest()
        perfstats.incr("segstore.warm.written")

    def read_warm(self) -> bytes | None:
        """The last checkpoint's payload, or None when absent/invalid.

        The checkpoint is an accelerator, never a source of truth: any
        mismatch (missing file, manifest digest disagreement, codec
        failure) degrades to None — a cold rebuild — instead of raising.
        """
        if self._warm is None:
            return None
        path = self.root / self._warm.name
        try:
            framed = path.read_bytes()
        except OSError:
            perfstats.incr("segstore.warm.invalid")
            return None
        if (
            len(framed) != self._warm.length
            or hashlib.sha256(framed).digest() != self._warm.digest
        ):
            perfstats.incr("segstore.warm.invalid")
            return None
        try:
            (payload,) = codec.unpack(framed, _KIND_WARM)
        except (ParameterError, ValueError):
            perfstats.incr("segstore.warm.invalid")
            return None
        return payload


# ------------------------------------------------------- warm-state payload


class WarmState(NamedTuple):
    """A decoded warm-restart checkpoint.

    ``ads_value`` / ``primes_digest`` / ``index_digest`` stamp the exact
    state the caches were computed against; a reopening cloud compares them
    to its replayed state and discards the checkpoint on any mismatch.
    Collections preserve insertion order — the entry cache and the ``H_prime``
    memo evict FIFO by dict order, so rehydration must not re-sort them.
    """

    ads_value: int
    primes_digest: bytes
    index_digest: bytes
    #: ``[(node_key, (entries tuple, suffix_hash, next_trapdoor|None)), ...]``
    entry_nodes: list[tuple[bytes, tuple[tuple[bytes, ...], int, bytes | None]]]
    witnesses: dict[int, int]
    hash_items: list[tuple[bytes, tuple[int, int]]]


def _encode_optional(value: bytes | None) -> bytes:
    return b"" if value is None else b"\x01" + value


def _decode_optional(blob: bytes) -> bytes | None:
    return None if not blob else blob[1:]


def pack_warm_state(
    ads_value: int,
    primes_dig: bytes,
    index_dig: bytes,
    entry_nodes,
    witnesses: dict[int, int],
    hash_items,
) -> bytes:
    """Serialize one warm checkpoint (inverse of :func:`unpack_warm_state`)."""

    nodes_blob = encode_parts(
        *[
            encode_parts(
                key,
                encode_parts(*entries),
                codec.encode_int(suffix_hash),
                _encode_optional(next_trapdoor),
            )
            for key, (entries, suffix_hash, next_trapdoor) in entry_nodes
        ]
    )
    witness_blob = encode_parts(
        *[
            encode_parts(codec.encode_int(p), codec.encode_int(w))
            for p, w in witnesses.items()
        ]
    )
    hash_blob = encode_parts(
        *[
            encode_parts(data, codec.encode_int(prime), codec.encode_int(counter))
            for data, (prime, counter) in hash_items
        ]
    )
    return encode_parts(
        codec.encode_int(ads_value),
        primes_dig,
        index_dig,
        nodes_blob,
        witness_blob,
        hash_blob,
    )


def unpack_warm_state(blob: bytes) -> WarmState:
    """Decode a warm checkpoint; raises ``ParameterError``/``ValueError`` on
    malformed input (callers treat that as a stale checkpoint)."""
    from ..common.encoding import decode_parts

    (
        ads_blob, primes_dig, index_dig,
        nodes_blob, witness_blob, hash_blob,
    ) = decode_parts(blob)

    entry_nodes = []
    for packed in decode_parts(nodes_blob):
        key, entries_blob, suffix_blob, next_blob = decode_parts(packed)
        entry_nodes.append(
            (
                key,
                (
                    tuple(decode_parts(entries_blob)),
                    codec.decode_int(suffix_blob),
                    _decode_optional(next_blob),
                ),
            )
        )
    witnesses: dict[int, int] = {}
    for packed in decode_parts(witness_blob):
        prime, witness = decode_parts(packed)
        witnesses[codec.decode_int(prime)] = codec.decode_int(witness)
    hash_items = []
    for packed in decode_parts(hash_blob):
        data, prime, counter = decode_parts(packed)
        hash_items.append((data, (codec.decode_int(prime), codec.decode_int(counter))))
    return WarmState(
        codec.decode_int(ads_blob),
        primes_dig,
        index_dig,
        entry_nodes,
        witnesses,
        hash_items,
    )
