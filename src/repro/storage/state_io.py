"""Serialization of protocol state: index, trapdoor state, ADS, user package.

What gets persisted and by whom:

* **cloud** — the encrypted index ``I`` and prime list ``X`` (its whole
  working state; rebuilding them requires the owner).  The combined
  :func:`dump_cloud_state` snapshot is what the chaos layer's crash-restart
  recovery reloads; :func:`dump_cloud_package` wraps it with the owner's
  witnesses as the owner -> cloud (or shard) install message.
* **owner** — trapdoor state ``T`` and set-hash state ``S`` (losing S makes
  future inserts impossible; losing T strands users).
* **user** — the trapdoor-state snapshot plus the last seen ``Ac``.

Secret keys are intentionally *not* serialized here — key management is a
deployment concern; see :class:`repro.core.params.KeyBundle`.

Robustness contract: every ``load_*`` here either returns fully decoded
state or raises a :class:`~repro.common.errors.StateError` — never a
partially populated object.  Truncation and bit rot are caught by the
codec's content digest (v2 framing); :func:`save` writes atomically
(tmp file + rename) so a crash mid-write leaves the previous snapshot
intact instead of a torn file.
"""

from __future__ import annotations

import contextlib
import os
import pathlib

from ..common.encoding import encode_parts, decode_parts, encode_uint, decode_uint
from ..common.errors import ParameterError, StateError
from ..core.state import CloudPackage, EncryptedIndex, SetHashState, TrapdoorState
from ..crypto.multiset_hash import MultisetHash
from . import codec

_KIND_INDEX = b"index"
_KIND_TRAPDOORS = b"trapdoors"
_KIND_SETHASH = b"sethash"
_KIND_PRIMES = b"primes"
_KIND_CLOUD = b"cloud-state"
_KIND_INSTALL = b"cloud-install"


@contextlib.contextmanager
def _loading(what: str):
    """Convert codec/structure errors into one clear ``StateError``."""
    try:
        yield
    except StateError:
        raise
    except (ParameterError, ValueError) as exc:
        raise StateError(f"cannot load {what}: {exc}") from exc


# ----------------------------------------------------------------- index

def dump_index(index: EncryptedIndex) -> bytes:
    return codec.pack(_KIND_INDEX, codec.encode_mapping(index._entries))


def load_index(blob: bytes) -> EncryptedIndex:
    with _loading("encrypted index"):
        (mapping,) = codec.unpack(blob, _KIND_INDEX)
        index = EncryptedIndex()
        for label, payload in codec.decode_mapping(mapping).items():
            index.put(label, payload)
        return index


# ------------------------------------------------------------- trapdoors

def dump_trapdoor_state(state: TrapdoorState) -> bytes:
    entries: dict[bytes, bytes] = {}
    for keyword in state.keywords():
        entry = state.get(keyword)
        entries[keyword] = encode_parts(entry.trapdoor, encode_uint(entry.epoch))
    return codec.pack(_KIND_TRAPDOORS, codec.encode_mapping(entries))


def load_trapdoor_state(blob: bytes) -> TrapdoorState:
    with _loading("trapdoor state"):
        (mapping,) = codec.unpack(blob, _KIND_TRAPDOORS)
        state = TrapdoorState()
        for keyword, packed in codec.decode_mapping(mapping).items():
            trapdoor, epoch = decode_parts(packed)
            state.put(keyword, trapdoor, decode_uint(epoch))
        return state


# -------------------------------------------------------------- set hash

def dump_set_hash_state(state: SetHashState, field: int) -> bytes:
    entries = {key: value.to_bytes() for key, value in state.items()}
    return codec.pack(
        _KIND_SETHASH, codec.encode_int(field), codec.encode_mapping(entries)
    )


def load_set_hash_state(blob: bytes) -> SetHashState:
    with _loading("set-hash state"):
        field_blob, mapping = codec.unpack(blob, _KIND_SETHASH)
        field = codec.decode_int(field_blob)
        state = SetHashState()
        for key, value in codec.decode_mapping(mapping).items():
            state.put(key, MultisetHash(int.from_bytes(value, "big"), field))
        return state


# ----------------------------------------------------------------- primes

def dump_primes(primes: list[int]) -> bytes:
    return codec.pack(_KIND_PRIMES, *[codec.encode_int(p) for p in primes])


def load_primes(blob: bytes) -> list[int]:
    with _loading("prime list"):
        return [codec.decode_int(p) for p in codec.unpack(blob, _KIND_PRIMES)]


# ------------------------------------------------------------ cloud state

def dump_cloud_state(index: EncryptedIndex, primes: list[int], ads_value: int) -> bytes:
    """One self-contained cloud snapshot: ``(I, X, Ac)``.

    The snapshot a crashed cloud restarts from, and the state half of the
    :func:`dump_cloud_package` install message — one format, one integrity
    check, exercised by both paths.
    """
    return codec.pack(
        _KIND_CLOUD,
        dump_index(index),
        dump_primes(primes),
        codec.encode_int(ads_value),
    )


def load_cloud_state(blob: bytes) -> tuple[EncryptedIndex, list[int], int]:
    with _loading("cloud state snapshot"):
        index_blob, primes_blob, ads_blob = codec.unpack(blob, _KIND_CLOUD)
        return (
            load_index(index_blob),
            load_primes(primes_blob),
            codec.decode_int(ads_blob),
        )


def dump_cloud_package(package: CloudPackage) -> bytes:
    """The owner -> cloud install message: ``(I, X, Ac)`` plus owner witnesses.

    A flat install and a shard's install use this one codec (the shard id
    travels as the channel, not in the payload).  The witnesses ride as one
    ``prime -> witness`` mapping, empty without them; the cloud still checks
    each with ``VerifyMem`` before its first serve.
    """
    witnesses = package.witnesses or {}
    return codec.pack(
        _KIND_INSTALL,
        dump_cloud_state(package.index, list(package.primes), package.accumulation),
        codec.encode_mapping(
            {codec.encode_int(p): codec.encode_int(w) for p, w in witnesses.items()}
        ),
    )


def load_cloud_package(blob: bytes) -> CloudPackage:
    with _loading("cloud install package"):
        state_blob, witness_blob = codec.unpack(blob, _KIND_INSTALL)
        witnesses = {
            codec.decode_int(p): codec.decode_int(w)
            for p, w in codec.decode_mapping(witness_blob).items()
        }
        index, primes, ads_value = load_cloud_state(state_blob)
        return CloudPackage(index, primes, ads_value, witnesses or None)


# ------------------------------------------------------------ file helpers

def fsync_dir(path: str | pathlib.Path) -> None:
    """fsync a directory so a just-renamed/created entry survives power loss.

    ``os.replace`` makes a rename atomic but not durable: the new directory
    entry lives in the page cache until the *directory* inode is synced, so
    a crash after the rename can resurrect the old file — or, for a freshly
    created file, lose it entirely.  Platforms whose filesystems refuse
    ``open(dir, O_RDONLY)`` (some network mounts, Windows) degrade to the
    rename-only guarantee rather than failing the write.
    """
    try:
        fd = os.open(pathlib.Path(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def save(path: str | pathlib.Path, blob: bytes) -> None:
    """Durably persist a state blob: write-temp, fsync, rename, fsync dir.

    A crash at any point leaves either the old file or the new one — never
    a torn mix — which is the property the chaos layer's crash-restart
    recovery depends on.  The final directory fsync makes the rename itself
    durable; without it a post-rename crash could roll the directory entry
    back to the old snapshot.  The segment store's manifest swap rides on
    this same helper, so both persistence paths share one durability
    contract.
    """
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(blob)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


def load(path: str | pathlib.Path) -> bytes:
    """Read a state blob; missing/unreadable files raise :class:`StateError`.

    The module's robustness contract covers the filesystem too: callers on
    the crash-recovery path handle exactly one exception type, so a missing
    snapshot (never written, or lost with its directory) and an unreadable
    one (permissions, I/O errors) must not leak raw ``FileNotFoundError`` /
    ``OSError`` past this boundary.
    """
    path = pathlib.Path(path)
    try:
        return path.read_bytes()
    except FileNotFoundError as exc:
        raise StateError(f"state file missing: {path}") from exc
    except OSError as exc:
        raise StateError(f"cannot read state file {path}: {exc}") from exc
