"""Real ``asyncio`` socket deployment of the sharded serving tier.

The in-process :class:`~repro.sharding.frontend.ShardedCloudFrontend` is
what tests and benchmarks drive (deterministic, no event loop); this module
is the same scatter/gather over actual TCP sockets — one
:class:`ShardServer` process-equivalent per shard, one
:class:`ShardClient` fanning a query out with ``asyncio.gather`` and
merging the partial responses in token order.

The wire format reuses the protocol codecs end to end: every message is a
4-byte big-endian length prefix around a sha256-framed
(:func:`~repro.chaos.transport.frame`) ``codec.pack`` envelope, and the
payloads are exactly the :mod:`repro.core.wire` token/response encodings
plus :func:`~repro.sharding.plan.dump_shard_package` for installs — the
bytes on the socket are the bytes the chaos transport faults, so the two
execution paths exercise one serialization surface.

Bytes from the socket only ever produce a typed refusal.  A server answers
a corrupt frame or malformed envelope with an error reply and keeps
serving; an oversized length prefix gets an error reply and a hang-up,
because the unread body leaves the stream unsynchronised.  A client drops
its connection on any transport failure and reconnects on the next call.

``examples/sharded_serving.py`` runs the whole thing on localhost.
"""

from __future__ import annotations

import asyncio

from ..common.errors import ReproError, StateError
from ..chaos.transport import frame, unframe
from ..core import wire
from ..core.cloud import CloudServer, SearchResponse
from ..core.tokens import SearchToken
from ..storage import codec
from .plan import (
    ShardPlan,
    dump_shard_package,
    load_shard_package,
    merge_responses,
    route_tokens,
)

_KIND_REQUEST = b"shard-rpc-request"
_KIND_REPLY = b"shard-rpc-reply"

OP_INSTALL = b"install"
OP_SEARCH = b"search"
OP_PING = b"ping"

_STATUS_OK = b"ok"
_STATUS_ERROR = b"error"

_MAX_MESSAGE = 1 << 30


async def _read_frame(reader: asyncio.StreamReader) -> bytes:
    """One length-prefixed frame, still framed (see :func:`unframe`)."""
    header = await reader.readexactly(4)
    length = int.from_bytes(header, "big")
    if length > _MAX_MESSAGE:
        raise StateError(f"oversized shard-rpc message ({length} bytes)")
    return await reader.readexactly(length)


async def _read_message(reader: asyncio.StreamReader) -> bytes:
    return unframe(await _read_frame(reader))


async def _write_message(writer: asyncio.StreamWriter, payload: bytes) -> None:
    framed = frame(payload)
    writer.write(len(framed).to_bytes(4, "big") + framed)
    await writer.drain()


def _error_reply(exc: Exception) -> bytes:
    return codec.pack(_KIND_REPLY, _STATUS_ERROR, str(exc).encode("utf-8"))


class ShardServer:
    """One shard's network face: a :class:`CloudServer` behind a TCP port."""

    def __init__(self, shard_id: int, server: CloudServer) -> None:
        self.shard_id = shard_id
        self.server = server
        self._listener: asyncio.base_events.Server | None = None

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Listen; returns the bound ``(host, port)`` (port 0 = ephemeral)."""
        self._listener = await asyncio.start_server(self._handle, host, port)
        bound = self._listener.sockets[0].getsockname()
        return bound[0], bound[1]

    async def stop(self) -> None:
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    blob = await _read_frame(reader)
                except StateError as exc:
                    # Oversized prefix: the body was never read, so the
                    # stream cannot be resynchronised.  Refuse, then hang up.
                    await _write_message(writer, _error_reply(exc))
                    break
                try:
                    op, body = codec.unpack(unframe(blob), _KIND_REQUEST)
                    result = self._dispatch(op, body)
                    reply = codec.pack(_KIND_REPLY, _STATUS_OK, result)
                except Exception as exc:  # fault isolation: report, keep serving
                    reply = _error_reply(exc)
                await _write_message(writer, reply)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # peer went away mid-message: nothing left to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                # CancelledError: the listener is shutting down while this
                # connection drains — a clean teardown, not an error.
                pass

    def _dispatch(self, op: bytes, body: bytes) -> bytes:
        if op == OP_INSTALL:
            pkg = load_shard_package(body)
            if pkg.shard_id != self.shard_id:
                raise StateError(
                    f"shard {self.shard_id} received package for shard {pkg.shard_id}"
                )
            self.server.install(pkg.package, witness_primes=pkg.local_primes)
            return codec.encode_int(self.server.prime_count)
        if op == OP_SEARCH:
            tokens = wire.load_tokens(body)
            # The frontend-side observation convention applies on the wire
            # path too: the client observes the merged response once.
            response = self.server.search(tokens, _observe=False)
            return wire.dump_response(response)
        if op == OP_PING:
            return codec.encode_int(self.shard_id)
        raise StateError(f"unknown shard-rpc op {op!r}")


class ShardClient:
    """Scatter/gather client over N shard addresses (one connection each)."""

    def __init__(self, plan: ShardPlan, addresses: list[tuple[str, int]]) -> None:
        if len(addresses) != plan.shards:
            raise StateError(
                f"plan expects {plan.shards} shards, got {len(addresses)} addresses"
            )
        self.plan = plan
        self.addresses = list(addresses)
        self._streams: list[
            tuple[asyncio.StreamReader, asyncio.StreamWriter] | None
        ] = [None] * plan.shards
        #: One in-flight request per shard connection at a time.
        self._locks = [asyncio.Lock() for _ in addresses]

    async def _call(self, shard_id: int, op: bytes, body: bytes) -> bytes:
        async with self._locks[shard_id]:
            try:
                stream = self._streams[shard_id]
                if stream is None:
                    host, port = self.addresses[shard_id]
                    stream = await asyncio.open_connection(host, port)
                    self._streams[shard_id] = stream
                reader, writer = stream
                await _write_message(writer, codec.pack(_KIND_REQUEST, op, body))
                status, payload = codec.unpack(await _read_message(reader), _KIND_REPLY)
            except (OSError, EOFError, ReproError, ValueError) as exc:
                # The stream's position is unknown now: never reuse it.
                await self._drop(shard_id)
                raise StateError(f"shard {shard_id} transport failure: {exc}") from exc
        if status != _STATUS_OK:
            raise StateError(f"shard {shard_id} error: {payload.decode('utf-8')}")
        return payload

    async def install(self, shard_packages) -> None:
        """Push one Build/Insert delta to every shard concurrently."""
        await asyncio.gather(
            *(
                self._call(pkg.shard_id, OP_INSTALL, dump_shard_package(pkg))
                for pkg in shard_packages
            )
        )

    async def search(self, tokens: list[SearchToken]) -> SearchResponse:
        """The async scatter/gather: route, fan out, merge in token order.

        The same :func:`~repro.sharding.plan.route_tokens` /
        :func:`~repro.sharding.plan.merge_responses` pair as the in-process
        frontend, so the merged bytes equal the single-cloud response — the
        example asserts this against a local reference server.  A shard
        reply of the wrong length is refused with :class:`StateError`.
        """
        route, slices = route_tokens(self.plan, tokens)
        payloads = await asyncio.gather(
            *(
                self._call(sid, OP_SEARCH, wire.dump_tokens(shard_tokens))
                for sid, shard_tokens in slices.items()
            )
        )
        return merge_responses(
            route, {sid: wire.load_response(p) for sid, p in zip(slices, payloads)}
        )

    async def _drop(self, shard_id: int) -> None:
        stream, self._streams[shard_id] = self._streams[shard_id], None
        if stream is not None:
            stream[1].close()
            try:
                await stream[1].wait_closed()
            except ConnectionError:
                pass

    async def close(self) -> None:
        for shard_id in range(self.plan.shards):
            await self._drop(shard_id)
