"""Socket-path tests: the asyncio scatter/gather on a localhost loopback."""

import asyncio

import pytest

from repro.common.encoding import encode_parts
from repro.common.errors import StateError
from repro.common.rng import default_rng
from repro.core import wire
from repro.core.cloud import CloudServer
from repro.core.query import Query
from repro.core.records import make_database
from repro.core.user import DataUser
from repro.sharding import HashShardPlan, net
from repro.sharding.net import OP_PING, ShardClient, ShardServer
from repro.storage import codec

VALUES = [7, 7, 9, 40, 41, 64, 3, 200]
QUERIES = [Query.parse(7, "="), Query.parse(10, "<"), Query.parse(100, ">")]


def build(tparams, owner_factory, session_keys, shards):
    plan = HashShardPlan(shards)
    owner = owner_factory(tparams)
    owner.shard_plan = plan
    out = owner.build(
        make_database([(f"rec-{i}", v) for i, v in enumerate(VALUES)], bits=8)
    )
    servers = [
        ShardServer(sid, CloudServer(tparams, session_keys.trapdoor.public))
        for sid in range(shards)
    ]
    reference = CloudServer(tparams, session_keys.trapdoor.public)
    reference.install(out.cloud_package)
    user = DataUser(tparams, out.user_package, default_rng(3))
    return plan, out, servers, reference, user


async def serve(plan, servers):
    addresses = [await server.start() for server in servers]
    return ShardClient(plan, addresses)


class TestLoopbackScatterGather:
    def test_install_and_search_match_single_cloud(
        self, tparams, owner_factory, session_keys
    ):
        plan, out, servers, reference, user = build(
            tparams, owner_factory, session_keys, 3
        )

        async def scenario():
            client = await serve(plan, servers)
            try:
                await client.install(out.shard_packages)
                responses = []
                for query in QUERIES:
                    tokens = user.make_tokens(query)
                    responses.append(
                        (tokens, wire.dump_response(await client.search(tokens)))
                    )
                return responses
            finally:
                await client.close()
                for server in servers:
                    await server.stop()

        for tokens, blob in asyncio.run(scenario()):
            assert blob == wire.dump_response(reference.search(tokens))

    def test_ping_and_misrouted_install_error(
        self, tparams, owner_factory, session_keys
    ):
        plan, out, servers, _, _ = build(tparams, owner_factory, session_keys, 2)

        async def scenario():
            client = await serve(plan, servers)
            try:
                pongs = [
                    codec.decode_int(await client._call(sid, OP_PING, b""))
                    for sid in range(2)
                ]
                # A package addressed to shard 1 delivered to shard 0 must be
                # refused with an error reply, and the connection must survive.
                misrouted = next(p for p in out.shard_packages if p.shard_id == 1)
                from repro.sharding.plan import dump_shard_package
                from repro.sharding.net import OP_INSTALL

                try:
                    await client._call(0, OP_INSTALL, dump_shard_package(misrouted))
                    raised = False
                except StateError:
                    raised = True
                pong_after = codec.decode_int(await client._call(0, OP_PING, b""))
                return pongs, raised, pong_after
            finally:
                await client.close()
                for server in servers:
                    await server.stop()

        pongs, raised, pong_after = asyncio.run(scenario())
        assert pongs == [0, 1]
        assert raised, "misrouted install must produce an error reply"
        assert pong_after == 0, "server must keep serving after an error"


def _raw(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "big") + payload


def _bad_frame(payload: bytes) -> bytes:
    """A frame that parses but fails its sha256 content digest."""
    return encode_parts(b"\x00" * 32, payload)


async def _reply(reader) -> list[bytes]:
    return codec.unpack(await net._read_message(reader), net._KIND_REPLY)


class TestHostileBytes:
    def test_corrupt_frames_get_error_replies_not_crashes(self, tparams, session_keys):
        """A corrupt frame and a malformed envelope each get an error reply on
        a connection that keeps serving; an oversized length prefix gets an
        error reply and a clean close.  Nothing escapes the handler task."""
        server = ShardServer(0, CloudServer(tparams, session_keys.trapdoor.public))
        escaped = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: escaped.append(context)
            )
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                replies = []
                writer.write(_raw(_bad_frame(b"payload")))
                replies.append(await _reply(reader))
                # Well-framed bytes that are not a request envelope.
                writer.write(_raw(net.frame(b"not an envelope")))
                replies.append(await _reply(reader))
                # The stream stayed in sync: a real request still works.
                ping = codec.pack(net._KIND_REQUEST, OP_PING, b"")
                writer.write(_raw(net.frame(ping)))
                replies.append(await _reply(reader))
                # Oversized prefix: refused, then the server hangs up.
                writer.write((net._MAX_MESSAGE + 1).to_bytes(4, "big"))
                replies.append(await _reply(reader))
                trailing = await reader.read()
                return replies, trailing
            finally:
                writer.close()
                await server.stop()

        replies, trailing = asyncio.run(scenario())
        assert [status for status, _ in replies] == [
            net._STATUS_ERROR,
            net._STATUS_ERROR,
            net._STATUS_OK,
            net._STATUS_ERROR,
        ]
        assert b"digest" in replies[0][1]
        assert b"oversized" in replies[3][1]
        assert trailing == b"", "server must close after an oversized prefix"
        assert not escaped, f"handler raised: {escaped}"

    def test_client_reconnects_after_corrupt_round(
        self, tparams, session_keys, monkeypatch
    ):
        """One corrupt round surfaces a StateError and drops the broken
        stream; the next call on the same client reconnects and succeeds."""
        plan = HashShardPlan(1)
        server = ShardServer(0, CloudServer(tparams, session_keys.trapdoor.public))

        async def scenario():
            client = ShardClient(plan, [await server.start()])
            try:
                assert codec.decode_int(await client._call(0, OP_PING, b"")) == 0
                with monkeypatch.context() as patch:
                    # Every frame written in this round fails its digest.
                    patch.setattr(net, "frame", _bad_frame)
                    with pytest.raises(StateError):
                        await client._call(0, OP_PING, b"")
                return codec.decode_int(await client._call(0, OP_PING, b""))
            finally:
                await client.close()
                await server.stop()

        assert asyncio.run(scenario()) == 0
