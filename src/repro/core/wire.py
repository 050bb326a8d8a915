"""Wire serialization for protocol messages.

Tokens and search responses travel between four parties (and get archived
for later audits), so they need a canonical byte format independent of any
Python runtime.  Framing reuses the storage codec (magic + version +
length-prefixed parts); sizes produced here are what the Fig. 6 overhead
measurements count.
"""

from __future__ import annotations

from ..common.encoding import decode_parts, decode_uint, encode_parts, encode_uint
from ..crypto.accumulator import MembershipWitness
from ..storage import codec
from .cloud import SearchResponse, TokenResult
from .tokens import SearchToken

_KIND_TOKENS = b"wire-tokens"
_KIND_RESPONSE = b"wire-response"


def entry_wire_len(params) -> int:
    """Byte length of one encrypted result entry on the wire.

    Entries are ``SymmetricCipher`` ciphertexts of fixed-size record IDs:
    ``nonce || body`` with a CTR-mode body as long as the plaintext.  Anyone
    fabricating an entry (see ``MaliciousCloud.INJECT_ENTRY``) must match
    this exactly — deriving it here, from the cipher layout and
    ``params.record_id_len``, keeps forged sizes in lock-step if either
    ever changes, instead of hard-coding today's 16-byte nonce.
    """
    from ..crypto.symmetric import NONCE_LEN  # local: avoids import-order knots

    return NONCE_LEN + params.record_id_len


def dump_tokens(tokens: list[SearchToken]) -> bytes:
    """Serialize a token list (what the user posts to the chain)."""
    return codec.pack(_KIND_TOKENS, *[t.encode() for t in tokens])


def load_tokens(blob: bytes) -> list[SearchToken]:
    out = []
    for part in codec.unpack(blob, _KIND_TOKENS):
        trapdoor, epoch, g1, g2 = decode_parts(part)
        out.append(SearchToken(trapdoor, decode_uint(epoch), g1, g2))
    return out


def _dump_result(result: TokenResult) -> bytes:
    return encode_parts(
        result.token.encode(),
        encode_parts(*result.entries),
        codec.encode_int(result.witness.value),
    )


def _load_result(blob: bytes) -> TokenResult:
    token_blob, entries_blob, witness_blob = decode_parts(blob)
    trapdoor, epoch, g1, g2 = decode_parts(token_blob)
    return TokenResult(
        SearchToken(trapdoor, decode_uint(epoch), g1, g2),
        decode_parts(entries_blob),
        MembershipWitness(codec.decode_int(witness_blob)),
    )


def dump_response(response: SearchResponse) -> bytes:
    """Serialize a full response (what the cloud posts / an auditor archives)."""
    return codec.pack(_KIND_RESPONSE, *[_dump_result(r) for r in response.results])


def load_response(blob: bytes) -> SearchResponse:
    return SearchResponse([_load_result(p) for p in codec.unpack(blob, _KIND_RESPONSE)])


def many(item_codec) -> tuple:
    """The codec of a batch message: a list, each item under ``item_codec``."""
    dump, load = item_codec
    return (
        lambda items: encode_parts(*[dump(item) for item in items]),
        lambda blob: [load(part) for part in decode_parts(blob)],
    )


#: The ``(dump, load)`` codecs a faulting transport frames these messages with.
TOKENS = (dump_tokens, load_tokens)
RESPONSE = (dump_response, load_response)
TOKEN_LISTS = many(TOKENS)
RESPONSES = many(RESPONSE)
