"""The Slicer protocol core: Build, Insert, Search, Verify and the parties."""

from .audit import AuditRecord, ThirdPartyAuditor
from .cloud import (
    CloudServer,
    MaliciousCloud,
    Misbehavior,
    SearchResponse,
    TokenResult,
)
from .keywords import (
    equality_keyword,
    keywords_for_record,
    order_keywords_for_query,
    order_keywords_for_value,
)
from .owner import DataOwner, OwnerOutput, UserPackage
from .params import KeyBundle, SlicerParams, UserKeys
from .query import And, MatchCondition, Query, Range
from .records import (
    AttributedDatabase,
    AttributedRecord,
    Database,
    Record,
    encode_record_id,
    make_database,
)
from .state import CloudPackage, EncryptedIndex, SetHashState, TrapdoorState, set_hash_key
from .tokens import SearchToken, derive_g1_g2, generate_search_tokens, tokens_size_bytes
from .user import DataUser
from .verify import VerificationReport, verify_response, verify_token_result
from .wire import dump_response, dump_tokens, load_response, load_tokens

__all__ = [
    "And",
    "AttributedDatabase",
    "AttributedRecord",
    "AuditRecord",
    "ThirdPartyAuditor",
    "dump_response",
    "dump_tokens",
    "load_response",
    "load_tokens",
    "CloudPackage",
    "CloudServer",
    "Database",
    "DataOwner",
    "DataUser",
    "EncryptedIndex",
    "KeyBundle",
    "MaliciousCloud",
    "MatchCondition",
    "Misbehavior",
    "OwnerOutput",
    "Query",
    "Range",
    "Record",
    "SearchResponse",
    "SearchToken",
    "SetHashState",
    "SlicerParams",
    "TokenResult",
    "TrapdoorState",
    "UserKeys",
    "UserPackage",
    "VerificationReport",
    "derive_g1_g2",
    "encode_record_id",
    "equality_keyword",
    "generate_search_tokens",
    "keywords_for_record",
    "make_database",
    "order_keywords_for_query",
    "order_keywords_for_value",
    "set_hash_key",
    "tokens_size_bytes",
    "verify_response",
    "verify_token_result",
]
