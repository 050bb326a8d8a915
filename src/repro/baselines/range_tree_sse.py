"""Range-covering keyword SSE baseline (Demertzis et al., SIGMOD 2016 style).

"Practical private range search" builds range support on *plain keyword
SSE* by indexing every value under the ``O(b)`` dyadic intervals that
contain it; an arbitrary range ``[lo, hi]`` then decomposes into at most
``2b`` canonical dyadic intervals, each one keyword query.

This is the strongest keyword-SSE-based comparator for Slicer's order
search: token count is ``O(b)`` like SORE (versus the naive enumeration's
``O(range width)``), but the scheme

* multiplies index size by the tree height (every record appears under
  ``b+1`` interval keywords, same order as Slicer — measured in the
  ablation), and
* leaks the *hierarchy* of accessed intervals (structurally richer than
  Slicer's flat slice accesses), and
* provides **no verifiability** — which is the gap Slicer fills.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.bitstring import check_value_fits
from ..common.encoding import encode_uint
from ..common.errors import ParameterError
from ..common.rng import DeterministicRNG, default_rng
from .keyword_sse import KeywordSse


@dataclass(frozen=True)
class DyadicInterval:
    """The dyadic interval of height ``level`` containing ``prefix``.

    ``level`` 0 is a leaf (single value); level ``b`` is the whole domain.
    The interval covers ``[prefix << level, ((prefix + 1) << level) - 1]``.
    """

    level: int
    prefix: int

    @property
    def lo(self) -> int:
        return self.prefix << self.level

    @property
    def hi(self) -> int:
        return ((self.prefix + 1) << self.level) - 1

    def keyword(self) -> bytes:
        return b"dyadic:" + encode_uint(self.level, 1) + encode_uint(self.prefix)


def intervals_containing(value: int, bits: int) -> list[DyadicInterval]:
    """The ``b+1`` dyadic intervals that contain ``value`` (leaf to root)."""
    check_value_fits(value, bits)
    return [DyadicInterval(level, value >> level) for level in range(bits + 1)]


def canonical_cover(lo: int, hi: int, bits: int) -> list[DyadicInterval]:
    """Minimal dyadic cover of ``[lo, hi]`` — at most ``2b`` intervals.

    Standard greedy construction: repeatedly take the largest dyadic
    interval that starts at ``lo`` and fits inside the range.
    """
    if lo > hi:
        raise ParameterError("empty range")
    check_value_fits(lo, bits)
    check_value_fits(hi, bits)
    cover: list[DyadicInterval] = []
    cursor = lo
    while cursor <= hi:
        level = 0
        # Grow while the interval stays aligned and inside [cursor, hi].
        while level < bits:
            size = 1 << (level + 1)
            if cursor % size == 0 and cursor + size - 1 <= hi:
                level += 1
            else:
                break
        cover.append(DyadicInterval(level, cursor >> level))
        cursor += 1 << level
    return cover


class RangeTreeSse:
    """Keyword SSE + dyadic decomposition = logarithmic range search."""

    def __init__(
        self, bits: int, rng: DeterministicRNG | None = None, trapdoor_bits: int = 512
    ) -> None:
        self.bits = bits
        self.sse = KeywordSse(rng or default_rng(), trapdoor_bits)
        self._indexed = 0

    def insert_values(self, records: list[tuple[bytes, int]]) -> None:
        """Index each record under all its containing dyadic intervals."""
        by_keyword: dict[bytes, list[bytes]] = {}
        for record_id, value in records:
            for interval in intervals_containing(value, self.bits):
                by_keyword.setdefault(interval.keyword(), []).append(record_id)
        for keyword, ids in by_keyword.items():
            self.sse.insert(keyword, ids)
        self._indexed += len(records)

    def range_search(self, lo: int, hi: int) -> tuple[set[bytes], int]:
        """Return (matching record IDs, number of tokens issued)."""
        results: set[bytes] = set()
        tokens = 0
        for interval in canonical_cover(lo, hi, self.bits):
            token = self.sse.token(interval.keyword())
            if token is None:
                continue
            tokens += 1
            results.update(self.sse.cipher.decrypt_many(self.sse.server_search(token)))
        return results, tokens

    @property
    def index_entries(self) -> int:
        """Total index entries — ``(b+1)`` per record, like Slicer's ``1+b``."""
        return self.sse.index_size
