"""The data user: token generation and result decryption.

Users are quasi-honest (Section IV.B): they hold the shared secret keys and
generate correct tokens, but may *deny* correct results to dodge search fees
— which is exactly why verification runs on chain instead of at the user.
"""

from __future__ import annotations

from ..common.errors import StateError
from ..common.rng import DeterministicRNG, default_rng
from ..crypto.symmetric import SymmetricCipher
from .cloud import SearchResponse
from .owner import UserPackage
from .params import SlicerParams
from .query import Query
from .tokens import SearchToken, generate_search_tokens


class DataUser:
    """An authorised searcher holding the owner-shared keys and state."""

    def __init__(
        self,
        params: SlicerParams,
        package: UserPackage,
        rng: DeterministicRNG | None = None,
    ) -> None:
        self.params = params
        self.rng = rng or default_rng()
        self._keys = package.keys
        self._trapdoor_state = package.trapdoor_state
        self._ads_value = package.ads_value
        self._attributes = package.attributes
        self._cipher = SymmetricCipher(self._keys.record_key, self.rng)

    def refresh(self, package: UserPackage) -> None:
        """Absorb the owner's post-insert state update (Algorithm 2 line 28)."""
        self._trapdoor_state = package.trapdoor_state
        self._ads_value = package.ads_value
        self._attributes = package.attributes

    @property
    def ads_value(self) -> int:
        """The accumulation value this user last saw from the owner."""
        return self._ads_value

    # --------------------------------------------------------------- tokens

    def make_tokens(self, query: Query) -> list[SearchToken]:
        """Algorithm 3: search tokens for one query.

        When the owner shared the index's attribute-name set, the query is
        checked against it first — a bare ``attribute=""`` query against a
        multi-attribute index would otherwise silently search a nonexistent
        unnamed attribute and pay to verify an empty result.
        """
        if self._attributes is not None:
            query.check_attribute(self._attributes)
        return generate_search_tokens(
            self._keys.prf_key, self._trapdoor_state, query, self.params.value_bits, self.rng
        )

    # -------------------------------------------------------------- results

    def decrypt_results(self, response: SearchResponse) -> set[bytes]:
        """``Dec(K_R, ·)`` over every returned ciphertext, in one
        :meth:`~repro.crypto.symmetric.SymmetricCipher.decrypt_many` call,
        into a record-ID set; every plaintext must be a record ID."""
        plaintexts = self._cipher.decrypt_many(response.all_entries())
        if any(len(plaintext) != self.params.record_id_len for plaintext in plaintexts):
            raise StateError("decrypted record has unexpected length")
        return set(plaintexts)
