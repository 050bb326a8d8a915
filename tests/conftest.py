"""Shared fixtures.

Heavy cryptographic setup (RSA keygen, accumulator parameters) is done once
per session and shared; protocol state is rebuilt per test from those keys.
All randomness is seeded for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.common.rng import default_rng
from repro.core.params import KeyBundle, SlicerParams
from repro.core.records import Database, make_database


TEST_TRAPDOOR_BITS = 512


@pytest.fixture(scope="session")
def tparams() -> SlicerParams:
    """Small fast protocol parameters: 8-bit values, 512-bit accumulator."""
    return SlicerParams.testing(value_bits=8)


@pytest.fixture(scope="session")
def tparams16() -> SlicerParams:
    return SlicerParams.testing(value_bits=16)


@pytest.fixture(scope="session")
def session_keys() -> KeyBundle:
    """One RSA trapdoor keypair for the whole session (keygen is the slow part)."""
    return KeyBundle.generate(default_rng(1234), trapdoor_bits=TEST_TRAPDOOR_BITS)


@pytest.fixture()
def rng():
    return default_rng(99)


@pytest.fixture()
def small_db() -> Database:
    """A tiny 8-bit database with duplicate values and edge values."""
    return make_database(
        [
            ("r0", 0),
            ("r1", 7),
            ("r2", 7),
            ("r3", 41),
            ("r4", 128),
            ("r5", 255),
            ("r6", 42),
        ],
        bits=8,
    )


@pytest.fixture(scope="session")
def owner_factory(session_keys):
    """Factory for DataOwners reusing the session key bundle (fast setup)."""
    from repro.core.owner import DataOwner

    def make(params: SlicerParams, seed: int = 7) -> DataOwner:
        return DataOwner(params, keys=session_keys, rng=default_rng(seed))

    return make


@pytest.fixture(scope="session")
def result_prime():
    """The prime representative a ``TokenResult`` binds to (Algorithm 5's ``x``)."""
    from repro.core.state import prime_input, set_hash_key
    from repro.crypto.multiset_hash import MultisetHash

    def prime(params: SlicerParams, result) -> int:
        token = result.token
        state_key = set_hash_key(token.trapdoor, token.epoch, token.g1, token.g2)
        result_hash = MultisetHash.of(result.entries, params.multiset_field)
        return params.hash_to_prime()(prime_input(state_key, result_hash))

    return prime


@dataclass
class WitnessWork:
    """Witness exponentiations a cloud performed, counted on any backend.

    ``memwit`` counts live ``MemWit`` batches (root-factor work over a
    non-empty prime subset, on any cloud or shard); ``checks`` counts the
    per-item ``VerifyMem`` checks of owner-issued witnesses.
    """

    memwit: int = 0
    checks: int = 0

    @property
    def total(self) -> int:
        return self.memwit + self.checks


@pytest.fixture()
def witness_work(monkeypatch) -> WitnessWork:
    from repro.core import cloud

    work = WitnessWork()
    root_witnesses = cloud.CloudServer._root_witnesses
    verify_membership = cloud.verify_membership

    def counted_root(self, subset):
        work.memwit += bool(subset)
        return root_witnesses(self, subset)

    def counted_verify(*args):
        work.checks += 1
        return verify_membership(*args)

    monkeypatch.setattr(cloud.CloudServer, "_root_witnesses", counted_root)
    monkeypatch.setattr(cloud, "verify_membership", counted_verify)
    return work
