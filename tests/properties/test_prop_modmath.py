"""Backend ≡ backend: the modmath layer is an execution knob, never a
protocol input.  For any database, query and configuration, every modmath
backend available in this interpreter — crossed with kernels on/off — must
produce byte-identical primes, H_prime counters,
packages, witnesses, search results, gas and settlement verdicts.

The matrix degrades gracefully: without gmpy2 installed the backend axis is
just ``python`` and the suite still pins kernels on/off identity; the CI
gmpy2 leg runs the full cross."""

import os
from contextlib import contextmanager

import pytest

from repro.common.rng import default_rng
from repro.core.cloud import CloudServer, MaliciousCloud, Misbehavior
from repro.core.owner import DataOwner
from repro.core.params import KeyBundle, SlicerParams
from repro.core.query import Query
from repro.core.records import Database, make_database
from repro.core.user import DataUser
from repro.core.verify import verify_response
from repro.crypto import kernels, modmath
from repro.system import SlicerSystem

PARAMS = SlicerParams.testing(value_bits=8)
KEYS = KeyBundle.generate(default_rng(888), trapdoor_bits=512)

BACKENDS = modmath.available_backends()
VALUES = [0, 7, 7, 41, 128, 255, 42, 200, 13, 99]
QUERIES = [Query.parse(41, "="), Query.parse(100, ">"), Query.parse(50, "<")]


@contextmanager
def backend(name):
    modmath.set_backend(name)
    try:
        yield
    finally:
        modmath.set_backend(None)


@contextmanager
def kernels_off():
    old = os.environ.get(kernels.KERNELS_ENV)
    os.environ[kernels.KERNELS_ENV] = "0"
    try:
        yield
    finally:
        if old is None:
            del os.environ[kernels.KERNELS_ENV]
        else:
            os.environ[kernels.KERNELS_ENV] = old


def configurations():
    """(backend, kernels_on) — every run must agree with every other."""
    return [(name, kernels_on) for name in BACKENDS for kernels_on in (True, False)]


def run_protocol() -> dict:
    """One full Build + search + verify, returning every protocol byte."""
    owner = DataOwner(PARAMS, keys=KEYS, rng=default_rng(41))
    db = Database(8)
    for i, v in enumerate(VALUES):
        db.add(i, v)
    out = owner.build(db)
    cloud = CloudServer(PARAMS, KEYS.trapdoor.public)
    cloud.install(out.cloud_package)
    user = DataUser(PARAMS, out.user_package, default_rng(3))
    from repro.crypto.accumulator import Accumulator

    acc = Accumulator(PARAMS.accumulator.public(), list(out.cloud_package.primes))
    artifacts = {
        "entries": out.cloud_package.index.entries,
        "primes": tuple(out.cloud_package.primes),
        "accumulation": out.cloud_package.accumulation,
        "chain_ads": out.chain_ads,
        "witness_all": tuple(
            sorted((p, w.value) for p, w in acc.witness_all().items())
        ),
    }
    for i, query in enumerate(QUERIES):
        tokens = user.make_tokens(query)
        resp = cloud.search(tokens)
        report = verify_response(PARAMS, cloud.ads_value, resp)
        artifacts[f"q{i}.results"] = tuple(tuple(r.entries) for r in resp.results)
        artifacts[f"q{i}.witnesses"] = tuple(r.witness.value for r in resp.results)
        artifacts[f"q{i}.verified"] = report.ok
        artifacts[f"q{i}.ids"] = tuple(sorted(user.decrypt_results(resp)))
    return artifacts


def run_settlement(seed: int, misbehavior=None) -> dict:
    """One escrowed search through the full system, honest or tampering."""
    s = SlicerSystem(PARAMS, rng=default_rng(seed))
    if misbehavior is not None:
        s.cloud = MaliciousCloud(
            PARAMS, s.owner.keys.trapdoor.public, misbehavior, default_rng(seed + 1)
        )
    s.setup(make_database([(f"r{i}", (i * 19) % 256) for i in range(14)], bits=8))
    outcome = s.search(Query.parse(100, ">"), payment=5000)
    return {
        "verified": outcome.verified,
        "record_ids": tuple(sorted(outcome.record_ids)),
        "submit_gas": outcome.submit_receipt.gas_used if outcome.submit_receipt else 0,
        "settle_gas": outcome.settle_receipt.gas_used if outcome.settle_receipt else 0,
        "balances": tuple(sorted(s.balances().items())),
    }


class TestProtocolByteIdentity:
    def test_full_matrix_agrees(self):
        """Primes, packages, witnesses, results and verification verdicts are
        bit-identical across backend × kernels."""
        reference = None
        reference_config = None
        for name, kernels_on in configurations():
            kernels.clear_caches()
            with backend(name):
                if kernels_on:
                    got = run_protocol()
                else:
                    with kernels_off():
                        got = run_protocol()
            if reference is None:
                reference = got
                reference_config = (name, kernels_on)
                continue
            for key, value in reference.items():
                assert got[key] == value, (
                    f"{key} diverged: {(name, kernels_on)} "
                    f"vs reference {reference_config}"
                )

    def test_hprime_counters_backend_independent(self):
        """The (prime, counter) pairs the contract charges gas on — and the
        hprime.* pipeline counters — are functions of the candidate integers
        alone, identical on every backend."""
        from repro.common import perfstats

        payloads = [b"gas" + i.to_bytes(2, "big") for i in range(12)]
        reference_pairs = None
        reference_counters = None
        for name in BACKENDS:
            with backend(name), kernels_off():
                before = perfstats.snapshot("hprime.")
                pairs = [
                    PARAMS.hash_to_prime().hash_to_prime_with_counter(d) for d in payloads
                ]
                delta = {
                    k: v - before.get(k, 0)
                    for k, v in perfstats.snapshot("hprime.").items()
                }
            if reference_pairs is None:
                reference_pairs, reference_counters = pairs, delta
            else:
                assert pairs == reference_pairs, name
                assert delta == reference_counters, name


class TestSettlementVerdicts:
    def test_honest_search_settles_identically(self):
        reference = None
        for name, kernels_on in configurations():
            kernels.clear_caches()
            with backend(name):
                if kernels_on:
                    got = run_settlement(2024)
                else:
                    with kernels_off():
                        got = run_settlement(2024)
            assert got["verified"]
            if reference is None:
                reference = got
            else:
                assert got == reference, (name, kernels_on)

    @pytest.mark.parametrize(
        "misbehavior", [Misbehavior.DROP_ENTRY, Misbehavior.FORGE_WITNESS]
    )
    def test_refund_verdicts_backend_independent(self, misbehavior):
        reference = None
        for name in BACKENDS:
            kernels.clear_caches()
            with backend(name):
                got = run_settlement(2025, misbehavior)
            assert not got["verified"]
            if reference is None:
                reference = got
            else:
                assert got == reference, name
