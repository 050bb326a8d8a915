"""Property: restoring a cloud from its own snapshot is a perfect no-op.

The cache-amnesia fix's contract, stated adversarially: for any query, a
cloud that just restored state identical to its live state must serve the
same bytes with the same deterministic counter deltas as a twin that never
restarted — including the cache hits.  Witnesses are a pure function of
``(X, Ac)`` and entry-cache nodes of the stored epochs, so a restore that
drops either shows up here as a counter or witness-work divergence.
"""

import inspect
from functools import lru_cache

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common import perfstats
from repro.common.rng import default_rng
from repro.core import wire
from repro.core.cloud import CloudServer
from repro.core.owner import DataOwner
from repro.core.params import KeyBundle, SlicerParams
from repro.core.query import Query
from repro.core.records import make_database
from repro.core.user import DataUser
from repro.crypto import kernels
from repro.obs.metrics import MetricsRegistry

EXCLUDE = inspect.signature(MetricsRegistry.deterministic_snapshot).parameters[
    "exclude_prefixes"
].default


@lru_cache(maxsize=None)
def world():
    params = SlicerParams.testing(value_bits=8)
    keys = KeyBundle.generate(default_rng(1234), trapdoor_bits=512)
    owner = DataOwner(params, keys=keys, rng=default_rng(77))
    db = make_database([(f"r{i}", (i * 37) % 256) for i in range(12)], bits=8)
    out = owner.build(db)
    control = CloudServer(params, keys.trapdoor.public)
    control.install(out.cloud_package)
    restored = CloudServer(params, keys.trapdoor.public)
    restored.install(out.cloud_package)
    control.precompute_witnesses()
    restored.precompute_witnesses()
    user = DataUser(params, out.user_package, default_rng(3))
    return control, restored, user


def measured_search(cloud, tokens, witness_work):
    """Response bytes, deterministic counter delta and witness work."""
    kernels.clear_caches()  # both twins start each probe from cold memos
    base = perfstats.snapshot()
    work = (witness_work.memwit, witness_work.checks)
    blob = wire.dump_response(cloud.search(tokens))
    delta = {
        k: v
        for k, v in perfstats.delta_since(base).items()
        if not k.startswith(EXCLUDE)
    }
    return blob, delta, (witness_work.memwit - work[0], witness_work.checks - work[1])


class TestRestoreIsNoOp:
    @given(
        value=st.integers(0, 255),
        op=st.sampled_from(["=", ">", "<"]),
    )
    @settings(
        max_examples=20,
        deadline=None,
        # The witness-work counter is cumulative; each probe reads a delta.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_restore_from_own_snapshot_counter_identical(self, witness_work, value, op):
        control, restored, user = world()
        tokens = user.make_tokens(Query.parse(value, op))

        before = perfstats.get("cloud.restore.caches_kept")
        restored.restore(restored.snapshot())
        assert perfstats.get("cloud.restore.caches_kept") == before + 1

        control_blob, control_delta, control_work = measured_search(
            control, tokens, witness_work
        )
        restored_blob, restored_delta, restored_work = measured_search(
            restored, tokens, witness_work
        )
        assert restored_blob == control_blob
        assert restored_delta == control_delta
        # A restore that dropped the witness map (or its checked set) would
        # redo MemWit or owner checks the never-restarted twin skips.
        assert restored_work == control_work
