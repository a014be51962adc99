"""Exact-equality contract of the member axis.

Bit-identity is the contract under test, not tolerance: for every
member, an ``N``-member run must produce *exactly* the fields, per-rank
:class:`~repro.core.clock.SimClock` charges, step timings, physics work
counts and history frames of a ``members=1`` run of that member's
:func:`~repro.wrf.namelist.member_namelist` (``np.array_equal`` /
``==``, never ``allclose``). The property covers random rank counts,
member counts, domain sizes, seeds and member perturbations with
in-process ranks; process ranks are held to the same bar in
``test_process_ranks.py`` and below.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fsbm import ckernels
from repro.wrf.ensemble import EnsembleModel
from repro.wrf.model import WrfModel
from repro.wrf.namelist import conus12km_namelist, member_namelist

DELTAS = (
    (),
    (("bubble_dtheta", 3.5), ("ccn_background", 140.0)),
    (("seed_offset", 7), ("moisture_boost", 1.45)),
    (("bubble_dtheta", 2.25), ("seed_offset", 3)),
)

#: One member's case perturbations: any subset of the ``CaseConfig``
#: knobs the ensembles use, at physically sane values.
MEMBER_DELTA = st.lists(
    st.one_of(
        st.tuples(st.just("bubble_dtheta"), st.floats(1.0, 4.0)),
        st.tuples(st.just("ccn_background"), st.floats(60.0, 200.0)),
        st.tuples(st.just("moisture_boost"), st.floats(1.0, 1.5)),
        st.tuples(st.just("seed_offset"), st.integers(0, 9)),
    ),
    max_size=3,
    unique_by=lambda pair: pair[0],
).map(tuple)


@contextmanager
def _physics_engine(engine: str):
    """Run a block on the compiled physics kernels or, with the kill
    switch set, on their numpy fallback."""
    old = os.environ.get(ckernels.DISABLE_ENV)
    if engine == "numpy":
        os.environ[ckernels.DISABLE_ENV] = "1"
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(ckernels.DISABLE_ENV, None)
        else:
            os.environ[ckernels.DISABLE_ENV] = old


def _namelist(members: int, num_ranks: int = 1, **kw):
    kw.setdefault("member_deltas", DELTAS[:members])
    kw.setdefault("history_interval", 0.0)
    return conus12km_namelist(
        scale=kw.pop("scale", 0.02),
        num_ranks=num_ranks,
        members=members,
        **kw,
    )


def _solo_result(nl, member: int, num_steps: int):
    solo = WrfModel(member_namelist(nl, member))
    try:
        return solo.run(num_steps=num_steps, final_history=True)
    finally:
        solo.close()


def _assert_member_exact(ens_res, solo_res, member: int):
    """Every observable of one member equals its solo run, bitwise."""
    assert len(ens_res.history) == len(solo_res.history)
    for fe, fs in zip(ens_res.history, solo_res.history):
        assert fe.keys() == fs.keys()
        for name in fe:
            assert np.array_equal(fe[name], fs[name]), (
                f"member {member} history field {name} differs"
            )
    for rank, (ce, cs) in enumerate(
        zip(ens_res.rank_clocks, solo_res.rank_clocks)
    ):
        assert dict(ce.buckets) == dict(cs.buckets), (
            f"member {member} rank {rank} bucket charges differ"
        )
        assert dict(ce.regions) == dict(cs.regions), (
            f"member {member} rank {rank} region charges differ"
        )
    assert ens_res.elapsed == solo_res.elapsed
    assert len(ens_res.step_timings) == len(solo_res.step_timings)
    for te, ts in zip(ens_res.step_timings, solo_res.step_timings):
        assert te.elapsed == ts.elapsed
        assert len(te.sbm_stats) == len(ts.sbm_stats)
        for se, ss in zip(te.sbm_stats, ts.sbm_stats):
            assert se.mp_points == ss.mp_points
            assert se.coal_points == ss.coal_points
            assert se.coal.pair_entries == ss.coal.pair_entries
            assert se.coal.kernel_entries == ss.coal.kernel_entries
            assert se.cond.points == ss.cond.points
            assert se.cond.bin_updates == ss.cond.bin_updates
            assert se.sed.cell_bins == ss.sed.cell_bins
            assert se.coal_seconds == ss.coal_seconds
            assert se.fast_sbm_seconds == ss.fast_sbm_seconds


class TestMembersEqualSoloRuns:
    # The numpy fallback is held to the same bar: its physics reduce
    # within rows too, so batching members cannot move a bit.
    @pytest.mark.parametrize("engine", ["compiled", "numpy"])
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_ranks=st.integers(1, 4),
        members=st.integers(1, 3),
        scale=st.sampled_from((0.02, 0.03)),
        seed=st.integers(0, 10_000),
        deltas=st.lists(MEMBER_DELTA, max_size=3),
    )
    def test_every_member_equals_its_solo_run(
        self, engine, num_ranks, members, scale, seed, deltas
    ):
        nl = _namelist(
            members,
            num_ranks=num_ranks,
            scale=scale,
            seed=seed,
            member_deltas=tuple(deltas[:members]),
            history_interval=10.0,
        )
        with _physics_engine(engine):
            model = EnsembleModel(nl)
            try:
                results = model.run(num_steps=2, final_history=True)
                frames = [model.gather_output(m) for m in range(members)]
            finally:
                model.close()
            assert len(results) == members
            for m in range(members):
                solo = _solo_result(nl, m, 2)
                _assert_member_exact(results[m], solo, m)
                for name, arr in frames[m].items():
                    assert np.array_equal(arr, solo.history[-1][name]), (
                        f"member {m} gathered field {name} differs"
                    )


class TestMembersOneDegenerates:
    def test_single_member_layout_is_solo_layout(self):
        """members=1 keeps today's resident-block field binding."""
        nl = _namelist(1)
        ens = EnsembleModel(nl)
        try:
            (rank,) = ens.ranks
            assert rank.state.shape[0] == 1
            assert rank.bins.shape[0] == 1
            (fields,) = rank.fields
            # The member's advected scalars are views into the slabs —
            # the same aliasing a solo WrfModel's block binding
            # produces, so members=1 adds a leading axis and nothing
            # else.
            for mine, stacked in (
                (fields.state_block, rank.state), (fields.bins_block, rank.bins)
            ):
                assert mine.base is stacked or np.shares_memory(mine, stacked)
            solo = WrfModel(member_namelist(nl, 0))
            try:
                assert fields.state_block.shape == solo.fields[0].state_block.shape
                assert fields.bins_block.shape == solo.fields[0].bins_block.shape
            finally:
                solo.close()
        finally:
            ens.close()


class TestProcPoolMembers:
    def test_two_ranks_two_members_member_sliced_gather(self):
        """Worker processes step all members; gather slices one out."""
        nl = _namelist(2, num_ranks=2, use_process_ranks=True)
        ens = EnsembleModel(nl)
        try:
            if ens._pool is None:
                pytest.skip("procpool unavailable in this environment")
            results = ens.run(num_steps=2, final_history=True)
            frames = [ens.gather_output(m) for m in range(2)]
        finally:
            ens.close()
        for m in range(2):
            solo_res = _solo_result(nl, m, 2)
            _assert_member_exact(results[m], solo_res, m)
            for name, arr in frames[m].items():
                assert np.array_equal(arr, solo_res.history[-1][name]), (
                    f"member {m} gathered field {name} differs"
                )
