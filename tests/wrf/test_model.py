"""End-to-end model runs: clocks, history, output assembly."""

import numpy as np
import pytest

from repro.core.clock import TimeBucket
from repro.optim.stages import Stage
from repro.wrf.model import WrfModel
from repro.wrf.namelist import conus12km_namelist


@pytest.fixture(scope="module")
def baseline_result():
    model = WrfModel(conus12km_namelist(scale=0.05, num_ranks=2))
    result = model.run(num_steps=3)
    return model, result


class TestRun:
    def test_elapsed_accumulates(self, baseline_result):
        _, result = baseline_result
        assert result.elapsed > 0
        assert result.steps_run == 3
        assert len(result.step_timings) == 3
        assert result.per_step_elapsed == pytest.approx(result.elapsed / 3)

    def test_projection_to_full_run_length(self, baseline_result):
        _, result = baseline_result
        full = result.projected_total()
        assert full == pytest.approx(result.per_step_elapsed * 120)

    def test_regions_populated(self, baseline_result):
        _, result = baseline_result
        for region in ("solve_em", "fast_sbm", "rk_scalar_tend", "rk_update_scalar"):
            assert result.region_seconds(region) > 0, region

    def test_every_rank_charged(self, baseline_result):
        _, result = baseline_result
        for clock in result.rank_clocks:
            assert clock.total > 0
            assert clock.bucket(TimeBucket.MPI) > 0

    def test_physics_evolves_state(self, baseline_result):
        model, _ = baseline_result
        out = model.gather_output()
        assert out["QCLOUD_TOTAL"].sum() > 0
        assert np.abs(out["W"]).max() > 0

    def test_gathered_output_shapes(self, baseline_result):
        model, _ = baseline_result
        out = model.gather_output()
        dom = model.namelist.domain
        assert out["T"].shape == (dom.nx, dom.nz, dom.ny)
        assert out["RAINNC"].shape == (dom.nx, dom.ny)
        assert (out["T"] > 0).all()  # every cell filled by some patch


class TestHistory:
    def test_history_written_at_interval(self):
        nl = conus12km_namelist(
            scale=0.05, num_ranks=2, history_interval=10.0
        )
        model = WrfModel(nl)
        model.run(num_steps=3)  # 15 simulated seconds -> one history due
        assert model.clocks[0].bucket(TimeBucket.IO) > 0

    def test_no_history_by_default(self, baseline_result):
        _, result = baseline_result
        assert result.rank_clocks[0].bucket(TimeBucket.IO) == 0.0


class TestGpuModel:
    def test_offloaded_run_uses_devices(self):
        from repro.core.env import PAPER_ENV

        nl = conus12km_namelist(
            scale=0.05,
            num_ranks=2,
            stage=Stage.OFFLOAD_COLLAPSE3,
            num_gpus=2,
            env=PAPER_ENV,
        )
        model = WrfModel(nl)
        try:
            result = model.run(num_steps=2)
            assert any(len(records) > 0 for records in result.kernel_records)
            assert result.scheduler.breakdown["gpu"] > 0
        finally:
            model.close()

    def test_shared_gpu_two_ranks_one_device(self):
        from repro.core.env import PAPER_ENV

        nl = conus12km_namelist(
            scale=0.05,
            num_ranks=2,
            stage=Stage.OFFLOAD_COLLAPSE3,
            num_gpus=1,
            env=PAPER_ENV,
        )
        model = WrfModel(nl)
        try:
            model.run(num_steps=1)
            assert len(model.gpu_pool.devices[0].contexts) == 2
        finally:
            model.close()


class TestDeterminism:
    def test_same_namelist_same_results(self):
        nl = conus12km_namelist(scale=0.05, num_ranks=2, seed=11)
        m1 = WrfModel(nl)
        m2 = WrfModel(nl)
        m1.run(num_steps=2)
        m2.run(num_steps=2)
        o1, o2 = m1.gather_output(), m2.gather_output()
        for name in o1:
            np.testing.assert_array_equal(o1[name], o2[name])

    def test_pressure_levels_do_not_depend_on_the_decomposition(self):
        """Sedimentation's fall speeds read one base-state column: the
        same bits on every rank of 1-, 2- and 4-rank runs of a case."""
        columns = []
        for num_ranks in (1, 2, 4):
            model = WrfModel(conus12km_namelist(scale=0.05, num_ranks=num_ranks))
            try:
                columns += [rs.pressure_levels for rs in model.ranks]
            finally:
                model.close()
        for col in columns[1:]:
            np.testing.assert_array_equal(col, columns[0])


class TestSuperblockFields:
    """Persistent block residency: same physics, no per-step pack."""

    def test_fields_are_views_into_block(self, baseline_result):
        model, _ = baseline_result
        for f in model.fields:
            assert f.state_block is not None and f.bins_block is not None
            assert f.t.base is not None  # a view, not its own storage
            assert np.shares_memory(f.t, f.state_block)
            assert np.shares_memory(f.micro.packed, f.bins_block)

    def test_every_member_views_the_two_blocks(self):
        """Each member's t, qv and w are planes of the state block with
        unit stride along j, and each species' bins are columns of the
        bins block: views, never copies."""
        nl = conus12km_namelist(scale=0.04, num_ranks=2, members=2, seed=3)
        model = WrfModel(nl)
        try:
            for rs in model.ranks:
                assert rs.state.shape[2] == 3
                for m, f in enumerate(rs.fields):
                    for q, name in enumerate(("t", "qv", "w")):
                        plane = getattr(f, name)
                        assert plane.strides[-1] == plane.itemsize
                        assert np.shares_memory(plane, rs.state)
                        assert plane.__array_interface__["data"][0] == (
                            rs.state[m, :, q].__array_interface__["data"][0]
                        )
                        assert not np.shares_memory(plane, rs.bins)
                    for dist in f.micro.dists.values():
                        assert np.shares_memory(dist, rs.bins[m])
                        assert not np.shares_memory(dist, rs.state)
                    assert np.shares_memory(rs.w[m], f.w)
        finally:
            model.close()

    def test_native_physics_off_matches_default(self, monkeypatch):
        """The compiled physics kernels must not change the model's
        answer: they differ from the numpy engines only in the order of
        their sums, so the gathered fields agree to rounding level."""
        from repro.fsbm import ckernels

        nl = conus12km_namelist(scale=0.05, num_ranks=2, seed=29)
        m_on, m_off = WrfModel(nl), WrfModel(nl)
        try:
            m_on.run(num_steps=2)
            # The kill switch is read on every kernel load.
            monkeypatch.setenv(ckernels.DISABLE_ENV, "1")
            m_off.run(num_steps=2)
            o_on, o_off = m_on.gather_output(), m_off.gather_output()
            for name in o_off:
                scale = float(np.abs(o_off[name]).max()) or 1.0
                np.testing.assert_allclose(
                    o_on[name], o_off[name],
                    rtol=1e-11, atol=1e-11 * scale, err_msg=name,
                )
        finally:
            m_on.close()
            m_off.close()


class TestRankExecution:
    """In-process ranks: a thread pool for two or more CPU ranks,
    serial for one rank or a GPU stage. Thread-vs-process equality is
    covered in test_process_ranks.py."""

    def test_single_rank_stays_serial(self):
        model = WrfModel(conus12km_namelist(scale=0.05, num_ranks=1))
        try:
            assert model._executor is None
            model.step()
        finally:
            model.close()

    def test_gpu_stage_stays_serial(self):
        nl = conus12km_namelist(
            scale=0.05,
            num_ranks=2,
            stage=Stage.OFFLOAD_COLLAPSE2,
            num_gpus=1,
        )
        model = WrfModel(nl)
        try:
            assert model._executor is None
            model.step()
        finally:
            model.close()

    def test_close_shuts_down_executor(self):
        model = WrfModel(conus12km_namelist(scale=0.05, num_ranks=2))
        assert model._executor is not None
        model.close()
        assert model._executor is None
