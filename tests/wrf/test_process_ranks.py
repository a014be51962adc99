"""Multiprocess rank execution: bit-identical to the thread-pool path.

The acceptance bar for ``use_process_ranks`` is exact equality — not
tolerance-level agreement — between thread-pool and process-rank runs:
gathered output fields, per-rank clock totals (every bucket and region),
scheduler elapsed time, and history frames. The workers run the same
per-rank stage functions in the same per-rank order against
deterministically reconstructed cost models, so every float accumulation
sequence is identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import CONUS12KM_DT
from repro.optim.stages import Stage
from repro.wrf.io import read_wrfout
from repro.wrf.model import WrfModel
from repro.wrf.namelist import conus12km_namelist


def _run(num_steps: int = 2, **overrides):
    nl = conus12km_namelist(scale=0.05, **overrides)
    model = WrfModel(nl)
    try:
        result = model.run(num_steps=num_steps, final_history=True)
        output = model.gather_output()
        clocks = [c.state() for c in model.clocks]
        return output, clocks, result
    finally:
        model.close()


def _assert_equal_runs(threads, procs):
    o_t, c_t, r_t = threads
    o_p, c_p, r_p = procs
    for name in o_t:
        np.testing.assert_array_equal(o_p[name], o_t[name], err_msg=name)
    # Clock states are (buckets, regions) dicts — exact equality, every
    # bucket and every named region, no tolerance.
    assert c_p == c_t
    assert r_p.elapsed == r_t.elapsed
    assert len(r_p.history) == len(r_t.history)
    for f_t, f_p in zip(r_t.history, r_p.history):
        for name in f_t:
            np.testing.assert_array_equal(f_p[name], f_t[name], err_msg=name)


class TestProcessRankEquivalence:
    def test_matches_threads_exactly(self):
        kw = dict(num_ranks=2, seed=31)
        _assert_equal_runs(
            _run(use_process_ranks=False, **kw),
            _run(use_process_ranks=True, **kw),
        )

    def test_matches_at_four_ranks(self):
        kw = dict(num_ranks=4, seed=7)
        _assert_equal_runs(
            _run(use_process_ranks=False, **kw),
            _run(use_process_ranks=True, **kw),
        )

    def test_history_io_charges_match(self):
        # History frames route through worker gather and the charge_io
        # command; the IO bucket must accumulate bit-identically.
        kw = dict(num_ranks=2, seed=13, history_interval=60.0)
        t = _run(num_steps=3, use_process_ranks=False, **kw)
        p = _run(num_steps=3, use_process_ranks=True, **kw)
        _assert_equal_runs(t, p)
        io_t = [buckets.get("io", 0.0) for buckets, _ in t[1]]
        io_p = [buckets.get("io", 0.0) for buckets, _ in p[1]]
        assert io_t == io_p
        assert any(v > 0 for v in io_t)

    @pytest.mark.parametrize("members", [1, 2])
    def test_history_files_match(self, tmp_path, members):
        # Process ranks write their cells into the pool's shared frame;
        # the files on disk must equal the thread path's, member files
        # included.
        written = {}
        for procs in (False, True):
            out = tmp_path / f"procs{int(procs)}"
            nl = conus12km_namelist(
                scale=0.05, num_ranks=2, seed=17, members=members,
                use_process_ranks=procs, history_interval=2 * CONUS12KM_DT,
                history_path=str(out),
            )
            model = WrfModel(nl)
            try:
                model.run_members(num_steps=5, final_history=True)
            finally:
                model.close()
            written[procs] = {
                p.name: read_wrfout(p)
                for p in sorted(out.glob("wrfout_d01_*"))
            }
        threads, procs = written[False], written[True]
        # Steps 2 and 4 on the interval, step 5 forced at the end.
        assert len(threads) == 3 * members
        assert sum("_mem01" in name for name in threads) == (members > 1) * 3
        assert procs.keys() == threads.keys()
        for name, (fields_t, attrs_t) in threads.items():
            fields_p, attrs_p = procs[name]
            assert attrs_p == attrs_t, name
            assert fields_p.keys() == fields_t.keys(), name
            for field, value in fields_t.items():
                np.testing.assert_array_equal(
                    fields_p[field], value, err_msg=f"{name}:{field}"
                )


class TestProcessRankFallbacks:
    def test_gpu_stage_falls_back_to_threads(self):
        nl = conus12km_namelist(
            scale=0.05,
            num_ranks=2,
            stage=Stage.OFFLOAD_COLLAPSE2,
            num_gpus=1,
            use_process_ranks=True,
        )
        model = WrfModel(nl)
        try:
            assert model._pool is None
            model.step()
        finally:
            model.close()

    def test_pool_active_replaces_executor(self):
        nl = conus12km_namelist(
            scale=0.05, num_ranks=2, use_process_ranks=True
        )
        model = WrfModel(nl)
        try:
            assert model._pool is not None
            assert model._executor is None
        finally:
            model.close()
        assert model._pool is None

    def test_step_stats_come_from_workers(self):
        nl = conus12km_namelist(
            scale=0.05, num_ranks=2, use_process_ranks=True
        )
        model = WrfModel(nl)
        try:
            timing = model.step()
            assert len(timing.sbm_stats) == 2
            for stats in timing.sbm_stats:
                assert stats.mp_points > 0
                assert stats.fast_sbm_seconds > 0.0
        finally:
            model.close()
