"""Namelist configuration and prognostic state."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.grid.decomposition import decompose_domain
from repro.optim.stages import Stage
from repro.wrf.namelist import Namelist, conus12km_namelist
from repro.wrf.state import WrfFields, base_state_column


class TestNamelist:
    def test_full_conus_defaults(self):
        nl = conus12km_namelist()
        assert (nl.domain.nx, nl.domain.ny, nl.domain.nz) == (425, 300, 50)
        assert nl.dt == 5.0
        assert nl.num_steps == 120

    def test_scaled_case(self):
        nl = conus12km_namelist(scale=0.1)
        assert nl.domain.nz == 50
        assert nl.domain.nx < 50

    def test_gpu_stage_requires_gpus(self):
        with pytest.raises(ConfigurationError):
            conus12km_namelist(stage=Stage.OFFLOAD_COLLAPSE3, num_gpus=0)

    @pytest.mark.parametrize(
        "offload", [{}, {"offload_condensation": True}, {"offload_advection": True}]
    )
    def test_members_reject_gpu_stages_and_offload(self, offload):
        """Ranks of a GPU stage share the simulated GPU pool, so the
        member axis runs CPU stages only; the GPU stage and the offload
        flags are rejected up front, and one member still runs them."""
        kw = dict(stage=Stage.OFFLOAD_COLLAPSE3, num_gpus=1, **offload)
        with pytest.raises(ConfigurationError, match="members > 1"):
            conus12km_namelist(members=2, **kw)
        assert conus12km_namelist(members=1, **kw).members == 1

    def test_with_stage_auto_assigns_gpus(self):
        nl = conus12km_namelist(num_ranks=8)
        gpu = nl.with_stage(Stage.OFFLOAD_COLLAPSE2)
        assert gpu.num_gpus == 8

    def test_with_ranks(self):
        nl = conus12km_namelist(num_ranks=4).with_ranks(32, num_gpus=16)
        assert nl.num_ranks == 32 and nl.num_gpus == 16

    def test_precision_validated(self):
        with pytest.raises(ConfigurationError):
            conus12km_namelist(device_precision="fp16")


class TestBaseState:
    def test_profiles_physical(self):
        base = base_state_column(50, 500.0)
        assert base["pressure_mb"][0] > 900
        assert base["pressure_mb"][-1] < 100
        assert (np.diff(base["pressure_mb"]) < 0).all()
        assert base["temperature"][0] > base["temperature"][20]
        assert (base["qv"] > 0).all()
        # Drier aloft through the troposphere (the tiny stratospheric
        # uptick from falling pressure at constant T is physical).
        assert (np.diff(base["qv"][:20]) <= 0).all()

    def test_tropopause_isothermal(self):
        base = base_state_column(50, 500.0)
        top = base["temperature"][-5:]
        np.testing.assert_allclose(top, top[0])


class TestWrfFields:
    def _fields(self):
        domain = conus12km_namelist(scale=0.06).domain
        dec = decompose_domain(domain, 2)
        return WrfFields(patch=dec.patches[0], dz=domain.dz), dec.patches[0]

    def test_allocated_at_memory_extents(self):
        f, patch = self._fields()
        assert f.t.shape == patch.shape
        assert f.micro.dists[next(iter(f.micro.dists))].shape[:3] == patch.shape

    def test_owned_view_writes_through(self):
        f, patch = self._fields()
        f.owned(f.t)[...] = 999.0
        assert (f.t == 999.0).sum() == patch.num_points

    def test_advected_fields_include_every_bin_species(self):
        f, _ = self._fields()
        fields = f.advected_fields()
        assert "t" in fields and "qv" in fields and "w" in fields
        bins = [k for k in fields if k.startswith("bin_")]
        assert len(bins) == 7

    def test_scalar_count_matches_paper_scale(self):
        """7 species x 33 bins + t + qv + w = 234 advected scalars."""
        f, _ = self._fields()
        assert f.scalar_count() == 7 * 33 + 3

    def test_pressure_and_rho_broadcast(self):
        f, patch = self._fields()
        assert f.pressure_mb.shape == patch.shape
        assert (f.rho > 0).all()
