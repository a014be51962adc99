"""MicroState container behaviour: moments, views, seeding."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fsbm.species import Species, species_bins
from repro.fsbm.state import MicroState, N_EPS


def test_all_species_allocated():
    s = MicroState(shape=(3, 4, 5))
    assert set(s.dists) == set(Species)
    for d in s.dists.values():
        assert d.shape == (3, 4, 5, 33)


def test_invalid_shape_rejected():
    with pytest.raises(ConfigurationError):
        MicroState(shape=(3, 4))  # type: ignore[arg-type]
    with pytest.raises(ConfigurationError):
        MicroState(shape=(0, 4, 5))


def test_moments():
    s = MicroState(shape=(2, 2, 2))
    s.dists[Species.LIQUID][..., 5] = 3.0
    grids = species_bins()
    np.testing.assert_allclose(s.number(Species.LIQUID), 3.0)
    np.testing.assert_allclose(
        s.mass(Species.LIQUID), 3.0 * grids[Species.LIQUID].masses[5]
    )
    np.testing.assert_allclose(
        s.total_condensate_mass(), 3.0 * grids[Species.LIQUID].masses[5]
    )


def test_copy_is_deep():
    s = MicroState(shape=(2, 2, 2))
    c = s.copy()
    c.dists[Species.LIQUID][...] = 1.0
    assert s.dists[Species.LIQUID].sum() == 0.0


def test_view_shares_memory():
    s = MicroState(shape=(6, 4, 6))
    v = s.view((slice(1, 4), slice(None), slice(2, 5)))
    assert v.shape == (3, 4, 3)
    v.dists[Species.LIQUID][..., 3] = 2.0
    assert s.dists[Species.LIQUID][1:4, :, 2:5, 3].sum() == 2.0 * 3 * 4 * 3
    v.precip += 1.0
    assert s.precip[1:4, 2:5].sum() == 9.0
    assert s.precip[0, 0] == 0.0


def test_clip_negatives_returns_removed_mass():
    s = MicroState(shape=(2, 2, 2))
    grids = species_bins()
    s.dists[Species.LIQUID][0, 0, 0, 4] = -2.0
    removed = s.clip_negatives()
    assert removed == pytest.approx(2.0 * grids[Species.LIQUID].masses[4])
    assert (s.dists[Species.LIQUID] >= 0).all()


def test_seed_cloud_hits_target_lwc():
    s = MicroState(shape=(3, 3, 3))
    mask = np.zeros((3, 3, 3), dtype=bool)
    mask[1, 1, 1] = True
    s.seed_cloud(mask, lwc=1.0e-6)
    assert s.mass(Species.LIQUID)[1, 1, 1] == pytest.approx(1.0e-6)
    assert s.mass(Species.LIQUID)[0, 0, 0] == 0.0
