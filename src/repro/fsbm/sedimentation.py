"""Gravitational sedimentation of binned hydrometeors.

First-order upwind flux in the vertical, one pass per species. Operates
on the full patch arrays ``(ni, nk, nj, nkr)`` with ``k = 0`` at the
surface; mass leaving the lowest level accumulates as surface
precipitation. Fall speeds take the level-pressure density correction.

The CFL number ``v dt / dz`` stays below one for every species at the
CONUS-12km time step (hail ~33 m/s, dt = 5 s, dz = 500 m), so the
explicit scheme is stable; an assertion guards this.

Two step-invariant costs are hoisted out of the loop:

* the per-species courant table depends only on the base-state pressure
  column and ``dt/dz``, so it is memoized in the
  ``fsbm.sed_courant`` :class:`~repro.core.cache.CountingCache` rather
  than re-deriving ~4k ``terminal_velocity`` evaluations per step;
* with the compiled path (:mod:`repro.fsbm.ckernels`, default on) the
  whole sweep — every member, all species, flux build, shifted carry,
  precipitation dot — runs as one C loop nest with no full-field
  temporaries, bit-identical to the numpy reference (see the kernel
  module's equivalence notes). ``REPRO_DISABLE_CPHYS=1`` or
  ``REPRO_DISABLE_CJIT=1`` forces the numpy path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cache import get_cache
from repro.fsbm import ckernels
from repro.fsbm.fallspeeds import terminal_velocity
from repro.fsbm.species import Species, species_bins
from repro.fsbm.state import MicroState, all_occupied

#: FLOPs per (cell, bin) of the upwind update (flux build, two
#: updates, precipitation accumulation).
FLOPS_PER_BIN = 12.0

_courant_cache = get_cache("fsbm.sed_courant", maxsize=16)


@dataclass
class SedWorkStats:
    """Work counts for one sedimentation sweep."""

    cell_bins: float = 0.0

    @property
    def flops(self) -> float:
        return self.cell_bins * FLOPS_PER_BIN

    @property
    def bytes_moved(self) -> float:
        return self.cell_bins * 4.0 * 3.0

    def merge(self, other: "SedWorkStats") -> None:
        self.cell_bins += other.cell_bins


def _courant_tables(
    pressure_mb_levels: np.ndarray, dz_cm: float, dt: float
) -> dict:
    """Step-invariant sedimentation tables for one base-state column.

    Keyed by the pressure column and ``dt``/``dz``; holds the stacked
    ``(nsp, nk, nkr)`` courant table, the stacked bin masses, the
    per-species CFL maxima, and the per-species courant rows used by
    the numpy path (bitwise the same arrays either path reads).
    """
    p = np.ascontiguousarray(pressure_mb_levels, dtype=np.float64)
    key = (float(dt), float(dz_cm), p.shape[0], p.tobytes())

    def build() -> dict:
        grids = species_bins()
        splist = list(Species)
        courant = {}
        for sp in splist:
            # v[k, bin]: fall speed per level and bin [cm/s] (one
            # broadcast evaluation instead of a per-level loop).
            v = terminal_velocity(sp, grids[sp].radii[None, :], p[:, None])
            courant[sp] = v * dt / dz_cm
        nkr = max(c.shape[1] for c in courant.values())
        stack = np.zeros((len(splist), p.shape[0], nkr))
        masses = np.zeros((len(splist), nkr))
        for isp, sp in enumerate(splist):
            nb = courant[sp].shape[1]
            stack[isp, :, :nb] = courant[sp]
            masses[isp, :nb] = grids[sp].masses
        return {
            "species": splist,
            "courant": courant,
            "cmax": {sp: float(courant[sp].max()) for sp in splist},
            "stack": np.ascontiguousarray(stack),
            "masses": np.ascontiguousarray(masses),
        }

    return _courant_cache.get_or_build(key, build)


def _check_cfl(sp: Species, cmax: float) -> None:
    assert cmax <= 1.0, (
        f"sedimentation CFL violated for {sp}: {cmax:.2f} "
        "(reduce dt or increase dz)"
    )


def sedimentation_step(
    state: MicroState,
    pressure_mb_levels: np.ndarray,
    dz_cm: float,
    dt: float,
) -> SedWorkStats:
    """One member's sedimentation step, in place (see
    :func:`sedimentation_step_members`), skipping nothing: the state
    keeps no occupancy field, so the sweep reads an all-set one."""
    dists = {sp: d[None] for sp, d in state.dists.items()}
    (stats,) = sedimentation_step_members(
        dists, state.precip[None], pressure_mb_levels, dz_cm, dt,
        all_occupied((1, *state.shape)),
    )
    return stats


def sedimentation_step_members(
    dists_stacked: dict[Species, np.ndarray],
    precip_stacked: np.ndarray,
    pressure_mb_levels: np.ndarray,
    dz_cm: float,
    dt: float,
    occupancy: np.ndarray,
) -> list[SedWorkStats]:
    """Advance every member's species by one upwind step, in place.

    ``dists_stacked[sp]`` is the member-stacked ``(nm, ni, nk, nj,
    nkr)`` view of each species (all members resident in one
    superblock) and ``precip_stacked`` the ``(nm, ni, nj)`` surface
    accumulator. ``pressure_mb_levels`` has shape ``(nk,)`` (the
    base-state column every member shares) and sets the fall-speed
    density correction per level; the courant tables built from it are
    step-invariant and cached in ``fsbm.sed_courant``, so N members pay
    for one build. ``occupancy`` is the ``(nm, ni, nk, nj)`` uint8
    occupancy field of the same cells (bit ``sp`` clear: every bin of
    species ``sp`` is an exact zero). The compiled sweep takes every
    member in one call, reads a (cell, species) row only when its bit
    is set and sets the bit of every cell it deposits into; the numpy
    path (kill switch, no compiler, unsupported layout) runs member by
    member and sets a present species' bit in every cell of the member.
    Either way member ``m``'s update and stats are those of a one-member
    call on its own arrays: a skipped row is zeros, which would move
    nothing and count no work. So a field with no bit set returns zero
    stats at once, after the table lookup (whose cache counters then
    read as they would after a sweep).
    """
    tables = _courant_tables(pressure_mb_levels, dz_cm, dt)
    stats = [SedWorkStats() for _ in range(precip_stacked.shape[0])]
    if not occupancy.any():
        # Every bin is zero: the sweep would move, flag and count
        # nothing.
        return stats
    species = tables["species"]
    nkr = dists_stacked[species[0]].shape[-1]

    lib = ckernels.load_kernels()
    if lib is not None and tables["stack"].shape[2] == nkr:
        # The kernel touches only rows with nonzero number, so the CFL
        # guard need only fire for species that are both violating and
        # present — same observable behavior as the per-species loop.
        for sp in species:
            if tables["cmax"][sp] > 1.0 and dists_stacked[sp].any():
                _check_cfl(sp, tables["cmax"][sp])
        active = ckernels.sed_sweep(
            lib,
            [dists_stacked[sp] for sp in species],
            tables["stack"],
            tables["masses"],
            precip_stacked,
            occupancy,
        )
        if active is not None:
            for m, st in enumerate(stats):
                for isp, sp in enumerate(species):
                    if active[m, isp]:
                        st.cell_bins += float(dists_stacked[sp][m].size)
            return stats
        # Unsupported layout (dtype/stride mismatch): numpy path below.

    # Per member: the presence skips span the member's rows, and the
    # precipitation contraction is a BLAS call that must see only them.
    for m, st in enumerate(stats):
        for sp in species:
            n = dists_stacked[sp][m]
            if not n.any():
                continue
            _check_cfl(sp, tables["cmax"][sp])
            courant = tables["courant"][sp]
            flux = n * courant[None, :, None, :]  # number leaving each cell downward
            n -= flux
            n[:, :-1, :, :] += flux[:, 1:, :, :]
            # Lowest level's flux reaches the ground as precipitation mass.
            precip_stacked[m] += flux[:, 0, :, :] @ species_bins()[sp].masses
            occupancy[m] |= np.uint8(1 << species.index(sp))
            st.cell_bins += float(n.size)
    return stats
