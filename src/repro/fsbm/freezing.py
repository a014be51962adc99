"""Freezing and melting phase transitions between the bin species.

* Homogeneous freezing: below -38 C all liquid freezes instantly —
  small bins become plate crystals, large drops become hail.
* Immersion freezing: between -38 C and -5 C, large drops freeze with a
  Bigg-style exponential rate in supercooling.
* Melting: above 0 C, ice habits and snow melt within one step; graupel
  and hail melt with a finite relaxation time (they survive a fall
  through the melting layer, as in the full FSBM).

All transfers move number between equal-mass bins of different species,
so condensate mass is conserved exactly; latent heat of fusion feeds
back on temperature.

While the physics kernels load, the compiled ``freeze_melt`` kernel
(:mod:`repro.fsbm.ckernels`) updates every point in place, summing each
point's frozen and melted mass serially in ascending bin order. A point
whose gate is off is left untouched, which is exactly what the numpy
engine's call-level gates (``frac.any()``, ``melted.any()``) amount to;
those gates only decide the work counts. The numpy engine is the
fallback and the kernel's oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import T_0
from repro.fsbm import ckernels
from repro.fsbm.species import ICE_HABITS, Species, species_bins
from repro.fsbm.thermo import latent_heat_factor, latent_heating

#: Homogeneous-freezing threshold [K].
T_HOMOGENEOUS = T_0 - 38.0

#: Drops at or above this bin index freeze to hail (smaller ones to
#: plates): roughly the 100 um radius boundary of drop freezing.
HAIL_BIN_THRESHOLD = 14

#: Bigg immersion-freezing rate coefficient [s^-1].
BIGG_A = 1.0e-4
BIGG_B = 0.66  # [K^-1]

#: Melting relaxation times [s].
TAU_MELT_FAST = 1.0  # ice habits, snow
TAU_MELT_SLOW = 600.0  # graupel, hail

#: FLOPs per (point, bin) of the phase-change sweep.
FLOPS_PER_BIN = 8.0


@dataclass
class FreezeWorkStats:
    """Work counts for one freezing/melting call."""

    bin_updates: float = 0.0
    #: Engine that applied the phase changes: ``"compiled"`` (the
    #: loop-IR ``freeze_melt`` kernel), ``"numpy"``, or ``"none"`` (no
    #: points).
    engine: str = "none"

    @property
    def flops(self) -> float:
        return self.bin_updates * FLOPS_PER_BIN

    @property
    def bytes_moved(self) -> float:
        return self.bin_updates * 4.0 * 3.0

    def merge(self, other: "FreezeWorkStats") -> None:
        self.bin_updates += other.bin_updates
        if other.engine != "none":
            self.engine = other.engine


#: Species that melt, in melting order, with their relaxation times.
_MELTING = tuple(
    (sp, TAU_MELT_FAST if sp in (*ICE_HABITS, Species.SNOW) else TAU_MELT_SLOW)
    for sp in (*ICE_HABITS, Species.SNOW, Species.GRAUPEL, Species.HAIL)
)


def freezing_melting_step(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    rho_air: np.ndarray,
    dt: float,
) -> FreezeWorkStats:
    """Apply freezing and melting to ``(npts, nkr)`` distributions."""
    npts = temperature.shape[0]
    stats = FreezeWorkStats()
    if npts == 0:
        return stats
    masses = species_bins()[Species.LIQUID].masses
    nkr = masses.shape[0]

    # The freezing fraction per point (zero where the gate is off).
    supercool = np.maximum(T_0 - temperature, 0.0)
    frac = np.where(
        temperature <= T_HOMOGENEOUS,
        1.0,
        1.0 - np.exp(-BIGG_A * np.exp(BIGG_B * supercool) * dt),
    )
    frac = np.where(supercool > 5.0, frac, 0.0)
    melt_frac = [1.0 - np.exp(-dt / tau) for _, tau in _MELTING]

    lib = ckernels.load_kernels()
    species = list(dists)
    melt_flags = None
    if lib is not None:
        melt_flags = ckernels.freeze_melt(
            lib,
            [dists[sp] for sp in species],
            frac,
            temperature,
            rho_air,
            masses,
            np.array([species.index(sp) for sp, _ in _MELTING], dtype=np.int64),
            np.array(melt_frac),
            species.index(Species.LIQUID),
            species.index(Species.ICE_PLA),
            species.index(Species.HAIL),
            HAIL_BIN_THRESHOLD,
            T_0,
            latent_heat_factor("freezing"),
        )
    if melt_flags is not None:
        stats.engine = "compiled"
        if frac.any():
            stats.bin_updates += float(npts * nkr)
        for s in range(len(_MELTING)):
            if melt_flags[:, s].any():
                stats.bin_updates += float(npts * nkr)
        return stats

    stats.engine = "numpy"
    liq = dists[Species.LIQUID]
    # --- freezing ----------------------------------------------------------
    if frac.any():
        frozen = liq * frac[:, None]
        # Small drops -> plate crystals; large drops -> hail embryos.
        small = frozen[:, :HAIL_BIN_THRESHOLD]
        large = frozen[:, HAIL_BIN_THRESHOLD:]
        dists[Species.ICE_PLA][:, :HAIL_BIN_THRESHOLD] += small
        dists[Species.HAIL][:, HAIL_BIN_THRESHOLD:] += large
        liq -= frozen
        dq = (frozen * masses).sum(axis=1) / rho_air
        temperature += latent_heating(dq, "freezing")
        stats.bin_updates += float(npts * nkr)

    # --- melting -----------------------------------------------------------
    warm = temperature > T_0
    if warm.any():
        for (sp, _), mf in zip(_MELTING, melt_frac):
            melted = dists[sp] * np.where(warm, mf, 0.0)[:, None]
            if not melted.any():
                continue
            dists[sp] -= melted
            liq += melted
            dq = (melted * masses).sum(axis=1) / rho_air
            temperature -= latent_heating(dq, "freezing")
            stats.bin_updates += float(npts * nkr)

    return stats
