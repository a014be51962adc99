"""Diffusional growth/evaporation: the ``onecond1`` / ``onecond2`` pair.

``onecond1`` treats liquid-only grid points (warm cloud); ``onecond2``
treats mixed-phase points, growing liquid against water saturation and
ice species against ice saturation. Bin masses grow by
``dm = 4 pi rho_p r G S dt`` and the spectrum is remapped onto the mass
ladder with the Kovetz–Olund two-bin split. Vapor and temperature are
updated from the exact remapped mass change, so water mass and moist
enthalpy are conserved to rounding.

Two engines grow a species, with the same arithmetic per row:

* the **compiled** ``onecond`` kernel (:mod:`repro.fsbm.ckernels`) —
  every call while the physics kernels load — grows a list of rows in
  place, on any row stride (the sweep's packed gather), summing each
  row serially in ascending bin order;
* the **numpy** engine (the fallback under a kill switch, without a
  compiler or beyond ``ckernels.MAX_NKR`` bins, and the compiled
  kernel's 1e-12 oracle in the tests) reduces within rows.

They differ only in summation order and in how a mass at a ladder
bin's edge picks its bin (a comparison search vs ``log2``), both at
the rounding level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.fsbm import ckernels
from repro.fsbm.bins import BinGrid
from repro.fsbm.species import ICE_HABITS, Species, species_bins
from repro.fsbm.state import N_EPS
from repro.fsbm.thermo import (
    condensational_growth_coefficient,
    latent_heat_factor,
    latent_heating,
    saturation_mixing_ratio,
)

#: Habit shape factor multiplying the growth rate (capacitance of
#: columns/plates/dendrites relative to spheres), plus snow/graupel/hail.
_HABIT_FACTOR = {
    Species.ICE_COL: 0.7,
    Species.ICE_PLA: 0.9,
    Species.ICE_DEN: 1.2,
    Species.SNOW: 0.8,
    Species.GRAUPEL: 0.6,
    Species.HAIL: 0.5,
}

#: Internal sub-cycles the Fortran onecond1/2 take per model step (the
#: growth ODE is integrated on a supersaturation-limited sub-time-step,
#: ~15 sub-cycles in active cloud; calibrated once, see DESIGN.md).
COND_SUBSTEPS = 15

#: FLOPs per (point, bin, substep) of the growth + remap loop, including
#: the psychrometric exponentials evaluated per bin.
FLOPS_PER_BIN = 25.0 * COND_SUBSTEPS


@dataclass
class CondWorkStats:
    """Work counts for one condensation call."""

    points: int = 0
    bin_updates: float = 0.0
    #: Engine that grew the spectra: ``"compiled"`` (the loop-IR
    #: ``onecond`` kernel), ``"numpy"``, or ``"none"`` (no species
    #: passed its gates).
    engine: str = "none"

    @property
    def flops(self) -> float:
        return self.bin_updates * FLOPS_PER_BIN

    @property
    def bytes_moved(self) -> float:
        return self.bin_updates * 4.0 * 4.0

    def merge(self, other: "CondWorkStats") -> None:
        self.points += other.points
        self.bin_updates += other.bin_updates
        if other.engine != "none":
            self.engine = other.engine


def _remap_spectrum(
    n: np.ndarray, new_mass: np.ndarray, grid: BinGrid
) -> tuple[np.ndarray, np.ndarray]:
    """KO-remap numbers ``n`` at perturbed masses onto the mass ladder.

    Returns ``(n_new, evaporated_number)`` where particles shrinking
    below half the smallest bin mass evaporate completely (their number
    is returned so callers can credit the CCN reservoir). The numpy
    engine's remap; the compiled ``onecond`` kernel performs the same
    deposit with a comparison search for the ladder index.
    """
    npts, nkr = n.shape
    x = grid.masses
    evap_mask = new_mass < 0.5 * x[0]
    evap_number = np.where(evap_mask, n, 0.0).sum(axis=1)

    live = ~evap_mask & (n > 0.0)
    m = np.clip(new_mass, x[0], x[-1])
    k = np.clip(np.floor(np.log2(m / grid.x_min)).astype(int), 0, nkr - 2)
    w_hi = np.clip((m - x[k]) / (x[k + 1] - x[k]), 0.0, 1.0)

    n_live = np.where(live, n, 0.0)
    rows = np.arange(npts)[:, None] * nkr
    flat_lo = (rows + k).ravel()
    flat_hi = (rows + k + 1).ravel()
    acc = np.bincount(
        flat_lo, weights=(n_live * (1.0 - w_hi)).ravel(), minlength=npts * nkr
    )
    acc += np.bincount(
        flat_hi, weights=(n_live * w_hi).ravel(), minlength=npts * nkr
    )
    return acc.reshape(npts, nkr), evap_number


def _mass_content(n: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Per-row mass ``sum_b n[:, b] x_b``, reduced within each row.

    A row-local reduction (not a BLAS matvec, whose rounding depends on
    how many rows share the call), so a row's value never depends on
    which other rows are in the array.
    """
    return (n * masses).sum(axis=1)


@lru_cache(maxsize=None)
def _growth_prefactor(sp: Species) -> np.ndarray:
    """``4 pi rho_p f r`` per bin: ``dm = prefactor * G * S * dt``."""
    grid = species_bins()[sp]
    return 4.0 * np.pi * grid.density * _HABIT_FACTOR.get(sp, 1.0) * grid.radii


def _grow_numpy(
    n: np.ndarray,
    rows: np.ndarray,
    sp: Species,
    gc: np.ndarray,
    qs: np.ndarray,
    temperature: np.ndarray,
    qv: np.ndarray,
    rho_air: np.ndarray,
    ccn: np.ndarray,
    dt: float,
) -> None:
    """The numpy engine's growth step of ``n``'s listed rows, in place.

    Same arithmetic as the compiled ``onecond`` kernel, row by row: the
    growth, the KO remap, the saturation limiter (vapor cannot be
    driven below saturation, nor evaporation above it, in a single
    explicit step), the blend, and the vapor/heat/CCN updates. Mass
    changes are summed per bin (``(n_new - n) x``), never as the
    difference of two nearly equal row masses.
    """
    grid = species_bins()[sp]
    masses = grid.masses
    nn, qv_s, rho_s = n[rows], qv[rows], rho_air[rows]
    s_sat = qv_s / qs - 1.0
    # dm/dt = 4 pi rho_p r^2 dr/dt = 4 pi rho_p r G S
    dm = _growth_prefactor(sp)[None, :] * gc[:, None] * s_sat[:, None] * dt
    n_new, evap = _remap_spectrum(nn, masses[None, :] + dm, grid)
    dq = _mass_content(n_new - nn, masses) / rho_s
    room = np.where(
        dq >= 0.0, np.maximum(qv_s - qs, 0.0), np.maximum(qs - qv_s, 0.0)
    )
    scale = np.where(
        np.abs(dq) > room, room / np.maximum(np.abs(dq), 1e-300), 1.0
    )
    scale = np.clip(scale, 0.0, 1.0)
    blended = nn + scale[:, None] * (n_new - nn)
    dq = _mass_content(blended - nn, masses) / rho_s
    n[rows] = blended
    qv[rows] = qv_s - dq
    process = "condensation" if sp is Species.LIQUID else "deposition"
    temperature[rows] += latent_heating(dq, process)
    if sp is Species.LIQUID:
        ccn[rows] += scale * evap


def _condensation_core(
    dists: dict[Species, np.ndarray],
    species: tuple[Species, ...],
    over: dict[Species, str],
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    qv: np.ndarray,
    rho_air: np.ndarray,
    ccn: np.ndarray,
    dt: float,
    segments: list[tuple[int, int]],
    species_present: list[dict[Species, bool]] | None = None,
    rows: np.ndarray | None = None,
) -> list[CondWorkStats]:
    """Shared growth driver for onecond1/onecond2 (updates in place).

    ``rows`` lists the points of the call arrays this routine treats
    (every point when omitted), member-major; ``segments[m]`` is member
    ``m``'s ``(start, stop)`` range of that list (empty ranges allowed).
    The species loop runs here, in Python, because temperature changes
    after every species: each species' saturation mixing ratio is
    computed from the temperature the previous one left. The growth
    coefficient is computed once, from the temperature on entry.

    The one member-sensitive part is the per-species skip logic: a
    species is skipped for a member whose presence flag
    (``species_present[m]``, a conservative flag that is False only when
    no row of the member can exceed ``N_EPS``) is off or none of whose
    rows exceed ``N_EPS``, and a skipped species
    must not touch that member's rows (they may hold tiny sub-threshold
    values a grow step would perturb) nor its work stats. Each species
    therefore grows only the rows of members that pass their own gates
    — an index list, no spectrum is copied for it — and per-member
    ``bin_updates`` accumulate only for those members: exactly a
    one-member call's accounting.

    Everything else is row-local. The compiled ``onecond`` kernel sums
    each row serially in ascending bin order and the numpy engine
    reduces within rows, so each member's rows come out bit-for-bit
    those of a one-member call on either engine.
    """
    stats = [
        CondWorkStats(points=(e - s)) if e > s else CondWorkStats()
        for (s, e) in segments
    ]
    if rows is None:
        rows = np.arange(temperature.shape[0])
    if rows.size == 0:
        return stats
    g_coeff = condensational_growth_coefficient(temperature[rows], pressure_mb[rows])
    lib = ckernels.load_kernels()

    for sp in species:
        n = dists[sp]
        nkr = n.shape[1]
        candidates = [
            m
            for m, (s, e) in enumerate(segments)
            if e > s
            and (species_present is None or species_present[m].get(sp, True))
        ]
        if not candidates:
            continue
        hot = n[rows].sum(axis=1) > N_EPS
        passing = [m for m in candidates if hot[slice(*segments[m])].any()]
        if not passing:
            continue
        pos = np.concatenate([np.arange(*segments[m]) for m in passing])
        sub, gc = rows[pos], g_coeff[pos]
        qs = saturation_mixing_ratio(temperature[sub], pressure_mb[sub], over[sp])
        grid = species_bins()[sp]
        process = "condensation" if sp is Species.LIQUID else "deposition"
        engine = "compiled"
        if lib is None or not ckernels.onecond(
            lib, n, sub, gc, qs, rho_air, qv, temperature, ccn,
            _growth_prefactor(sp), grid.masses, dt, 0.5 * grid.masses[0],
            latent_heat_factor(process), sp is Species.LIQUID,
        ):
            _grow_numpy(n, sub, sp, gc, qs, temperature, qv, rho_air, ccn, dt)
            engine = "numpy"
        for m in passing:
            s, e = segments[m]
            stats[m].bin_updates += float((e - s) * nkr)
            stats[m].engine = engine
    return stats


def onecond1(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    qv: np.ndarray,
    rho_air: np.ndarray,
    ccn: np.ndarray,
    dt: float,
    species_present: dict[Species, bool] | None = None,
) -> CondWorkStats:
    """Liquid-only condensation/evaporation of one member's points."""
    return onecond1_members(
        dists, temperature, pressure_mb, qv, rho_air, ccn, dt,
        [(0, temperature.shape[0])],
        species_present=None if species_present is None else [species_present],
    )[0]


def onecond2(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    qv: np.ndarray,
    rho_air: np.ndarray,
    ccn: np.ndarray,
    dt: float,
    species_present: dict[Species, bool] | None = None,
) -> CondWorkStats:
    """Mixed-phase condensation/deposition of one member's points."""
    return onecond2_members(
        dists, temperature, pressure_mb, qv, rho_air, ccn, dt,
        [(0, temperature.shape[0])],
        species_present=None if species_present is None else [species_present],
    )[0]


def onecond1_members(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    qv: np.ndarray,
    rho_air: np.ndarray,
    ccn: np.ndarray,
    dt: float,
    segments: list[tuple[int, int]],
    species_present: list[dict[Species, bool]] | None = None,
    rows: np.ndarray | None = None,
) -> list[CondWorkStats]:
    """Liquid-only condensation/evaporation (warm grid points)."""
    return _condensation_core(
        dists,
        (Species.LIQUID,),
        {Species.LIQUID: "water"},
        temperature,
        pressure_mb,
        qv,
        rho_air,
        ccn,
        dt,
        segments,
        species_present=species_present,
        rows=rows,
    )


def onecond2_members(
    dists: dict[Species, np.ndarray],
    temperature: np.ndarray,
    pressure_mb: np.ndarray,
    qv: np.ndarray,
    rho_air: np.ndarray,
    ccn: np.ndarray,
    dt: float,
    segments: list[tuple[int, int]],
    species_present: list[dict[Species, bool]] | None = None,
    rows: np.ndarray | None = None,
) -> list[CondWorkStats]:
    """Mixed-phase condensation/deposition (liquid + all ice species)."""
    species = (Species.LIQUID, *ICE_HABITS, Species.SNOW, Species.GRAUPEL, Species.HAIL)
    over = {sp: ("water" if sp is Species.LIQUID else "ice") for sp in species}
    return _condensation_core(
        dists, species, over, temperature, pressure_mb, qv, rho_air, ccn, dt,
        segments, species_present=species_present, rows=rows,
    )
