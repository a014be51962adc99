"""Diffusional growth/evaporation: the ``onecond1`` / ``onecond2`` pair.

``onecond1`` treats liquid-only grid points (warm cloud); ``onecond2``
treats mixed-phase points, growing liquid against water saturation and
ice species against ice saturation. Bin masses grow by
``dm = 4 pi rho_p r G S dt`` and the spectrum is remapped onto the mass
ladder with the Kovetz–Olund two-bin split (vectorized scatter). Vapor
and temperature are updated from the exact remapped mass change, so
water mass and moist enthalpy are conserved to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fsbm import ckernels
from repro.fsbm.bins import BinGrid
from repro.fsbm.species import ICE_HABITS, Species, species_bins
from repro.fsbm.state import N_EPS
from repro.fsbm.thermo import (
    condensational_growth_coefficient,
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

    @property
    def flops(self) -> float:
        return self.bin_updates * FLOPS_PER_BIN

    @property
    def bytes_moved(self) -> float:
        return self.bin_updates * 4.0 * 4.0

    def merge(self, other: "CondWorkStats") -> None:
        self.points += other.points
        self.bin_updates += other.bin_updates


def _remap_spectrum(
    n: np.ndarray, new_mass: np.ndarray, grid: BinGrid
) -> tuple[np.ndarray, np.ndarray]:
    """KO-remap numbers ``n`` at perturbed masses onto the mass ladder.

    Returns ``(n_new, evaporated_number)`` where particles shrinking
    below half the smallest bin mass evaporate completely (their number
    is returned so callers can credit the CCN reservoir).

    The ladder indices and split weights are always derived in numpy
    (``log2`` rounding must not depend on the libm in play); while the
    physics kernels load, the two full-size ``bincount`` deposits are
    replaced by the compiled per-point scatter of
    :func:`repro.fsbm.ckernels.remap_scatter`, which is bit-identical
    (bincount accumulates in the same flat order).
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
    lib = ckernels.load_kernels()
    if lib is not None and nkr <= ckernels.MAX_NKR:
        acc = np.empty((npts, nkr))
        ckernels.remap_scatter(lib, n_live, w_hi, k, acc)
        return acc, evap_number
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


def _segmented_rowdot(
    a: np.ndarray, v: np.ndarray, segments: list[tuple[int, int]]
) -> np.ndarray:
    """Row-wise ``a @ v``, issued one BLAS call per row segment.

    BLAS matvec results for a given row are *not* independent of how
    many other rows share the call (kernel/blocking selection depends on
    the row count), so batching several members' rows into one ``a @ v``
    can perturb single rows at the ulp level. Splitting the call at
    member boundaries reproduces each member's one-member contraction
    bit-for-bit; one segment covering every row is exactly ``a @ v``.
    """
    out = np.empty(a.shape[0], dtype=np.result_type(a, v))
    for s, e in segments:
        if e > s:
            out[s:e] = a[s:e] @ v
    return out


def _grow_species(
    n: np.ndarray,
    sp: Species,
    supersat: np.ndarray,
    growth_coeff: np.ndarray,
    dt: float,
    grid: BinGrid,
    row_segments: list[tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One species' growth step.

    Returns ``(n_new, dmass_per_point, evaporated_number)`` with
    ``dmass`` the condensate mass change [g/cm^3] (positive while
    condensing). ``row_segments`` splits the mass contractions at
    member boundaries (see :func:`_segmented_rowdot`).
    """
    r = grid.radii
    factor = _HABIT_FACTOR.get(sp, 1.0)
    # dm/dt = 4 pi rho_p r^2 dr/dt = 4 pi rho_p r G S
    dm = (
        4.0
        * np.pi
        * grid.density
        * factor
        * r[None, :]
        * growth_coeff[:, None]
        * supersat[:, None]
        * dt
    )
    old_mass_content = _segmented_rowdot(n, grid.masses, row_segments)
    new_mass = grid.masses[None, :] + dm
    n_new, evap = _remap_spectrum(n, new_mass, grid)
    dmass = _segmented_rowdot(n_new, grid.masses, row_segments) - old_mass_content
    return n_new, dmass, evap


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
) -> list[CondWorkStats]:
    """Shared growth driver for onecond1/onecond2 (updates in place).

    The call arrays are per-member gathers concatenated member-major;
    ``segments[m]`` is member ``m``'s ``(start, stop)`` row range (empty
    ranges allowed). Elementwise thermodynamics and the per-point
    KO-remap scatter are row-local, so they run once over the
    concatenation and produce each member's rows bit-for-bit. The
    ``n @ masses`` contractions are the exception — BLAS matvec results
    depend on the call's row count — so those are issued one BLAS call
    per member segment (:func:`_segmented_rowdot`), matching each
    one-member contraction exactly.

    The one member-sensitive part is the per-species skip logic: a
    species is skipped for a member whose presence flag
    (``species_present[m]``, a conservative flag that is False only when
    the species is identically zero in the member's parent arrays) is
    off or none of whose rows exceed ``N_EPS``, and a skipped species
    must not touch that member's rows (they may hold tiny sub-threshold
    values a grow step would perturb) nor its work stats. Each species
    therefore processes only the row ranges of members that pass their
    own gates, and per-member ``bin_updates`` accumulate only for those
    members — exactly a one-member call's accounting.
    """
    nm = len(segments)
    stats = [
        CondWorkStats(points=(e - s)) if e > s else CondWorkStats()
        for (s, e) in segments
    ]
    npts = temperature.shape[0]
    if npts == 0:
        return stats
    grids = species_bins()
    g_coeff = condensational_growth_coefficient(temperature, pressure_mb)

    for sp in species:
        n = dists[sp]
        nkr = n.shape[1]
        rowsum_hot = n.sum(axis=1) > N_EPS
        passing = []
        for m, (s, e) in enumerate(segments):
            if e == s:
                continue
            if species_present is not None and not species_present[m].get(
                sp, True
            ):
                continue
            if not rowsum_hot[s:e].any():
                continue
            passing.append(m)
        if not passing:
            continue
        seg_pass = [segments[m] for m in passing]
        # Segment boundaries within the subset rows (for the per-member
        # BLAS splits below).
        sub_segments, off = [], 0
        for s, e in seg_pass:
            sub_segments.append((off, off + (e - s)))
            off += e - s
        if off == npts:
            idx = None
            nn, t_s, p_s = n, temperature, pressure_mb
            qv_s, rho_s, ccn_s, gc_s = qv, rho_air, ccn, g_coeff
        else:
            idx = np.concatenate([np.arange(s, e) for s, e in seg_pass])
            nn, t_s, p_s = n[idx], temperature[idx], pressure_mb[idx]
            qv_s, rho_s, ccn_s = qv[idx], rho_air[idx], ccn[idx]
            gc_s = g_coeff[idx]

        qs = saturation_mixing_ratio(t_s, p_s, over[sp])
        s_sat = qv_s / qs - 1.0
        # Limit condensation so vapor cannot be driven below saturation
        # (nor evaporation above it) in a single explicit step.
        n_new, dmass, evap = _grow_species(
            nn, sp, s_sat, gc_s, dt, grids[sp], sub_segments
        )
        dq = dmass / rho_s
        room = np.where(
            dq >= 0.0, np.maximum(qv_s - qs, 0.0), np.maximum(qs - qv_s, 0.0)
        )
        scale = np.where(
            np.abs(dq) > room, room / np.maximum(np.abs(dq), 1e-300), 1.0
        )
        scale = np.clip(scale, 0.0, 1.0)
        blended = nn + scale[:, None] * (n_new - nn)
        dmass = _segmented_rowdot(blended - nn, grids[sp].masses, sub_segments)
        dq = dmass / rho_s
        process = "condensation" if sp is Species.LIQUID else "deposition"
        if idx is None:
            dists[sp][...] = blended
            qv -= dq
            temperature += latent_heating(dq, process)
            ccn += scale * evap if sp is Species.LIQUID else 0.0
        else:
            dists[sp][idx] = blended
            qv_s -= dq
            qv[idx] = qv_s
            t_s += latent_heating(dq, process)
            temperature[idx] = t_s
            if sp is Species.LIQUID:
                ccn_s += scale * evap
                ccn[idx] = ccn_s
            # Non-liquid species add an exact scalar 0.0 to ccn in the
            # reference — a bitwise no-op on the non-negative reservoir.
        for m in passing:
            s, e = segments[m]
            stats[m].bin_updates += float((e - s) * nkr)
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
) -> list[CondWorkStats]:
    """Mixed-phase condensation/deposition (liquid + all ice species)."""
    species = (Species.LIQUID, *ICE_HABITS, Species.SNOW, Species.GRAUPEL, Species.HAIL)
    over = {sp: ("water" if sp is Species.LIQUID else "ice") for sp in species}
    return _condensation_core(
        dists, species, over, temperature, pressure_mb, qv, rho_air, ccn, dt,
        segments, species_present=species_present,
    )
