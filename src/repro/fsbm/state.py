"""Microphysics state: binned size distributions on a patch.

Number concentrations are stored per species as ``(ni, nk, nj, nkr)``
arrays in units of cm^-3 per bin, plus a CCN reservoir. The canonical
host copy is float64; offloaded stages compute on float32 device
mirrors, which is what produces the genuine digit differences that the
``diffwrf`` verification (Sec. VII-B) measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import NKR
from repro.errors import ConfigurationError
from repro.fsbm.bins import BinGrid
from repro.fsbm.species import Species, species_bins

#: Number concentrations below this are treated as empty bins [cm^-3].
N_EPS = 1.0e-12

#: A cell's occupancy byte with every bit set. Bit ``sp`` (the index in
#: :class:`~repro.fsbm.species.Species` order) clear promises that every
#: bin of that species is an exact zero; a set bit promises nothing, so
#: an all-set field is always valid and makes every kernel sweep all.
ALL_OCCUPIED = 0xFF


def all_occupied(shape: tuple[int, ...]) -> np.ndarray:
    """An occupancy field (uint8) that skips nothing."""
    return np.full(shape, ALL_OCCUPIED, dtype=np.uint8)


@dataclass
class MicroState:
    """All hydrometeor distributions on one patch (i, k, j, bin)."""

    shape: tuple[int, int, int]
    nkr: int = NKR
    dists: dict[Species, np.ndarray] = field(default_factory=dict)
    #: Available cloud condensation nuclei [cm^-3].
    ccn: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: Accumulated surface precipitation mass [g/cm^2] (diagnostic).
    precip: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: Optional ``(ni, nk, nj, nsp * nkr)`` view covering every species'
    #: bins contiguously (set by :meth:`bind_packed` when the dists live
    #: in a rank's bins block); lets moment reductions run as one contraction.
    packed: np.ndarray | None = None
    #: Concatenated per-species bin masses matching ``packed``'s layout.
    packed_masses: np.ndarray | None = None

    def __post_init__(self) -> None:
        if len(self.shape) != 3 or min(self.shape) < 1:
            raise ConfigurationError("state shape must be a positive 3-tuple")
        full = (*self.shape, self.nkr)
        for sp in Species:
            if sp not in self.dists:
                self.dists[sp] = np.zeros(full)
            elif self.dists[sp].shape != full:
                raise ConfigurationError(
                    f"distribution for {sp} has shape {self.dists[sp].shape}, "
                    f"expected {full}"
                )
        if self.ccn is None:
            self.ccn = np.full(self.shape, 100.0)  # continental background
        if self.precip is None:
            self.precip = np.zeros((self.shape[0], self.shape[2]))

    # --- moments -------------------------------------------------------------

    def number(self, sp: Species) -> np.ndarray:
        """Total number concentration [cm^-3], shape (ni, nk, nj)."""
        return self.dists[sp].sum(axis=-1)

    def mass(self, sp: Species, bins: BinGrid | None = None) -> np.ndarray:
        """Mass content [g/cm^3], shape (ni, nk, nj)."""
        grid = bins or species_bins()[sp]
        return self.dists[sp] @ grid.masses

    def bind_packed(self, packed: np.ndarray) -> None:
        """Register a packed all-species bin view (bins-block storage).

        ``packed`` must cover exactly the species distributions in
        :class:`Species` order, each ``dists[sp]`` being the matching
        ``nkr``-wide slice of it. Callers that lay the dists out inside
        a bins block (:meth:`repro.wrf.state.WrfFields.bind_block`) call
        this so :meth:`total_condensate_mass` can contract all species
        in one pass.
        """
        nsp = len(Species)
        if packed.shape != (*self.shape, nsp * self.nkr):
            raise ConfigurationError(
                f"packed view has shape {packed.shape}, expected "
                f"{(*self.shape, nsp * self.nkr)}"
            )
        grids = species_bins()
        self.packed = packed
        self.packed_masses = np.concatenate(
            [grids[sp].masses for sp in Species]
        )

    def total_condensate_mass(self) -> np.ndarray:
        """Summed mass content over all species [g/cm^3].

        With a packed view bound this is a single matvec over the
        concatenated bins (same values as the per-species loop to
        float-summation-order differences, ~1e-15 relative).
        """
        if self.packed is not None:
            return self.packed @ self.packed_masses
        grids = species_bins()
        out = np.zeros(self.shape)
        for sp in Species:
            out += self.mass(sp, grids[sp])
        return out

    # --- bookkeeping ----------------------------------------------------------

    def copy(self) -> "MicroState":
        """Deep copy (used by stage-equivalence tests)."""
        return MicroState(
            shape=self.shape,
            nkr=self.nkr,
            dists={sp: d.copy() for sp, d in self.dists.items()},
            ccn=self.ccn.copy(),
            precip=self.precip.copy(),
        )

    def view(self, slices: tuple[slice, slice, slice]) -> "MicroState":
        """A sub-region view sharing memory with this state.

        Used by the model driver to run microphysics on the owned
        (non-halo) region of a halo-extended allocation: mutations
        through the view land in the parent arrays.
        """
        i_sl, k_sl, j_sl = slices
        dists = {sp: d[i_sl, k_sl, j_sl] for sp, d in self.dists.items()}
        shape = next(iter(dists.values())).shape[:3]
        sub = MicroState(
            shape=shape,
            nkr=self.nkr,
            dists=dists,
            ccn=self.ccn[slices],
            precip=self.precip[i_sl, j_sl],
        )
        if self.packed is not None:
            sub.packed = self.packed[i_sl, k_sl, j_sl]
            sub.packed_masses = self.packed_masses
        return sub

    def clip_negatives(self) -> float:
        """Zero tiny negative concentrations; returns the mass removed."""
        grids = species_bins()
        removed = 0.0
        for sp, d in self.dists.items():
            neg = d < 0.0
            if neg.any():
                neg_vals = np.where(neg, d, 0.0)
                removed -= float(
                    neg_vals.reshape(-1, self.nkr).sum(axis=0) @ grids[sp].masses
                )
                d[neg] = 0.0
        return removed

    def seed_cloud(
        self,
        mask: np.ndarray,
        lwc: float = 1.0e-6,
        mean_bin: int = 8,
        spread: float = 3.0,
    ) -> None:
        """Insert a lognormal-ish droplet spectrum where ``mask`` is True.

        ``lwc`` is the liquid water content [g/cm^3] (1e-6 = 1 g/m^3).
        Used by test cases to create spatially heterogeneous activity.
        """
        grid = species_bins()[Species.LIQUID]
        k = np.arange(self.nkr)
        shape = np.exp(-0.5 * ((k - mean_bin) / spread) ** 2)
        mass_of_shape = shape @ grid.masses
        spectrum = shape * (lwc / mass_of_shape)
        self.dists[Species.LIQUID][mask] += spectrum
