"""Halo-exchange plans between neighboring patches.

The plan is built in global index space: the halo a rank must receive
is exactly the intersection of its *memory* box with every other rank's
*owned* box. Computing both send and receive slices from the same
global region guarantees matching shapes, and naturally includes corner
(diagonal-neighbor) regions in a single exchange phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grid.decomposition import Decomposition
from repro.grid.domain import IndexRange, Patch
from repro.grid.indexing import local_slice


@dataclass(frozen=True, slots=True)
class HaloSegment:
    """One rectangular region moving from ``src`` rank to ``dst`` rank."""

    src: int
    dst: int
    i: IndexRange
    k: IndexRange
    j: IndexRange

    @property
    def num_points(self) -> int:
        """Grid points in the segment (per field)."""
        return self.i.size * self.k.size * self.j.size

    def src_slices(self, src_patch: Patch) -> tuple[slice, slice, slice]:
        """Slices into the source rank's local array."""
        return local_slice(src_patch, self.i, self.k, self.j)

    def dst_slices(self, dst_patch: Patch) -> tuple[slice, slice, slice]:
        """Slices into the destination rank's local array."""
        return local_slice(dst_patch, self.i, self.k, self.j)


@dataclass(frozen=True, slots=True)
class HaloExchangePlan:
    """All segments required to refresh every rank's halo once."""

    decomposition: Decomposition
    segments: tuple[HaloSegment, ...]

    def segments_to(self, rank: int) -> list[HaloSegment]:
        """Segments that fill ``rank``'s halo."""
        return [s for s in self.segments if s.dst == rank]

    def segments_from(self, rank: int) -> list[HaloSegment]:
        """Segments that ``rank`` must send."""
        return [s for s in self.segments if s.src == rank]

    def bytes_moved(self, itemsize: int = 4, nfields: int = 1) -> int:
        """Total bytes over the wire for one exchange of ``nfields`` fields."""
        return sum(s.num_points for s in self.segments) * itemsize * nfields

    def apply(self, fields: list[np.ndarray]) -> None:
        """Execute the exchange on per-rank local arrays (test helper).

        ``fields[r]`` is rank ``r``'s local array with memory extents.
        This performs the copies directly; the MPI simulator performs
        the same copies through its message layer and charges time.
        """
        patches = self.decomposition.patches
        for seg in self.segments:
            src = fields[seg.src][seg.src_slices(patches[seg.src])]
            fields[seg.dst][seg.dst_slices(patches[seg.dst])] = src


def build_halo_plan(decomposition: Decomposition) -> HaloExchangePlan:
    """Construct the exchange plan for a decomposition.

    For every ordered pair of distinct ranks, the segment is
    ``owned(src) ∩ memory(dst)`` — empty for non-adjacent ranks since
    halos are at most ``halo`` wide.
    """
    segments: list[HaloSegment] = []
    patches = decomposition.patches
    for dst_patch in patches:
        for src_patch in patches:
            if src_patch.rank == dst_patch.rank:
                continue
            i_int = src_patch.i.intersect(dst_patch.im)
            j_int = src_patch.j.intersect(dst_patch.jm)
            if i_int is None or j_int is None:
                continue
            segments.append(
                HaloSegment(
                    src=src_patch.rank,
                    dst=dst_patch.rank,
                    i=i_int,
                    k=dst_patch.k,
                    j=j_int,
                )
            )
    return HaloExchangePlan(decomposition=decomposition, segments=tuple(segments))
