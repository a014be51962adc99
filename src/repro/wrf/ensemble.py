"""The per-member view of the model: one entry per ensemble member.

:class:`~repro.wrf.model.WrfModel` already steps ``namelist.members``
perturbed scenarios of one domain together — every rank holds them in
one ``(N, ni, nk, nj, nscalar)`` superblock and every kernel sweeps the
member axis — but its :meth:`~repro.wrf.model.WrfModel.step` and
:meth:`~repro.wrf.model.WrfModel.run` report member 0, the whole of a
plain run. :class:`EnsembleModel` is the same engine with those two
calls returning one entry per member; ``gather_output(m)`` slices one
member's frame out of either.

Member ``m`` of an ``N``-member run is **bit-identical** — fields,
per-rank :class:`~repro.core.clock.SimClock` charges, history frames,
step timings — to a one-member run of
:func:`repro.wrf.namelist.member_namelist`\\ ``(nl, m)``; the
exact-equality property in ``tests/wrf/test_ensemble.py`` enforces it.
"""

from __future__ import annotations

# The benchmark's layer probes patch the case builder under this
# module's name as well; the engine calls it through repro.wrf.model.
from repro.wrf.model import build_rank_fields  # noqa: F401
from repro.wrf.model import RunResult, StepTiming, WrfModel


class EnsembleModel(WrfModel):
    """N perturbed scenarios of one configured WRF job, stepped together.

    :meth:`step` and :meth:`run` return per-member lists.
    """

    def step(self) -> list[StepTiming]:  # type: ignore[override]
        """Advance all members by one model step; per-member timings."""
        return self.step_members()

    def run(  # type: ignore[override]
        self, num_steps: int | None = None, final_history: bool = False
    ) -> list[RunResult]:
        """Run all members; returns one :class:`RunResult` per member."""
        return self.run_members(num_steps, final_history)
