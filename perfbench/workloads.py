"""The forecast benchmark's workloads: what each one runs, and why.

A workload is a fixed-length forecast of the synthetic CONUS case under
one rank/member layout. A run of the benchmark times several such
forecasts. Forecast ``i`` of every run uses storm layout (case seed)
``LAYOUT_SEED + i``; the run's ``--seed`` draws each forecast's storm
strength, moisture, aerosol and wind. So every seed gives its own
inputs, while the work a run holds stays about the same from seed to
seed: with the layouts drawn from ``--seed`` too, 20 storms per run
still left the runs' ``sim_speed`` 12 % apart (quartile spread over 5
seeds), because one layout can hold twice the cloudy cells of another.

This module imports nothing from ``repro``: the parent process uses it
to plan a run before any child interpreter imports the model.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (see README.md for the reasoning)."""

    name: str
    #: Horizontal scale of the CONUS-12km domain (``conus12km_namelist``).
    scale: float
    num_ranks: int = 1
    members: int = 1
    use_process_ranks: bool = False
    #: Model steps per forecast; the first one is part of set-up.
    steps: int = 6
    #: Write a history frame every this many steps (0: no history).
    history_every: int = 0
    #: Case perturbations applied to every member (``CaseConfig`` fields).
    case_overrides: tuple = ()
    #: Nominal wall time of one timed step on a 2-core x86 host [ms];
    #: fixes how many forecasts a run of ``--seconds`` holds.
    nominal_step_ms: float = 200.0
    #: Child interpreters per run; each contributes one fresh set-up.
    children: int = 4

    @property
    def timed_steps(self) -> int:
        return self.steps - 1

    def forecasts(self, seconds: float, trace: bool) -> int:
        """Forecasts per run. Depends only on ``seconds`` and ``trace``,
        never on measured speed, so one seed always gets one input set.
        A traced run times every forecast twice (traced and untraced).
        """
        per_forecast = self.nominal_step_ms * self.timed_steps / 1e3
        n = max(self.children, round(seconds / per_forecast))
        if trace:
            n = max(1, n // 2)
        return n

    def forecast_inputs(self, seed: int, count: int) -> list[dict]:
        """The inputs of one run's forecasts, made from ``seed`` alone."""
        inputs = []
        for i in range(count):
            rng = random.Random(seed * 1000 + i)
            drawn = (
                ("bubble_dtheta", 3.0 * rng.uniform(0.95, 1.05)),
                ("moisture_boost", 1.0 + 0.35 * rng.uniform(0.9, 1.1)),
                ("ccn_background", 100.0 * rng.uniform(0.8, 1.2)),
                ("u_base", 8.0 * rng.uniform(0.9, 1.1)),
            )
            inputs.append(
                {"name": f"{seed}.{i}", "case_seed": LAYOUT_SEED + i, "drawn": drawn}
            )
        return inputs

    def namelist_kwargs(self, inp: dict, history_dir: str | None) -> dict:
        """Keyword arguments for ``conus12km_namelist`` (besides scale).

        Later case pairs win: the drawn values, then the workload's
        overrides, then the ensemble's member perturbations.
        """
        base = tuple(tuple(pair) for pair in inp["drawn"]) + self.case_overrides
        per_member = member_deltas(self.members) if self.members > 1 else ((),)
        kw = dict(
            num_ranks=self.num_ranks,
            seed=inp["case_seed"],
            members=self.members,
            member_deltas=tuple(base + d for d in per_member),
            use_process_ranks=self.use_process_ranks,
        )
        if self.history_every:
            kw["history_interval"] = self.history_every * DT_SECONDS
            kw["history_path"] = history_dir
        return kw


#: Storm layout (case seed) of every run's first forecast; forecast i
#: uses ``LAYOUT_SEED + i``. 2024 is the repository's default case.
LAYOUT_SEED = 2024

#: OpenMP and BLAS threads per rank, as an MPI launcher would pin them
#: (ranks x threads <= cores on 2 or more cores). On a 2-core host, two
#: threads for the 1-rank workloads measured both slower (23.1 vs 24.8
#: sim_s/s on ``storm``) and noisier (12 % vs 4 % spread over repeats
#: of one seed) than one.
THREADS_PER_RANK = 1

#: The CONUS-12km model step [s] (``repro.constants.CONUS12KM_DT``);
#: repeated here so planning a run needs no model import.
DT_SECONDS = 5.0


def member_deltas(members: int) -> tuple:
    """Ensemble perturbations: member 0 is the control run, member m>0
    raises the warm-bubble amplitude and draws its own storm population
    (the same deltas the wall-clock harness benchmarks members with)."""
    out = [()]
    for m in range(1, members):
        out.append((("bubble_dtheta", 3.0 + 0.25 * m), ("seed_offset", m)))
    return tuple(out)


#: Clear sky: no storms to speak of, no moisture excess, no seeded
#: cloud, so no cell ever passes the microphysics predicate.
CLEAR_SKY = (
    ("bubbles_per_1e4_cells", 0.0),
    ("bubble_dtheta", 0.0),
    ("moisture_boost", 1.0),
    ("cloud_threshold", 1.0e9),
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="storm",
            scale=0.08,
            steps=6,
            nominal_step_ms=200.0,
        ),
        Workload(
            name="clear_procs2",
            scale=0.12,
            num_ranks=2,
            use_process_ranks=True,
            steps=24,
            history_every=6,
            case_overrides=CLEAR_SKY,
            nominal_step_ms=100.0,
            children=3,
        ),
        Workload(
            name="storm_members4",
            scale=0.05,
            members=4,
            steps=5,
            nominal_step_ms=350.0,
        ),
    )
}


def nproc() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def split(items: list, parts: int) -> list[list]:
    """Split ``items`` into at most ``parts`` contiguous, near-equal chunks."""
    parts = max(1, min(parts, len(items)))
    size = math.ceil(len(items) / parts)
    return [items[i : i + size] for i in range(0, len(items), size)]
