"""Output checks for every benchmark forecast.

Two kinds:

* invariants, for any seed: every field finite, ``QCLOUD_TOTAL`` and
  ``RAINNC`` non-negative, and ``RAINNC`` never decreasing from one
  frame to the next;
* for the named seeds, a ``diffwrf`` comparison of the final frame with
  a reference recorded in ``references/``. References keep every
  ``STRIDE``-th point of each field in float32, which holds about
  seven digits; the floor of ``MIN_DIGITS`` lets a summation reordered
  at 1e-12 pass and fails a forecast that drops a physics process.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

#: Run seeds whose first forecast (named ``<seed>.0``) has a recorded
#: reference per workload.
NAMED_SEEDS = (1, 2)

#: Subsampling stride of a stored reference frame, per axis.
STRIDE = 4

#: Fewest matching significant digits (diffwrf RMS digits) per field.
MIN_DIGITS = 6.0


def subsample(frame: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Every ``STRIDE``-th point of each field (what references keep)."""
    return {name: a[(slice(None, None, STRIDE),) * a.ndim] for name, a in frame.items()}


def invariant_problems(frames: list[dict[str, np.ndarray]]) -> list[str]:
    """Invariant violations across consecutive frames of one member."""
    problems = []
    for n, frame in enumerate(frames):
        for name, a in frame.items():
            if not np.all(np.isfinite(a)):
                problems.append(f"frame {n}: {name} has non-finite values")
        for name in ("QCLOUD_TOTAL", "RAINNC"):
            if name in frame and frame[name].min(initial=0.0) < 0.0:
                problems.append(
                    f"frame {n}: {name} negative (min {frame[name].min():.3e})"
                )
    for n in range(1, len(frames)):
        drop = frames[n - 1]["RAINNC"] - frames[n]["RAINNC"]
        if drop.max(initial=0.0) > 0.0:
            problems.append(
                f"frame {n}: RAINNC decreased (by up to {drop.max():.3e})"
            )
    return problems


def reference_path(workload: str, forecast: str) -> Path:
    return REFERENCE_DIR / f"{workload}-{forecast}.npz"


def save_reference(path: Path, members: list[dict[str, np.ndarray]]) -> None:
    """Store the subsampled final frame of every member (float32)."""
    arrays = {
        f"m{m}.{name}": a.astype(np.float32)
        for m, frame in enumerate(members)
        for name, a in subsample(frame).items()
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **arrays)


def load_reference(path: Path) -> list[dict[str, np.ndarray]]:
    members: dict[int, dict[str, np.ndarray]] = {}
    with np.load(path) as data:
        for key in data.files:
            tag, name = key.split(".", 1)
            members.setdefault(int(tag[1:]), {})[name] = data[key]
    return [members[m] for m in sorted(members)]


def reference_problems(
    final: list[dict[str, np.ndarray]], reference: list[dict[str, np.ndarray]]
) -> list[str]:
    """Fields of the final frames that match the reference too loosely."""
    from repro.wrf.diffwrf import diffwrf

    if len(final) != len(reference):
        return [f"{len(final)} members, reference has {len(reference)}"]
    problems = []
    for m, (frame, ref) in enumerate(zip(final, reference)):
        if set(frame) != set(ref):
            problems.append(f"member {m}: fields {sorted(frame)} != {sorted(ref)}")
            continue
        for d in diffwrf(subsample(frame), ref):
            if d.digits < MIN_DIGITS:
                problems.append(
                    f"member {m}: {d.name} matches the reference to "
                    f"{d.digits:.2f} digits (< {MIN_DIGITS})"
                )
    return problems
