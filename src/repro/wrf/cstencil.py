"""Runtime-compiled C stencil for the fused transport superblock.

The fused numpy path (:func:`repro.wrf.transport.fused_upwind_tend`)
still materializes every stencil intermediate — about forty full-block
memory passes per step — so on one core it stays bandwidth-bound the
same way the paper's unfused Fortran loops were. This module is the
host-side version of the paper's final step: collapse the whole
donor-cell update into *one* loop nest with no temporaries, so each
advected value is read once and written once.

The kernel is defined as a `repro.codee.loopir` kernel
(:func:`build_advect_ir`), derived by `repro.codee.transform`,
statically verified (`repro.codee.irverify` — an illegal annotation
refuses to compile), and emitted by `repro.codee.cgen`. The analysis
proves the nest parallel to depth 3 and, under the default policy,
derives the paper's ``parallel for collapse(2)`` + inner ``simd``
(``codee transform advect_stage`` shows it). The host compiles it
under :func:`repro.codee.transform.plan_host`, serial like every other
production kernel: the ranks own the cores, and the compiler
auto-vectorizes the scalar loops. With the row loop serial, the host
plan's :func:`~repro.codee.transform.ring_rows` pass makes the sweep in
place: each row is computed into a two-row ring and stored once the
next row is done, so ``s``, ``base`` and ``out`` may be one block and
a step needs no second block. The arithmetic is expressed in the
IR with the reference's exact operation grouping and emitted fully
parenthesized, which — together with the shared ``-ffp-contract=off``
flag — keeps the compiled kernel bitwise identical to the per-field
numpy path up to the sign of floating-point zeros.

The generated source goes through :mod:`repro.core.cjit`
(source-hash-cached ``.so`` under ``_cbuild/``, loaded through
:mod:`ctypes`). If no compiler is available — or
``REPRO_DISABLE_CSTENCIL=1`` (this module) / ``REPRO_DISABLE_CJIT=1``
(every compiled kernel) is set — :func:`load_stencil` returns ``None``
and callers fall back to the sliced numpy kernels. Nothing outside
this module needs to know which path ran.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from repro.codee import cgen, loopir, transform
from repro.codee.loopir import (
    ArrayParam,
    Assign,
    Const,
    Decl,
    Kernel,
    Let,
    Load,
    LocalArray,
    Loop,
    ScalarParam,
    Store,
    Sym,
)

#: Environment switch forcing the numpy fallback (used by the
#: equivalence tests to exercise both paths, and as an escape hatch).
DISABLE_ENV = "REPRO_DISABLE_CSTENCIL"


#: Lanes of the condensate sum: bin ``n`` adds into lane ``n % 8`` in
#: ascending ``n``, then the lanes add up in order. Fixed, so a cell's
#: sum depends only on its own bins.
CONDENSATE_LANES = 8


def lane_condensate(src: str, cell: tuple) -> list:
    """Statements storing ``cond[cell] = sum_n src[cell, n] * mass[n]``.

    The one definition of the condensate's summation order, shared by
    every kernel that writes ``cond``: lane ``l`` sums the scalars
    ``l, l + 8, ...`` in ascending order from 0.0 (the lane loop is
    where the vector unit works), then the :data:`CONDENSATE_LANES`
    lanes add up in order. ``ns`` is the scalar count.
    """
    ns, lane, nb = Sym("ns"), Sym("l"), Sym("nb")
    lanes = Const(CONDENSATE_LANES)

    def add_lane(at):
        """acc[l] += src[cell, at] * mass[at], ``at`` a scalar of lane l."""
        return Store(
            "acc",
            (lane,),
            Load(src, (*cell, at)) * Load("mass", (at,)),
            "+=",
        )

    return [
        LocalArray("acc", CONDENSATE_LANES),
        Loop("l", Const(0), lanes, [Store("acc", (lane,), Const(0.0))]),
        Loop("nb", Const(0), ns / lanes, [
            Loop("l", Const(0), lanes, [add_lane(nb * lanes + lane)]),
        ]),
        Loop("l", Const(0), ns - (ns / lanes) * lanes, [
            add_lane((ns / lanes) * lanes + lane),
        ]),
        Decl("c", "double", Load("acc", (Const(0),))),
        Loop("l", Const(0), Const(CONDENSATE_LANES - 1), [
            Assign("c", Sym("c") + Load("acc", (lane + 1,))),
        ]),
        Store("cond", cell, Sym("c")),
    ]


def build_advect_ir() -> Kernel:
    """The donor-cell stage ``out = base + f * tend(s)`` as loop IR.

    One stage over the member-stacked ``(nm, ni, nk, nj, ns)``
    superblock with zero-gradient edges. The stack is C-contiguous, so
    its members' i-rows line up as ``nm * ni`` consecutive rows: the
    nest runs over rows ``r = m * ni + i``, exactly a one-member stencil's
    ``(i, k, j)`` nest with ``ni`` replaced by ``nm * ni``, and
    `repro.codee.transform` proves the same depth-3 independence
    (``collapse(2)`` over ``(r, k)`` under the default policy). The
    member-local row ``i = r % ni`` drives the i-edge clamp, so no
    neighbor read crosses a member boundary: each clamped term is
    ``s - s = 0``, reproducing the reference's edge handling exactly,
    and member ``m`` of the result equals a one-member sweep of that
    member bit for bit. Euler passes ``base == s`` and
    ``f == dt``; an RK3 stage passes ``base == phi0`` and
    ``f == dt * frac``. The store clamps each scalar at ``floors[n]``:
    0.0 for clipped scalars, -inf (never taken) for the rest — the
    same bits as the reference's ``if (clip && out < 0) out = 0``.

    The tendency accumulates axis i, then k, then j with the same
    expression grouping as the numpy reference (three negated upwind
    pairs summed left to right), so results match it bit for bit
    modulo signed zeros. The same sweep writes each cell's condensate
    ``cond = sum_n out[n] * mass[n]`` (``mass`` is 0 for scalars that
    are not bins) from the values just stored, in the fixed lane order
    of :data:`CONDENSATE_LANES`. The loop nest is defined *bare* —
    every annotation, and the host's in-place ring
    (:func:`repro.codee.transform.ring_rows`), is derived by
    `repro.codee.transform` from its dependence analysis.
    """
    nm, ni, nk, nj, ns = (
        Sym("nm"), Sym("ni"), Sym("nk"), Sym("nj"), Sym("ns")
    )
    r, i, k, j, n = Sym("r"), Sym("i"), Sym("k"), Sym("j"), Sym("n")
    sv, v = Sym("sv"), Sym("v")

    s4 = (nk * nj * ns, nj * ns, ns, Const(1))
    c3 = (nk * nj, nj, Const(1))

    def s_at(rr, kk, jj):
        return Load("s", (rr, kk, jj, n))

    # One negated upwind pair per axis: -(pos*(sv - s[lo]) + neg*(s[hi] - sv)),
    # accumulated i, then k, then j — the reference's grouping.
    tend = None
    for pos, neg, lo, hi in (
        ("up", "un", s_at(Sym("im"), k, j), s_at(Sym("ip"), k, j)),
        ("wp", "wn", s_at(r, Sym("km"), j), s_at(r, Sym("kp"), j)),
        ("vp", "vn", s_at(r, k, Sym("jm")), s_at(r, k, Sym("jp"))),
    ):
        pair = -(Sym(pos) * (sv - lo) + Sym(neg) * (hi - sv))
        tend = pair if tend is None else tend + pair

    clamp = loopir.Select
    body_j = [
        Let("up", Load("pos_i", (r, k, j))),
        Let("un", Load("neg_i", (r, k, j))),
        Let("wp", Load("pos_k", (r, k, j))),
        Let("wn", Load("neg_k", (r, k, j))),
        Let("vp", Load("pos_j", (r, k, j))),
        Let("vn", Load("neg_j", (r, k, j))),
        Let("i", r - (r / ni) * ni, ctype="long"),
        Let("im", clamp(i.gt(0), r - 1, r), ctype="long"),
        Let("ip", clamp(i.lt(ni - 1), r + 1, r), ctype="long"),
        Let("km", clamp(k.gt(0), k - 1, k), ctype="long"),
        Let("kp", clamp(k.lt(nk - 1), k + 1, k), ctype="long"),
        Let("jm", clamp(j.gt(0), j - 1, j), ctype="long"),
        Let("jp", clamp(j.lt(nj - 1), j + 1, j), ctype="long"),
        Loop(
            "n",
            Const(0),
            ns,
            [
                Let("sv", s_at(r, k, j)),
                Let("t", tend),
                Let("v", Sym("f") * Sym("t") + Load("base", (r, k, j, n))),
                Let("lo", Load("floors", (n,))),
                Store("out", (r, k, j, n), clamp(v.lt(Sym("lo")), Sym("lo"), v)),
            ],
        ),
        # The cell's condensate from the values just stored.
        *lane_condensate("out", (r, k, j)),
    ]

    nest = Loop(
        "r",
        Const(0),
        nm * ni,
        [Loop("k", Const(0), nk, [Loop("j", Const(0), nj, body_j)])],
    )

    return Kernel(
        name="advect_stage",
        params=(
            ArrayParam("s", strides=s4),
            ArrayParam("base", strides=s4),
            ArrayParam("out", strides=s4, intent="out"),
            ArrayParam("pos_i", strides=c3),
            ArrayParam("neg_i", strides=c3),
            ArrayParam("pos_k", strides=c3),
            ArrayParam("neg_k", strides=c3),
            ArrayParam("pos_j", strides=c3),
            ArrayParam("neg_j", strides=c3),
            ScalarParam("f", "double"),
            ScalarParam("nm", "long"),
            ScalarParam("ni", "long"),
            ScalarParam("nk", "long"),
            ScalarParam("nj", "long"),
            ScalarParam("ns", "long"),
            ArrayParam("floors", strides=(Const(1),)),
            ArrayParam("mass", strides=(Const(1),)),
            ArrayParam("cond", strides=c3, intent="out"),
        ),
        body=[nest],
        doc=(
            "One donor-cell stage out = max-floor(base + f * tend(s)) over "
            "the member-stacked (nm, ni, nk, nj, ns) superblock, its "
            "members' rows folded into nm * ni rows, with zero-gradient "
            "edges clamped at each member's own rows; tendency accumulated "
            "axis i, then k, then j in the reference's grouping; each "
            "cell's condensate summed in 8 lanes from the stored values."
        ),
    )


def build_condensate_ir() -> Kernel:
    """Each cell's condensate of the member-stacked block as loop IR.

    ``cond[r, k, j] = sum_n s[r, k, j, n] * mass[n]`` over the
    ``(nm, ni, nk, nj, ns)`` block, its members' rows folded into
    ``nm * ni`` rows as in :func:`build_advect_ir`, in the lane order of
    :func:`lane_condensate` — the sum ``advect_stage`` writes with each
    sweep, for a block no sweep has written yet.
    """
    nm, ni, nk, nj, ns = (
        Sym("nm"), Sym("ni"), Sym("nk"), Sym("nj"), Sym("ns")
    )
    r, k, j = Sym("r"), Sym("k"), Sym("j")
    nest = Loop("r", Const(0), nm * ni, [
        Loop("k", Const(0), nk, [
            Loop("j", Const(0), nj, lane_condensate("s", (r, k, j))),
        ]),
    ])
    return Kernel(
        name="condensate",
        params=(
            ArrayParam("s", strides=(nk * nj * ns, nj * ns, ns, Const(1))),
            ArrayParam("mass", strides=(Const(1),)),
            ArrayParam("cond", strides=(nk * nj, nj, Const(1)), intent="out"),
            ScalarParam("nm", "long"),
            ScalarParam("ni", "long"),
            ScalarParam("nk", "long"),
            ScalarParam("nj", "long"),
            ScalarParam("ns", "long"),
        ),
        body=[nest],
        doc=(
            "Each cell's condensate sum_n s[n] * mass[n] over the "
            "member-stacked (nm, ni, nk, nj, ns) superblock, summed in 8 "
            "lanes as advect_stage sums it."
        ),
    )


_specs = [
    loopir.register_kernel(
        loopir.KernelSpec(
            name=name, build=build, transform=transform.plan_host
        )
    )
    for name, build in (
        ("advect_stage", build_advect_ir),
        ("condensate", build_condensate_ir),
    )
]

#: Why the stencil is unavailable ("" while it is); for diagnostics.
load_error: str = ""


# Derive the annotations, verify them, and emit the C source. An
# illegal transformation raises IRVerificationError here, at import,
# before any C exists — loud by design.
_module = cgen.build_module(
    "stencil",
    [spec.final_kernel() for spec in _specs],
    disable_env=DISABLE_ENV,
    build_dir=Path(__file__).resolve().parent / "_cbuild",
    banner=(
        "Generated by repro.codee.cgen from the advect_stage/condensate "
        "loop IR; annotations derived by repro.codee.transform. Do not "
        "edit."
    ),
)

#: The generated translation unit (kept for introspection/diagnostics).
C_SOURCE = _module.source


def load_stencil() -> ctypes.CDLL | None:
    """The compiled stencil library, or ``None`` when unavailable.

    Compilation happens once per process (and the shared object is
    cached on disk across processes); every failure mode — no
    compiler, sandboxed filesystem, a kill switch — degrades to
    ``None`` so callers take the numpy path. The underlying
    :class:`~repro.core.cjit.CJitModule` records the one-time
    ``cjit.compile``/``cjit.load`` spans and the ``stencil.path``
    instant that marks which path (compiled vs numpy) resolved.
    """
    global load_error
    lib = _module.load()
    load_error = _module.load_error
    return lib


def ring_shape(shape: tuple[int, ...]) -> tuple[int, ...]:
    """The two-row ring one stage of an ``(nm, ni, nk, nj, ns)`` block needs."""
    return (2, *shape[2:])


def advect_stage(
    lib: ctypes.CDLL,
    s: np.ndarray,
    base: np.ndarray,
    out: np.ndarray,
    pos: tuple[np.ndarray, np.ndarray, np.ndarray],
    neg: tuple[np.ndarray, np.ndarray, np.ndarray],
    f: float,
    floors: np.ndarray,
    mass: np.ndarray,
    cond: np.ndarray,
    ring: np.ndarray,
) -> None:
    """One fused stage ``out = max(base + f * tend(s), floors)`` on the stack.

    ``s``/``base``/``out`` are ``(nm, ni, nk, nj, ns)`` and may all be
    the same block: the kernel computes each row into ``ring`` (of
    :func:`ring_shape`) and stores it once the next row is done.
    ``pos``/``neg`` are the member-stacked ``(nm, ni, nk, nj)`` wind
    decompositions, ``floors``/``mass`` per-scalar, and ``cond`` the
    ``(nm, ni, nk, nj)`` condensate ``sum_n out[n] * mass[n]`` the
    sweep writes; one C call advances every member. Every operand must
    be C-contiguous float64: the kernel addresses them as dense arrays.
    """
    nm, ni, nk, nj, ns = s.shape
    operands = (s, base, out, *pos, *neg, floors, mass, cond, ring)
    if (
        not all(a.flags.c_contiguous for a in operands)
        or base.shape != s.shape
        or out.shape != s.shape
        or floors.shape != (ns,)
        or mass.shape != (ns,)
        or cond.shape != s.shape[:4]
        or ring.shape != ring_shape(s.shape)
        or any(w.shape != s.shape[:4] for w in (*pos, *neg))
    ):
        raise ValueError(
            "advect_stage: operands must be C-contiguous and match the block"
        )
    lib.advect_stage(
        s, base, out,
        pos[0], neg[0], pos[1], neg[1], pos[2], neg[2],
        float(f), nm, ni, nk, nj, ns,
        floors, mass, cond, ring,
    )


def condensate(
    lib: ctypes.CDLL, block: np.ndarray, mass: np.ndarray, cond: np.ndarray
) -> None:
    """Write each cell's condensate ``sum_n block[..., n] * mass[n]``.

    ``block`` is the ``(nm, ni, nk, nj, ns)`` superblock, ``mass`` the
    per-scalar masses and ``cond`` the ``(nm, ni, nk, nj)`` output, all
    C-contiguous float64; the sum runs in the order ``advect_stage``
    uses (:func:`lane_condensate`), so the two agree bit for bit.
    """
    nm, ni, nk, nj, ns = block.shape
    if (
        not all(a.flags.c_contiguous for a in (block, mass, cond))
        or mass.shape != (ns,)
        or cond.shape != block.shape[:4]
    ):
        raise ValueError(
            "condensate: operands must be C-contiguous and match the block"
        )
    lib.condensate(block, mass, cond, nm, ni, nk, nj, ns)
