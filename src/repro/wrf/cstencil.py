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
auto-vectorizes the scalar loops. The arithmetic is expressed in the
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
    Const,
    If,
    Kernel,
    Let,
    Load,
    Loop,
    ScalarParam,
    Store,
    Sym,
)
from repro.obs import tracer

#: Environment switch forcing the numpy fallback (used by the
#: equivalence tests to exercise both paths, and as an escape hatch).
DISABLE_ENV = "REPRO_DISABLE_CSTENCIL"


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
    ``f == dt * frac``. ``clip[n]`` marks scalars clamped at zero after
    the update (only on the stage that ``do_clip`` enables).

    The tendency accumulates axis i, then k, then j with the same
    expression grouping as the numpy reference (three negated upwind
    pairs summed left to right), so results match it bit for bit
    modulo signed zeros. The loop nest is defined *bare* — every
    annotation is derived by `repro.codee.transform` from its
    dependence analysis.
    """
    nm, ni, nk, nj, ns = (
        Sym("nm"), Sym("ni"), Sym("nk"), Sym("nj"), Sym("ns")
    )
    r, i, k, j, n = Sym("r"), Sym("i"), Sym("k"), Sym("j"), Sym("n")
    sv = Sym("sv")

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
                Store(
                    "out",
                    (r, k, j, n),
                    Sym("f") * Sym("t") + Load("base", (r, k, j, n)),
                ),
            ],
        ),
        If(
            Sym("do_clip"),
            [
                Loop(
                    "n",
                    Const(0),
                    ns,
                    [
                        If(
                            Load("clip", (n,)).logical_and(
                                Load("out", (r, k, j, n)).lt(Const(0.0))
                            ),
                            [Store("out", (r, k, j, n), Const(0.0))],
                        )
                    ],
                )
            ],
        ),
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
            ArrayParam("clip", strides=(Const(1),), ctype="unsigned char"),
            ScalarParam("do_clip", "int"),
        ),
        body=[nest],
        doc=(
            "One donor-cell stage out = base + f * tend(s) over the "
            "member-stacked (nm, ni, nk, nj, ns) superblock, its members' "
            "rows folded into nm * ni rows, with zero-gradient edges "
            "clamped at each member's own rows; tendency accumulated "
            "axis i, then k, then j in the reference's grouping."
        ),
    )


_spec = loopir.register_kernel(
    loopir.KernelSpec(
        name="advect_stage",
        build=build_advect_ir,
        transform=transform.plan_host,
    )
)

#: Why the stencil is unavailable ("" while it is); for diagnostics.
load_error: str = ""


def _declare(lib: ctypes.CDLL) -> None:
    dp = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
    bp = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")
    lib.advect_stage.restype = None
    lib.advect_stage.argtypes = [
        dp, dp, dp,  # s, base, out (member-stacked)
        dp, dp, dp, dp, dp, dp,  # pos/neg per axis (member-stacked)
        ctypes.c_double,
        ctypes.c_long,  # nm
        ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_long,
        bp, ctypes.c_int,
    ]


# Derive the annotations, verify them, and emit the C source. An
# illegal transformation raises IRVerificationError here, at import,
# before any C exists — loud by design.
_module = cgen.build_module(
    "stencil",
    [_spec.final_kernel()],
    disable_env=DISABLE_ENV,
    build_dir=Path(__file__).resolve().parent / "_cbuild",
    setup=_declare,
    banner=(
        "Generated by repro.codee.cgen from the advect_stage loop IR; "
        "annotations derived by repro.codee.transform. Do not edit."
    ),
)

#: The generated translation unit (kept for introspection/diagnostics).
C_SOURCE = _module.source


_path_traced = False


def load_stencil() -> ctypes.CDLL | None:
    """The compiled stencil library, or ``None`` when unavailable.

    Compilation happens once per process (and the shared object is
    cached on disk across processes); every failure mode — no
    compiler, sandboxed filesystem, a kill switch — degrades to
    ``None`` so callers take the numpy path. The underlying
    :class:`~repro.core.cjit.CJitModule` records the one-time
    ``cjit.compile``/``cjit.load`` spans; a single instant event here
    marks which path (compiled vs numpy) the transport resolved to.
    """
    global load_error, _path_traced
    lib = _module.load()
    load_error = _module.load_error
    if not _path_traced and tracer.enabled():
        _path_traced = True
        tracer.instant(
            "advect_stencil.path",
            cat="jit",
            attrs={"compiled": lib is not None, "error": load_error},
        )
    return lib


def advect_stage(
    lib: ctypes.CDLL,
    s: np.ndarray,
    base: np.ndarray,
    out: np.ndarray,
    pos: tuple[np.ndarray, np.ndarray, np.ndarray],
    neg: tuple[np.ndarray, np.ndarray, np.ndarray],
    f: float,
    clip_mask: np.ndarray,
    do_clip: bool,
) -> None:
    """One fused stage ``out = base + f * tend(s)`` on the member stack.

    ``s``/``base``/``out`` are ``(nm, ni, nk, nj, ns)`` and
    ``pos``/``neg`` the member-stacked ``(nm, ni, nk, nj)`` wind
    decompositions; one C call advances every member.
    """
    nm, ni, nk, nj, ns = s.shape
    lib.advect_stage(
        s, base, out,
        pos[0], neg[0], pos[1], neg[1], pos[2], neg[2],
        float(f), nm, ni, nk, nj, ns,
        clip_mask, 1 if do_clip else 0,
    )
