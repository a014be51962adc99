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
place: each row is computed into a two-row ring and each of its planes
stored once the next row's plane is done, so ``s``, ``base`` and
``out`` may be one block and a step needs no second block. The sweep
skips every species that the occupancy field marks empty across a
cell's stencil; the pass rings the guards that skip them too, so only
what was computed goes back. The arithmetic is expressed in the
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
from repro.core import cjit
from repro.codee.loopir import (
    ArrayParam,
    Assign,
    Bin,
    Const,
    Decl,
    If,
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


def lane_condensate(src: str, cell: tuple, lo=None, hi=None) -> tuple[list, list, list]:
    """The condensate ``cond[cell] = sum_n src[cell, n] * mass[n]``.

    The one definition of the condensate's summation order, shared by
    every kernel that writes ``cond``: lane ``l`` sums the scalars
    ``l, l + 8, ...`` in ascending order from 0.0 (the lane loop is
    where the vector unit works), then the :data:`CONDENSATE_LANES`
    lanes add up in order. ``ns`` is the scalar count. Returned in
    three parts, so a kernel can add the scalars a range at a time:
    ``init`` clears the lanes, ``add`` adds the scalars ``lo <= n <
    hi`` (default: all of them) and ``store`` adds the lanes up into
    ``cond``. A range is added by its 8-scalar blocks, masked to the
    range; a masked lane adds +0.0, which leaves it as it is (no lane
    holds -0.0). So adding disjoint ranges in ascending order gives the
    whole cell's bits, and leaving out a range of exact zeros changes
    no bit.
    """
    lane, nb, e = Sym("l"), Sym("nb"), Sym("e")
    lanes = Const(CONDENSATE_LANES)
    init = [
        LocalArray("acc", CONDENSATE_LANES),
        Loop("l", Const(0), lanes, [Store("acc", (lane,), Const(0.0))]),
    ]

    def term(at):
        return Load(src, (*cell, at)) * Load("mass", (at,))

    if lo is None:
        ns = Sym("ns")
        add = [
            Loop("nb", Const(0), ns / lanes, [
                Loop("l", Const(0), lanes, [
                    Store("acc", (lane,), term(nb * lanes + lane), "+="),
                ]),
            ]),
            Loop("l", Const(0), ns - (ns / lanes) * lanes, [
                Store("acc", (lane,), term((ns / lanes) * lanes + lane), "+="),
            ]),
        ]
    else:
        add = [
            Loop("nb", lo / lanes, (hi + (CONDENSATE_LANES - 1)) / lanes, [
                Loop("l", Const(0), lanes, [
                    Let("e", nb * lanes + lane, ctype="long"),
                    Store(
                        "acc",
                        (lane,),
                        loopir.Select(
                            e.ge(lo).logical_and(e.lt(hi)),
                            term(loopir.Select(e.lt(hi), e, hi - 1)),
                            Const(0.0),
                        ),
                        "+=",
                    ),
                ]),
            ]),
        ]
    store = [
        Decl("c", "double", Load("acc", (Const(0),))),
        Loop("l", Const(0), Const(CONDENSATE_LANES - 1), [
            Assign("c", Sym("c") + Load("acc", (lane + 1,))),
        ]),
        Store("cond", cell, Sym("c")),
    ]
    return init, add, store


def _mask_params() -> tuple[ArrayParam, ScalarParam, ArrayParam]:
    """Each scalar's species mask ``smask[n]`` (``1 << sp`` for a bin of
    species ``sp``, 0 for t, qv and w, which no bit describes) and the
    groups ``glo[g] <= n < glo[g + 1]`` of scalars that share a mask."""
    return (
        ArrayParam("smask", strides=(Const(1),), ctype="long"),
        ScalarParam("ng", "long"),
        ArrayParam("glo", strides=(Const(1),), ctype="long"),
    )


def _note_bit(value) -> Assign:
    """``nbits |= smask[n]`` when ``value`` is not zero."""
    n = Sym("n")
    return Assign(
        "nbits",
        Bin("|", Sym("nbits"), loopir.Select(
            value.ne(Const(0.0)), Load("smask", (n,)), Const(0)
        )),
    )


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

    ``occ`` holds each cell's occupancy bits (bit ``sp`` clear: every
    bin of species ``sp`` is an exact zero) and ``smask``/``glo`` say
    which scalars each bit describes (:func:`_mask_params`). Each cell
    ORs the bits of its 7-point stencil. A species whose bit is clear
    there is neither read, nor computed, nor stored — its bins are
    exact zeros and stay so: the cell is swept group by group. A cell
    whose stencil holds every species is swept whole, in one loop, as
    a dense block is. Either way the sweep writes the cell's new bits
    into ``occ_out`` from the values it stores, and how many species it
    swept into ``swept``.

    The tendency accumulates axis i, then k, then j with the same
    expression grouping as the numpy reference (three negated upwind
    pairs summed left to right), so results match it bit for bit
    modulo signed zeros. The same sweep writes each cell's condensate
    ``cond = sum_n out[n] * mass[n]`` (``mass`` is 0 for scalars that
    are not bins) from the values just stored, in the fixed lane order
    of :func:`lane_condensate`; a skipped species adds only zeros, so
    its terms drop out without changing a bit. The loop nest is defined
    *bare* — every annotation, and the host's in-place rings for ``out``
    and ``occ_out`` with the guards of the skipped species
    (:func:`repro.codee.transform.ring_rows`), is derived by
    `repro.codee.transform` from its dependence analysis.
    """
    nm, ni, nk, nj, ns = (
        Sym("nm"), Sym("ni"), Sym("nk"), Sym("nj"), Sym("ns")
    )
    r, i, k, j, n, g = Sym("r"), Sym("i"), Sym("k"), Sym("j"), Sym("n"), Sym("g")
    sv, v, m = Sym("sv"), Sym("v"), Sym("m")

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

    def sweep(lo, hi) -> Loop:
        """Advect the scalars ``lo <= n < hi`` of the cell."""
        return Loop("n", lo, hi, [
            Let("sv", s_at(r, k, j)),
            Let("t", tend),
            Let("v", Sym("f") * Sym("t") + Load("base", (r, k, j, n))),
            Let("lo", Load("floors", (n,))),
            Let("o", clamp(v.lt(Sym("lo")), Sym("lo"), v)),
            Store("out", (r, k, j, n), Sym("o")),
            _note_bit(Sym("o")),
        ])

    # The species present anywhere in the cell's 7-point stencil.
    live = Load("occ", (r, k, j))
    for rr, kk, jj in (
        (Sym("im"), k, j), (Sym("ip"), k, j), (r, Sym("km"), j),
        (r, Sym("kp"), j), (r, k, Sym("jm")), (r, k, Sym("jp")),
    ):
        live = Bin("|", live, Load("occ", (rr, kk, jj)))

    def has(mask):
        return Bin("&", Sym("live"), mask).ne(Const(0))

    init, add_all, store = lane_condensate("out", (r, k, j))
    lo, hi = Load("glo", (g,)), Load("glo", (g + 1,))
    _, add_group, _ = lane_condensate("out", (r, k, j), lo, hi)
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
        Let("live", live, ctype="long"),
        # Count the species groups, and those present in the stencil.
        Decl("nsg", "long", Const(0)),
        Decl("nsw", "long", Const(0)),
        Loop("g", Const(0), Sym("ng"), [
            Let("gm", Load("smask", (lo,)), ctype="long"),
            Assign("nsg", Sym("nsg") + Sym("gm").ne(Const(0))),
            Assign("nsw", Sym("nsw") + Bin("&", Sym("gm").ne(Const(0)), has(Sym("gm")))),
        ]),
        *init,
        Decl("nbits", "long", Const(0)),
        If(Sym("nsw").eq(Sym("nsg")), [
            # Every species is present: the whole cell in one loop.
            sweep(Const(0), ns),
            *add_all,
        ], [
            Loop("g", Const(0), Sym("ng"), [
                Let("m", Load("smask", (lo,)), ctype="long"),
                If(m.eq(Const(0)).logical_or(has(m)), [
                    sweep(lo, hi),
                    # The group's condensate from the values just stored.
                    *add_group,
                ]),
            ]),
        ]),
        *store,
        Store("occ_out", (r, k, j), Sym("nbits")),
        Store("swept", (r, k, j), Sym("nsw")),
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
            *_mask_params(),
            ArrayParam("occ", strides=c3, ctype="unsigned char"),
            ArrayParam(
                "occ_out", strides=c3, ctype="unsigned char", intent="out"
            ),
            ArrayParam("swept", strides=c3, ctype="int", intent="out"),
        ),
        body=[nest],
        doc=(
            "One donor-cell stage out = max-floor(base + f * tend(s)) over "
            "the member-stacked (nm, ni, nk, nj, ns) superblock, its "
            "members' rows folded into nm * ni rows, with zero-gradient "
            "edges clamped at each member's own rows; tendency accumulated "
            "axis i, then k, then j in the reference's grouping; species "
            "whose occupancy bit is clear across the 7-point stencil "
            "skipped; each cell's condensate summed in 8 lanes from the "
            "stored values, and its new occupancy bits written."
        ),
    )


def build_condensate_ir() -> Kernel:
    """Each cell's condensate and occupancy bits of a block as loop IR.

    ``cond[r, k, j] = sum_n s[r, k, j, n] * mass[n]`` over the
    ``(nm, ni, nk, nj, ns)`` block, its members' rows folded into
    ``nm * ni`` rows as in :func:`build_advect_ir`, in the lane order of
    :func:`lane_condensate`, and ``occ[r, k, j]`` with the bit of every
    species that has a nonzero bin (``smask``, as there) — what
    ``advect_stage`` writes with each sweep, for a block no sweep has
    written yet, in one read.
    """
    nm, ni, nk, nj, ns = (
        Sym("nm"), Sym("ni"), Sym("nk"), Sym("nj"), Sym("ns")
    )
    r, k, j, n = Sym("r"), Sym("k"), Sym("j"), Sym("n")
    init, add, store = lane_condensate("s", (r, k, j))
    body_j = [
        *init,
        Decl("nbits", "long", Const(0)),
        Loop("n", Const(0), ns, [_note_bit(Load("s", (r, k, j, n)))]),
        *add,
        *store,
        Store("occ", (r, k, j), Sym("nbits")),
    ]
    nest = Loop("r", Const(0), nm * ni, [
        Loop("k", Const(0), nk, [Loop("j", Const(0), nj, body_j)]),
    ])
    c3 = (nk * nj, nj, Const(1))
    return Kernel(
        name="condensate",
        params=(
            ArrayParam("s", strides=(nk * nj * ns, nj * ns, ns, Const(1))),
            ArrayParam("mass", strides=(Const(1),)),
            ArrayParam("cond", strides=c3, intent="out"),
            ScalarParam("nm", "long"),
            ScalarParam("ni", "long"),
            ScalarParam("nk", "long"),
            ScalarParam("nj", "long"),
            ScalarParam("ns", "long"),
            ArrayParam("smask", strides=(Const(1),), ctype="long"),
            ArrayParam("occ", strides=c3, ctype="unsigned char", intent="out"),
        ),
        body=[nest],
        doc=(
            "Each cell's condensate sum_n s[n] * mass[n] over the "
            "member-stacked (nm, ni, nk, nj, ns) superblock, summed in 8 "
            "lanes as advect_stage sums it, and its occupancy bits."
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
_kernels = [spec.final_kernel() for spec in _specs]
# The rings go back a cell (or a group of scalars) at a time: runs of at
# most one cell's scalars, which gcc would otherwise turn into a memmove
# call each; as inline vector loops they cost less.
_module = cgen.build_module(
    "stencil",
    _kernels,
    cflags=(*cjit.DEFAULT_CFLAGS, "-fno-tree-loop-distribute-patterns"),
    disable_env=DISABLE_ENV,
    build_dir=Path(__file__).resolve().parent / "_cbuild",
    banner=(
        "Generated by repro.codee.cgen from the advect_stage/condensate "
        "loop IR; annotations derived by repro.codee.transform. Do not "
        "edit."
    ),
)

#: The scratch rings ``advect_stage`` takes, in its parameter order —
#: whatever the host plan's ring pass derived.
RINGS = tuple(
    p.name for p in _kernels[0].params if getattr(p, "intent", "") == "scratch"
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


def ring_shapes(shape: tuple[int, ...], ngroups: int) -> dict[str, tuple]:
    """The ``(shape, dtype)`` of each ring one stage of an ``(nm, ni, nk,
    nj, ns)`` block in ``ngroups`` scalar groups needs: two rows of the
    values, of each cell's whole-cell guard, of each group's guard, and
    of the new bits."""
    nk, nj, ns = shape[2:]
    return {
        "out_ring": ((2, nk, nj, ns), np.float64),
        "out_guard": ((2, nk, nj), np.uint8),
        "out_guard1": ((2, nk, nj, ngroups), np.uint8),
        "occ_out_ring": ((2, nk, nj), np.uint8),
    }


assert set(ring_shapes((1, 1, 1, 1, 1), 1)) == set(RINGS), RINGS


def _masks_ok(smask: np.ndarray, glo: np.ndarray, ns: int) -> bool:
    """Whether ``smask``/``glo`` give each of the ``ns`` scalars one bit
    of a byte (or 0) and split them in order into nonempty groups of one
    mask (the kernel reads a group's mask at its first scalar)."""
    if not (
        smask.dtype == glo.dtype == np.int64
        and smask.shape == (ns,)
        and glo.ndim == 1
        and len(glo) >= 1
        and smask.flags.c_contiguous
        and glo.flags.c_contiguous
        and glo[0] == 0
        and glo[-1] == ns
        and bool((np.diff(glo) > 0).all())
        and bool(np.isin(smask, [0, *(1 << np.arange(8))]).all())
    ):
        return False
    return all((smask[a:b] == smask[a]).all() for a, b in zip(glo[:-1], glo[1:]))


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
    masks: tuple[np.ndarray, np.ndarray],
    occ: np.ndarray,
    occ_out: np.ndarray,
    swept: np.ndarray,
    rings: dict[str, np.ndarray],
) -> None:
    """One fused stage ``out = max(base + f * tend(s), floors)`` on the stack.

    ``s``/``base``/``out`` are ``(nm, ni, nk, nj, ns)`` and may all be
    the same block: the kernel computes each row into the rings (of
    :func:`ring_shapes`) and stores it once the next row's plane is
    done. ``pos``/``neg`` are the member-stacked ``(nm, ni, nk, nj)``
    wind decompositions, ``floors``/``mass`` per-scalar, and ``cond``
    the ``(nm, ni, nk, nj)`` condensate ``sum_n out[n] * mass[n]`` the
    sweep writes; one C call advances every member. ``masks`` is the
    layout's ``(smask, glo)``
    (:meth:`repro.wrf.transport.ScalarLayout.masks`), ``occ`` the uint8
    ``(nm, ni, nk, nj)`` occupancy bits the sweep skips by and
    ``occ_out`` (which may be ``occ``) the bits it writes; ``swept``
    receives each cell's count of swept species (int32). Every operand
    must be C-contiguous: the kernel addresses them as dense arrays.
    """
    nm, ni, nk, nj, ns = s.shape
    smask, glo = masks
    ng = len(glo) - 1
    cells = s.shape[:4]
    typed = (
        *((a, s.shape, np.float64) for a in (s, base, out)),
        *((w, cells, np.float64) for w in (*pos, *neg, cond)),
        *((a, (ns,), np.float64) for a in (floors, mass)),
        (occ, cells, np.uint8),
        (occ_out, cells, np.uint8),
        (swept, cells, np.int32),
        *(
            (rings.get(name), shape, dtype)
            for name, (shape, dtype) in ring_shapes(s.shape, ng).items()
        ),
    )
    if not all(
        a is not None and a.shape == shape and a.dtype == dtype
        and a.flags.c_contiguous
        for a, shape, dtype in typed
    ) or not _masks_ok(smask, glo, ns):
        raise ValueError(
            "advect_stage: operands must be C-contiguous and match the block"
        )
    lib.advect_stage(
        s, base, out,
        pos[0], neg[0], pos[1], neg[1], pos[2], neg[2],
        float(f), nm, ni, nk, nj, ns,
        floors, mass, cond, smask, ng, glo, occ, occ_out, swept,
        *(rings[name] for name in RINGS),
    )


def condensate(
    lib: ctypes.CDLL,
    block: np.ndarray,
    mass: np.ndarray,
    cond: np.ndarray,
    masks: tuple[np.ndarray, np.ndarray],
    occ: np.ndarray,
) -> None:
    """Write each cell's condensate ``sum_n block[..., n] * mass[n]``
    and its occupancy bits.

    ``block`` is the ``(nm, ni, nk, nj, ns)`` superblock, ``mass`` the
    per-scalar masses and ``cond`` the ``(nm, ni, nk, nj)`` output, all
    C-contiguous float64; the sum runs in the order ``advect_stage``
    uses (:func:`lane_condensate`), so the two agree bit for bit.
    ``masks`` and ``occ`` (uint8, shaped like ``cond``) as there: each
    cell gets the bit of every species with a nonzero bin.
    """
    nm, ni, nk, nj, ns = block.shape
    smask, glo = masks
    if (
        not all(a.flags.c_contiguous for a in (block, mass, cond, occ))
        or mass.shape != (ns,)
        or cond.shape != block.shape[:4]
        or occ.shape != block.shape[:4]
        or occ.dtype != np.uint8
        or not _masks_ok(smask, glo, ns)
    ):
        raise ValueError(
            "condensate: operands must be C-contiguous and match the block"
        )
    lib.condensate(block, mass, cond, nm, ni, nk, nj, ns, smask, occ)
