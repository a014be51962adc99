"""Runtime-compiled C stencil for a rank's two transport blocks.

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
place: each row is computed into two-row rings and each of its planes
stored once the next row's plane is done, so the planar state block
(t, qv, w) and the bins block are each input and output of the stage
and a step needs no second copy of either. The sweep skips every
species that the occupancy field marks empty across a cell's stencil,
and every bin of a cell whose stencil holds none; the pass rings the
guards that skip them too, so only what was computed goes back. The
arithmetic is expressed in the
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

The sweep splits each cell's upwind winds itself, and the buoyancy
update of w that follows it is loop IR too (:func:`build_buoyancy_ir`),
so a transport step runs compiled end to end; a rank builds and checks
the calls' arguments once (:func:`advect_stage_args`,
:func:`buoyancy_args`). Beside them sits the halo exchange's pull
(:func:`build_halo_pull_ir`, :func:`halo_pull_args`): one segment's
bins and occupancy bits, moving a species only where its bit says it
is there. All of them are loop IR in the same library, under the same
host plan and kill switch.
"""

from __future__ import annotations

import copy
import ctypes
from pathlib import Path

import numpy as np

from repro.codee import cgen, loopir, transform
from repro.constants import GRAVITY
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
from repro.wrf.dynamics import DRAG, W_MAX

#: Environment switch forcing the numpy fallback (used by the
#: equivalence tests to exercise both paths, and as an escape hatch).
DISABLE_ENV = "REPRO_DISABLE_CSTENCIL"


#: Lanes of the condensate sum: bin ``n`` adds into lane ``(n +
#: LANE_OFFSET) % 8`` in ascending ``n``, then the lanes add up in order.
#: Fixed, so a cell's sum depends only on its own bins.
CONDENSATE_LANES = 8

#: The lane offset of bin 0: the lane it took when t, qv and w led each
#: cell's row of one 234-wide block, so the two-block sweep sums every
#: cell's condensate to the same bits.
LANE_OFFSET = 3


def lane_condensate(src: str, cell: tuple, lo=None, hi=None) -> tuple[list, list, list]:
    """The condensate ``cond[cell] = sum_n src[cell, n] * mass[n]``.

    The one definition of the condensate's summation order, shared by
    every kernel that writes ``cond``: bin ``n`` sits at position ``e =
    n + LANE_OFFSET`` of a row of 8-wide blocks, and lane ``l`` sums
    the bins at ``e = l, l + 8, ...`` in ascending order from 0.0 (the
    lane loop is where the vector unit works), then the
    :data:`CONDENSATE_LANES` lanes add up in order. ``ns`` is the bin
    count. Returned in three parts, so a kernel can add the bins a
    range at a time: ``init`` clears the lanes, ``add`` adds the bins
    ``lo <= n < hi`` (default: all of them) and ``store`` adds the lanes
    up into ``cond``. A range is added by its 8-wide blocks, masked to
    the range; a masked lane adds +0.0, which leaves it as it is (no
    lane holds -0.0). So adding disjoint ranges in ascending order gives
    the whole cell's bits, and leaving out a range of exact zeros
    changes no bit. The whole row runs unmasked but for its first and
    last block.
    """
    lane, nb, e = Sym("l"), Sym("nb"), Sym("e")
    lanes = Const(CONDENSATE_LANES)
    off = Const(LANE_OFFSET)
    clamp = loopir.Select
    init = [
        LocalArray("acc", CONDENSATE_LANES),
        Loop("l", Const(0), lanes, [Store("acc", (lane,), Const(0.0))]),
    ]

    def term(at):
        return Load(src, (*cell, at)) * Load("mass", (at,))

    def masked(block, lo, hi) -> Loop:
        """Add the bins ``lo <= e < hi`` of 8-wide block ``block``."""
        return Loop("l", Const(0), lanes, [
            Let("e", block * lanes + lane - off, ctype="long"),
            Store(
                "acc",
                (lane,),
                clamp(
                    e.ge(lo).logical_and(e.lt(hi)),
                    term(clamp(e.lt(lo), lo, clamp(e.lt(hi), e, hi - 1))),
                    Const(0.0),
                ),
                "+=",
            ),
        ])

    if lo is None:
        # Block 0, blocks 1 .. top - 1 (no lane masked), and block top,
        # which holds the last bins unless block 0 already did.
        ns = Sym("ns")
        top = (ns + off) / lanes
        add = [
            masked(Const(0), Const(0), ns),
            Loop("nb", Const(1), top, [
                Loop("l", Const(0), lanes, [
                    Store("acc", (lane,), term(nb * lanes + lane - off), "+="),
                ]),
            ]),
            masked(top, lanes - off, ns),
        ]
    else:
        add = [
            Loop(
                "nb",
                (lo + off) / lanes,
                (hi + off + (CONDENSATE_LANES - 1)) / lanes,
                [masked(nb, lo, hi)],
            ),
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
    """Each bin's species mask ``smask[n]`` (``1 << sp`` for a bin of
    species ``sp``) and the groups ``glo[g] <= n < glo[g + 1]`` of bins
    that share a mask."""
    return (
        ArrayParam("smask", strides=(Const(1),), ctype="long"),
        ScalarParam("ng", "long"),
        ArrayParam("glo", strides=(Const(1),), ctype="long"),
    )


def _note_bit(value, at=Sym("n")) -> Assign:
    """``nbits |= smask[at]`` when ``value`` is not zero."""
    return Assign(
        "nbits",
        Bin("|", Sym("nbits"), loopir.Select(
            value.ne(Const(0.0)), Load("smask", (at,)), Const(0)
        )),
    )


#: The planes of the state block, in order: t, qv, w.
NSTATE = 3

#: The state block's t and w planes.
T_PLANE, W_PLANE = 0, 2

#: Doubles per vector the bin sweeps are blocked by (256-bit lanes).
SWEEP_VECTOR = 4


def build_advect_ir() -> Kernel:
    """The donor-cell stage ``out = base + f * tend(s)`` as loop IR.

    One stage over a rank's two member-stacked blocks with
    zero-gradient edges: the planar state block ``(nm, ni, 3, nk, nj)``
    (``ss``/``sbase``/``sout``: t, qv and w, each field's ``(k, j)``
    planes contiguous) and the bins block ``(nm, ni, nk, nj, ns)``
    (``s``/``base``/``out``). Both are C-contiguous, so their members'
    i-rows line up as ``nm * ni`` consecutive rows: the nest runs over
    rows ``r = m * ni + i``, exactly a one-member stencil's ``(i, k,
    j)`` nest with ``ni`` replaced by ``nm * ni``, and
    `repro.codee.transform` proves the same depth-3 independence
    (``collapse(2)`` over ``(r, k)`` under the default policy). The
    state block is addressed ``(r, k, q, j)``, plane ``k`` second like
    the bins, through its own strides. The member-local row ``i = r %
    ni`` drives the i-edge clamp, so no neighbor read crosses a member
    boundary: each clamped term is ``s - s = 0``, reproducing the
    reference's edge handling exactly, and member ``m`` of the result
    equals a one-member sweep of that member bit for bit. Euler passes
    ``base == s`` and ``f == dt``; an RK3 stage passes ``base == phi0``
    and ``f == dt * frac``. The store clamps each value at its floor
    (``sfloors[q]`` for the state, ``floors[n]`` for the bins): 0.0 for
    clipped scalars, -inf (never taken) for the rest — the same bits as
    the reference's ``if (clip && out < 0) out = 0``.

    Each cell derives its donor-cell winds itself: ``max(vel, 0) /
    spacing`` and ``min(vel, 0) / spacing`` per axis from the
    member-stacked ``u`` and ``v`` (``(nm, ni, nk, nj)``, spacing
    ``dx``) and from the ``sbase`` w plane (spacing ``dz``), one divide
    per axis, equal to :meth:`repro.wrf.dynamics.WindSplit.build` bit
    for bit. ``sbase`` holds the step's start in every stage (Euler's
    is the block itself, whose row ``r`` goes back only after row ``r +
    1``), so every stage advects with the step-start w.

    Each cell advects its three state values, then its bins. ``occ``
    holds each cell's occupancy bits (bit ``sp`` clear: every bin of
    species ``sp`` is an exact zero) and ``smask``/``glo`` say which
    bins each bit describes (:func:`_mask_params`). Each cell ORs the
    bits of its 7-point stencil. A cell whose stencil holds no species
    (every cell of an empty ``(row, plane)`` among them) reads, computes
    and stores none of its bins and writes condensate 0.0, bits 0 and
    swept 0. A species whose bit is clear in the stencil is neither
    read, nor computed, nor stored — its bins are exact zeros and stay
    so: the cell is swept group by group. A cell whose stencil holds
    every species is swept whole, in one loop, as a dense block is.
    Either way the sweep writes the cell's new bits into ``occ_out``
    from the values it stores, and how many species it swept into
    ``swept``.

    The tendency accumulates axis i, then k, then j with the same
    expression grouping as the numpy reference (three negated upwind
    pairs summed left to right), so results match it bit for bit
    modulo signed zeros. The same sweep writes each cell's condensate
    ``cond = sum_n out[n] * mass[n]`` from the bins just stored, in the
    fixed lane order of :func:`lane_condensate`; a skipped species adds
    only zeros, so its terms drop out without changing a bit. The loop
    nest is defined *bare* — every annotation, and the host's in-place
    rings for ``sout``, ``out`` and ``occ_out`` with the guards of the
    skipped bins (:func:`repro.codee.transform.ring_rows`), is derived
    by `repro.codee.transform` from its dependence analysis.
    """
    nm, ni, nk, nj, ns = (
        Sym("nm"), Sym("ni"), Sym("nk"), Sym("nj"), Sym("ns")
    )
    r, k, j, n, g, q = Sym("r"), Sym("k"), Sym("j"), Sym("n"), Sym("g"), Sym("q")
    i, sv, v, m = Sym("i"), Sym("sv"), Sym("v"), Sym("m")

    s4 = (nk * nj * ns, nj * ns, ns, Const(1))
    st = (Const(NSTATE) * nk * nj, nj, nk * nj, Const(1))
    c3 = (nk * nj, nj, Const(1))
    clamp = loopir.Select

    def update(src, base, out, floor, at, last):
        """Advect ``src`` at the cell's subscript ``at(rr, kk, jj)`` into
        ``out``: one negated upwind pair per axis, -(pos*(sv - s[lo]) +
        neg*(s[hi] - sv)), accumulated i, then k, then j — the
        reference's grouping — then the clamped update."""
        tend = None
        for pos, neg, lo, hi in (
            ("up", "un", at(Sym("im"), k, j), at(Sym("ip"), k, j)),
            ("wp", "wn", at(r, Sym("km"), j), at(r, Sym("kp"), j)),
            ("vp", "vn", at(r, k, Sym("jm")), at(r, k, Sym("jp"))),
        ):
            pair = -(Sym(pos) * (sv - Load(src, lo)) + Sym(neg) * (Load(src, hi) - sv))
            tend = pair if tend is None else tend + pair
        here = at(r, k, j)
        return [
            Let("sv", Load(src, here)),
            Let("t", tend),
            Let("v", Sym("f") * Sym("t") + Load(base, here)),
            Let("lo", floor),
            Let("o", clamp(v.lt(Sym("lo")), Sym("lo"), v)),
            Store(out, here, Sym("o")),
            *last,
        ]

    def bins_at(at) -> list:
        """Advect bin ``at`` of the cell."""
        return update(
            "s", "base", "out", Load("floors", (at,)),
            lambda rr, kk, jj: (rr, kk, jj, at), [_note_bit(Sym("o"), at)],
        )

    def sweep(lo, hi, then: list) -> If:
        """Advect the bins ``lo <= n < hi`` of the cell, then run
        ``then`` (which reads them): whole vectors of
        :data:`SWEEP_VECTOR` bins, then the range's last vector again,
        so no scalar remainder runs. A bin computed twice stores the same
        value from the same inputs: the overlap changes no bit."""
        vec = Const(SWEEP_VECTOR)
        return If((hi - lo).ge(vec), [
            Loop("n", lo, lo + ((hi - lo) / vec) * vec, bins_at(n)),
            Loop("p", Const(0), vec, bins_at(hi - vec + Sym("p"))),
            *then,
        ], [
            Loop("n", lo, hi, bins_at(n)),
            *copy.deepcopy(then),
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

    def split(pos, neg, vel, spacing) -> list:
        """The cell's upwind pair of one axis, ``max(vel, 0) / spacing``
        and ``min(vel, 0) / spacing`` as ``WindSplit.build`` computes
        them: one divide, and +0.0 (numpy's maximum and minimum of -0.0
        and 0.0) wherever the wind is not of the pair's sign."""
        x, d = Sym(pos + "x"), Sym(pos + "d")
        return [
            Let(x.name, vel),
            Let(d.name, x / Sym(spacing)),
            Let(pos, clamp(x.gt(Const(0.0)), d, Const(0.0))),
            Let(neg, clamp(x.lt(Const(0.0)), d, Const(0.0))),
        ]

    init, add_all, store = lane_condensate("out", (r, k, j))
    lo, hi = Load("glo", (g,)), Load("glo", (g + 1,))
    _, add_group, _ = lane_condensate("out", (r, k, j), lo, hi)
    body_j = [
        # The winds the stage advects with: u, v and the step-start w,
        # which is the base state's w plane.
        *split("up", "un", Load("u", (r, k, j)), "dx"),
        *split("wp", "wn", Load("sbase", (r, k, Const(W_PLANE), j)), "dz"),
        *split("vp", "vn", Load("v", (r, k, j)), "dx"),
        Let("i", r - (r / ni) * ni, ctype="long"),
        Let("im", clamp(i.gt(0), r - 1, r), ctype="long"),
        Let("ip", clamp(i.lt(ni - 1), r + 1, r), ctype="long"),
        Let("km", clamp(k.gt(0), k - 1, k), ctype="long"),
        Let("kp", clamp(k.lt(nk - 1), k + 1, k), ctype="long"),
        Let("jm", clamp(j.gt(0), j - 1, j), ctype="long"),
        Let("jp", clamp(j.lt(nj - 1), j + 1, j), ctype="long"),
        # The cell's t, qv and w.
        Loop("q", Const(0), Const(NSTATE), update(
            "ss", "sbase", "sout", Load("sfloors", (q,)),
            lambda rr, kk, jj: (rr, kk, q, jj), [],
        )),
        Let("live", live, ctype="long"),
        Decl("nsw", "long", Const(0)),
        Decl("nbits", "long", Const(0)),
        If(Sym("live").eq(Const(0)), [
            # No species anywhere in the stencil: no bin to sweep.
            Store("cond", (r, k, j), Const(0.0)),
        ], [
            # Count the species groups present in the stencil.
            Loop("g", Const(0), Sym("ng"), [
                Assign("nsw", Sym("nsw") + has(Load("smask", (lo,)))),
            ]),
            *init,
            If(Sym("nsw").eq(Sym("ng")), [
                # Every species is present: the whole cell at once.
                sweep(Const(0), ns, add_all),
            ], [
                Loop("g", Const(0), Sym("ng"), [
                    Let("m", Load("smask", (lo,)), ctype="long"),
                    If(has(m), [
                        # The group's condensate from the values just stored.
                        sweep(lo, hi, add_group),
                    ]),
                ]),
            ]),
            *store,
        ]),
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
            ArrayParam("ss", strides=st),
            ArrayParam("sbase", strides=st),
            ArrayParam("sout", strides=st, intent="out"),
            ArrayParam("s", strides=s4),
            ArrayParam("base", strides=s4),
            ArrayParam("out", strides=s4, intent="out"),
            ArrayParam("u", strides=c3),
            ArrayParam("v", strides=c3),
            ScalarParam("dx", "double"),
            ScalarParam("dz", "double"),
            ScalarParam("f", "double"),
            ScalarParam("nm", "long"),
            ScalarParam("ni", "long"),
            ScalarParam("nk", "long"),
            ScalarParam("nj", "long"),
            ScalarParam("ns", "long"),
            ArrayParam("sfloors", strides=(Const(1),)),
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
            "a rank's planar (nm, ni, 3, nk, nj) state block and its "
            "(nm, ni, nk, nj, ns) bins block, their members' rows folded "
            "into nm * ni rows, with zero-gradient edges clamped at each "
            "member's own rows; upwind winds split per cell from u, v and "
            "the base w plane; tendency accumulated axis i, then k, then "
            "j in the reference's grouping; bins of species whose "
            "occupancy bit is clear across the 7-point stencil skipped; "
            "each cell's condensate summed in 8 lanes from the stored "
            "bins, and its new occupancy bits written."
        ),
    )


def build_condensate_ir() -> Kernel:
    """Each cell's condensate and occupancy bits of a bins block as loop IR.

    ``cond[r, k, j] = sum_n s[r, k, j, n] * mass[n]`` over the
    ``(nm, ni, nk, nj, ns)`` bins block, its members' rows folded into
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
            "member-stacked (nm, ni, nk, nj, ns) bins block, summed in 8 "
            "lanes as advect_stage sums it, and its occupancy bits."
        ),
    )


def build_buoyancy_ir() -> Kernel:
    """The buoyancy update of a state block's w plane as loop IR.

    :func:`repro.wrf.dynamics.buoyancy_w_update` of every member at
    once, over the planar ``(nm, ni, 3, nk, nj)`` state block ``s``
    (rows folded into ``nm * ni`` as in :func:`build_advect_ir`) and the
    ``(nm, ni, nk, nj)`` condensate ``cond``: ``w += dt * (accel - DRAG
    * w)`` with ``accel = g * ((t - tbase[k]) / tbase[k] - cond /
    rho[k])``, the operations grouped as numpy evaluates them; then
    levels 0 and ``nk - 1`` take +0.0 and the result is clipped to
    ``±W_MAX`` as ``np.clip`` clips, so the plane equals the numpy
    update's bit for bit. The j loop runs over contiguous planes.
    """
    nm, ni, nk, nj = Sym("nm"), Sym("ni"), Sym("nk"), Sym("nj")
    r, k, j = Sym("r"), Sym("k"), Sym("j")
    w, tb, rk = Sym("w"), Sym("tb"), Sym("rk")
    clamp = loopir.Select
    wmax = Const(W_MAX)
    at_w = (r, k, Const(W_PLANE), j)
    body_j = [
        Let("w", Load("s", at_w)),
        Let("q", Load("cond", (r, k, j)) / rk),
        Let("a", Const(GRAVITY) * ((Load("s", (r, k, Const(T_PLANE), j)) - tb) / tb - Sym("q"))),
        Let("x", w + Sym("dt") * (Sym("a") - Const(DRAG) * w)),
        Let("y", clamp(Sym("pin").ne(Const(0)), Const(0.0), Sym("x"))),
        Let("z", clamp(Sym("y").lt(-wmax), -wmax, Sym("y"))),
        Store("s", at_w, clamp(Sym("z").gt(wmax), wmax, Sym("z"))),
    ]
    body_k = [
        Let("tb", Load("tbase", (k,))),
        Let("rk", Load("rho", (k,))),
        # The rigid lid and the ground.
        Let("pin", k.eq(Const(0)).logical_or(k.eq(nk - 1)), ctype="long"),
        Loop("j", Const(0), nj, body_j),
    ]
    nest = Loop("r", Const(0), nm * ni, [Loop("k", Const(0), nk, body_k)])
    return Kernel(
        name="buoyancy",
        params=(
            ArrayParam(
                "s", strides=(Const(NSTATE) * nk * nj, nj, nk * nj, Const(1)),
                intent="inout",
            ),
            ArrayParam("cond", strides=(nk * nj, nj, Const(1))),
            ArrayParam("tbase", strides=(Const(1),)),
            ArrayParam("rho", strides=(Const(1),)),
            ScalarParam("dt", "double"),
            ScalarParam("nm", "long"),
            ScalarParam("ni", "long"),
            ScalarParam("nk", "long"),
            ScalarParam("nj", "long"),
        ),
        body=[nest],
        doc=(
            "The buoyancy update of the w plane of a member-stacked planar "
            "(nm, ni, 3, nk, nj) state block: w += dt * (g * ((t - tbase) / "
            "tbase - cond / rho) - DRAG * w), levels 0 and nk - 1 pinned to "
            "zero, clipped to +-W_MAX."
        ),
    )


def build_halo_pull_ir() -> Kernel:
    """One halo segment's bins and occupancy bits as loop IR.

    Copies a source box of a bins block and its occupancy bits into a
    destination box of the same shape ``(nm, ni, nk, nj)`` cells of
    ``ns`` bins, moving only what the bits say is there. Each box is
    addressed through its block's cell strides (``sm``, ``si``, ``sk``
    and ``dm``, ``di``, ``dk``; unit along j), the bins with those
    strides times ``ns`` and a unit bin stride, so the ``nj`` cells of
    an ``(m, i, k)`` row are one run of ``nj * ns`` bins in each box.

    For each cell, with source bits ``s`` and destination bits ``d``,
    and each species group (``smask``/``glo``, as in
    :func:`build_advect_ir`): a group whose bit is set in ``s`` is
    copied, one clear in ``s`` but set in ``d`` is zero-filled, and
    one clear in both is left alone (a clear ``d`` bit already promises
    exact zeros); then ``d = s``. A row whose every cell has every
    species bit set is copied as one run, as the slab copy does. So
    the result equals a plain copy of the box's bins and bits, while
    an empty cell over an empty cell costs one test. ``moved[m, i,
    k]`` receives the count of bins the row copied or zero-filled.
    """
    nm, ni, nk, nj, ns = (
        Sym("nm"), Sym("ni"), Sym("nk"), Sym("nj"), Sym("ns")
    )
    m, i, k, j, n, g, e = (
        Sym("m"), Sym("i"), Sym("k"), Sym("j"), Sym("n"), Sym("g"), Sym("e")
    )
    s, d, full, moved = Sym("sb"), Sym("db"), Sym("full"), Sym("nmoved")
    lo, hi = Load("glo", (g,)), Load("glo", (g + 1,))

    def every(bits):
        return Bin("&", bits, full).eq(full)

    def run(value) -> list:
        """Write the cell's bins of group ``g`` and count them."""
        return [
            Loop("n", lo, hi, [Store("dst", (m, i, k, j, n), value)]),
            Assign("nmoved", moved + (hi - lo)),
        ]

    cell = [
        Let("sb", Load("socc", (m, i, k, j)), ctype="long"),
        Let("db", Load("docc", (m, i, k, j)), ctype="long"),
        If(Bin("|", s, d).ne(Const(0)), [
            Loop("g", Const(0), Sym("ng"), [
                Let("mk", Load("smask", (lo,)), ctype="long"),
                If(Bin("&", s, Sym("mk")).ne(Const(0)), run(Load("src", (m, i, k, j, n))), [
                    If(Bin("&", d, Sym("mk")).ne(Const(0)), run(Const(0.0))),
                ]),
            ]),
            Store("docc", (m, i, k, j), s),
        ]),
    ]
    body_k = [
        # Whether every cell of the row holds every species.
        Decl("dense", "long", Const(1)),
        Loop("j", Const(0), nj, [
            Assign("dense", Bin("&", Sym("dense"), every(Load("socc", (m, i, k, j))))),
        ]),
        Decl("nmoved", "long", Const(0)),
        If(Sym("dense").ne(Const(0)), [
            # The row's cells are one run in both boxes.
            Loop("e", Const(0), nj * ns, [
                Store("dst", (m, i, k, Const(0), e), Load("src", (m, i, k, Const(0), e))),
            ]),
            Loop("j", Const(0), nj, [
                Store("docc", (m, i, k, j), Load("socc", (m, i, k, j))),
            ]),
            Assign("nmoved", nj * ns),
        ], [
            Loop("j", Const(0), nj, cell),
        ]),
        Store("moved", (m, i, k), moved),
    ]
    nest = Loop("m", Const(0), nm, [
        Loop("i", Const(0), ni, [Loop("k", Const(0), nk, body_k)]),
    ])

    def box(pre: str, scale=None) -> tuple:
        """A box's m, i and k strides: its block's cell strides, or
        those times ``scale``."""
        cells = tuple(Sym(pre + axis) for axis in "mik")
        return cells if scale is None else tuple(c * scale for c in cells)

    return Kernel(
        name="halo_pull",
        params=(
            ArrayParam("src", strides=(*box("s", ns), ns, Const(1))),
            ArrayParam("dst", strides=(*box("d", ns), ns, Const(1)), intent="out"),
            ArrayParam("socc", strides=(*box("s"), Const(1)), ctype="unsigned char"),
            ArrayParam(
                "docc", strides=(*box("d"), Const(1)), ctype="unsigned char",
                intent="inout",
            ),
            ScalarParam("nm", "long"),
            ScalarParam("ni", "long"),
            ScalarParam("nk", "long"),
            ScalarParam("nj", "long"),
            ScalarParam("ns", "long"),
            *(ScalarParam(pre + axis, "long") for pre in "sd" for axis in "mik"),
            *_mask_params(),
            ArrayParam(
                "moved", strides=(ni * nk, nk, Const(1)), ctype="long", intent="out"
            ),
        ),
        body=[
            # Every species bit.
            Decl("full", "long", Const(0)),
            Loop("g", Const(0), Sym("ng"), [
                Assign("full", Bin("|", full, Load("smask", (lo,)))),
            ]),
            nest,
        ],
        doc=(
            "One halo segment: copy a strided (nm, ni, nk, nj) box of "
            "cells of ns bins and their occupancy bits into another, "
            "moving a species group only where its source bit is set, "
            "zero-filling it where only the destination bit is set, and "
            "copying rows whose cells hold every species as one run."
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
        ("buoyancy", build_buoyancy_ir),
        ("halo_pull", build_halo_pull_ir),
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
        "Generated by repro.codee.cgen from the advect_stage/condensate/"
        "buoyancy/halo_pull loop IR; annotations derived by "
        "repro.codee.transform. "
        "Do not edit."
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
    nj, ns)`` bins block in ``ngroups`` groups and its state block
    needs: two rows of the state values, of the bins, of each cell's
    three guards (empty stencil, whole cell, whole vectors), of each
    group's two (present, whole vectors), and of the new bits."""
    nk, nj, ns = shape[2:]
    return {
        "sout_ring": ((2, NSTATE, nk, nj), np.float64),
        "out_ring": ((2, nk, nj, ns), np.float64),
        "out_guard": ((2, nk, nj), np.uint8),
        "out_guard1": ((2, nk, nj), np.uint8),
        "out_guard2": ((2, nk, nj), np.uint8),
        "out_guard3": ((2, nk, nj, ngroups), np.uint8),
        "out_guard4": ((2, nk, nj, ngroups), np.uint8),
        "occ_out_ring": ((2, nk, nj), np.uint8),
    }


assert set(ring_shapes((1, 1, 1, 1, 1), 1)) == set(RINGS), RINGS


def _masks_ok(smask: np.ndarray, glo: np.ndarray, ns: int) -> bool:
    """Whether ``smask``/``glo`` give each of the ``ns`` bins one bit of
    a byte and split them in order into nonempty groups of one mask
    (the kernel reads a group's mask at its first bin)."""
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
        and bool(np.isin(smask, 1 << np.arange(8)).all())
    ):
        return False
    return all((smask[a:b] == smask[a]).all() for a, b in zip(glo[:-1], glo[1:]))


def advect_stage_args(
    ss: np.ndarray,
    sbase: np.ndarray,
    sout: np.ndarray,
    s: np.ndarray,
    base: np.ndarray,
    out: np.ndarray,
    winds: tuple[np.ndarray, np.ndarray, float, float],
    f: float,
    sfloors: np.ndarray,
    floors: np.ndarray,
    mass: np.ndarray,
    cond: np.ndarray,
    masks: tuple[np.ndarray, np.ndarray],
    occ: np.ndarray,
    occ_out: np.ndarray,
    swept: np.ndarray,
    rings: dict[str, np.ndarray],
) -> tuple:
    """The arguments of one fused stage's ``advect_stage`` call
    (:func:`build_advect_ir`), checked: ``out = max(base + f * tend(s),
    floors)`` on both blocks.

    ``ss``/``sbase``/``sout`` are the ``(nm, ni, 3, nk, nj)`` state
    blocks and ``s``/``base``/``out`` the ``(nm, ni, nk, nj, ns)`` bins
    blocks; each triple may be one block: the kernel computes each row
    into the rings (of :func:`ring_shapes`) and stores it once the next
    row's plane is done. ``winds`` is ``(u, v, dx, dz)``
    (:class:`repro.wrf.dynamics.Winds`): the member-stacked ``(nm, ni,
    nk, nj)`` horizontal winds and the spacings; the vertical wind is
    ``sbase``'s w plane. ``sfloors`` are the three state fields' floors,
    ``floors``/``mass`` per bin, and ``cond`` the ``(nm, ni, nk, nj)``
    condensate ``sum_n out[n] * mass[n]`` the sweep writes; one C call
    advances every member. ``masks`` is the layout's ``(smask, glo)``
    (:meth:`repro.wrf.transport.ScalarLayout.masks`), ``occ`` the uint8
    ``(nm, ni, nk, nj)`` occupancy bits the sweep skips by and
    ``occ_out`` (which may be ``occ``) the bits it writes; ``swept``
    receives each cell's count of swept species (int32). Every operand
    must be C-contiguous: the kernel addresses them as dense arrays.

    A rank's blocks never move, so its stages' arguments are built once
    and every step passes them to ``lib.advect_stage``; a malformed
    operand raises ``ValueError`` here, before any call.
    """
    nm, ni, nk, nj, ns = s.shape
    u, v, dx, dz = winds
    smask, glo = masks
    ng = len(glo) - 1
    cells = s.shape[:4]
    planes = (nm, ni, NSTATE, nk, nj)
    typed = (
        *((a, planes, np.float64) for a in (ss, sbase, sout)),
        *((a, s.shape, np.float64) for a in (s, base, out)),
        *((a, cells, np.float64) for a in (u, v, cond)),
        (sfloors, (NSTATE,), np.float64),
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
            "advect_stage: operands must be C-contiguous and match the blocks"
        )
    return (
        ss, sbase, sout, s, base, out, u, v, float(dx), float(dz),
        float(f), nm, ni, nk, nj, ns,
        sfloors, floors, mass, cond, smask, ng, glo, occ, occ_out, swept,
        *(rings[name] for name in RINGS),
    )


def buoyancy_args(
    state: np.ndarray,
    cond: np.ndarray,
    t_base: np.ndarray,
    rho: np.ndarray,
    dt: float,
) -> tuple:
    """The arguments of the ``buoyancy`` call (:func:`build_buoyancy_ir`)
    that updates ``state``'s w plane, checked once like a stage's.

    ``state`` is the C-contiguous ``(nm, ni, 3, nk, nj)`` state block,
    ``cond`` its ``(nm, ni, nk, nj)`` condensate, ``t_base`` and ``rho``
    the ``(nk,)`` base-state temperature and density columns the members
    share; ``dt`` the time step.
    """
    nm, ni, _, nk, nj = state.shape
    typed = (
        (state, (nm, ni, NSTATE, nk, nj)),
        (cond, (nm, ni, nk, nj)),
        (t_base, (nk,)),
        (rho, (nk,)),
    )
    if not all(
        a.shape == shape and a.dtype == np.float64 and a.flags.c_contiguous
        for a, shape in typed
    ):
        raise ValueError(
            "buoyancy: operands must be C-contiguous and match the state block"
        )
    return (state, cond, t_base, rho, float(dt), nm, ni, nk, nj)


def condensate(
    lib: ctypes.CDLL,
    bins: np.ndarray,
    mass: np.ndarray,
    cond: np.ndarray,
    masks: tuple[np.ndarray, np.ndarray],
    occ: np.ndarray,
) -> None:
    """Write each cell's condensate ``sum_n bins[..., n] * mass[n]``
    and its occupancy bits.

    ``bins`` is the ``(nm, ni, nk, nj, ns)`` bins block, ``mass`` the
    per-bin masses and ``cond`` the ``(nm, ni, nk, nj)`` output, all
    C-contiguous float64; the sum runs in the order ``advect_stage``
    uses (:func:`lane_condensate`), so the two agree bit for bit.
    ``masks`` and ``occ`` (uint8, shaped like ``cond``) as there: each
    cell gets the bit of every species with a nonzero bin.
    """
    nm, ni, nk, nj, ns = bins.shape
    smask, glo = masks
    if (
        not all(a.flags.c_contiguous for a in (bins, mass, cond, occ))
        or mass.shape != (ns,)
        or cond.shape != bins.shape[:4]
        or occ.shape != bins.shape[:4]
        or occ.dtype != np.uint8
        or not _masks_ok(smask, glo, ns)
    ):
        raise ValueError(
            "condensate: operands must be C-contiguous and match the block"
        )
    lib.condensate(bins, mass, cond, nm, ni, nk, nj, ns, smask, occ)


def halo_pull_args(
    src: np.ndarray,
    dst: np.ndarray,
    socc: np.ndarray,
    docc: np.ndarray,
    masks: tuple[np.ndarray, np.ndarray],
) -> tuple:
    """The arguments of one halo segment's ``halo_pull`` call
    (:func:`build_halo_pull_ir`), checked.

    ``src``/``dst`` are ``(nm, ni, nk, nj, ns)`` float64 boxes of two
    bins blocks and ``socc``/``docc`` the same cells' uint8 ``(nm, ni,
    nk, nj)`` boxes of their occupancy fields: strided views, a box's
    bins with its bits' strides times ``ns`` doubles, as the boxes of
    one rank's bins block and occupancy field have. ``masks`` is the
    layout's ``(smask, glo)``. A segment's boxes never move, so its
    arguments are built once and every exchange passes them to
    ``lib.halo_pull``.

    A call leaves ``dst`` and ``docc`` equal, as values, to the plain
    copies ``dst[...] = src`` and ``docc[...] = socc``, provided every
    clear bit of ``socc`` and ``docc`` covers bins that are exact zeros.
    The last argument, ``moved``, then holds the count of bins each
    ``(m, i, k)`` row copied or zero-filled.
    """
    nm, ni, nk, nj, ns = src.shape
    smask, glo = masks
    strides = []
    for bins, occ in ((src, socc), (dst, docc)):
        cell = occ.strides[:3]
        if not (
            bins.shape == src.shape
            and occ.shape == src.shape[:4]
            and bins.dtype == np.float64
            and occ.dtype == np.uint8
            and occ.strides[3] == 1
            and bins.strides == (*(c * ns * 8 for c in cell), ns * 8, 8)
        ):
            raise ValueError(
                "halo_pull: each box's bins must match its bits' cells"
            )
        strides.extend(cell)
    if not _masks_ok(smask, glo, ns):
        raise ValueError("halo_pull: masks must split the bins into groups")
    moved = np.zeros((nm, ni, nk), np.int64)
    return (
        src, dst, socc, docc, nm, ni, nk, nj, ns,
        *strides, smask, len(glo) - 1, glo, moved,
    )
