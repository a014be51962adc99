"""Runtime-compiled C kernels for the FSBM physics column hot spots.

After the fused transport engine (PR 3), profiling shows the numpy
physics path dominating the model step: the per-species sedimentation
sweep materializes a full-field ``flux`` temporary per species, and the
condensation KO-remap runs two full-size ``np.bincount`` passes per
growth call. Both are the kind of fragmented, temporary-heavy loop the
paper's stage-3 transformation collapses; this module is their
host-side analog, built on the shared :mod:`repro.core.cjit`
infrastructure (source-hash-cached ``.so``, ``-ffp-contract=off``,
transparent numpy fallback).

Every kernel here is defined as a `repro.codee.loopir` kernel
(:func:`build_sed_sweep_ir`, :func:`build_remap_scatter_ir`,
:func:`build_coal_bott_new_ir`) rather than a hand-written C string: the transformation engine
(`repro.codee.transform`) analyzes them, the static verifier
(`repro.codee.irverify`) checks the result, and `repro.codee.cgen`
emits the C that :mod:`repro.core.cjit` compiles. The analysis is
honest about these loops — within one ensemble member the
sedimentation nest's ``k``-carried flux recurrence and its
``active``/``precip`` accumulations make it provably
*non*-parallelizable, and the remap's depth-1 nest is below the
parallel-overhead floor — and their arithmetic (expressed in the IR
with the reference's operation order) stays bit-identical to their
hand-written predecessors. Every kernel is registered under the host
plan (:func:`repro.codee.transform.plan_host`), like the transport
stencil: ``sed_sweep``'s member loop is provably independent but
emitted serial, because rank-level threads/processes own the cores, so
the fsbm translation unit holds no ``omp parallel`` region (only
``omp simd`` lane loops).

Equivalence to the numpy references (asserted by
``tests/fsbm/test_native_kernels.py``):

* ``sed_sweep`` — the fused all-species sedimentation loop nest over
  ``(member, i, k, j, species, bin)``. Per element it performs exactly the
  reference's ``flux = n*c``; ``n -= flux``; ``n[:, :-1] += flux[:, 1:]``
  sequence (flux of a level is always computed before that level
  receives the carry from above), so the distributions match **bit for
  bit** up to the sign of floating-point zeros. Only the surface
  precipitation dot product accumulates left-to-right instead of
  through BLAS, which agrees to <1e-12 relative. Rows whose flux is
  entirely zero skip their writes, so absent species cost one read
  pass and no stores — this is what lets the caller drop its
  per-species ``n.any()`` prescan on the compiled path (the kernel
  reports per-species presence in ``active``).
* ``remap_scatter`` — the Kovetz–Olund two-bin deposit. numpy's
  ``bincount`` accumulates sequentially in flat index order, which the
  per-point ``lo``/``hi`` accumulators reproduce exactly, so the remap
  is **bit-identical** to the double-``bincount`` reference.
* ``coal_bott_new`` — every collision interaction of a step in one
  call (:func:`build_coal_bott_new_ir`). The interaction loop is
  serial; the points inside it run in lane blocks whose ``(bin,
  lane)`` tiles put the loop over grid points innermost, where the
  transformation engine proves it independent and marks it ``simd``.
  It agrees with the numpy sparse engine of `repro.fsbm.coal_bott` to
  1e-12 of each point's largest bin (only summation order and the
  per-entry pressure interpolation differ), and a point's result does
  not depend on the other points of its call, so member and rank
  batching stay bit-identical.

``REPRO_DISABLE_CPHYS=1`` (this module) or ``REPRO_DISABLE_CJIT=1``
(all compiled kernels) forces the numpy fallback.
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
    If,
    Kernel,
    Let,
    Load,
    LocalArray,
    Loop,
    ScalarParam,
    Select,
    Store,
    Sym,
)
from repro.core import cjit
from repro.obs import tracer

#: Environment switch forcing the numpy physics fallback.
DISABLE_ENV = "REPRO_DISABLE_CPHYS"

#: Stack-buffer capacity of the per-row/per-point accumulators below;
#: wrappers fall back to numpy for larger bin counts.
MAX_NKR = 64

def build_sed_sweep_ir() -> Kernel:
    """The fused all-species upwind sedimentation sweep as loop IR.

    ``dists`` is a pointer table: ``dists[sp]`` points at that
    species' member-stacked ``(nm, ni, nk, nj, nkr)`` view; all species
    share the element strides ``(sm, si, sk, sj)`` and a unit bin
    stride. ``courant`` is ``(nsp, nk, nkr)`` and ``masses``
    ``(nsp, nkr)``, both contiguous and shared by every member;
    ``precip`` is a strided ``(nm, ni, nj)`` view with element strides
    ``(pm, psi, psj)``.

    Each member's rows run in memory-layout order (i, k, j, species):
    when the species views are slices of one (i, k, j, scalar)
    superblock, the inner j/species loops walk the block's trailing
    axis contiguously. The k recurrence is preserved because each
    row's update is local: level k's flux is computed from its
    pre-update row, the row is decremented, and the flux is carried to
    level k - 1 (already decremented during the previous k iteration)
    — or, at k == 0, its mass is accumulated into precip. Every element
    sees subtract-then-add, the exact operation order of the numpy
    reference. Rows with all-zero flux skip their stores, so absent
    species are read-only; ``active[m, sp]`` reports whether any
    pre-update value of the species was nonzero in member ``m``, which
    is what keeps each member's work stats (and so its clock charges)
    those of a one-member run.

    That recurrence is precisely what the dependence analysis sees
    inside a member: the ``k - 1`` accumulation, the ``active`` and
    ``precip`` updates, and the conditional row writes each carry a
    dependence, so `repro.codee.transform` proves only the member loop
    independent (parallel depth 1). The kernel is registered under the
    serial host plan (:func:`repro.codee.transform.plan_host`) —
    matching the hand-written kernel, which relied on streaming
    memory order rather than threads.
    """
    m, i, k, j, sp, b = Sym("m"), Sym("i"), Sym("k"), Sym("j"), Sym("sp"), Sym("b")
    nkr = Sym("nkr")

    def dist_at(kk):
        return (sp, m, i, kk, j, b)

    bin_loop = lambda body: Loop("b", Const(0), nkr, body)

    flux_fill = bin_loop(
        [
            Let("nv", Load("dists", dist_at(k))),
            Store("flux", (b,), Sym("nv") * Load("courant", (sp, k, b))),
            If(Sym("nv").ne(Const(0.0)), [Assign("rownz", Const(1))]),
        ]
    )
    subtract = bin_loop([Store("dists", dist_at(k), Load("flux", (b,)), "-=")])
    to_precip = [
        Decl("acc", "double", Const(0.0)),
        bin_loop(
            [
                Assign(
                    "acc",
                    Sym("acc") + Load("flux", (b,)) * Load("masses", (sp, b)),
                )
            ]
        ),
        Store("precip", (m, i, j), Sym("acc"), "+="),
    ]
    to_below = [
        bin_loop([Store("dists", dist_at(k - 1), Load("flux", (b,)), "+=")])
    ]

    per_row = [
        LocalArray("flux", MAX_NKR),
        Decl("rownz", "int", Const(0)),
        flux_fill,
        If(
            Sym("rownz"),
            [
                Store("active", (m, sp), Const(1)),
                subtract,
                If(k.eq(Const(0)), to_precip, to_below),
            ],
        ),
    ]

    main = Loop(
        "m",
        Const(0),
        Sym("nm"),
        [
            Loop(
                "i",
                Const(0),
                Sym("ni"),
                [
                    Loop(
                        "k",
                        Const(0),
                        Sym("nk"),
                        [
                            Loop(
                                "j",
                                Const(0),
                                Sym("nj"),
                                [Loop("sp", Const(0), Sym("nsp"), per_row)],
                            )
                        ],
                    )
                ],
            )
        ],
    )

    return Kernel(
        name="sed_sweep",
        params=(
            ArrayParam(
                "dists",
                strides=(Sym("sm"), Sym("si"), Sym("sk"), Sym("sj"), Const(1)),
                intent="inout",
                ptr_table=True,
            ),
            ArrayParam("courant", strides=(Sym("nk") * nkr, nkr, Const(1))),
            ArrayParam("masses", strides=(nkr, Const(1))),
            ArrayParam(
                "precip",
                strides=(Sym("pm"), Sym("psi"), Sym("psj")),
                intent="inout",
            ),
            ScalarParam("nm", "long"),
            ScalarParam("nsp", "long"),
            ScalarParam("ni", "long"),
            ScalarParam("nk", "long"),
            ScalarParam("nj", "long"),
            ScalarParam("nkr", "long"),
            ScalarParam("sm", "long"),
            ScalarParam("si", "long"),
            ScalarParam("sk", "long"),
            ScalarParam("sj", "long"),
            ScalarParam("pm", "long"),
            ScalarParam("psi", "long"),
            ScalarParam("psj", "long"),
            ArrayParam(
                "active",
                strides=(Sym("nsp"), Const(1)),
                ctype="unsigned char",
                intent="out",
            ),
        ),
        body=[
            Loop(
                "m",
                Const(0),
                Sym("nm"),
                [
                    Loop(
                        "sp",
                        Const(0),
                        Sym("nsp"),
                        [Store("active", (m, sp), Const(0))],
                    )
                ],
            ),
            main,
        ],
        doc=(
            "Fused all-species upwind sedimentation sweep over a "
            "member-stacked superblock, each member in memory-layout order "
            "(i, k, j, species); level k's flux is subtracted from its row "
            "then carried to k - 1 (or precip at the surface), the "
            "reference's exact operation order, with per-member active "
            "flags."
        ),
    )


def build_remap_scatter_ir() -> Kernel:
    """The Kovetz-Olund two-bin deposit as loop IR.

    Deposits ``n_live[p, b]`` split between ladder bins ``k_idx[p, b]``
    (weight ``1 - w_hi``) and ``k_idx[p, b] + 1`` (weight ``w_hi``),
    writing the ``(npts, nkr)`` result to ``acc``. Matches the
    two-bincount numpy reference bit for bit: bincount accumulates
    sequentially in flat order (here: b ascending per point), and the
    final ``acc`` is the elementwise ``lo + hi`` sum, exactly as the
    reference's second ``bincount`` pass.

    The analysis keeps it serial twice over: the scatter through
    ``k_idx`` is an indirect store (iterations cannot be proven
    disjoint bin-wise), and the point nest is depth 1 — below the
    parallel-overhead floor even though the ``p`` loop itself is
    independent.
    """
    p, b = Sym("p"), Sym("b")
    nkr = Sym("nkr")

    body_p = [
        LocalArray("lo", MAX_NKR),
        LocalArray("hi", MAX_NKR),
        Loop(
            "b",
            Const(0),
            nkr,
            [Store("lo", (b,), Const(0.0)), Store("hi", (b,), Const(0.0))],
        ),
        Loop(
            "b",
            Const(0),
            nkr,
            [
                Let("kk", Load("k_idx", (p, b)), ctype="long"),
                Store(
                    "lo",
                    (Sym("kk"),),
                    Load("n_live", (p, b)) * (Const(1.0) - Load("w_hi", (p, b))),
                    "+=",
                ),
                Store(
                    "hi",
                    (Sym("kk") + 1,),
                    Load("n_live", (p, b)) * Load("w_hi", (p, b)),
                    "+=",
                ),
            ],
        ),
        Loop(
            "b",
            Const(0),
            nkr,
            [Store("acc", (p, b), Load("lo", (b,)) + Load("hi", (b,)))],
        ),
    ]

    return Kernel(
        name="remap_scatter",
        params=(
            ArrayParam("n_live", strides=(nkr, Const(1))),
            ArrayParam("w_hi", strides=(nkr, Const(1))),
            ArrayParam("k_idx", strides=(nkr, Const(1)), ctype="long"),
            ArrayParam("acc", strides=(nkr, Const(1)), intent="out"),
            ScalarParam("npts", "long"),
            ScalarParam("nkr", "long"),
        ),
        body=[Loop("p", Const(0), Sym("npts"), body_p)],
        doc=(
            "Kovetz-Olund remap scatter: two-bin deposit of n_live between "
            "ladder bins k_idx and k_idx + 1, accumulated in the reference "
            "bincount's flat order."
        ),
    )


#: Grid points per lane block of ``coal_bott_new``: every tile sweep's
#: innermost loop runs over this many points side by side.
COAL_LANES = 8


def build_coal_bott_new_ir() -> Kernel:
    """The whole collision step, all interactions, as loop IR.

    ``dists[sp]`` points at species ``sp``'s gathered ``(npts, nkr)``
    rows. The interaction loop is outermost and serial: interaction
    ``ix`` selects the points where its temperature gate (``gate[ix]``)
    holds and both species' running sums (``sums``) exceed ``nmin``,
    and the rows it updates change the sums later interactions test —
    the ``CoalSelection.fork``/``refresh`` cascade. Within one member
    segment (``seg[s] = (start, stop)``) the selected points are
    compacted into ``pts`` and share the occupied rectangle
    ``(na, nb)``, the maximum pre-step occupancy (``occ``) over them.

    The selected points then run in blocks of :data:`COAL_LANES`. Each
    block gathers its rows into ``(bin, lane)`` tiles, so every bin
    loop keeps a lane loop innermost: the loop over grid points, the
    one the paper collapses, is the vector loop. Every kernel entry is
    interpolated per lane, ``K500 + w (K750 - K500)``, as the scalar
    code's ``get_cw`` does. Per block:

    * losses — row sums ``K b`` and column sums ``a K`` over the
      rectangle;
    * limiter — a lane that binds (some bin would lose more than it
      holds) scales its bins by ``f = min(1, n / loss)`` and the block
      recomputes its losses; a lane that does not bind keeps ``f = 1``
      and so its unlimited values, bit for bit;
    * gain — the Kovetz-Olund split folded in on the fly from
      ``w_lo``/``w_hi``: the strict lower triangle deposits in the row
      bin and the next one, the strict upper triangle in the column bin
      and the next one, the diagonal in the next bin (the top bin keeps
      its own overflow);
    * scatter — the new rows go back through ``pts`` and the touched
      species' sums are refreshed.

    A lane's arithmetic never reads another lane, so a point's result
    does not depend on which points share its block or its call. Every
    sum runs in a fixed serial order; that order and the per-entry
    interpolation are all that differ from the numpy sparse engine's
    BLAS contractions.
    """
    ix, s, p, blk = Sym("ix"), Sym("s"), Sym("p"), Sym("blk")
    i, j, k, r, ln = Sym("i"), Sym("j"), Sym("k"), Sym("r"), Sym("lane")
    nkr, dt = Sym("nkr"), Sym("dt")
    ca, cb, cp, selfc = Sym("ca"), Sym("cb"), Sym("cp"), Sym("selfc")
    na, nb, nl, half = Sym("na"), Sym("nb"), Sym("nl"), Sym("half")
    w = Load("W", (ln,))

    def lanes(body: list) -> Loop:
        return Loop("lane", Const(0), Const(COAL_LANES), body)

    def at(tile: str, row) -> Load:
        return Load(tile, (row, ln))

    def vec(name: str) -> Load:
        return Load(name, (ln,))

    def smax(a, b):
        return Select(a.gt(b), a, b)

    def smin(a, b):
        return Select(a.lt(b), a, b)

    def clip0(x):
        # np.maximum(x, 0.0): keeps NaN and -0.0, like the reference.
        return Select(x.lt(Const(0.0)), Const(0.0), x)

    def clear(*tiles: str) -> Loop:
        return Loop("k", Const(0), nkr, [
            lanes([Store(t, (k, ln), Const(0.0)) for t in tiles])
        ])

    def accumulate(outer: Sym, stop_o, inner: Sym, start_i, stop_i, src: str,
                   tiles: tuple, row_first: bool) -> Loop:
        """Per-bin sums of the kernel at each lane's pressure against
        ``src[outer]``, into ``tiles[0]`` — or, with two tiles, split
        into their ``w_lo`` and ``w_hi`` shares.

        The kernel entry is interpolated per lane first,
        ``K500 + w (K750 - K500)``, as the scalar code's ``get_cw``
        does. The summed-over bin is the *outer* loop, so each tile row
        is updated once per outer step: every lane's sum runs in
        ascending order of that bin, and no iteration of the inner loop
        waits on the one before it.
        """
        row, col = (inner, outer) if row_first else (outer, inner)
        split = len(tiles) == 2
        entries = [
            Let("k5", Load("k500", (ix, row, col))),
            Let("kd", Load("kdel", (ix, row, col))),
        ]
        if split:
            entries += [
                Let("wl", Load("w_lo", (row, col))),
                Let("wh", Load("w_hi", (row, col))),
            ]
        kp = Sym("k5") + w * Sym("kd")
        if split:
            update = [
                Let("t", kp * at(src, outer)),
                Store(tiles[0], (inner, ln), Sym("wl") * Sym("t"), "+="),
                Store(tiles[1], (inner, ln), Sym("wh") * Sym("t"), "+="),
            ]
        else:
            update = [Store(tiles[0], (inner, ln), kp * at(src, outer), "+=")]
        return Loop(outer.name, Const(0), stop_o, [
            Loop(inner.name, start_i, stop_i, [*entries, lanes(update)])
        ])

    def losses() -> list:
        """Row losses RS (na) and column losses CS (nb) of tiles A, B."""
        return [
            clear("T0", "T1"),
            # Row sums of K against B, summed over j ascending.
            accumulate(j, nb, i, Const(0), na, "B", ("T0",), row_first=True),
            # Column sums of K against A, summed over i ascending.
            accumulate(i, na, j, Const(0), nb, "A", ("T1",), row_first=False),
            Loop("i", Const(0), na, [
                lanes([
                    Store("RS", (i, ln), ((half * at("A", i)) * at("T0", i)) * dt)
                ])
            ]),
            Loop("j", Const(0), nb, [
                lanes([
                    Store("CS", (j, ln), ((half * at("B", j)) * at("T1", j)) * dt)
                ])
            ]),
        ]

    def side_loss(tile: str, row) -> Select:
        """The loss the limiter compares against ``tile[row]``."""
        own = at("RS", row) if tile == "A" else at("CS", row)
        return Select(selfc.ne(Const(0)), at("RS", row) + at("CS", row), own)

    def flag_binding(tile: str, row: Sym, stop: Sym) -> Loop:
        return Loop(row.name, Const(0), stop, [
            lanes([
                Store(
                    "BIND",
                    (ln,),
                    Select(
                        side_loss(tile, row).gt(at(tile, row)),
                        Const(1.0),
                        vec("BIND"),
                    ),
                )
            ])
        ])

    def limit(tile: str, row: Sym, stop: Sym) -> Loop:
        return Loop(row.name, Const(0), stop, [
            lanes([
                Let("nv", at(tile, row)),
                Let("loss", side_loss(tile, row)),
                Let(
                    "q",
                    Sym("nv") / smax(Sym("loss"), Const(1e-30)),
                ),
                Store(
                    tile,
                    (row, ln),
                    Select(
                        vec("BIND").ne(Const(0.0)),
                        Sym("nv") * smin(Sym("q"), Const(1.0)),
                        Sym("nv"),
                    ),
                ),
            ])
        ])

    def triangle(t_out: str, out: Sym, stop_o, t_in: str, inn: Sym, stop_i):
        """One strict triangle's two deposit families into G.

        Pairs with the ``t_out`` bin ``out`` above the ``t_in`` bin
        ``inn`` deposit their ``w_lo`` share in bin ``out`` and their
        ``w_hi`` share in ``out + 1`` (the top bin has no ``w_hi``
        share). The per-bin sums run over ``inn`` ascending.
        """
        return [
            clear("T0", "T1"),
            accumulate(inn, stop_i, out, inn + 1, stop_o, t_in, ("T0", "T1"),
                       row_first=t_out == "A"),
            Loop(out.name, Const(0), stop_o, [
                lanes([
                    Store("G", (out, ln), at(t_out, out) * at("T0", out), "+=")
                ]),
                If((out + 1).lt(nkr), [
                    lanes([
                        Store(
                            "G", (out + 1, ln), at(t_out, out) * at("T1", out), "+="
                        )
                    ])
                ]),
            ]),
        ]

    def refresh_sums() -> Loop:
        """Re-sum the collector, collected and product rows of point p."""
        return Loop("r", Const(0), Const(3), [
            Let(
                "sp",
                Select(r.eq(Const(0)), ca, Select(r.eq(Const(1)), cb, cp)),
                ctype="long",
            ),
            Decl("acc", "double", Const(0.0)),
            Loop("k", Const(0), nkr, [
                Assign("acc", Sym("acc") + Load("dists", (Sym("sp"), p, k)))
            ]),
            Store("sums", (Sym("sp"), p), Sym("acc")),
        ])

    def scatter(row_body: list) -> Loop:
        return Loop("lane", Const(0), nl, [
            Let("p", Load("pts", (Sym("base") + ln,)), ctype="long"),
            Loop("k", Const(0), nkr, row_body),
            refresh_sums(),
        ])

    g_k = at("G", k)
    scatter_self = scatter([
        Let("a_old", Load("dists", (ca, p, k))),
        Let(
            "a_new",
            Select(
                k.lt(na),
                clip0((Sym("a_old") - at("RS", k)) - at("CS", k)),
                Sym("a_old"),
            ),
        ),
        If(
            cp.eq(ca),
            [Store("dists", (ca, p, k), clip0(Sym("a_new") + g_k))],
            [
                Store("dists", (ca, p, k), Sym("a_new")),
                Store("dists", (cp, p, k), g_k, "+="),
            ],
        ),
    ])
    scatter_pair = scatter([
        Let("a_old", Load("dists", (ca, p, k))),
        Let("b_old", Load("dists", (cb, p, k))),
        Let(
            "a_new",
            Select(k.lt(na), clip0(Sym("a_old") - at("RS", k)), Sym("a_old")),
        ),
        Let(
            "b_new",
            Select(k.lt(nb), clip0(Sym("b_old") - at("CS", k)), Sym("b_old")),
        ),
        Store("dists", (ca, p, k), Select(cp.eq(ca), Sym("a_new") + g_k, Sym("a_new"))),
        Store("dists", (cb, p, k), Select(cp.eq(cb), Sym("b_new") + g_k, Sym("b_new"))),
        If(cp.ne(ca).logical_and(cp.ne(cb)), [Store("dists", (cp, p, k), g_k, "+=")]),
    ])

    block = [
        Let("base", Sym("s0") + blk * COAL_LANES, ctype="long"),
        Let("nl", smin(Sym("cnt") - blk * COAL_LANES, Const(COAL_LANES)), ctype="long"),
        *(LocalArray(t, MAX_NKR, lanes=COAL_LANES)
          for t in ("A", "B", "RS", "CS", "G", "T0", "T1")),
        *(LocalArray(v, COAL_LANES) for v in ("W", "BIND")),
        # Gather: a short block repeats its last point in the spare
        # lanes, which compute but are never scattered.
        lanes([
            Let("q", Load("pts", (Sym("base") + smin(ln, nl - 1),)), ctype="long"),
            Store("W", (ln,), Load("ws", (Sym("q"),))),
            Loop("i", Const(0), na, [
                Store("A", (i, ln), Load("dists", (ca, Sym("q"), i)))
            ]),
            Loop("j", Const(0), nb, [
                Store("B", (j, ln), Load("dists", (cb, Sym("q"), j)))
            ]),
        ]),
        *losses(),
        lanes([Store("BIND", (ln,), Const(0.0))]),
        flag_binding("A", i, na),
        flag_binding("B", j, nb),
        Decl("binding", "double", Const(0.0)),
        lanes([Assign("binding", Sym("binding") + vec("BIND"))]),
        If(Sym("binding").gt(Const(0.0)), [
            limit("A", i, na),
            limit("B", j, nb),
            *losses(),
        ]),
        clear("G"),
        *triangle("A", i, na, "B", j, nb),
        *triangle("B", j, nb, "A", i, na),
        Loop("i", Const(0), smin(na, nb), [
            Let("wl", Load("w_lo", (i, i))),
            Let("k5", Load("k500", (ix, i, i))),
            Let("kd", Load("kdel", (ix, i, i))),
            Let("dst", Select((i + 1).lt(nkr), i + 1, nkr - 1), ctype="long"),
            lanes([
                Store(
                    "G",
                    (Sym("dst"), ln),
                    (at("A", i) * at("B", i))
                    * (Sym("wl") * (Sym("k5") + w * Sym("kd"))),
                    "+=",
                )
            ]),
        ]),
        Loop("k", Const(0), nkr, [
            lanes([Store("G", (k, ln), g_k * Sym("hdt"))])
        ]),
        If(selfc.ne(Const(0)), [scatter_self], [scatter_pair]),
    ]

    select = Loop("p", Sym("s0"), Sym("s1"), [
        If(
            Load("gate", (ix, p))
            .ne(Const(0))
            .logical_and(Load("sums", (ca, p)).gt(Sym("nmin")))
            .logical_and(Load("sums", (cb, p)).gt(Sym("nmin"))),
            [
                Store("pts", (Sym("s0") + Sym("cnt"),), p),
                Assign("occ_a", smax(Load("occ", (ca, p)), Sym("occ_a"))),
                Assign("occ_b", smax(Load("occ", (cb, p)), Sym("occ_b"))),
                Assign("cnt", Sym("cnt") + 1),
            ],
        )
    ])

    segment = [
        Let("s0", Load("seg", (s, Const(0))), ctype="long"),
        Let("s1", Load("seg", (s, Const(1))), ctype="long"),
        Decl("cnt", "long", Const(0)),
        Decl("occ_a", "long", Const(0)),
        Decl("occ_b", "long", Const(0)),
        select,
        Let("na", smax(Sym("occ_a"), Const(1)), ctype="long"),
        Let("nb", smax(Sym("occ_b"), Const(1)), ctype="long"),
        Loop("blk", Const(0), (Sym("cnt") + (COAL_LANES - 1)) / COAL_LANES, block),
    ]

    interaction = Loop("ix", Const(0), Sym("nix"), [
        Let("ca", Load("ixinfo", (ix, Const(0))), ctype="long"),
        Let("cb", Load("ixinfo", (ix, Const(1))), ctype="long"),
        Let("cp", Load("ixinfo", (ix, Const(2))), ctype="long"),
        Let("selfc", Load("ixinfo", (ix, Const(3))), ctype="long"),
        Let("half", Select(selfc.ne(Const(0)), Const(0.5), Const(1.0))),
        Let("hdt", half * dt),
        Loop("s", Const(0), Sym("nseg"), segment),
    ])

    npts = Sym("npts")
    return Kernel(
        name="coal_bott_new",
        params=(
            ArrayParam(
                "dists", strides=(nkr, Const(1)), intent="inout", ptr_table=True
            ),
            ArrayParam("sums", strides=(npts, Const(1)), intent="inout"),
            ArrayParam("occ", strides=(npts, Const(1)), ctype="long"),
            ArrayParam("gate", strides=(npts, Const(1)), ctype="unsigned char"),
            ArrayParam("ws", strides=(Const(1),)),
            ArrayParam("k500", strides=(nkr * nkr, nkr, Const(1))),
            ArrayParam("kdel", strides=(nkr * nkr, nkr, Const(1))),
            ArrayParam("w_lo", strides=(nkr, Const(1))),
            ArrayParam("w_hi", strides=(nkr, Const(1))),
            ArrayParam("ixinfo", strides=(Const(4), Const(1)), ctype="long"),
            ArrayParam("seg", strides=(Const(2), Const(1)), ctype="long"),
            ArrayParam("pts", strides=(Const(1),), ctype="long", intent="scratch"),
            ScalarParam("nix", "long"),
            ScalarParam("nseg", "long"),
            ScalarParam("npts", "long"),
            ScalarParam("nkr", "long"),
            ScalarParam("dt"),
            ScalarParam("nmin"),
        ),
        body=[interaction],
        doc=(
            "coal_bott_new: every interaction over the gathered collision "
            "points, interactions serial (selection cascade), points in "
            "lane blocks held as (bin, lane) tiles so the innermost loop "
            "runs over grid points."
        ),
    )


_specs = [
    loopir.register_kernel(
        loopir.KernelSpec(
            name=name, build=build, transform=transform.plan_host
        )
    )
    for name, build in (
        ("sed_sweep", build_sed_sweep_ir),
        ("remap_scatter", build_remap_scatter_ir),
        ("coal_bott_new", build_coal_bott_new_ir),
    )
]

_c_double_p = ctypes.POINTER(ctypes.c_double)
_c_long_p = ctypes.POINTER(ctypes.c_long)


def _declare(lib: ctypes.CDLL) -> None:
    lib.sed_sweep.restype = None
    lib.sed_sweep.argtypes = [
        ctypes.POINTER(_c_double_p),  # dists
        _c_double_p,  # courant
        _c_double_p,  # masses
        _c_double_p,  # precip
        ctypes.c_long, ctypes.c_long,  # nm, nsp
        ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_long,
        # ni, nk, nj, nkr
        ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_long,
        # sm, si, sk, sj
        ctypes.c_long, ctypes.c_long, ctypes.c_long,  # pm, psi, psj
        ctypes.POINTER(ctypes.c_ubyte),  # active
    ]
    lib.remap_scatter.restype = None
    lib.remap_scatter.argtypes = [
        _c_double_p, _c_double_p,
        ctypes.POINTER(ctypes.c_long),
        _c_double_p,
        ctypes.c_long, ctypes.c_long,
    ]
    lib.coal_bott_new.restype = None
    lib.coal_bott_new.argtypes = [
        ctypes.POINTER(_c_double_p),  # dists
        _c_double_p,  # sums
        _c_long_p,  # occ
        ctypes.POINTER(ctypes.c_ubyte),  # gate
        _c_double_p,  # ws
        _c_double_p, _c_double_p,  # k500, kdel
        _c_double_p, _c_double_p,  # w_lo, w_hi
        _c_long_p, _c_long_p, _c_long_p,  # ixinfo, seg, pts
        ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_long,
        # nix, nseg, npts, nkr
        ctypes.c_double, ctypes.c_double,  # dt, nmin
    ]


# Derive annotations, verify, and emit the C source; an illegal
# transformation raises IRVerificationError here, at import, before
# any C exists — loud by design.
_module = cgen.build_module(
    "fsbm_kernels",
    [spec.final_kernel() for spec in _specs],
    disable_env=DISABLE_ENV,
    build_dir=Path(__file__).resolve().parent / "_cbuild",
    setup=_declare,
    banner=(
        "Generated by repro.codee.cgen from the sed_sweep/remap_scatter/"
        "coal_bott_new loop IR; annotations derived by "
        "repro.codee.transform. Do not edit."
    ),
)

#: The generated translation unit (kept for introspection/diagnostics).
C_SOURCE = _module.source

#: Why the kernels are unavailable ("" while they are); diagnostics.
load_error: str = ""

_path_traced = False


def load_kernels() -> ctypes.CDLL | None:
    """The compiled physics kernels, or ``None`` (use numpy).

    The underlying :class:`~repro.core.cjit.CJitModule` records the
    one-time ``cjit.compile``/``cjit.load`` spans; this wrapper adds a
    single instant event marking which path (compiled vs numpy
    fallback) the physics resolved to, so traces are self-describing.
    """
    global load_error, _path_traced
    lib = _module.load()
    load_error = _module.load_error
    if not _path_traced and tracer.enabled():
        _path_traced = True
        tracer.instant(
            "fsbm_kernels.path",
            cat="jit",
            attrs={"compiled": lib is not None, "error": load_error},
        )
    return lib


def _dptr(arr: np.ndarray) -> ctypes.POINTER(ctypes.c_double):
    return arr.ctypes.data_as(_c_double_p)


def sed_sweep(
    lib: ctypes.CDLL,
    dists: list[np.ndarray],
    courant: np.ndarray,
    masses: np.ndarray,
    precip: np.ndarray,
) -> np.ndarray | None:
    """Run the fused sedimentation sweep in place; per-member presence.

    ``dists`` holds every species' member-stacked ``(nm, ni, nk, nj,
    nkr)`` view (views are fine as long as the bin axis is unit-stride
    and all species share shapes and strides); ``precip`` is the
    ``(nm, ni, nj)`` float64 surface accumulator; ``courant`` is
    ``(nsp, nk, nkr)`` and ``masses`` ``(nsp, nkr)``, both C-contiguous
    float64 and shared by every member. Returns the ``(nm, nsp)``
    ``active`` flags, or ``None`` when the layout is unsupported and
    the caller must take the numpy path.
    """
    nsp = len(dists)
    ref = dists[0]
    nm, ni, nk, nj, nkr = ref.shape
    itemsize = ref.itemsize
    if (
        nkr > MAX_NKR
        or ref.dtype != np.float64
        or precip.dtype != np.float64
        or precip.shape != (nm, ni, nj)
        or ref.strides[4] != itemsize
        or any(d.shape != ref.shape or d.strides != ref.strides for d in dists)
    ):
        return None
    ptrs = (_c_double_p * nsp)(*[_dptr(d) for d in dists])
    active = np.zeros((nm, nsp), dtype=np.uint8)
    # Serial emission (transform.plan_host) keeps the per-row flux
    # LocalArray on the stack — no hoisted scratch param.
    lib.sed_sweep(
        ptrs,
        _dptr(courant),
        _dptr(masses),
        _dptr(precip),
        nm, nsp, ni, nk, nj, nkr,
        ref.strides[0] // itemsize,
        ref.strides[1] // itemsize,
        ref.strides[2] // itemsize,
        ref.strides[3] // itemsize,
        precip.strides[0] // itemsize,
        precip.strides[1] // itemsize,
        precip.strides[2] // itemsize,
        active.ctypes.data_as(ctypes.POINTER(ctypes.c_ubyte)),
    )
    return active


def remap_scatter(
    lib: ctypes.CDLL,
    n_live: np.ndarray,
    w_hi: np.ndarray,
    k_idx: np.ndarray,
    out: np.ndarray,
) -> None:
    """KO-remap deposit of ``(npts, nkr)`` spectra into ``out``."""
    npts, nkr = n_live.shape
    n_live = np.ascontiguousarray(n_live, dtype=np.float64)
    w_hi = np.ascontiguousarray(w_hi, dtype=np.float64)
    k_idx = np.ascontiguousarray(k_idx, dtype=np.int64)
    lib.remap_scatter(
        _dptr(n_live),
        _dptr(w_hi),
        k_idx.ctypes.data_as(ctypes.POINTER(ctypes.c_long)),
        _dptr(out),
        npts, nkr,
    )


def _fits(arr: np.ndarray, shape: tuple, dtype) -> bool:
    return arr.shape == shape and arr.dtype == dtype and arr.flags.c_contiguous


def coal_bott_new(
    lib: ctypes.CDLL,
    dists: list[np.ndarray],
    sums: np.ndarray,
    occ: np.ndarray,
    gate: np.ndarray,
    ws: np.ndarray,
    k500: np.ndarray,
    kdel: np.ndarray,
    w_lo: np.ndarray,
    w_hi: np.ndarray,
    ixinfo: np.ndarray,
    seg: np.ndarray,
    dt: float,
    nmin: float,
) -> bool:
    """Run every interaction of one collision step in place.

    ``dists`` holds each species' C-contiguous float64 ``(npts, nkr)``
    rows; ``sums`` (``(nsp, npts)``, updated in place) the running
    species sums the selection tests; ``occ`` the pre-step occupied-bin
    counts (``(nsp, npts)`` int64); ``gate`` the ``(nix, npts)``
    temperature gates; ``ws`` the pressure weights; ``k500``/``kdel``
    the ``(nix, nkr, nkr)`` kernel tables; ``w_lo``/``w_hi`` the
    ``(nkr, nkr)`` split tables; ``ixinfo`` rows ``(collector,
    collected, product, self)`` as species indices; ``seg`` the
    ``(nseg, 2)`` member segments, ordered and disjoint. Returns
    ``False`` (nothing touched) when the distributions' layout is
    unsupported and the caller must use numpy; raises ``ValueError``
    on malformed tables, indices or segments.
    """
    npts, nkr = dists[0].shape
    if nkr > MAX_NKR or not all(_fits(d, (npts, nkr), np.float64) for d in dists):
        return False
    nsp, nix, nseg = len(dists), len(ixinfo), len(seg)
    expected = (
        (sums, (nsp, npts), np.float64),
        (occ, (nsp, npts), np.int64),
        (gate, (nix, npts), np.uint8),
        (ws, (npts,), np.float64),
        (k500, (nix, nkr, nkr), np.float64),
        (kdel, (nix, nkr, nkr), np.float64),
        (w_lo, (nkr, nkr), np.float64),
        (w_hi, (nkr, nkr), np.float64),
        (ixinfo, (nix, 4), np.int64),
        (seg, (nseg, 2), np.int64),
    )
    # The kernel indexes its stack tiles by occupancy and the species
    # table by ixinfo, and compacts each segment's points in place.
    if not (
        all(_fits(*e) for e in expected)
        and (npts == 0 or 0 <= occ.min() and occ.max() <= nkr)
        and (nix == 0 or 0 <= ixinfo[:, :3].min() and ixinfo[:, :3].max() < nsp)
        and (nseg == 0 or (0 <= seg[:, 0]).all() and (seg[:, 0] <= seg[:, 1]).all()
             and (seg[:, 1] <= npts).all()
             and (seg[1:, 0] >= seg[:-1, 1]).all())
    ):
        raise ValueError("coal_bott_new: malformed kernel inputs")
    ptrs = (_c_double_p * len(dists))(*[_dptr(d) for d in dists])
    # Per-call scratch: concurrent callers (thread ranks) never share it.
    pts = np.empty(max(npts, 1), dtype=np.int64)

    def lptr(arr: np.ndarray):
        return arr.ctypes.data_as(_c_long_p)

    lib.coal_bott_new(
        ptrs,
        _dptr(sums),
        lptr(occ),
        gate.ctypes.data_as(ctypes.POINTER(ctypes.c_ubyte)),
        _dptr(ws),
        _dptr(k500),
        _dptr(kdel),
        _dptr(w_lo),
        _dptr(w_hi),
        lptr(ixinfo),
        lptr(seg),
        lptr(pts),
        nix, nseg, npts, nkr,
        dt, nmin,
    )
    return True
