"""Runtime-compiled C kernels for the FSBM physics hot spots.

After the fused transport engine (PR 3), profiling shows the numpy
physics path dominating the model step: the per-species sedimentation
sweep materializes a full-field ``flux`` temporary per species, the
condensation growth runs its remap and limiter as a chain of
full-size temporaries per species, and the collision apply is a
sequence of small BLAS calls. They are the kind of fragmented,
temporary-heavy loop the paper's stage-3 transformation collapses; this
module is their host-side analog, built on the shared
:mod:`repro.core.cjit` infrastructure (source-hash-cached ``.so``,
``-ffp-contract=off``, transparent numpy fallback).

Every kernel here is defined as a `repro.codee.loopir` kernel
(:func:`build_mp_candidates_ir`, :func:`build_sed_sweep_ir`,
:func:`build_onecond_ir`,
:func:`build_freeze_melt_ir`, :func:`build_gather_rows_ir`,
:func:`build_scatter_rows_ir`, :func:`build_row_stats_ir`,
:func:`build_coal_bott_new_ir`) rather than a hand-written C string:
the transformation engine (`repro.codee.transform`) analyzes them,
the static verifier (`repro.codee.irverify`) checks the result, and
`repro.codee.cgen` emits the C that :mod:`repro.core.cjit` compiles.
The analysis is
honest about these loops — within one ensemble member the
sedimentation nest's ``k``-carried flux recurrence and its
``active``/``precip`` accumulations make it provably
*non*-parallelizable, and the condensation and freezing row loops
store through a row list or a species table and sit below the
parallel-overhead floor. Every kernel is registered under the host
plan (:func:`repro.codee.transform.plan_host`), like the transport
stencil: ``sed_sweep``'s member loop is provably independent but
emitted serial, because rank-level threads/processes own the cores, so
the fsbm translation unit holds no ``omp parallel`` region (only
``omp simd`` lane loops). No kernel keeps static scratch: thread ranks
call them concurrently.

The condensation, freezing and collision kernels take species rows at
any row stride with unit-stride bins, so they run in place on the
sweep's packed gather (every species a column slice of one
point-major buffer). Equivalence to the numpy references (asserted by
``tests/fsbm/test_native_kernels.py``):

* ``mp_candidates`` — the scan that picks the cells the microphysics
  predicate is evaluated on: it marks a superset of the cells the
  predicate selects, against a lower bound of the saturation mixing
  ratio read from a 1 K table instead of ``exp``, so evaluating the
  numpy predicate on the marked cells selects exactly the cells it
  selects on the whole patch.
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
  reports per-species presence in ``active``). It reads a (cell,
  species) row only when the cell's occupancy bit for the species is
  set, and sets the bit of each cell a row deposits into.
* ``onecond`` — one species' condensational growth over a list of
  rows (:func:`build_onecond_ir`): growth, a comparison search on the
  doubling ladder, the Kovetz–Olund deposit, the saturation limiter
  and the blend, with the vapor, heat and CCN updates. It agrees with
  the numpy engine of `repro.fsbm.condensation` to 1e-12 of each row's
  largest bin: the kernel sums serially in ascending bin order where
  the numpy engine reduces pairwise within rows, and a mass within
  rounding of a ladder bin may split where ``log2`` puts it in one
  bin.
* ``freeze_melt`` — freezing and melting of every row
  (:func:`build_freeze_melt_ir`); a row whose gate is off is left
  untouched, and only the latent-heat sums' order differs from the
  numpy engine of `repro.fsbm.freezing`.
* ``gather_rows``/``scatter_rows`` — the sweep's packed row gather
  and its scatter: one contiguous copy per listed row, bit for bit the
  fancy index they replace; the scatter also writes each cell's
  occupancy bits from the row it copies.
* ``row_stats`` — per-species sums of packed rows, serial in ascending
  bin order, and the occupied-bin counts above ``N_EPS``, in one read
  of each row; the counts equal numpy's, the sums differ from its
  pairwise ones by rounding.
* ``coal_bott_new`` — every collision interaction of a step in one
  call (:func:`build_coal_bott_new_ir`), on the listed rows of the
  packed gather in place. The interaction loop is
  serial; the points inside it run in lane blocks whose ``(bin,
  lane)`` tiles put the loop over grid points innermost, where the
  transformation engine proves it independent and marks it ``simd``.
  It agrees with the numpy sparse engine of `repro.fsbm.coal_bott` to
  1e-12 of each point's largest bin (only summation order and the
  per-entry pressure interpolation differ).

A row's result never depends on the other rows of its call, so member
and rank batching stay bit-identical on every kernel.

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
    Select,
    Store,
    Sym,
    Un,
)
from repro.constants import EPS, NKR, T_FREEZE_CUTOFF
from repro.core import cjit
from repro.fsbm.state import N_EPS
from repro.fsbm.thermo import saturation_vapor_pressure_water

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
    ``(pm, psi, psj)``. The bin count is the model's ``NKR``, a
    constant of the emitted source, so the compiler knows every bin
    loop's trip count; the wrapper sends any other bin count to numpy.

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
    those of a one-member run. ``occ`` is the cells' occupancy field
    (strides ``(om, oi, ok, oj)``): a row whose bit is clear is exact
    zeros and is not read at all (a cell with no bit set costs one
    test), and the cell below a row that deposits gets the species'
    bit, once per cell.

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
    nkr = Const(NKR)

    def dist_at(kk):
        return (sp, m, i, kk, j, b)

    bin_loop = lambda body: Loop("b", Const(0), nkr, body)

    # An or-reduction, not a guarded assignment, so the presence scan
    # vectorizes.
    scan = bin_loop(
        [
            Assign(
                "rownz",
                Bin("|", Sym("rownz"), Load("dists", dist_at(k)).ne(Const(0.0))),
            )
        ]
    )

    def update(carry) -> Loop:
        """One pass over the row: its flux from the pre-update value,
        subtracted in place, then ``carry`` takes it on."""
        return bin_loop(
            [
                Let("f", Load("dists", dist_at(k)) * Load("courant", (sp, k, b))),
                Store("dists", dist_at(k), Sym("f"), "-="),
                carry,
            ]
        )

    to_precip = [
        Decl("acc", "double", Const(0.0)),
        update(Assign("acc", Sym("acc") + Sym("f") * Load("masses", (sp, b)))),
        Store("precip", (m, i, j), Sym("acc"), "+="),
    ]
    to_below = [
        update(Store("dists", dist_at(k - 1), Sym("f"), "+=")),
        # The cell below now holds this species.
        Assign("dbits", Bin("|", Sym("dbits"), Bin("<<", Const(1), sp))),
    ]
    below = (m, i, k - 1, j)
    present = Bin("&", Bin(">>", Sym("bits"), sp), Const(1))

    per_row = [
        Decl("rownz", "int", Const(0)),
        scan,
        If(
            Sym("rownz"),
            [
                Store("active", (m, sp), Const(1)),
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
                                [
                                    Let("bits", Load("occ", (m, i, k, j)), ctype="long"),
                                    # An empty cell: one test.
                                    If(Sym("bits").ne(Const(0)), [
                                        Decl("dbits", "long", Const(0)),
                                        Loop("sp", Const(0), Sym("nsp"), [
                                            If(present, per_row),
                                        ]),
                                        If(Sym("dbits").ne(Const(0)), [
                                            Store(
                                                "occ", below,
                                                Bin("|", Load("occ", below), Sym("dbits")),
                                            ),
                                        ]),
                                    ]),
                                ],
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
            ArrayParam(
                "occ",
                strides=(Sym("om"), Sym("oi"), Sym("ok"), Sym("oj")),
                ctype="unsigned char",
                intent="inout",
            ),
            ScalarParam("om", "long"),
            ScalarParam("oi", "long"),
            ScalarParam("ok", "long"),
            ScalarParam("oj", "long"),
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
            "flags; rows whose occupancy bit is clear are skipped, and "
            "each cell a row deposits into gets its bit."
        ),
    )


#: Halvings that locate any mass on a ladder of up to ``MAX_NKR`` bins.
LADDER_STEPS = (MAX_NKR - 2).bit_length()


def _clip(x, lo, hi) -> Select:
    """``np.clip(x, lo, hi)`` for ordered values (NaN passes through)."""
    return Select(x.lt(lo), lo, Select(x.gt(hi), hi, x))


def _nonneg(x) -> Select:
    """``np.maximum(x, 0.0)``: keeps NaN and -0.0, like the reference."""
    return Select(x.lt(Const(0.0)), Const(0.0), x)


def build_onecond_ir() -> Kernel:
    """One species' condensational growth step as loop IR, in place.

    ``n`` holds the species' ``(npts, nkr)`` rows at row stride ``rs``
    (a column slice of the packed gather, or a contiguous array);
    ``rows`` lists the rows to grow, and ``gc``/``qs`` (the growth
    coefficient and the saturation mixing ratio) are aligned with that
    list. ``rho``/``qv``/``t``/``ccn`` are per-row arrays; the last
    three are updated. ``cr`` is the per-bin growth prefactor
    ``4 pi rho_p f r`` and ``masses`` the ladder. Per listed row, in
    the numpy reference's operation order:

    1. the growth ``dm = ((cr gc) s) dt`` with ``s = qv / qs - 1``;
    2. a particle whose new mass falls below half the smallest bin
       mass evaporates (its number is summed into ``evap``); any other
       positive bin finds its ladder interval by comparison search —
       :data:`LADDER_STEPS` branch-free halvings, so no ``log2``
       rounding decides a bin — and splits Kovetz–Olund between the
       interval's two bins (``w_hi`` clipped to ``[0, 1]``);
    3. the two-bin deposit accumulates per bin into ``lo``/``hi``
       (bins ascending), and the remapped row is ``lo + hi``;
    4. the remap's mass change ``sum_b (n_new - n) x_b``;
    5. the saturation limiter ``scale``: condensation may not take the
       vapor below saturation, nor evaporation above it;
    6. the blend ``n + scale (n_new - n)`` is stored;
    7. the blended mass change gives ``dq``: ``qv -= dq``,
       ``t += lcp dq``, and with ``credit`` set, ``ccn += scale evap``.

    Every sum runs serially over ascending bins, so a row's result
    depends on nothing but its own inputs. The mass changes are summed
    per bin, not as the difference of the old and new row masses: the
    two masses nearly cancel, and their difference would carry the
    rounding of the whole row's mass into the limiter.
    """
    q, b, it = Sym("q"), Sym("b"), Sym("it")
    p, nkr = Sym("p"), Sym("nkr")
    x = lambda k: Load("masses", (k,))  # noqa: E731
    nv = Sym("nv")

    search = [
        Let("mc", _clip(Sym("nm"), x(Const(0)), x(nkr - 1))),
        Decl("kl", "long", Const(0)),
        Decl("kh", "long", nkr - 1),
        Loop("it", Const(0), Const(LADDER_STEPS), [
            Let("mid", (Sym("kl") + Sym("kh")) / 2, ctype="long"),
            Let("up", Sym("mc").ge(x(Sym("mid"))), ctype="int"),
            Assign("kl", Select(Sym("up"), Sym("mid"), Sym("kl"))),
            Assign("kh", Select(Sym("up"), Sym("kh"), Sym("mid"))),
        ]),
        Let("wr", (Sym("mc") - x(Sym("kl"))) / (x(Sym("kl") + 1) - x(Sym("kl")))),
        Let("wh", _clip(Sym("wr"), Const(0.0), Const(1.0))),
        Store("lo", (Sym("kl"),), nv * (Const(1.0) - Sym("wh")), "+="),
        Store("hi", (Sym("kl") + 1,), nv * Sym("wh"), "+="),
    ]
    grow = Loop("b", Const(0), nkr, [
        Let("nv", Load("n", (p, b))),
        Let("nm", x(b) + (((Load("cr", (b,)) * Sym("g")) * Sym("s")) * Sym("dt"))),
        If(
            Sym("nm").lt(Sym("xcut")),
            [Assign("evap", Sym("evap") + nv)],
            [If(nv.gt(Const(0.0)), search)],
        ),
    ])
    remapped = Loop("b", Const(0), nkr, [
        Let("nn", Load("lo", (b,)) + Load("hi", (b,))),
        Store("lo", (b,), Sym("nn")),
        Assign("dmass0", Sym("dmass0") + (Sym("nn") - Load("n", (p, b))) * x(b)),
    ])
    dq0, adq = Sym("dq0"), Sym("adq")
    limiter = [
        Let("dq0", Sym("dmass0") / Load("rho", (p,))),
        Let(
            "room",
            Select(
                dq0.ge(Const(0.0)),
                _nonneg(Sym("qvp") - Sym("qsat")),
                _nonneg(Sym("qsat") - Sym("qvp")),
            ),
        ),
        Let("adq", Select(dq0.lt(Const(0.0)), -dq0, dq0)),
        Let(
            "sc",
            Select(
                adq.gt(Sym("room")),
                Sym("room") / Select(adq.lt(Const(1e-300)), Const(1e-300), adq),
                Const(1.0),
            ),
        ),
        Let("scale", _clip(Sym("sc"), Const(0.0), Const(1.0))),
    ]
    blend = Loop("b", Const(0), nkr, [
        Let("nv", Load("n", (p, b))),
        Let("bl", nv + Sym("scale") * (Load("lo", (b,)) - nv)),
        Store("n", (p, b), Sym("bl")),
        Assign("dmass", Sym("dmass") + (Sym("bl") - nv) * x(b)),
    ])
    per_row = [
        Let("p", Load("rows", (q,)), ctype="long"),
        Let("g", Load("gc", (q,))),
        Let("qsat", Load("qs", (q,))),
        Let("qvp", Load("qv", (p,))),
        Let("s", (Sym("qvp") / Sym("qsat")) - Const(1.0)),
        LocalArray("lo", MAX_NKR),
        LocalArray("hi", MAX_NKR),
        Loop("b", Const(0), nkr, [
            Store("lo", (b,), Const(0.0)), Store("hi", (b,), Const(0.0))
        ]),
        Decl("evap", "double", Const(0.0)),
        grow,
        Decl("dmass0", "double", Const(0.0)),
        remapped,
        *limiter,
        Decl("dmass", "double", Const(0.0)),
        blend,
        Let("dq", Sym("dmass") / Load("rho", (p,))),
        Store("qv", (p,), Sym("qvp") - Sym("dq")),
        Store("t", (p,), Load("t", (p,)) + Sym("lcp") * Sym("dq")),
        If(Sym("credit").ne(Const(0)), [
            Store("ccn", (p,), Load("ccn", (p,)) + Sym("scale") * Sym("evap"))
        ]),
    ]
    one = (Const(1),)
    return Kernel(
        name="onecond",
        params=(
            ArrayParam("n", strides=(Sym("rs"), Const(1)), intent="inout"),
            ArrayParam("rows", strides=one, ctype="long"),
            ArrayParam("gc", strides=one),
            ArrayParam("qs", strides=one),
            ArrayParam("rho", strides=one),
            ArrayParam("qv", strides=one, intent="inout"),
            ArrayParam("t", strides=one, intent="inout"),
            ArrayParam("ccn", strides=one, intent="inout"),
            ArrayParam("cr", strides=one),
            ArrayParam("masses", strides=one),
            ScalarParam("nq", "long"),
            ScalarParam("nkr", "long"),
            ScalarParam("rs", "long"),
            ScalarParam("dt"),
            ScalarParam("xcut"),
            ScalarParam("lcp"),
            ScalarParam("credit", "long"),
        ),
        body=[Loop("q", Const(0), Sym("nq"), per_row)],
        doc=(
            "onecond: one species' condensational growth over a list of "
            "rows, in place: growth, ladder search and Kovetz-Olund "
            "deposit, saturation limiter, blend; serial sums over "
            "ascending bins."
        ),
    )


def build_freeze_melt_ir() -> Kernel:
    """Freezing and melting of every row as loop IR, in place.

    ``dists[sp]`` points at species ``sp``'s ``(npts, nkr)`` rows, all
    at row stride ``rs``. Per row, in the numpy reference's order:

    * freezing — where ``frac`` (the per-row frozen fraction, zero
      where the gate is off) is nonzero, that fraction of every liquid
      bin moves to the plate bin (below ``hail_bin``) or the hail bin
      of the same mass, and ``t`` gains the latent heat of the frozen
      mass;
    * melting — where the post-freezing ``t`` exceeds ``t0``, each
      melting species ``msp[s]`` loses the fraction ``mfrac[s]`` of
      every bin to the liquid bin of the same mass, and ``t`` loses the
      latent heat of each species' melted mass in turn.
      ``melted[p, s]`` records whether any of that moved number was
      nonzero (the reference's per-species skip test).

    A row whose gate is off is left untouched, so running every row
    equals the reference's member-level gating. Mass sums run serially
    over ascending bins.
    """
    p, b, s = Sym("p"), Sym("b"), Sym("s")
    nkr, liq = Sym("nkr"), Sym("liq")
    mass_b = Load("masses", (b,))
    t_p = Load("t", (p,))
    latent = Sym("lcp") * (Sym("acc") / Load("rho", (p,)))

    freeze = [
        Decl("acc", "double", Const(0.0)),
        Loop("b", Const(0), nkr, [
            Let("f", Load("dists", (liq, p, b)) * Sym("fr")),
            Let("dst", Select(b.lt(Sym("hail_bin")), Sym("pla"), Sym("hail")),
                ctype="long"),
            Store("dists", (Sym("dst"), p, b), Sym("f"), "+="),
            Store("dists", (liq, p, b), Sym("f"), "-="),
            Assign("acc", Sym("acc") + Sym("f") * mass_b),
        ]),
        Store("t", (p,), t_p + latent),
    ]
    melt_one = [
        Let("sp", Load("msp", (s,)), ctype="long"),
        Let("mf", Load("mfrac", (s,))),
        Decl("acc", "double", Const(0.0)),
        Decl("nz", "int", Const(0)),
        Loop("b", Const(0), nkr, [
            Let("md", Load("dists", (Sym("sp"), p, b)) * Sym("mf")),
            Store("dists", (Sym("sp"), p, b), Sym("md"), "-="),
            Store("dists", (liq, p, b), Sym("md"), "+="),
            Assign("acc", Sym("acc") + Sym("md") * mass_b),
            If(Sym("md").ne(Const(0.0)), [Assign("nz", Const(1))]),
        ]),
        Store("t", (p,), t_p - latent),
        Store("melted", (p, s), Sym("nz")),
    ]
    per_row = [
        Let("fr", Load("frac", (p,))),
        If(Sym("fr").ne(Const(0.0)), freeze),
        Let("warm", t_p.gt(Sym("t0")), ctype="int"),
        Loop("s", Const(0), Sym("nmelt"), [
            Store("melted", (p, s), Const(0)),
            If(Sym("warm"), melt_one),
        ]),
    ]
    one = (Const(1),)
    return Kernel(
        name="freeze_melt",
        params=(
            ArrayParam(
                "dists", strides=(Sym("rs"), Const(1)), intent="inout",
                ptr_table=True,
            ),
            ArrayParam("frac", strides=one),
            ArrayParam("t", strides=one, intent="inout"),
            ArrayParam("rho", strides=one),
            ArrayParam("masses", strides=one),
            ArrayParam("msp", strides=one, ctype="long"),
            ArrayParam("mfrac", strides=one),
            ArrayParam(
                "melted", strides=(Sym("nmelt"), Const(1)),
                ctype="unsigned char", intent="out",
            ),
            ScalarParam("npts", "long"),
            ScalarParam("nkr", "long"),
            ScalarParam("rs", "long"),
            ScalarParam("nmelt", "long"),
            ScalarParam("liq", "long"),
            ScalarParam("pla", "long"),
            ScalarParam("hail", "long"),
            ScalarParam("hail_bin", "long"),
            ScalarParam("t0"),
            ScalarParam("lcp"),
        ),
        body=[Loop("p", Const(0), Sym("npts"), per_row)],
        doc=(
            "freeze_melt: per-row freezing of liquid to plates/hail and "
            "melting of every ice species to liquid, in place, with "
            "latent heating and per-species melt flags."
        ),
    )

def build_gather_rows_ir() -> Kernel:
    """The sweep's packed row gather as loop IR.

    ``src`` is addressed from its first element; row ``p`` of ``dst``
    (``(npts, nc)``, contiguous) is the ``nc`` unit-stride elements of
    ``src`` starting at element offset ``offs[p]``. Each row is one
    contiguous copy, the memcpy the fancy index performs per point.
    """
    p, c = Sym("p"), Sym("c")
    return Kernel(
        name="gather_rows",
        params=(
            ArrayParam("src", strides=(Const(1),)),
            ArrayParam("dst", strides=(Sym("nc"), Const(1)), intent="out"),
            ArrayParam("offs", strides=(Const(1),), ctype="long"),
            ScalarParam("npts", "long"),
            ScalarParam("nc", "long"),
        ),
        body=[Loop("p", Const(0), Sym("npts"), [
            Let("o", Load("offs", (p,)), ctype="long"),
            Loop("c", Const(0), Sym("nc"), [
                Store("dst", (p, c), Load("src", (Sym("o") + c,))),
            ]),
        ])],
        doc=(
            "gather_rows: copy nc unit-stride elements at each listed "
            "element offset of src into consecutive rows of dst."
        ),
    )


def build_scatter_rows_ir() -> Kernel:
    """The inverse of :func:`build_gather_rows_ir`: row ``p`` of ``src``
    goes back to the ``nc`` elements of ``dst`` at offset ``offs[p]``.
    The offsets are distinct rows, so no element is written twice.

    The row holds ``nsp`` species of ``nc / nsp`` bins; the cell's
    occupancy byte ``occ[ooffs[p]]`` gets exactly the bits of the
    species with a nonzero value in the row."""
    p, s, b = Sym("p"), Sym("s"), Sym("b")
    nkr = Sym("nkr")
    return Kernel(
        name="scatter_rows",
        params=(
            ArrayParam("dst", strides=(Const(1),), intent="inout"),
            ArrayParam("src", strides=(Sym("nc"), Const(1))),
            ArrayParam("offs", strides=(Const(1),), ctype="long"),
            ScalarParam("npts", "long"),
            ScalarParam("nc", "long"),
            ArrayParam(
                "occ", strides=(Const(1),), ctype="unsigned char", intent="inout"
            ),
            ArrayParam("ooffs", strides=(Const(1),), ctype="long"),
            ScalarParam("nsp", "long"),
        ),
        body=[Loop("p", Const(0), Sym("npts"), [
            Let("o", Load("offs", (p,)), ctype="long"),
            Let("nkr", Sym("nc") / Sym("nsp"), ctype="long"),
            Decl("bits", "long", Const(0)),
            Loop("s", Const(0), Sym("nsp"), [
                Decl("nz", "long", Const(0)),
                Loop("b", Const(0), nkr, [
                    Let("v", Load("src", (p, s * nkr + b))),
                    Store("dst", (Sym("o") + s * nkr + b,), Sym("v")),
                    Assign("nz", Bin("|", Sym("nz"), Sym("v").ne(Const(0.0)))),
                ]),
                Assign("bits", Bin("|", Sym("bits"), Bin("<<", Sym("nz"), s))),
            ]),
            Store("occ", (Load("ooffs", (p,)),), Sym("bits")),
        ])],
        doc=(
            "scatter_rows: copy each row of src back to nc unit-stride "
            "elements at its element offset of dst, and write the cell's "
            "occupancy bits from the row."
        ),
    )


def build_row_stats_ir() -> Kernel:
    """Per-species row sums and occupancy of packed rows as loop IR.

    ``bins`` holds ``(npts, nsp * nkr)`` rows at row stride ``rs``,
    species in order. Per row and species: ``sums[p, s]``, the bins
    summed serially in ascending order from 0.0, and ``occ[p, s]``,
    one past the highest bin above ``eps`` (0 when none is) — the
    occupied-bin bound of the collision rectangles. Both come out of
    one read of the row.
    """
    p, s, b = Sym("p"), Sym("s"), Sym("b")
    nkr = Sym("nkr")
    per_species = [
        Decl("acc", "double", Const(0.0)),
        Decl("top", "long", Const(0)),
        Loop("b", Const(0), nkr, [
            Let("v", Load("bins", (p, s * nkr + b))),
            Assign("acc", Sym("acc") + Sym("v")),
            Assign("top", Select(Sym("v").gt(Sym("eps")), b + 1, Sym("top"))),
        ]),
        Store("sums", (p, s), Sym("acc")),
        Store("occ", (p, s), Sym("top")),
    ]
    nsp = Sym("nsp")
    return Kernel(
        name="row_stats",
        params=(
            ArrayParam("bins", strides=(Sym("rs"), Const(1))),
            ArrayParam("sums", strides=(nsp, Const(1)), intent="out"),
            ArrayParam(
                "occ", strides=(nsp, Const(1)), ctype="long", intent="out"
            ),
            ScalarParam("npts", "long"),
            ScalarParam("nsp", "long"),
            ScalarParam("nkr", "long"),
            ScalarParam("rs", "long"),
            ScalarParam("eps"),
        ),
        body=[Loop("p", Const(0), Sym("npts"), [
            Loop("s", Const(0), nsp, per_species),
        ])],
        doc=(
            "row_stats: per-row, per-species serial bin sums and the "
            "occupied-bin count above eps of packed rows."
        ),
    )


#: Grid points per lane block of ``coal_bott_new``: every tile sweep's
#: innermost loop runs over this many points side by side.
COAL_LANES = 8


def build_coal_bott_new_ir() -> Kernel:
    """The whole collision step, all interactions, as loop IR.

    ``dists[sp]`` points at species ``sp``'s rows, all at row stride
    ``rs`` (the packed gather's ``nsp * nkr``, or ``nkr`` for
    contiguous arrays); point ``p`` of the call lives in row
    ``rows[p]``, so the called points are selected in place, and every
    per-point array (``sums``, ``occ``, ``gate``, ``ws``) is indexed by
    ``p``. The interaction loop is outermost and serial: interaction
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
                Assign("acc", Sym("acc") + Load("dists", (Sym("sp"), pr, k)))
            ]),
            Store("sums", (Sym("sp"), p), Sym("acc")),
        ])

    def scatter(row_body: list) -> Loop:
        return Loop("lane", Const(0), nl, [
            Let("p", Load("pts", (Sym("base") + ln,)), ctype="long"),
            Let("pr", Load("rows", (p,)), ctype="long"),
            Loop("k", Const(0), nkr, row_body),
            refresh_sums(),
        ])

    pr = Sym("pr")
    g_k = at("G", k)
    scatter_self = scatter([
        Let("a_old", Load("dists", (ca, pr, k))),
        Let(
            "a_new",
            Select(
                k.lt(na),
                _nonneg((Sym("a_old") - at("RS", k)) - at("CS", k)),
                Sym("a_old"),
            ),
        ),
        If(
            cp.eq(ca),
            [Store("dists", (ca, pr, k), _nonneg(Sym("a_new") + g_k))],
            [
                Store("dists", (ca, pr, k), Sym("a_new")),
                Store("dists", (cp, pr, k), g_k, "+="),
            ],
        ),
    ])
    scatter_pair = scatter([
        Let("a_old", Load("dists", (ca, pr, k))),
        Let("b_old", Load("dists", (cb, pr, k))),
        Let(
            "a_new",
            Select(k.lt(na), _nonneg(Sym("a_old") - at("RS", k)), Sym("a_old")),
        ),
        Let(
            "b_new",
            Select(k.lt(nb), _nonneg(Sym("b_old") - at("CS", k)), Sym("b_old")),
        ),
        Store("dists", (ca, pr, k), Select(cp.eq(ca), Sym("a_new") + g_k, Sym("a_new"))),
        Store("dists", (cb, pr, k), Select(cp.eq(cb), Sym("b_new") + g_k, Sym("b_new"))),
        If(cp.ne(ca).logical_and(cp.ne(cb)), [Store("dists", (cp, pr, k), g_k, "+=")]),
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
            Let("qr", Load("rows", (Sym("q"),)), ctype="long"),
            Store("W", (ln,), Load("ws", (Sym("q"),))),
            Loop("i", Const(0), na, [
                Store("A", (i, ln), Load("dists", (ca, Sym("qr"), i)))
            ]),
            Loop("j", Const(0), nb, [
                Store("B", (j, ln), Load("dists", (cb, Sym("qr"), j)))
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
                "dists", strides=(Sym("rs"), Const(1)), intent="inout",
                ptr_table=True,
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
            ArrayParam("rows", strides=(Const(1),), ctype="long"),
            ArrayParam("pts", strides=(Const(1),), ctype="long", intent="scratch"),
            ScalarParam("nix", "long"),
            ScalarParam("nseg", "long"),
            ScalarParam("npts", "long"),
            ScalarParam("nkr", "long"),
            ScalarParam("rs", "long"),
            ScalarParam("dt"),
            ScalarParam("nmin"),
        ),
        body=[interaction],
        doc=(
            "coal_bott_new: every interaction over the listed rows of the "
            "collision points, interactions serial (selection cascade), "
            "points in lane blocks held as (bin, lane) tiles so the "
            "innermost loop runs over grid points."
        ),
    )


#: The saturation vapor pressure table of :func:`build_mp_candidates_ir`:
#: ``saturation_vapor_pressure_water`` at 1 K nodes from
#: ``ES_TABLE_T0`` to 350 K, shrunk by :data:`ES_SAFETY`, so entry ``n``
#: is below the numpy value anywhere in ``[T0 + n, T0 + n + 1]``.
ES_TABLE_T0 = 150.0
ES_SAFETY = 1.0 - 1e-9
ES_TABLE = np.ascontiguousarray(
    saturation_vapor_pressure_water(np.arange(ES_TABLE_T0, 351.0)) * ES_SAFETY
)

#: The inputs of ``mp_candidates`` and the axes they take element
#: strides for; j is unit-stride for all but ``p``.
CANDIDATE_INPUTS = (
    ("t", "mik"), ("p", "mikj"), ("qv", "mik"), ("cond", "mik")
)


def build_mp_candidates_ir() -> Kernel:
    """The microphysics candidate scan as loop IR.

    Marks in ``cand`` (contiguous ``(nm, ni, nk, nj)`` bytes, zero on
    entry) every cell the microphysics predicate ``t > T_FREEZE_CUTOFF
    and (cond > N_EPS or qv > 0.98 q_s(t, p))`` could select, and
    counts each member's marks in ``counts``. ``t``, ``qv`` and ``cond``
    are read through their own ``(m, i, k)`` element strides with
    unit-stride j, ``p`` through four (any may be 0: the members share
    it). The ``t``
    and ``cond`` tests are the predicate's own. The ``qv`` test
    compares against a lower bound of ``q_s`` computed without ``exp``:
    the :data:`ES_TABLE` entry at ``t``'s lower node stands in for the
    saturation vapor pressure, the numpy formula's ``min(e, 0.5 p)``
    clamp and ``EPS e / (p - e)`` follow in its operation order, and
    the result shrinks by :data:`ES_SAFETY` again. Each step is
    monotone in ``e`` (``e < p``), so the bound never exceeds numpy's
    ``q_s``, and a cell the predicate selects is always marked. A ``t``
    above the table, or a ``p`` that is not positive (NaN included), is
    marked whenever the ``t`` test holds. Each ``(m, i, k)`` row is
    first only counted, and scanned again to store its marks only when
    it has one.
    """
    m, i, k, j = Sym("m"), Sym("i"), Sym("k"), Sym("j")
    tt, pp, x, on = Sym("tt"), Sym("pp"), Sym("x"), Sym("on")
    es, hp, e, c = Sym("es"), Sym("hp"), Sym("e"), Sym("c")
    cell = (m, i, k, j)
    last = Const(float(len(ES_TABLE) - 1))
    mark = [
        Let("tt", Load("t", cell)),
        Let("pp", Load("p", cell)),
        Let("x", tt - Const(ES_TABLE_T0)),
        # t on the table and p positive (false for NaN either way).
        Let(
            "on",
            Bin(
                "&",
                Bin("&", x.ge(Const(0.0)), x.lt(last)),
                pp.gt(Const(0.0)),
            ),
            ctype="long",
        ),
        # Truncation is the floor on the table.
        Let("ix", Select(on, x, Const(0.0)), ctype="long"),
        Let("es", Load("es_table", (Sym("ix"),))),
        Let("hp", Const(0.5) * pp),
        Let("e", Select(hp.lt(es), hp, es)),
        Let("qlo", ((Const(EPS) * e) / (pp - e)) * Const(ES_SAFETY)),
        Let(
            "c",
            Bin("&", tt.gt(Const(T_FREEZE_CUTOFF)), Bin(
                "|",
                Bin("|", Load("cond", cell).gt(Const(N_EPS)), Un("!", on)),
                Load("qv", cell).gt(Const(0.98) * Sym("qlo")),
            )),
            ctype="long",
        ),
    ]
    nm, ni, nk, nj = Sym("nm"), Sym("ni"), Sym("nk"), Sym("nj")
    rc = Sym("rc")
    row = [
        # Count the row's marks in a loop of 8-byte values only, which
        # vectorizes four cells wide even on short rows (a byte store
        # would make it 32 wide); mark the cells of a row that has any.
        Decl("rc", "long", Const(0)),
        Loop("j", Const(0), nj, [*mark, Assign("rc", rc + c)]),
        If(rc.ne(Const(0)), [
            Loop("j", Const(0), nj, [*mark, Store("cand", cell, c)]),
            Assign("n", Sym("n") + rc),
        ]),
    ]
    nest = Loop("i", Const(0), ni, [Loop("k", Const(0), nk, row)])
    return Kernel(
        name="mp_candidates",
        params=(
            *(
                ArrayParam(name, strides=tuple(
                    Sym(name + ax) if ax in axes else Const(1) for ax in "mikj"
                ))
                for name, axes in CANDIDATE_INPUTS
            ),
            ArrayParam("es_table", strides=(Const(1),)),
            ArrayParam(
                "cand", strides=(ni * nk * nj, nk * nj, nj, Const(1)),
                ctype="unsigned char", intent="out",
            ),
            ArrayParam(
                "counts", strides=(Const(1),), ctype="long", intent="out"
            ),
            ScalarParam("nm", "long"),
            ScalarParam("ni", "long"),
            ScalarParam("nk", "long"),
            ScalarParam("nj", "long"),
            *(
                ScalarParam(name + ax, "long")
                for name, axes in CANDIDATE_INPUTS
                for ax in axes
            ),
        ),
        body=[Loop("m", Const(0), nm, [
            Decl("n", "long", Const(0)),
            nest,
            Store("counts", (m,), Sym("n")),
        ])],
        doc=(
            "mp_candidates: mark every cell the microphysics predicate "
            "could select, against an exp-free lower bound of the "
            "saturation mixing ratio, and count each member's marks."
        ),
    )


_specs = [
    loopir.register_kernel(
        loopir.KernelSpec(
            name=name, build=build, transform=transform.plan_host
        )
    )
    for name, build in (
        ("mp_candidates", build_mp_candidates_ir),
        ("sed_sweep", build_sed_sweep_ir),
        ("onecond", build_onecond_ir),
        ("freeze_melt", build_freeze_melt_ir),
        ("gather_rows", build_gather_rows_ir),
        ("scatter_rows", build_scatter_rows_ir),
        ("row_stats", build_row_stats_ir),
        ("coal_bott_new", build_coal_bott_new_ir),
    )
]

# Derive annotations, verify, and emit the C source; an illegal
# transformation raises IRVerificationError here, at import, before
# any C exists — loud by design.
_module = cgen.build_module(
    "fsbm_kernels",
    [spec.final_kernel() for spec in _specs],
    disable_env=DISABLE_ENV,
    build_dir=Path(__file__).resolve().parent / "_cbuild",
    banner=(
        "Generated by repro.codee.cgen from the mp_candidates/sed_sweep/"
        "onecond/freeze_melt/gather_rows/scatter_rows/row_stats/"
        "coal_bott_new loop IR; annotations derived by "
        "repro.codee.transform. Do not edit."
    ),
)

#: The generated translation unit (kept for introspection/diagnostics).
C_SOURCE = _module.source

#: Why the kernels are unavailable ("" while they are); diagnostics.
load_error: str = ""


def load_kernels() -> ctypes.CDLL | None:
    """The compiled physics kernels, or ``None`` (use numpy).

    The underlying :class:`~repro.core.cjit.CJitModule` records the
    one-time ``cjit.compile``/``cjit.load`` spans and the
    ``fsbm_kernels.path`` instant that marks which path (compiled vs
    numpy fallback) the physics resolved to.
    """
    global load_error
    lib = _module.load()
    load_error = _module.load_error
    return lib


def _ptr_table(arrays: list[np.ndarray]) -> ctypes.Array:
    """One data pointer per array: what a ``ptr_table`` parameter takes."""
    double_p = ctypes.POINTER(ctypes.c_double)
    pointers = [a.ctypes.data_as(double_p) for a in arrays]
    return (double_p * len(arrays))(*pointers)


def mp_candidates(
    lib: ctypes.CDLL,
    t: np.ndarray,
    p: np.ndarray,
    qv: np.ndarray,
    cond: np.ndarray,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Mark the cells the microphysics predicate could select
    (:func:`build_mp_candidates_ir`).

    ``t``, ``p``, ``qv`` and ``cond`` are float64 ``(nm, ni, nk, nj)``
    views at whole-element strides, unit-stride along j except ``p``
    (which may broadcast, e.g. over the members with stride 0). Returns
    ``(cand, counts)``: the uint8 candidate marks, shaped like ``t``,
    and each member's count of them (int64 ``(nm,)``). ``None`` when a
    layout is unsupported and the caller must evaluate the predicate on
    every cell.
    """
    views = dict(t=t, p=p, qv=qv, cond=cond)
    shape = t.shape
    if len(shape) != 4 or any(
        v.shape != shape
        or v.dtype != np.float64
        or any(s % v.itemsize for s in v.strides)
        or ("j" not in axes and v.strides[3] != v.itemsize)
        for (_, axes), v in zip(CANDIDATE_INPUTS, views.values())
    ):
        return None
    cand = np.zeros(shape, dtype=np.uint8)
    counts = np.empty(shape[0], dtype=np.int64)
    lib.mp_candidates(
        t, p, qv, cond, ES_TABLE, cand, counts,
        *shape,
        *(
            views[name].strides["mikj".index(ax)] // 8
            for name, axes in CANDIDATE_INPUTS
            for ax in axes
        ),
    )
    return cand, counts


def sed_sweep(
    lib: ctypes.CDLL,
    dists: list[np.ndarray],
    courant: np.ndarray,
    masses: np.ndarray,
    precip: np.ndarray,
    occ: np.ndarray,
) -> np.ndarray | None:
    """Run the fused sedimentation sweep in place; per-member presence.

    ``dists`` holds every species' member-stacked ``(nm, ni, nk, nj,
    nkr)`` view (views are fine as long as the bin axis is unit-stride
    and all species share shapes and strides); ``precip`` is the
    ``(nm, ni, nj)`` float64 surface accumulator; ``courant`` is
    ``(nsp, nk, nkr)`` and ``masses`` ``(nsp, nkr)``, both C-contiguous
    float64 and shared by every member. ``occ`` is the uint8 ``(nm,
    ni, nk, nj)`` occupancy view of the same cells (any strides): a
    (cell, species) row is read only when its bit is set, and each cell
    a row deposits into gets the species' bit. Returns the ``(nm,
    nsp)`` ``active`` flags, or ``None`` when the layout or the bin
    count (not ``NKR``) is unsupported and the caller must take the
    numpy path.
    """
    nsp = len(dists)
    ref = dists[0]
    nm, ni, nk, nj, nkr = ref.shape
    itemsize = ref.itemsize
    if (
        nkr != NKR
        or nsp > 8
        or ref.dtype != np.float64
        or precip.dtype != np.float64
        or precip.shape != (nm, ni, nj)
        or ref.strides[4] != itemsize
        or any(d.shape != ref.shape or d.strides != ref.strides for d in dists)
        or occ.dtype != np.uint8
        or occ.shape != (nm, ni, nk, nj)
        or any(st < 0 for st in occ.strides)
    ):
        return None
    active = np.zeros((nm, nsp), dtype=np.uint8)
    lib.sed_sweep(
        _ptr_table(dists),
        courant,
        masses,
        precip,
        nm, nsp, ni, nk, nj,
        ref.strides[0] // itemsize,
        ref.strides[1] // itemsize,
        ref.strides[2] // itemsize,
        ref.strides[3] // itemsize,
        precip.strides[0] // itemsize,
        precip.strides[1] // itemsize,
        precip.strides[2] // itemsize,
        active,
        occ,
        *occ.strides,
    )
    return active


def _fits(arr: np.ndarray, shape: tuple, dtype) -> bool:
    return arr.shape == shape and arr.dtype == dtype and arr.flags.c_contiguous


def rows_ok(rows: np.ndarray, limit: int) -> bool:
    """Whether ``rows`` is a contiguous int64 row list, strictly
    increasing, within ``[0, limit)``: what a kernel that updates the
    listed rows in place may be given."""
    n = len(rows)
    return (
        _fits(rows, (n,), np.int64)
        and (n == 0 or (0 <= rows[0] and rows[-1] < limit))
        and (n < 2 or bool((rows[1:] > rows[:-1]).all()))
    )


def _row_stride(
    rows: list[np.ndarray], shape: tuple, max_width: int | None = MAX_NKR
) -> int | None:
    """The row stride, in elements, that every array of ``rows`` shares.

    Each array must be a float64 ``(npts, nkr)`` view with unit-stride
    bins: a contiguous array (stride ``nkr``) or a species' column slice
    of the packed gather (stride ``nsp * nkr``). ``None`` when they are
    not, or when ``nkr`` exceeds ``max_width`` (the kernels' stack
    buffers; ``None`` for a kernel that keeps no row on the stack).
    """
    npts, nkr = shape
    if max_width is not None and nkr > max_width:
        return None
    strides = set()
    for arr in rows:
        if (
            arr.shape != shape
            or arr.dtype != np.float64
            or arr.strides[1] != arr.itemsize
            or arr.strides[0] % arr.itemsize
        ):
            return None
        strides.add(arr.strides[0] // arr.itemsize)
    if npts <= 1:
        return nkr  # a single row: its stride is never used
    if len(strides) != 1:
        return None
    rs = strides.pop()
    return rs if rs >= nkr else None


def onecond(
    lib: ctypes.CDLL,
    n: np.ndarray,
    rows: np.ndarray,
    gc: np.ndarray,
    qs: np.ndarray,
    rho: np.ndarray,
    qv: np.ndarray,
    t: np.ndarray,
    ccn: np.ndarray,
    cr: np.ndarray,
    masses: np.ndarray,
    dt: float,
    xcut: float,
    lcp: float,
    credit: bool,
) -> bool:
    """Grow one species' listed rows in place (:func:`build_onecond_ir`).

    ``n`` is the species' float64 ``(npts, nkr)`` rows at any row
    stride with unit-stride bins; ``rho``/``qv``/``t``/``ccn`` are
    contiguous ``(npts,)`` arrays (the last three updated); ``rows``
    lists the rows to grow, strictly increasing, with ``gc`` and ``qs``
    aligned to it; ``cr`` and ``masses`` are ``(nkr,)``. Returns
    ``False`` (nothing touched) when the layout is unsupported and the
    caller must use numpy; raises ``ValueError`` on malformed rows or
    per-row inputs.
    """
    npts, nkr = n.shape
    rs = _row_stride([n], (npts, nkr))
    if rs is None or not all(
        _fits(a, (npts,), np.float64) for a in (rho, qv, t, ccn)
    ):
        return False
    nq = len(rows)
    if not (
        rows_ok(rows, npts)
        and all(_fits(a, (nq,), np.float64) for a in (gc, qs))
        and all(_fits(a, (nkr,), np.float64) for a in (cr, masses))
    ):
        raise ValueError("onecond: malformed kernel inputs")
    lib.onecond(
        n, rows, gc, qs, rho, qv, t, ccn, cr, masses,
        nq, nkr, rs,
        dt, xcut, lcp,
        int(credit),
    )
    return True


def freeze_melt(
    lib: ctypes.CDLL,
    dists: list[np.ndarray],
    frac: np.ndarray,
    t: np.ndarray,
    rho: np.ndarray,
    masses: np.ndarray,
    msp: np.ndarray,
    mfrac: np.ndarray,
    liq: int,
    pla: int,
    hail: int,
    hail_bin: int,
    t0: float,
    lcp: float,
) -> np.ndarray | None:
    """Freeze and melt every row in place (:func:`build_freeze_melt_ir`).

    ``dists`` holds every species' float64 ``(npts, nkr)`` rows at one
    shared row stride; ``frac``/``t``/``rho`` are contiguous ``(npts,)``
    arrays (``t`` updated); ``liq``/``pla``/``hail`` and ``msp`` (the
    melting species, with melt fractions ``mfrac``) index ``dists``.
    Returns the ``(npts, len(msp))`` melt flags, or ``None`` (nothing
    touched) when the layout is unsupported and the caller must use
    numpy; raises ``ValueError`` on malformed species indices or
    tables.
    """
    npts, nkr = dists[0].shape
    rs = _row_stride(dists, (npts, nkr))
    if rs is None or not all(
        _fits(a, (npts,), np.float64) for a in (frac, t, rho)
    ):
        return None
    nsp, nmelt = len(dists), len(msp)
    if not (
        _fits(masses, (nkr,), np.float64)
        and _fits(msp, (nmelt,), np.int64)
        and _fits(mfrac, (nmelt,), np.float64)
        and all(0 <= v < nsp for v in (liq, pla, hail))
        and (nmelt == 0 or (0 <= msp.min() and msp.max() < nsp))
        and 0 <= hail_bin <= nkr
    ):
        raise ValueError("freeze_melt: malformed kernel inputs")
    melted = np.zeros((npts, nmelt), dtype=np.uint8)
    lib.freeze_melt(
        _ptr_table(dists),
        frac, t, rho, masses, msp, mfrac, melted,
        npts, nkr, rs, nmelt,
        liq, pla, hail, hail_bin,
        t0, lcp,
    )
    return melted


def _cell_offsets(
    view: np.ndarray, cells: tuple[np.ndarray, ...], ndim: int
) -> np.ndarray | None:
    """Each listed cell's element offset in ``view``.

    ``cells`` holds one index array per leading axis of ``view``
    (what ``np.nonzero`` returns), ``ndim`` of them. ``None`` when the
    view's strides are negative or not whole elements; ``ValueError``
    when a cell lies outside the view.
    """
    itemsize = view.itemsize
    if any(s < 0 or s % itemsize for s in view.strides):
        return None
    npts = len(cells[0]) if cells else -1
    if len(cells) != ndim or not all(
        idx.shape == (npts,)
        and idx.dtype.kind in "iu"
        and (npts == 0 or (idx.min() >= 0 and idx.max() < extent))
        for idx, extent in zip(cells, view.shape)
    ):
        raise ValueError("row gather/scatter: cells outside the view")
    offs = np.zeros(npts, dtype=np.int64)
    for idx, stride in zip(cells, view.strides):
        offs += idx * np.int64(stride // itemsize)
    return offs


def _row_offsets(
    view: np.ndarray, cells: tuple[np.ndarray, ...]
) -> np.ndarray | None:
    """Each listed cell's row start in ``view``, as an element offset.

    ``view`` is float64 with a unit-stride trailing (row) axis;
    ``cells`` indexes every leading axis. ``None`` when the view's
    layout is unsupported; ``ValueError`` when a cell lies outside the
    view.
    """
    if (
        view.dtype != np.float64
        or view.ndim < 2
        or view.strides[-1] != view.itemsize
    ):
        return None
    return _cell_offsets(view, cells, view.ndim - 1)


def gather_rows(
    lib: ctypes.CDLL, src: np.ndarray, cells: tuple[np.ndarray, ...]
) -> np.ndarray | None:
    """``src[cells]`` as a new contiguous ``(npts, nc)`` array.

    ``src`` is any float64 view with a unit-stride trailing axis of
    ``nc`` values (the sweep's packed bins of every member) and
    ``cells`` indexes its leading axes, as ``np.nonzero`` does. Returns
    ``None`` when the layout is unsupported and the caller must use
    numpy's fancy index; raises ``ValueError`` on cells outside
    ``src``.
    """
    offs = _row_offsets(src, cells)
    if offs is None:
        return None
    nc = src.shape[-1]
    out = np.empty((len(offs), nc))
    lib.gather_rows(src, out, offs, len(offs), nc)
    return out


def scatter_rows(
    lib: ctypes.CDLL,
    dst: np.ndarray,
    cells: tuple[np.ndarray, ...],
    rows: np.ndarray,
    occ: np.ndarray,
    nsp: int,
) -> bool:
    """``dst[cells] = rows``, the inverse of :func:`gather_rows`, and
    ``occ[cells]`` = the bits of the species with a nonzero value in
    each row (``nsp`` species of equal width, in order).

    ``occ`` is a uint8 view shaped like ``dst`` without its row axis.
    Returns ``False`` (nothing written) when a layout is unsupported;
    raises ``ValueError`` on cells outside ``dst``, ``rows`` that are
    not a contiguous float64 ``(npts, nc)`` array, or a row width that
    is not ``nsp`` whole species.
    """
    offs = _row_offsets(dst, cells)
    if (
        offs is None
        or occ.dtype != np.uint8
        or occ.shape != dst.shape[:-1]
        or not 0 < nsp <= 8
    ):
        return False
    ooffs = _cell_offsets(occ, cells, occ.ndim)
    if ooffs is None:
        return False
    nc = dst.shape[-1]
    if not _fits(rows, (len(offs), nc), np.float64) or nc % nsp:
        raise ValueError("scatter_rows: rows do not match the cells")
    lib.scatter_rows(dst, rows, offs, len(offs), nc, occ, ooffs, nsp)
    return True


def row_stats(
    lib: ctypes.CDLL, bins: np.ndarray, nsp: int, eps: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """Per-species sums and occupancy of packed rows (``row_stats``).

    ``bins`` is a float64 ``(npts, nsp * nkr)`` array with unit-stride
    bins at any row stride. Returns ``(sums, occ)``, both ``(npts,
    nsp)`` (float64 and int64): each species' bins summed serially in
    ascending order, and one past its highest bin above ``eps``.
    ``None`` when the layout is unsupported and the caller must use
    numpy; ``ValueError`` when the row width is not a multiple of
    ``nsp``.
    """
    npts, width = bins.shape
    if nsp < 1 or width % nsp:
        raise ValueError("row_stats: row width is not nsp whole species")
    sums = np.empty((npts, nsp))
    occ = np.empty((npts, nsp), dtype=np.int64)
    if npts == 0:
        return sums, occ
    rs = _row_stride([bins], (npts, width), max_width=None)
    if rs is None:
        return None
    lib.row_stats(bins, sums, occ, npts, nsp, width // nsp, rs, eps)
    return sums, occ


def coal_bott_new(
    lib: ctypes.CDLL,
    dists: list[np.ndarray],
    rows: np.ndarray,
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

    ``dists`` holds each species' float64 ``(nrows, nkr)`` rows, all at
    one row stride with unit-stride bins, and ``rows`` (strictly
    increasing int64) the row of each of the call's ``npts`` points,
    which the kernel updates in place. Per point: ``sums``
    (``(nsp, npts)``, updated in place) the running species sums the
    selection tests; ``occ`` the pre-step occupied-bin counts
    (``(nsp, npts)`` int64); ``gate`` the ``(nix, npts)`` temperature
    gates; ``ws`` the pressure weights. ``k500``/``kdel`` are the
    ``(nix, nkr, nkr)`` kernel tables; ``w_lo``/``w_hi`` the
    ``(nkr, nkr)`` split tables; ``ixinfo`` rows ``(collector,
    collected, product, self)`` as species indices; ``seg`` the
    ``(nseg, 2)`` member segments of the points, ordered and disjoint.
    Returns ``False`` (nothing touched) when the distributions' layout
    is unsupported and the caller must use numpy; raises
    ``ValueError`` on malformed rows, tables, indices or segments.
    """
    nrows, nkr = dists[0].shape
    rs = _row_stride(dists, (nrows, nkr))
    if rs is None:
        return False
    npts, nsp, nix, nseg = len(rows), len(dists), len(ixinfo), len(seg)
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
    # The kernel updates the listed rows in place (distinct, in
    # range), indexes its stack tiles by occupancy and the species
    # table by ixinfo, and compacts each segment's points in place.
    if not (
        rows_ok(rows, nrows)
        and all(_fits(*e) for e in expected)
        and (npts == 0 or 0 <= occ.min() and occ.max() <= nkr)
        and (nix == 0 or 0 <= ixinfo[:, :3].min() and ixinfo[:, :3].max() < nsp)
        and (nseg == 0 or (0 <= seg[:, 0]).all() and (seg[:, 0] <= seg[:, 1]).all()
             and (seg[:, 1] <= npts).all()
             and (seg[1:, 0] >= seg[:-1, 1]).all())
    ):
        raise ValueError("coal_bott_new: malformed kernel inputs")
    # Per-call scratch: concurrent callers (thread ranks) never share it.
    pts = np.empty(max(npts, 1), dtype=np.int64)
    lib.coal_bott_new(
        _ptr_table(dists),
        sums, occ, gate, ws, k500, kdel, w_lo, w_hi, ixinfo, seg, rows, pts,
        nix, nseg, npts, nkr, rs,
        dt, nmin,
    )
    return True
