"""Dependence-driven transformation passes over the loop IR.

The paper's optimization sequence (`repro.optim.stages`) is a set of
*mechanical consequences* of dependence analysis: fission the
parallelizable work out of a serial driver, ``collapse`` as many
provably independent loops as the locality budget allows, hoist
automatic arrays into preallocated buffers, vectorize the innermost
loop. This module reproduces that derivation for IR kernels: every
pass asks :func:`analyze_nest` (the IR counterpart of
`repro.codee.dependence.analyze_loop`, same report shape) before
touching an annotation, and anything unprovable is refused with the
analysis' reasons rather than applied optimistically.

Pass → stage correspondence (the `repro.optim.stages` names):

==========================  =============================================
pass                        stage whose transformation it mechanizes
==========================  =============================================
``normalize``               ``baseline`` (canonical 0-based loops)
``fission``                 ``offload_collapse2`` (Listing 6's split)
``collapse``                ``offload_collapse2`` / ``offload_collapse3``
``hoist_automatic_arrays``  ``offload_collapse3`` (Listing 8 temp_arrays)
``simd_innermost``          ``offload_collapse2`` (inner ``!$omp simd``)
``simd_lanes``              ``offload_collapse2`` (lane loops of serial nests)
==========================  =============================================

:func:`plan_offload` drives the sequence under a
:class:`TransformPolicy` and returns a :class:`TransformPlan` whose
annotated kernel is what `repro.codee.cgen` emits. The derivations are
honest about the production kernels: under the default policy the
transport stencil comes out ``parallel for collapse(2)`` + inner
``simd`` (the innermost spatial loop stays serial per thread for
neighbor-row locality, the paper's collapse(2) stage), while the
sedimentation sweep's ``k``-carried flux recurrence and
``active``/``precip`` accumulations are refused — exactly what the
analysis is for — and the KO-remap's depth-1 nest falls under the
launch-overhead floor.

The host compiles every production kernel under :func:`plan_host`,
the same derivation with parallel annotations off: the model's ranks
own the cores, as the paper's CPU runs keep one OpenMP tile per MPI
rank and save ``parallel`` for the GPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.codee.loopir import (
    ArrayParam,
    Assign,
    Bin,
    Const,
    Decl,
    Expr,
    If,
    Kernel,
    Let,
    Load,
    LocalArray,
    Loop,
    Select,
    Stmt,
    Store,
    Sym,
    Un,
    expr_loads,
    expr_syms,
    stmt_exprs,
    subst,
    walk_ir,
    walk_ir_stmts,
)
from repro.errors import TransformError
from repro.optim.stages import Stage

#: Accumulation operators the reduction recognizer accepts.
_REDUCTION_OPS = {"+": "+", "-": "+", "*": "*"}


@dataclass
class NestReport:
    """Dependence analysis of one IR loop nest.

    Field names mirror `repro.codee.dependence.DependenceReport` so
    consumers of either report read the same way; ``parallel_depth``
    is the IR addition: how many leading perfect-nest loops are
    provably independent (the legal ``collapse`` ceiling).
    """

    nest: Loop
    parallelizable: bool
    #: Leading chain loops with no carried dependence (0 = serial).
    parallel_depth: int
    private_scalars: tuple[str, ...]
    #: Stack-local arrays private to each iteration (automatic arrays).
    private_arrays: tuple[str, ...]
    write_only_arrays: tuple[str, ...]
    readwrite_arrays: tuple[str, ...]
    read_only_arrays: tuple[str, ...]
    #: Recognized (op, name) accumulation patterns (reduction clause
    #: candidates; they still block until annotated).
    reductions: tuple[tuple[str, str], ...]
    reasons: tuple[str, ...]
    #: Per-iteration stack bytes of the nest's local arrays.
    local_stack_bytes: int = 0


@dataclass
class PassResult:
    """Outcome of one transformation pass."""

    name: str
    #: `repro.optim.stages.Stage` value this pass mechanizes.
    stage: str
    applied: bool
    detail: str

    def render(self) -> str:
        mark = "applied" if self.applied else "skipped"
        return f"{self.name:<24} [{self.stage:<17}] {mark}: {self.detail}"


@dataclass(frozen=True)
class TransformPolicy:
    """Tunables of the offload derivation (not of its legality).

    The policy can only *restrict* what the analysis allows — request
    a deeper collapse than the dependence analysis proves legal and
    :func:`collapse_nest` raises :class:`~repro.errors.TransformError`
    instead of complying.
    """

    #: Consider parallel annotations at all (False = serial codegen).
    parallel: bool = True
    #: Innermost chain loops kept serial per thread (locality: the
    #: transport stencil's neighbor rows stay cache-resident when the
    #: trailing spatial loop is not collapsed).
    keep_serial_inner: int = 1
    #: Explicit collapse request (None = derive from the analysis).
    collapse: int | None = None
    #: Nests shallower than this stay serial — the parallel-region
    #: overhead floor (a depth-1 scatter loop is not worth a fork).
    min_parallel_depth: int = 2
    #: Vectorize provably independent innermost loops of parallel nests
    #: and the fixed-width lane loops inside serial ones.
    simd: bool = True
    #: Attempt loop fission on multi-statement nest bodies.
    fission: bool = True
    schedule: str = "static"


@dataclass
class TransformPlan:
    """The annotated kernel plus the per-pass derivation record."""

    kernel: Kernel
    policy: TransformPolicy
    passes: list[PassResult] = field(default_factory=list)
    #: Top-level nest variable -> its dependence report.
    reports: dict[str, NestReport] = field(default_factory=dict)
    #: Serial top-level nest variable -> reports of every loop inside
    #: it, in preorder (see :func:`analyze_inner_loops`).
    inner: dict[str, list[NestReport]] = field(default_factory=dict)

    def summary(self) -> str:
        lines = [f"transform plan for kernel {self.kernel.name!r}:"]
        lines.extend("  " + p.render() for p in self.passes)
        for var, rep in self.reports.items():
            verdict = (
                f"parallel depth {rep.parallel_depth}"
                if rep.parallel_depth
                else "serial (dependence-bound)"
            )
            lines.append(f"  nest over {var!r}: {verdict}")
            lines.extend(f"    - {r}" for r in rep.reasons)
            by_var: dict[str, list[NestReport]] = {}
            for inner in self.inner.get(var, []):
                by_var.setdefault(inner.nest.var, []).append(inner)
            for ivar, reps in by_var.items():
                proven = sum(1 for r in reps if r.parallel_depth)
                lines.append(
                    f"    inner loops over {ivar!r}: {proven} of {len(reps)} "
                    "proven independent"
                )
                refused = [r for r in reps if not r.parallel_depth]
                why = dict.fromkeys(r.reasons[0] for r in refused if r.reasons)
                lines.extend(f"      refused: {w}" for w in why)
        return "\n".join(lines)


# --- analysis ---------------------------------------------------------------


def _let_bindings(stmts: list[Stmt]) -> dict[str, Expr]:
    """Single-assignment temporaries defined anywhere under ``stmts``."""
    return {
        s.name: s.value for s in walk_ir_stmts(stmts) if isinstance(s, Let)
    }


def _resolve(expr: Expr, lets: dict[str, Expr], depth: int = 8) -> Expr:
    """Expression with Let temporaries substituted (bounded depth).

    Subscripts like ``s[im]`` hide their loop-variable offsets behind
    ``Let im = i > 0 ? i - 1 : i``; the dependence tests must see
    through that or they would treat the offset as independent.
    """
    if depth <= 0:
        return expr
    names = expr_syms(expr) & set(lets)
    if not names:
        return expr
    return _resolve(
        subst(expr, {n: lets[n] for n in names}), lets, depth - 1
    )


def _is_plain(index_elem: Expr, var: str) -> bool:
    return isinstance(index_elem, Sym) and index_elem.name == var


def _fmt_index(index: tuple[Expr, ...]) -> str:
    return "[" + ", ".join(_fmt(e) for e in index) + "]"


def _fmt(expr: Expr) -> str:
    if isinstance(expr, Const):
        return str(expr.value)
    if isinstance(expr, Sym):
        return expr.name
    if isinstance(expr, Load):
        return f"{expr.array}{_fmt_index(expr.index)}"
    if isinstance(expr, Bin):
        return f"{_fmt(expr.left)} {expr.op} {_fmt(expr.right)}"
    if isinstance(expr, Un):  # pragma: no cover - diagnostics only
        return f"{expr.op}{_fmt(expr.operand)}"
    if isinstance(expr, Select):
        return f"({_fmt(expr.cond)} ? {_fmt(expr.if_true)} : {_fmt(expr.if_false)})"
    return "?"


_CTYPE_BYTES = {
    "double": 8,
    "float": 4,
    "long": 8,
    "int": 4,
    "unsigned char": 1,
}


def analyze_nest(kernel: Kernel, nest: Loop) -> NestReport:
    """Dependence analysis of one top-level nest of ``kernel``.

    Same conservative spirit as ``dependence.analyze_loop``: a chain
    loop is independent only when every write to a shared array is
    plainly indexed by its variable and no read of a written array
    offsets it. Accumulation stores missing the index are recorded as
    reduction candidates (they still block the loop — the paper's
    workflow annotates reductions explicitly, it does not guess).
    """
    chain = nest.nest_chain()
    chain_vars = [lp.var for lp in chain]
    arrays = kernel.arrays()
    lets = _let_bindings(nest.body)

    private_scalars: set[str] = set()
    private_arrays: set[str] = set()
    stack_bytes = 0
    for stmt in walk_ir_stmts(nest.body):
        if isinstance(stmt, (Let, Decl)):
            private_scalars.add(stmt.name)
        elif isinstance(stmt, LocalArray):
            private_arrays.add(stmt.name)
            stack_bytes += stmt.elements * _CTYPE_BYTES.get(stmt.ctype, 8)

    reasons: list[str] = []
    blocked: dict[str, list[str]] = {v: [] for v in chain_vars}
    reductions: set[tuple[str, str]] = set()

    def block(var: str, why: str) -> None:
        blocked[var].append(why)
        reasons.append(why)

    def block_all(why: str) -> None:
        reasons.append(why)
        for v in chain_vars:
            blocked[v].append(why)

    # Rectangularity: inner chain bounds must not depend on outer
    # chain variables (collapse legality needs a rectangular product).
    for level, lp in enumerate(chain[1:], start=1):
        outer = set(chain_vars[:level])
        bound_vars = expr_syms(lp.start) | expr_syms(lp.stop)
        offenders = sorted(bound_vars & outer)
        if offenders:
            block(
                lp.var,
                f"bounds of loop over {lp.var} depend on outer "
                f"variable(s) {', '.join(offenders)}: non-rectangular nest",
            )

    # Scalar writes must target nest-private temporaries (or be
    # recognized accumulations, which become reduction candidates).
    for stmt in walk_ir_stmts(nest.body):
        if isinstance(stmt, Assign) and stmt.name not in private_scalars:
            value = stmt.value
            if (
                isinstance(value, Bin)
                and value.op in _REDUCTION_OPS
                and (
                    value.left == Sym(stmt.name)
                    or value.right == Sym(stmt.name)
                )
            ):
                reductions.add((_REDUCTION_OPS[value.op], stmt.name))
                block_all(
                    f"scalar {stmt.name} accumulates across iterations "
                    "(reduction candidate)"
                )
            else:
                block_all(
                    f"scalar {stmt.name} is written but not declared "
                    "inside the nest: every iteration races on it"
                )

    stores = [
        s
        for s in walk_ir_stmts(nest.body)
        if isinstance(s, Store) and s.array not in private_arrays
    ]
    loads: list[Load] = []
    for stmt in walk_ir_stmts(nest.body):
        for expr in stmt_exprs(stmt):
            loads.extend(
                ld for ld in expr_loads(expr) if ld.array not in private_arrays
            )
    written = {s.array for s in stores}

    reported: set[tuple[str, str, str]] = set()
    for st in stores:
        resolved = tuple(_resolve(e, lets) for e in st.index)
        if any(expr_loads(e) for e in resolved):
            key = ("indirect", st.array, "")
            if key not in reported:
                reported.add(key)
                block_all(
                    f"store to {st.array}{_fmt_index(st.index)} is "
                    "indirectly indexed: iterations cannot be proven disjoint"
                )
            continue
        for v in chain_vars:
            if any(_is_plain(e, v) for e in resolved):
                continue
            if st.op in ("+=", "-="):
                reductions.add(("+", st.array))
                key = ("accum", st.array, v)
                if key not in reported:
                    reported.add(key)
                    block(
                        v,
                        f"array {st.array}{_fmt_index(st.index)} accumulates "
                        f"without indexing by {v} (reduction candidate)",
                    )
            else:
                key = ("race", st.array, v)
                if key not in reported:
                    reported.add(key)
                    block(
                        v,
                        f"write to {st.array}{_fmt_index(st.index)} is not "
                        f"indexed by loop variable {v}: different iterations "
                        "write the same element",
                    )

    for ld in loads:
        if ld.array not in written:
            continue
        resolved = tuple(_resolve(e, lets) for e in ld.index)
        for v in chain_vars:
            for e in resolved:
                if v in expr_syms(e) and not _is_plain(e, v):
                    key = ("carried", ld.array, v)
                    if key not in reported:
                        reported.add(key)
                        block(
                            v,
                            f"read of {ld.array}{_fmt_index(ld.index)} "
                            f"offsets loop variable {v}: loop-carried flow "
                            "dependence",
                        )

    parallel_depth = 0
    for v in chain_vars:
        if blocked[v]:
            break
        parallel_depth += 1

    read_names = {ld.array for ld in loads}
    write_only = sorted(
        name for name in written if name not in read_names and name in arrays
    )
    readwrite = sorted(written & read_names)
    read_only = sorted(
        name for name in read_names if name not in written and name in arrays
    )

    return NestReport(
        nest=nest,
        parallelizable=parallel_depth == len(chain_vars),
        parallel_depth=parallel_depth,
        private_scalars=tuple(sorted(private_scalars)),
        private_arrays=tuple(sorted(private_arrays)),
        write_only_arrays=tuple(write_only),
        readwrite_arrays=tuple(readwrite),
        read_only_arrays=tuple(read_only),
        reductions=tuple(sorted(reductions)),
        reasons=tuple(dict.fromkeys(reasons)),
        local_stack_bytes=stack_bytes,
    )


# --- passes -----------------------------------------------------------------


def _rewrite_stmt_exprs(stmts: list[Stmt], fn) -> None:
    """Apply ``fn`` to every expression owned by statements in place."""
    for s in stmts:
        if isinstance(s, Let):
            s.value = fn(s.value)
        elif isinstance(s, Decl):
            if s.init is not None:
                s.init = fn(s.init)
        elif isinstance(s, Assign):
            s.value = fn(s.value)
        elif isinstance(s, Store):
            s.index = tuple(fn(e) for e in s.index)
            s.value = fn(s.value)
        elif isinstance(s, If):
            s.cond = fn(s.cond)
            _rewrite_stmt_exprs(s.body, fn)
            _rewrite_stmt_exprs(s.orelse, fn)
        elif isinstance(s, Loop):
            s.start = fn(s.start)
            s.stop = fn(s.stop)
            _rewrite_stmt_exprs(s.body, fn)


def normalize_loops(kernel: Kernel) -> PassResult:
    """Shift every loop to a 0-based iteration space.

    ``for (v = lo; v < hi)`` becomes ``for (v = 0; v < hi - lo)`` with
    ``v`` replaced by ``v + lo`` in the body — the canonical form every
    later pass (and the collapse trip-count product) assumes. Always
    legal: it is a pure reindexing.
    """
    changed: list[str] = []
    for stmt in walk_ir_stmts(kernel.body):
        if not isinstance(stmt, Loop):
            continue
        if stmt.start == Const(0):
            continue
        lo = stmt.start
        var = stmt.var
        shifted = Bin("+", Sym(var), lo)
        _rewrite_stmt_exprs(
            stmt.body, lambda e: subst(e, {var: shifted})
        )
        stmt.stop = Bin("-", stmt.stop, lo)
        stmt.start = Const(0)
        changed.append(var)
    return PassResult(
        name="normalize",
        stage=Stage.BASELINE.value,
        applied=bool(changed),
        detail=(
            f"rebased loop(s) {', '.join(changed)} to 0"
            if changed
            else "all loops already 0-based"
        ),
    )


def _stmt_effects(
    stmt: Stmt,
) -> tuple[set[str], set[str], set[str], set[str]]:
    """(arrays written, arrays read, names defined, names read).

    "Defined" covers Let/Decl/Assign targets, local-array
    declarations, and nested loop variables; "read" is every scalar
    name a subexpression mentions. The split matters: two statements
    *reading* the same scalar (the surrounding loop variable, a shared
    parameter) are independent, while a definition on either side
    orders them.
    """
    writes: set[str] = set()
    reads: set[str] = set()
    defined: set[str] = set()
    read_names: set[str] = set()
    for s in walk_ir_stmts([stmt]):
        if isinstance(s, Store):
            writes.add(s.array)
        elif isinstance(s, (Let, Decl)):
            defined.add(s.name)
        elif isinstance(s, Assign):
            defined.add(s.name)
        elif isinstance(s, LocalArray):
            defined.add(s.name)
        elif isinstance(s, Loop):
            defined.add(s.var)
        for expr in stmt_exprs(s):
            reads.update(ld.array for ld in expr_loads(expr))
            read_names.update(expr_syms(expr))
    return writes, reads, defined, read_names


def _stores_of(stmt: Stmt, array: str) -> list[Store]:
    return [
        s
        for s in walk_ir_stmts([stmt])
        if isinstance(s, Store) and s.array == array
    ]


def _loads_of(stmt: Stmt, array: str) -> list[Load]:
    out: list[Load] = []
    for s in walk_ir_stmts([stmt]):
        for expr in stmt_exprs(s):
            out.extend(ld for ld in expr_loads(expr) if ld.array == array)
    return out


def _fission_conflict(a: Stmt, b: Stmt, param_arrays: set[str]) -> bool:
    """Must ``a`` and ``b`` stay in the same loop?

    Conservative: a name defined on either side that the other touches
    (so a :class:`LocalArray` declaration stays with every statement
    using it, and defined temporaries order their consumers), or a
    shared parameter array with a write on either side whose accesses
    are not all structurally identical (identical indices are
    loop-independent dependences, which fission preserves; anything
    else could be carried either direction). Names both sides merely
    *read* — the fissioned loop's variable, shared scalar parameters —
    do not conflict.
    """
    wa, ra, da, na = _stmt_effects(a)
    wb, rb, db, nb = _stmt_effects(b)
    # Non-parameter (stack-local) arrays live in the name namespace:
    # a store counts as defining, a load as reading.
    da = da | {x for x in wa if x not in param_arrays}
    na = na | {x for x in (wa | ra) if x not in param_arrays}
    db = db | {x for x in wb if x not in param_arrays}
    nb = nb | {x for x in (wb | rb) if x not in param_arrays}
    if (da & (db | nb)) or (db & (da | na)):
        return True
    for array in (wa & (wb | rb)) | (wb & (wa | ra)):
        accesses = [
            *(s.index for s in _stores_of(a, array)),
            *(ld.index for ld in _loads_of(a, array)),
            *(s.index for s in _stores_of(b, array)),
            *(ld.index for ld in _loads_of(b, array)),
        ]
        if any(idx != accesses[0] for idx in accesses[1:]):
            return True
    return False


def fission_loop(kernel: Kernel, loop: Loop) -> PassResult:
    """Split one top-level loop into independent statement groups.

    Mirrors the paper's fission of the collision call out of the big
    microphysics driver (Listing 6): statements that share no data —
    or share arrays only at identical subscripts — are distributed
    into their own copies of the loop, ready for independent offload
    decisions. Refused (not applied) when every statement is entangled.
    """
    if loop not in kernel.body:
        raise TransformError(
            f"fission target must be a top-level loop of {kernel.name}"
        )
    param_arrays = set(kernel.arrays())
    # Connected components of the pairwise conflict graph: statements
    # in different components are proven independent, so distributing
    # the loop over the components (each keeping program order) is
    # legal regardless of how they interleave.
    count = len(loop.body)
    comp = list(range(count))

    def find(x: int) -> int:
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for a in range(count):
        for b in range(a + 1, count):
            if _fission_conflict(loop.body[a], loop.body[b], param_arrays):
                comp[find(a)] = find(b)
    by_comp: dict[int, list[Stmt]] = {}
    for idx, stmt in enumerate(loop.body):
        by_comp.setdefault(find(idx), []).append(stmt)
    groups = list(by_comp.values())
    if len(groups) <= 1:
        return PassResult(
            name="fission",
            stage=Stage.OFFLOAD_COLLAPSE2.value,
            applied=False,
            detail="single statement group: nothing to fission",
        )
    at = kernel.body.index(loop)
    new_loops = [
        Loop(loop.var, loop.start, loop.stop, g, schedule=loop.schedule)
        for g in groups
    ]
    kernel.body[at : at + 1] = new_loops
    return PassResult(
        name="fission",
        stage=Stage.OFFLOAD_COLLAPSE2.value,
        applied=True,
        detail=f"split loop over {loop.var} into {len(groups)} loops",
    )


def collapse_nest(
    kernel: Kernel,
    nest: Loop,
    policy: TransformPolicy,
    report: NestReport | None = None,
) -> PassResult:
    """Annotate ``parallel for collapse(n)`` as deep as provably legal.

    The depth is ``min(parallel_depth, chain - keep_serial_inner)``;
    an explicit ``policy.collapse`` deeper than the analysis allows
    raises :class:`~repro.errors.TransformError` with the analysis'
    reasons — the engine never emits an annotation it cannot justify.
    """
    report = report or analyze_nest(kernel, nest)
    chain_len = nest.nest_depth()
    stage = Stage.OFFLOAD_COLLAPSE2.value
    if not policy.parallel:
        return PassResult("collapse", stage, False, "policy: serial codegen")
    if chain_len < policy.min_parallel_depth:
        return PassResult(
            "collapse",
            stage,
            False,
            f"nest depth {chain_len} below the parallel-overhead floor "
            f"({policy.min_parallel_depth})",
        )
    if policy.collapse is not None and policy.collapse > report.parallel_depth:
        raise TransformError(
            f"collapse({policy.collapse}) requested but only "
            f"{report.parallel_depth} loop(s) are provably independent:\n  "
            + "\n  ".join(report.reasons)
        )
    want = (
        policy.collapse
        if policy.collapse is not None
        else max(1, chain_len - policy.keep_serial_inner)
    )
    chosen = min(report.parallel_depth, want)
    if chosen < 1:
        return PassResult(
            "collapse",
            stage,
            False,
            "derived serial: " + "; ".join(report.reasons[:2]),
        )
    nest.parallel = True
    nest.collapse = chosen
    nest.schedule = policy.schedule
    if chosen >= 3:
        stage = Stage.OFFLOAD_COLLAPSE3.value
    return PassResult(
        "collapse",
        stage,
        True,
        f"collapse({chosen}) justified by parallel depth "
        f"{report.parallel_depth} of {chain_len}",
    )


def hoist_automatic_arrays(
    kernel: Kernel, nest: Loop, report: NestReport | None = None
) -> PassResult:
    """Replace nest-local arrays with slices of preallocated buffers.

    The Listing 8 transformation: each :class:`LocalArray` under a
    *parallel* nest becomes a new ``<name>_temp`` array parameter
    indexed by the collapsed loop variables, eliminating the
    per-thread stack frame the paper's ``collapse(3)`` attempt
    overflowed on. Only legal under a parallel annotation (a serial
    nest's local array costs nothing and keeps cache locality).
    """
    if not nest.parallel:
        return PassResult(
            name="hoist_automatic_arrays",
            stage=Stage.OFFLOAD_COLLAPSE3.value,
            applied=False,
            detail="nest is serial: automatic arrays stay on the stack",
        )
    chain = nest.nest_chain()[: nest.collapse]
    chain_vars = [lp.var for lp in chain]
    extents = [lp.stop for lp in chain]
    locals_here = [
        s for s in walk_ir_stmts(nest.body) if isinstance(s, LocalArray)
    ]
    if not locals_here:
        return PassResult(
            name="hoist_automatic_arrays",
            stage=Stage.OFFLOAD_COLLAPSE3.value,
            applied=False,
            detail="no automatic arrays in the parallel nest",
        )
    hoisted: list[str] = []
    for arr in locals_here:
        temp_name = f"{arr.name}_temp"
        strides: list[Expr] = []
        for d in range(len(chain_vars)):
            stride: Expr = Const(arr.elements)
            for later in extents[d + 1 :]:
                stride = Bin("*", stride, later)
            strides.append(stride)
        if arr.lanes:
            strides.append(Const(arr.lanes))
        strides.append(Const(1))
        kernel.params = (
            *kernel.params,
            ArrayParam(
                temp_name,
                strides=tuple(strides),
                ctype=arr.ctype,
                intent="scratch",
            ),
        )

        prefix = tuple(Sym(v) for v in chain_vars)

        def remap(expr: Expr, _name=arr.name, _temp=temp_name) -> Expr:
            if isinstance(expr, Load) and expr.array == _name:
                return Load(_temp, (*prefix, *(remap(e) for e in expr.index)))
            if isinstance(expr, Load):
                return Load(expr.array, tuple(remap(e) for e in expr.index))
            if isinstance(expr, Bin):
                return Bin(expr.op, remap(expr.left), remap(expr.right))
            if isinstance(expr, Un):
                return Un(expr.op, remap(expr.operand))
            if isinstance(expr, Select):
                return Select(
                    remap(expr.cond),
                    remap(expr.if_true),
                    remap(expr.if_false),
                )
            return expr

        def retarget(stmts: list[Stmt]) -> None:
            for s in list(stmts):
                if isinstance(s, LocalArray) and s.name == arr.name:
                    stmts.remove(s)
                elif isinstance(s, Store) and s.array == arr.name:
                    s.array = temp_name
                    s.index = (*prefix, *(remap(e) for e in s.index))
                    s.value = remap(s.value)
                elif isinstance(s, Store):
                    s.index = tuple(remap(e) for e in s.index)
                    s.value = remap(s.value)
                elif isinstance(s, (Let, Assign)):
                    s.value = remap(s.value)
                elif isinstance(s, Decl) and s.init is not None:
                    s.init = remap(s.init)
                elif isinstance(s, If):
                    s.cond = remap(s.cond)
                    retarget(s.body)
                    retarget(s.orelse)
                elif isinstance(s, Loop):
                    retarget(s.body)

        retarget(nest.body)
        hoisted.append(arr.name)
    return PassResult(
        name="hoist_automatic_arrays",
        stage=Stage.OFFLOAD_COLLAPSE3.value,
        applied=True,
        detail=(
            f"hoisted {', '.join(hoisted)} into preallocated "
            f"{', '.join(h + '_temp' for h in hoisted)}"
        ),
    )


def _leaf_loops(nest: Loop) -> list[Loop]:
    """Loops under ``nest`` containing no further loops."""
    return [
        s
        for s in walk_ir_stmts([nest])
        if isinstance(s, Loop)
        and not any(isinstance(t, Loop) for t in walk_ir_stmts(s.body))
    ]


def _simd_legal(leaf: Loop) -> tuple[bool, str]:
    var = leaf.var
    stored_arrays: set[str] = set()
    for s in walk_ir_stmts(leaf.body):
        if isinstance(s, Assign):
            return False, f"scalar {s.name} mutates across lanes"
        if isinstance(s, Store):
            stored_arrays.add(s.array)
            if not any(_is_plain(e, var) for e in s.index):
                return (
                    False,
                    f"store to {s.array}{_fmt_index(s.index)} is not "
                    f"plainly indexed by {var}",
                )
            if any(expr_loads(e) for e in s.index):
                return False, f"store to {s.array} is indirectly indexed"
    for s in walk_ir_stmts(leaf.body):
        for expr in stmt_exprs(s):
            for ld in expr_loads(expr):
                if ld.array not in stored_arrays:
                    continue
                for e in ld.index:
                    if var in expr_syms(e) and not _is_plain(e, var):
                        return (
                            False,
                            f"read of {ld.array} offsets {var} across lanes",
                        )
    return True, ""


def simd_innermost(
    kernel: Kernel, nest: Loop, policy: TransformPolicy
) -> PassResult:
    """Mark provably independent innermost loops of a parallel nest.

    The IR analog of the rewriter's inner ``!$omp simd``: a leaf loop
    vectorizes only when every store is plainly indexed by its
    variable (lanes are disjoint), nothing scalar mutates across
    lanes, and no read of a stored array offsets the lane index.
    Serial nests are left alone — matching the hand-written kernels,
    where the compiler auto-vectorizes the serial sweeps.
    """
    stage = Stage.OFFLOAD_COLLAPSE2.value
    if not policy.simd or not nest.parallel:
        return PassResult(
            "simd_innermost",
            stage,
            False,
            "nest is serial" if not nest.parallel else "policy: no simd",
        )
    marked: list[str] = []
    refused: list[str] = []
    for leaf in _leaf_loops(nest):
        ok, why = _simd_legal(leaf)
        if ok:
            leaf.simd = True
            marked.append(leaf.var)
        else:
            refused.append(f"{leaf.var} ({why})")
    detail = []
    if marked:
        detail.append(f"simd on loop(s) {', '.join(marked)}")
    if refused:
        detail.append(f"refused: {'; '.join(refused)}")
    return PassResult(
        "simd_innermost",
        stage,
        bool(marked),
        "; ".join(detail) or "no innermost loops",
    )


def analyze_inner_loops(kernel: Kernel, nest: Loop) -> list[NestReport]:
    """Dependence reports of every loop nested inside ``nest``.

    A serial outer loop says nothing about the loops it contains: the
    collision kernel's interaction loop carries the species-sum cascade,
    yet the loops over the grid points inside each interaction are
    independent. Each inner loop is analyzed as a nest of its own, with
    the enclosing loop variables held fixed, in preorder.
    """
    return [
        analyze_nest(kernel, s)
        for s in walk_ir_stmts(nest.body)
        if isinstance(s, Loop)
    ]


def simd_lanes(policy: TransformPolicy, inner: list[NestReport]) -> PassResult:
    """Vectorize the fixed-width point loops inside a serial nest.

    A leaf loop with a constant trip count whose own analysis proves it
    independent is a lane loop: the points of a ``(bin, lane)`` tile
    side by side. Marking it ``simd`` keeps the compiler from
    vectorizing an enclosing bin loop instead (which would turn each
    lane's sum into an in-order vector reduction). Loops with runtime
    bounds are left to the compiler, as in every other serial kernel.
    """
    stage = Stage.OFFLOAD_COLLAPSE2.value
    if not policy.simd:
        return PassResult("simd_lanes", stage, False, "policy: no simd")
    marked = 0
    for rep in inner:
        loop = rep.nest
        leaf = not any(isinstance(s, Loop) for s in walk_ir_stmts(loop.body))
        if isinstance(loop.stop, Const) and rep.parallel_depth and leaf:
            loop.simd = True
            marked += 1
    return PassResult(
        "simd_lanes",
        stage,
        bool(marked),
        f"simd on {marked} fixed-width lane loop(s)"
        if marked
        else "no fixed-width independent leaf loops",
    )


def plan_offload(
    kernel: Kernel, policy: TransformPolicy | None = None
) -> TransformPlan:
    """Run the full derivation: normalize → fission → collapse → simd.

    Every annotation on the returned plan's kernel is justified by a
    :class:`NestReport`; the reports and per-pass outcomes are kept on
    the plan so ``codee transform`` can show the derivation and the
    verifier gate can re-check it. A nest that stays serial also gets
    its inner loops analyzed (:func:`analyze_inner_loops`), so the plan
    shows which loops inside it are independent even when the outer
    one is not.
    """
    policy = policy or TransformPolicy()
    plan = TransformPlan(kernel=kernel, policy=policy)
    plan.passes.append(normalize_loops(kernel))
    if policy.fission:
        for loop in list(kernel.loops()):
            plan.passes.append(fission_loop(kernel, loop))
    for nest in kernel.loops():
        report = analyze_nest(kernel, nest)
        plan.reports[nest.var] = report
        plan.passes.append(collapse_nest(kernel, nest, policy, report))
        plan.passes.append(hoist_automatic_arrays(kernel, nest, report))
        plan.passes.append(simd_innermost(kernel, nest, policy))
        if not nest.parallel:
            plan.inner[nest.var] = analyze_inner_loops(kernel, nest)
            plan.passes.append(simd_lanes(policy, plan.inner[nest.var]))
    return plan


def plan_host(kernel: Kernel) -> TransformPlan:
    """The derivation every production kernel is compiled under.

    :func:`plan_offload` with parallel annotations off. The model's
    parallelism lives at the rank level (threads or forked processes),
    so an ``omp parallel`` region inside a rank would oversubscribe the
    cores the ranks own, and a thread pool started in the parent
    process does not survive the fork of process ranks. The analysis
    still runs in full — the reports keep every proven parallel depth —
    and the fixed-width lane loops of serial nests still get
    ``omp simd``.
    """
    return plan_offload(kernel, TransformPolicy(parallel=False))
