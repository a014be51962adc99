"""Static verification of loop-IR kernels (rules VFY006–VFY010).

The Fortran-source verifier (`repro.codee.verifier`) checks the
*annotated source* side of the paper's workflow; this module checks
the *generated kernel* side: after `repro.codee.transform` has
annotated a :class:`~repro.codee.loopir.Kernel`, these rules prove
the annotations safe before `repro.codee.cgen` is allowed to emit C.
Findings reuse the same :class:`~repro.codee.verifier.Violation`
record, severity/category semantics, deterministic ordering, and
SARIF/JSON plumbing — ``codee verify --ir NAME`` reports them through
the identical exit-code contract (0 clean / 2 errors).

Since IR kernels have no source file, ``path`` is the synthetic
``<ir:kernel_name>`` and ``line`` is the statement's 1-based preorder
index (:meth:`~repro.codee.loopir.Kernel.statement_lines`), which the
``codee transform`` listing prints alongside each statement.

Rules:

=======  ============  ====================================================
id       name          what it proves
=======  ============  ====================================================
VFY006   ir-race       plain stores in a parallel nest are indexed by every
                       collapsed variable; mutated scalars are nest-private
VFY007   ir-alias      no write through a ``restrict`` pointer that shares
                       an alias group with another parameter
VFY008   ir-intent     stores respect declared array intents
VFY009   ir-reduction  accumulations missing a collapsed index carry an
                       explicit reduction annotation
VFY010   ir-stack      local arrays of parallel nests fit the stack/heap
                       budgets (the VFY004 model applied to the IR)
=======  ============  ====================================================
"""

from __future__ import annotations

from repro.codee.loopir import (
    Assign,
    Bin,
    Decl,
    Kernel,
    Let,
    Load,
    LocalArray,
    Loop,
    Stmt,
    Store,
    Sym,
    expr_loads,
    expr_syms,
    stmt_exprs,
    walk_ir_stmts,
)
from repro.codee.verifier import (
    CHECK_IR_ALIAS,
    CHECK_IR_INTENT,
    CHECK_IR_RACE,
    CHECK_IR_REDUCTION,
    CHECK_IR_STACK,
    CHECK_RULES,
    VerifierConfig,
    Violation,
    sort_violations,
)

_CTYPE_BYTES = {
    "double": 8,
    "float": 4,
    "long": 8,
    "int": 4,
    "unsigned char": 1,
}

#: Scalar-update operators accepted as reduction patterns.
_SCALAR_REDUCTION_OPS = {"+", "-", "*"}


def _ir_path(kernel: Kernel) -> str:
    return f"<ir:{kernel.name}>"


def _violation(
    kernel: Kernel,
    check_id: str,
    line: int,
    detail: str,
    severity: str = "error",
) -> Violation:
    return Violation(
        check_id=check_id,
        title=CHECK_RULES[check_id][0],
        path=_ir_path(kernel),
        line=line,
        routine=kernel.name,
        detail=detail,
        severity=severity,
    )


def _parallel_nests(kernel: Kernel) -> list[Loop]:
    return [
        s
        for s in walk_ir_stmts(kernel.body)
        if isinstance(s, Loop) and s.parallel
    ]


def _is_plain(elem, var: str) -> bool:
    return isinstance(elem, Sym) and elem.name == var


def _nest_private_names(nest: Loop) -> tuple[set[str], set[str]]:
    """(scalar names, local array names) declared under ``nest``."""
    scalars: set[str] = set()
    arrays: set[str] = set()
    for stmt in walk_ir_stmts(nest.body):
        if isinstance(stmt, (Let, Decl)):
            scalars.add(stmt.name)
        elif isinstance(stmt, LocalArray):
            arrays.add(stmt.name)
        elif isinstance(stmt, Loop):
            scalars.add(stmt.var)
    return scalars, arrays


def _is_scalar_reduction_update(stmt: Assign) -> bool:
    value = stmt.value
    return (
        isinstance(value, Bin)
        and value.op in _SCALAR_REDUCTION_OPS
        and (value.left == Sym(stmt.name) or value.right == Sym(stmt.name))
    )


def _check_ir_races(kernel: Kernel, lines: dict[int, int]) -> list[Violation]:
    out: list[Violation] = []
    for nest in _parallel_nests(kernel):
        chain = nest.nest_chain()
        collapsed = [lp.var for lp in chain[: max(1, nest.collapse)]]
        private_scalars, private_arrays = _nest_private_names(nest)
        reduced = {name for _, name in nest.reductions}

        for stmt in walk_ir_stmts(nest.body):
            if isinstance(stmt, Assign) and stmt.name not in private_scalars:
                if stmt.name in reduced and _is_scalar_reduction_update(stmt):
                    continue
                if _is_scalar_reduction_update(stmt):
                    out.append(
                        _violation(
                            kernel,
                            CHECK_IR_REDUCTION,
                            lines[id(stmt)],
                            f"scalar {stmt.name} accumulates across "
                            "iterations of the parallel nest without a "
                            "reduction annotation",
                        )
                    )
                else:
                    out.append(
                        _violation(
                            kernel,
                            CHECK_IR_RACE,
                            lines[id(stmt)],
                            f"scalar {stmt.name} is written inside the "
                            "parallel nest but declared outside it: every "
                            "thread races on one location",
                        )
                    )
                continue
            if not isinstance(stmt, Store) or stmt.array in private_arrays:
                continue
            missing = [
                v
                for v in collapsed
                if not any(_is_plain(e, v) for e in stmt.index)
            ]
            if not missing:
                continue
            if stmt.op in ("+=", "-="):
                if stmt.array in reduced:
                    continue
                out.append(
                    _violation(
                        kernel,
                        CHECK_IR_REDUCTION,
                        lines[id(stmt)],
                        f"array {stmt.array} accumulates without indexing "
                        f"by collapsed loop variable(s) "
                        f"{', '.join(missing)} and carries no reduction "
                        "annotation",
                    )
                )
            else:
                out.append(
                    _violation(
                        kernel,
                        CHECK_IR_RACE,
                        lines[id(stmt)],
                        f"store to {stmt.array} is not indexed by collapsed "
                        f"loop variable(s) {', '.join(missing)}: different "
                        "threads write the same element",
                    )
                )
    return out


def _check_ir_alias(kernel: Kernel, lines: dict[int, int]) -> list[Violation]:
    out: list[Violation] = []
    arrays = kernel.arrays()
    groups: dict[str, list[str]] = {}
    for param in arrays.values():
        if param.alias_group:
            groups.setdefault(param.alias_group, []).append(param.name)
    suspect = {
        name
        for group in groups.values()
        if len(group) > 1
        for name in group
    }
    if not suspect:
        return out
    reported: set[str] = set()
    for nest in _parallel_nests(kernel):
        for stmt in walk_ir_stmts(nest.body):
            if (
                isinstance(stmt, Store)
                and stmt.array in suspect
                and stmt.array not in reported
            ):
                reported.add(stmt.array)
                group = arrays[stmt.array].alias_group
                others = sorted(
                    n for n in groups[group] if n != stmt.array
                )
                out.append(
                    _violation(
                        kernel,
                        CHECK_IR_ALIAS,
                        lines[id(stmt)],
                        f"{stmt.array} is written in a parallel region but "
                        f"shares alias group {group!r} with "
                        f"{', '.join(others)}: the emitted restrict "
                        "qualifiers would be unsound",
                    )
                )
    return out


def _check_ir_intent(kernel: Kernel, lines: dict[int, int]) -> list[Violation]:
    out: list[Violation] = []
    arrays = kernel.arrays()
    stored: set[str] = set()
    for stmt in walk_ir_stmts(kernel.body):
        if not isinstance(stmt, Store):
            continue
        param = arrays.get(stmt.array)
        if param is None:
            continue  # LocalArray target
        stored.add(param.name)
        if param.intent == "in":
            out.append(
                _violation(
                    kernel,
                    CHECK_IR_INTENT,
                    lines[id(stmt)],
                    f"store to intent(in) array {param.name}: the derived "
                    "map(to:) clause would lose the write",
                )
            )
    for param in arrays.values():
        if param.intent == "out" and param.name not in stored:
            out.append(
                _violation(
                    kernel,
                    CHECK_IR_INTENT,
                    1,
                    f"intent(out) array {param.name} is never stored: "
                    "map(from:) would copy back undefined data",
                    severity="warning",
                )
            )
    return out


def _check_ir_stack(
    kernel: Kernel, lines: dict[int, int], config: VerifierConfig
) -> list[Violation]:
    out: list[Violation] = []
    for nest in _parallel_nests(kernel):
        frame = 0
        first: LocalArray | None = None
        for stmt in walk_ir_stmts(nest.body):
            if isinstance(stmt, LocalArray):
                frame += stmt.elements * _CTYPE_BYTES.get(stmt.ctype, 8)
                first = first or stmt
        if first is None or frame <= config.stack_bytes:
            continue
        resident = config.max_resident_threads * frame
        over_heap = resident > config.heap_bytes
        detail = (
            f"local arrays of the parallel nest over {nest.var!r} need "
            f"{frame} B/thread (stack budget {config.stack_bytes} B)"
        )
        if over_heap:
            detail += (
                f"; spilling {config.max_resident_threads} resident "
                f"threads needs {resident} B (heap budget "
                f"{config.heap_bytes} B)"
            )
        out.append(
            _violation(
                kernel,
                CHECK_IR_STACK,
                lines[id(first)],
                detail,
                severity="error" if over_heap else "warning",
            )
        )
    return out


def verify_kernel(
    kernel: Kernel, config: VerifierConfig | None = None
) -> list[Violation]:
    """All VFY006–VFY010 findings for one IR kernel, sorted."""
    config = config or VerifierConfig()
    lines = kernel.statement_lines()
    violations: list[Violation] = []
    violations.extend(_check_ir_races(kernel, lines))
    violations.extend(_check_ir_alias(kernel, lines))
    violations.extend(_check_ir_intent(kernel, lines))
    violations.extend(_check_ir_stack(kernel, lines, config))
    return sort_violations(violations)
