"""Loop-invariant discovery by backward iteration.

``find_invariant`` starts from the weakest fact that must hold on loop
exit — the negated guard conjoined with the postcondition — and pulls it
backwards through the loop body one iteration at a time, simplifying
each result under the guard.  The sequence of approximations usually
grows forever; whenever a new approximation is *coupled* (structurally
similar, see embedding) with an earlier one, the two are collapsed to
their most specific generalisation, trading concrete iteration counts
for generalisation variables.  The search stops successfully when an
approximation is a mere renaming of an earlier one: that formula is
returned as the putative invariant, its generalisation variables to be
instantiated by the solver.

``annotate_program`` runs the search over every loop of a program,
innermost loops first and rightmost siblings before their prefixes so
each loop's postcondition can be computed by pulling the program's
postcondition backwards through the already-annotated suffix, which
passes a later loop only by its summary (see wlp).  Loops buried inside
another loop's body, and loops that a later loop without a summary
follows, have no derivable postcondition and must carry one in the
source (``WHILE b DO s {q}``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .embedding import FreshSupply, coupled, msg, msg_list
from .simplifier import RewriteEvent, SimpConfig, simplify
from .terms import (
    BOOL,
    Block,
    Expr,
    If,
    Op,
    Seq,
    SortError,
    Stmt,
    TRUE,
    Triple,
    While,
    free_vars,
    program_vars,
    renaming_of,
    sort_of,
    substatements,
    top_conjuncts,
)
from .wlp import WlpError, wlp


@dataclass(frozen=True)
class EngineConfig:
    max_iterations: int = 64
    simp: SimpConfig = SimpConfig()


@dataclass(frozen=True)
class TraceStep:
    kind: str  # Init | WLPStep | GeneraliseStep | RenamingFound | Budget
    formula: Expr
    note: str = ""


@dataclass
class DerivationTrace:
    steps: list[TraceStep] = field(default_factory=list)


class EngineFailure(Exception):
    """Invariant search failed; kind ∈ {IterationBudget, AllBranchesTrue,
    NoCommonShape, MissingPostcondition} plus wrapped wlp errors."""

    def __init__(self, kind: str, message: str, trace: DerivationTrace | None = None):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.message = message
        self.trace = trace


def _genvars_in(p: Expr, fresh: FreshSupply) -> tuple[str, ...]:
    fv = free_vars(p)
    return tuple(name for name in fresh.created if name in fv)


def find_invariant(
    loop: While,
    post: Expr,
    cfg: EngineConfig | None = None,
    fresh: FreshSupply | None = None,
    simp_log: list[RewriteEvent] | None = None,
) -> tuple[Expr, tuple[str, ...], DerivationTrace]:
    """Derive a putative invariant for `loop` against postcondition `post`.

    Returns (invariant, generalisation variables in creation order,
    derivation trace).  The invariant holds by construction on the exit
    iteration; whether its generalisation variables can be instantiated
    to witness the earlier iterations is the solver's job.
    """
    cfg = cfg or EngineConfig()
    if fresh is None:
        avoid = program_vars(Triple(TRUE, loop, post))
        fresh = FreshSupply(avoid=frozenset(avoid))

    guard = loop.cond
    p = simplify(TRUE, Op("∧", (Op("¬", (guard,)), post)), cfg.simp, simp_log)
    trace = DerivationTrace([TraceStep("Init", p, "negated guard conjoined with the postcondition")])
    history: list[Expr] = []

    for _ in range(cfg.max_iterations):
        genvars = set(fresh.created)

        fold = next(
            (
                i
                for i in range(len(history) - 1, -1, -1)
                if renaming_of(p, history[i], genvars) is not None
            ),
            None,
        )
        if fold is not None:
            trace.steps.append(
                TraceStep("RenamingFound", p, f"renaming of approximation {fold + 1}")
            )
            return p, _genvars_in(p, fresh), trace

        similar = next(
            (i for i in range(len(history) - 1, -1, -1) if coupled(history[i], p)), None
        )
        if similar is not None:
            merged = msg(p, history[similar], fresh).generalised
            if renaming_of(merged, p, set(fresh.created)) is not None:
                # Generalising changed nothing: p is already as general as
                # its history; further iterations would only rename it.
                trace.steps.append(
                    TraceStep("RenamingFound", p, "generalisation reached a fixed point")
                )
                return p, _genvars_in(p, fresh), trace
            trace.steps.append(
                TraceStep(
                    "GeneraliseStep", merged, f"generalised against approximation {similar + 1}"
                )
            )
            p = merged
            continue

        pulled = wlp(loop.body, p)
        units = top_conjuncts(pulled)
        if not any(isinstance(u, Op) and u.op == "⇒" for u in units):
            units = [pulled]  # no guarded paths: keep the formula whole
        simplified = [simplify(guard, u, cfg.simp, simp_log) for u in units]
        live = [s for s in simplified if s != TRUE]
        if not live:
            raise EngineFailure(
                "AllBranchesTrue",
                "every path through the body simplified to True; nothing to iterate on",
                trace,
            )
        new_p = msg_list(live, fresh)
        assert not any(coupled(q, p) for q in history), "appending a foldable approximation"
        history.append(p)
        note = f"pulled back through the body; paths: {len(units)}"
        if len(units) != len(live):
            note += f"; collapsed to True: {len(units) - len(live)}"
        trace.steps.append(TraceStep("WLPStep", new_p, note))
        p = new_p
        try:  # paths of different shapes generalise to a variable, which is no formula
            shaped = sort_of(p) == BOOL
        except SortError:
            shaped = False
        if not shaped:
            raise EngineFailure("NoCommonShape", "the body's paths generalise to no formula", trace)

    trace.steps.append(
        TraceStep("Budget", p, f"no renaming of an earlier approximation within {cfg.max_iterations} iterations")
    )
    raise EngineFailure(
        "IterationBudget", f"gave up after {cfg.max_iterations} iterations", trace
    )


@dataclass
class LoopDiscovery:
    """Outcome of invariant discovery for one loop of a program."""

    line: int | None
    node: While  # the annotated node, as embedded in the returned program
    putative: Expr | None
    genvars: tuple[str, ...]
    trace: DerivationTrace | None
    failure: EngineFailure | None = None
    post: Expr | None = None  # the postcondition discovery worked from


def annotate_program(
    triple: Triple,
    cfg: EngineConfig | None = None,
    simp_log: list[RewriteEvent] | None = None,
) -> tuple[Triple, list[LoopDiscovery]]:
    """Discover an invariant for every loop in the program.

    Returns the program with loops annotated (where discovery succeeded)
    and one LoopDiscovery per loop in source order.  Discovery failures
    are recorded, not raised: a later loop may still succeed, and loops
    whose postcondition cannot be derived are reported as
    MissingPostcondition.
    """
    cfg = cfg or EngineConfig()
    fresh = FreshSupply(avoid=frozenset(program_vars(triple)))
    found: dict[int, LoopDiscovery] = {}  # by the source loop's identity

    def visit(st: Stmt, post: Expr | None) -> Stmt:
        match st:
            case Seq(a, b):
                b2 = visit(b, post)
                if post is not None:
                    try:
                        a_post: Expr | None = wlp(b2, post)
                    except WlpError:
                        a_post = None
                else:
                    a_post = None
                a2 = visit(a, a_post)
                return Seq(a2, b2)
            case If(cond, t, e):
                return If(cond, visit(t, post), visit(e, post))
            case Block(locs, body):
                return Block(locs, visit(body, post))
            case While(_, body) as loop:
                node = replace(loop, body=visit(body, None))
                my_post = loop.post if loop.post is not None else post
                putative, genvars, trace, failure = None, (), None, None
                try:
                    if my_post is None:
                        raise EngineFailure(
                            "MissingPostcondition",
                            "no postcondition reaches this loop; it needs a trailing {assertion}",
                        )
                    putative, genvars, trace = find_invariant(node, my_post, cfg, fresh, simp_log)
                    node = replace(node, invariant=putative)
                except EngineFailure as err:
                    trace, failure = err.trace, err
                except WlpError as err:
                    failure = EngineFailure("Wlp", str(err))
                found[id(loop)] = LoopDiscovery(loop.line, node, putative, genvars, trace, failure, my_post)
                return node
            case _:
                return st

    program = visit(triple.program, triple.post)
    loops = [found[id(st)] for st in substatements(triple.program) if isinstance(st, While)]
    return Triple(triple.pre, program, triple.post), loops
