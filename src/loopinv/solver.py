"""Instantiating generalisation variables by bounded testing.

A putative invariant speaks about generalisation variables that stand
for "some value changing across iterations".  To certify it, each such
variable v needs three witnesses:

* an *initial* expression over program variables — the invariant,
  instantiated with it, must hold when the loop is first entered;
* a *step* expression over program variables and v's previous value —
  walking it along every observed iteration must keep the invariant
  true; and
* a *final* expression — the invariant instantiated with it, together
  with the negated guard, must imply the loop's postcondition.

Witnesses are searched for among small expression templates, smallest
first, against trajectories collected by actually running the program
on every input store within the domain bound whose values satisfy the
precondition.  A template is an atom (the literal 0, 1 or 2, a program
variable, and for a step the variable's previous value) or an operator
over two templates of operator depth ≤ 1, so its size is 1, 3, 5 or 7;
``_Pool`` orders one size, and every stage scans its candidates by
total size with ``_Search._survivors``.  Only sizes 1 and 3 are held,
and a template of size 3 is built when first asked for, since six
operators over nine atoms give about 1.4 million of size 7; a larger
size is enumerated as rows (an operator, a left template and a list of
right ones), building a node only when asked.  A search builds its pools
once: one for the initials and finals, one per variable for the steps.
Everything is a bounded check over the naturals, so a positive verdict
is "verified up to the bound", never a proof.

Errors during testing are treated asymmetrically, matching their
meaning.  A candidate initial (or final) whose evaluation fails on a
tested store is rejected outright.  A *step* whose evaluation fails
mid-trajectory may truncate that one trajectory, but only where the
invariant leaves the failing variable's next value *undetermined* at
the post-store: the invariant's conjuncts that mention the variable,
evaluated at the post-store, admit two or more values for it (``y = 0``
in ``y*g = 0^n`` admits every value).  That keeps division steps like
``g/k`` alive on the ``k = 0`` runs, where nothing is left to track.
When the conjuncts pin the next value, or admit none, the error
rejects the candidate.  The admitted values are computed by inverting
an equation through ``+`` and ``*`` along the one occurrence of the
variable; for any other shape the rule cannot tell and the error
truncates, as it always did.  That shape analysis is done once per
conjunct and variable and kept on the conjunct's node, so a failing
step costs only the evaluation of the operands it names.  The search,
its conditional-step prefilter and ``check_requirements`` all apply
this one rule, in the one-transition step ``_advance``.  A step must
still validate at least one transition somewhere when transitions
exist, so perpetually-erroring junk like v/0 still loses.

Before any search, each single-variable component is tested for a
witness that cannot exist: an entry store where the invariant admits no
value for the variable, or an entry store that pins the value and whose
first transition leads to a post-store that admits none.  When that
test fires, the invariant as derived has no witness and the solver
*coarsens* it: the smallest subterm enclosing the variable's occurrence
is abstracted by the variable itself (``y*(z*g) = k^n`` becomes
``y*g = k^n``), and the search runs on the coarser invariant with the
same stats and budget.  A coarsening applies only where the variable
occurs once in the invariant and its parent is an arithmetic operator
whose other operand holds no generalisation variable.  It is refused
when the coarser invariant would not mention a variable that the
loop's postcondition mentions and its body assigns: no witness can
then track that variable.  If no coarsening succeeds, the failure of
the invariant as derived is raised.  ``InvariantReport.invariant`` is
the invariant the assignment witnesses.

The invariant's conjuncts are partitioned into connected components by
shared generalisation variables and each component is solved
independently (initials major, steps backtracked per initial); finals
are then searched jointly across all variables.  When the loop body
branches at the top level, step candidates additionally include
conditional expressions choosing between two templates by the branch
condition.  Their branch templates are prefiltered per template size,
when the scan of the pairs first reaches that size, on the first
transitions that take the branch: judged at the front of those
transitions as a step is judged along its runs, and checked in full
when the front leaves them.  Each counts against ``max_candidates`` like
a candidate.  A run whose branch condition fails to evaluate at its
entry takes neither branch.  The assembled
assignment is re-verified by ``check_requirements``, and that verdict
is what gets reported.  Each requirement has one check, returning the
first failing store or None, which the search calls per component and
``check_requirements`` calls on all conjuncts and variables jointly, on
the runs the search used.  Only the search demands that a step validate
some transition; only ``check_requirements`` demands the postcondition
on the exit stores of the observed runs, since a final is not tied to
the value the step walks its variable to.

The search tries counterexamples first.  The requirement 1 and 2 checks
move the entry or run that refutes a candidate to the front of the list
they were given, and the search passes its own lists again for the
next candidate; the conditional prefilter does the same with its first
transitions.  A candidate passes only when it passes everywhere, so the
order decides which counterexample is found, never whether one is:
pass/fail, the iterations a passing step validates, ``candidates_tried``,
assignments and verdicts are those of a scan smallest input first.
Only the work counters of ``SolveStats`` (``stores_tested``,
``eval_rejections``, ``step_truncations``) fall.  Since almost every
candidate is refuted by an item that has refuted one before, it is
first judged on those items by value alone (``_Front``): an initial at
their entry stores, a step along their runs as the full check walks
them, from the value the initial fixes (``_front_run``).  A candidate's
last template is scanned by rows (``_Search._survivors``): at each
store the atoms are evaluated, the templates of size 3 are valued from
them by ``evaluator.ARITHMETIC`` when first needed, and a row's
template is its operator applied to two such values.  A row is judged
whole at the front store (``_Level.summary``): the right templates are
grouped by value once per store, so the test runs once per tuple of
values, and the scan jumps from one survivor to the next, counting the
refuted templates in between in bulk.  A survivor that passes the front
store is valued and tested again at each later iteration of the front
run, with the variables at the values walked to, and then along each
later judged item in list order; there is one set of values per
iteration and values of the variables, and the invariant usually pins
them.  The judged items are the prefix of the list that has been at the
front (see ``_Front``).  A refuted candidate is never built: the
refuting item is moved to the front, and the full check's counts reach
``SolveStats`` before the next survivor and before the budget runs out,
so every count, the order of the items and the candidate the budget
stops at are those of the full check alone.  A candidate that passes
every judged item goes on to the full check, which may put another item
in front.  The full checks hold one closure for the conjuncts and one
for the candidate (``evaluator.conjunction`` and ``valuation``).  The
finals are scanned without a front: their check starts at the smallest
stores, where a final is usually refuted.  So are the pairs of branch
templates, each of which has passed its first transitions.  The
initials are evaluated once per run for each initial that holds, not
once per step candidate.
``check_requirements`` passes fresh lists in the order the runs were
collected, smallest input first, so it reports the first counterexample
in that order.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

from .evaluator import (
    _ANY, _NONE, ARITHMETIC, EvalError, Finished, Store, Visit, _admitted, _occurrences,
    conjunction, eval_expr, exec_stmt, first_store, holds, stores, valuation,
)
from .parser import pretty
from .terms import (
    NAT_OPS,
    Assign,
    Block,
    Case,
    Expr,
    If,
    Num,
    Op,
    Seq,
    Skip,
    Stmt,
    Triple,
    Var,
    While,
    free_vars,
    global_vars,
    scopes,
    substitute,
    top_conjuncts,
)


@dataclass(frozen=True)
class SolverConfig:
    domain_bound: int = 6
    operator_pool: tuple[str, ...] = ("+", "-", "*", "/", "%", "^")
    exec_fuel: int = 10_000
    max_candidates: int = 200_000

    def __post_init__(self) -> None:
        if self.domain_bound < 1:
            raise ValueError("bounds must be positive")
        if not set(self.operator_pool) <= set(ARITHMETIC):
            raise ValueError("template operators must be arithmetic")


@dataclass
class Assignment:
    """Chosen witnesses per generalisation variable."""

    initial: dict[str, Expr]
    step: dict[str, Expr]
    final: dict[str, Expr]


@dataclass
class SolveStats:
    """The work of one `solve`: trajectory collection and the search.  The
    re-check by `check_requirements` inside `solve` counts into a
    SolveStats of its own, which is dropped, so `stores_tested` counts the
    search's stores only."""

    candidates_tried: int = 0
    stores_tested: int = 0
    eval_rejections: int = 0
    step_truncations: int = 0
    runs_collected: int = 0
    runs_skipped: int = 0


@dataclass(frozen=True)
class Verdict:
    pass


@dataclass(frozen=True)
class VerifiedUpToBound(Verdict):
    bound: int


@dataclass(frozen=True)
class Failed(Verdict):
    requirement: int  # 1 = on entry, 2 = preservation, 3 = implies post
    counterexample: tuple[tuple[str, int], ...]

    def store(self) -> Store:
        return dict(self.counterexample)


@dataclass
class InvariantReport:
    invariant: Expr
    genvars: tuple[str, ...]
    assignment: Assignment | None
    verdict: Verdict
    stats: SolveStats


class SolverFailure(Exception):
    """No witness assignment was found.

    `requirement` names the first unsatisfiable check: 1 when no initial
    candidate held on the collected entry stores, 2 when some initial
    held but every step candidate broke a trajectory, 3 when finals
    failed.  `detail` is human-readable; `stats` records the search
    effort."""

    def __init__(self, requirement: int, detail: str, stats: SolveStats):
        super().__init__(f"requirement {requirement}: {detail}")
        self.requirement = requirement
        self.detail = detail
        self.stats = stats


class _Budget(Exception):
    pass


# ---------------------------------------------------------------------------
# Trajectories


@dataclass
class LoopRun:
    """One dynamic visit to a loop: the store at each test of its guard,
    from entry to exit.  The store after iteration i is the store before
    iteration i+1, because evaluating the guard changes nothing."""

    states: Visit
    entry: Store = field(init=False)
    exit: Store = field(init=False)
    transitions: list[tuple[Store, Store]] = field(init=False)

    def __post_init__(self) -> None:
        self.entry, self.exit = self.states[0], self.states[-1]
        self.transitions = list(zip(self.states, self.states[1:]))


def input_vars(triple: Triple) -> list[str]:
    """Variables whose initial value the program can observe: free in the
    precondition, read before ever being written, or read by the
    postcondition after some path leaves them unwritten."""
    inputs: set[str] = set(free_vars(triple.pre))

    def walk(st: Stmt, written: set[str]) -> set[str]:
        match st:
            case Skip():
                return written
            case Assign(var, rhs):
                inputs.update(free_vars(rhs) - written)
                return written | {var}
            case Seq(a, b):
                return walk(b, walk(a, written))
            case If(cond, t, e):
                inputs.update(free_vars(cond) - written)
                return walk(t, set(written)) & walk(e, set(written))
            case Block(locs, body):
                inner = walk(body, written | set(locs))
                return (inner - set(locs)) | written
            case While(cond, body):
                inputs.update(free_vars(cond) - written)
                walk(body, set(written))  # body may run zero times
                return written
            case _:
                raise TypeError(f"not a Stmt: {st!r}")

    inputs.update(free_vars(triple.post) - walk(triple.program, set()))
    return sorted(inputs)


def collect_trajectories(
    triple: Triple, loop: While, cfg: SolverConfig, stats: SolveStats | None = None
) -> list[LoopRun]:
    """Run the program on every precondition-satisfying input store with
    values ≤ domain_bound; record each visit to `loop`.  `loop` is matched
    by object identity, so pass the node from the very program being run.
    Runs that do not finish cleanly are skipped."""
    stats = stats if stats is not None else SolveStats()
    zeros = dict.fromkeys(sorted(global_vars(triple)), 0)
    runs: list[LoopRun] = []
    for inputs in stores(input_vars(triple), cfg.domain_bound):
        store = {**zeros, **inputs}
        if not holds(triple.pre, store):
            continue
        outcome = exec_stmt(triple.program, store, cfg.exec_fuel, loop)
        if not isinstance(outcome, Finished):
            stats.runs_skipped += 1
            continue
        runs.extend(LoopRun(states) for states in outcome.visits)
    stats.runs_collected += len(runs)
    return runs


# ---------------------------------------------------------------------------
# Template enumeration


_LITERALS = (0, 1, 2)
_SIZES = (1, 3, 5, 7)  # the template sizes of operator depth ≤ 2
Row = tuple[str | None, int, int, int]  # (op, ls, i, rs); see _Pool


class _Lazy(Sequence):
    """A sequence whose k-th item is `make(k)`, made when first asked for
    and kept."""

    def __init__(self, n: int, make: Callable[[int], Expr]):
        self.items: list[Expr | None] = [None] * n
        self.make = make

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, k: int) -> Expr:
        item = self.items[k]
        if item is None:
            item = self.items[k] = self.make(k)
        return item


class _Pool:
    """Templates over `atoms` by size.  One of size n > 1 is `Op(op, (l, r))`
    with l and r of size 1 or 3 summing to n-1, ordered by operator, then
    left size, then left, then right.  A row `(op, ls, i, rs)` is op over
    the left `lists[ls][i]` and each right of `lists[rs]`; size 1 is the row
    `(None, 1, 0, 1)` of the atoms.  Sizes 1 and 3 are kept as sequences:
    a template of size 3 is built when its index is first asked for, and
    the same node, with the closure it was compiled to, comes back each
    time.  The pool called for a larger size builds its templates lazily,
    and afresh on every call."""

    def __init__(self, atoms: list[Expr], ops: tuple[str, ...]):
        self.ops, width = ops, len(atoms)

        def pair(k: int) -> Expr:
            o, i, j = k // width**2, k // width % width, k % width
            return Op(ops[o], (atoms[i], atoms[j]))

        self.lists: dict[int, Sequence[Expr]] = {1: list(atoms), 3: _Lazy(len(ops) * width**2, pair)}

    def __call__(self, n: int) -> Iterable[Expr]:
        if n in self.lists:
            return self.lists[n]
        return (Op(op, (self.lists[ls][i], r)) for op, ls, i, rs in self.rows(n) for r in self.lists[rs])

    def rows(self, n: int) -> Iterator[Row]:
        if n == 1:
            yield None, 1, 0, 1
        for op in self.ops if n > 1 else ():
            for ls in (1, 3):
                if n - 1 - ls in self.lists:
                    for i in range(len(self.lists[ls])):
                        yield op, ls, i, n - 1 - ls

    def template(self, row: Row, j: int) -> Expr:
        op, ls, i, rs = row
        if op is None:
            return self.lists[rs][j]
        if ls == rs == 1:  # size 3, kept
            width = len(self.lists[1])
            return self.lists[3][(self.ops.index(op) * width + i) * width + j]
        return Op(op, (self.lists[ls][i], self.lists[rs][j]))


class _Kept(_Pool):
    """The templates that `sift(n)` keeps of size n: a size is sifted when
    it is first asked for, and is then the one row `(None, n, 0, n)`."""

    def __init__(self, sift: Callable[[int], list[Expr]]):
        self.sift, self.lists = sift, {}

    def __call__(self, n: int) -> list[Expr]:
        if n not in self.lists:
            self.lists[n] = self.sift(n)
        return self.lists[n]

    def rows(self, n: int) -> Iterator[Row]:
        self(n)
        yield None, n, 0, n


def _heads(pools: list[_Pool], sizes: list[int]) -> Iterator[tuple[Expr, ...]]:
    """Each tuple of one template of the given size from each pool, in
    order.  A later pool is asked for its size only once each earlier
    pool has given a template."""
    if not pools:
        return iter([()])
    return ((head, *rest) for head in pools[0](sizes[0]) for rest in _heads(pools[1:], sizes[1:]))


# ---------------------------------------------------------------------------
# Requirement checks, shared by the search and check_requirements


@dataclass
class _Component:
    genvars: tuple[str, ...]
    conjuncts: list[Expr]


def _split_components(
    conjuncts: list[Expr], genvars: tuple[str, ...]
) -> tuple[list[_Component], list[Expr]]:
    parent = {g: g for g in genvars}

    def find(g: str) -> str:
        while parent[g] != g:
            parent[g] = parent[parent[g]]
            g = parent[g]
        return g

    per_conjunct: list[tuple[str, ...]] = []
    for c in conjuncts:
        present = tuple(g for g in genvars if g in free_vars(c))
        per_conjunct.append(present)
        for other in present[1:]:
            parent[find(other)] = find(present[0])

    base = [c for c, gs in zip(conjuncts, per_conjunct) if not gs]
    groups: dict[str, _Component] = {}
    for g in genvars:  # creation order
        root = find(g)
        groups.setdefault(root, _Component((), [])).genvars += (g,)
    for c, gs in zip(conjuncts, per_conjunct):
        if gs:
            groups[find(gs[0])].conjuncts.append(c)
    return list(groups.values()), base


def _no_witness(comp: _Component, runs: list[LoopRun]) -> tuple[int, str] | None:
    """(requirement, reason) when the runs alone show that no witness
    exists for a single-variable component: an entry store admits no
    value, or one pins the value and its first transition leads to a
    post-store that admits none.  None when neither shows."""
    if len(comp.genvars) != 1:
        return None
    (g,) = comp.genvars
    for run in runs:
        pinned = _admitted(comp.conjuncts, g, run.entry)
        if pinned == _NONE:
            return 1, f"no value of {g} satisfies the invariant on entry store {run.entry}"
        if pinned in (_ANY, None) or not run.transitions:
            continue
        _, post = run.transitions[0]  # the pre-store is the entry store
        if _admitted(comp.conjuncts, g, post) == _NONE:
            return 2, (
                f"{g} is pinned to {pinned} on entry store {run.entry}, but no value "
                f"of {g} satisfies the invariant after the first iteration, at {post}"
            )
    return None


def _coarsen(invariant: Expr, g: str, genvars: tuple[str, ...]) -> Expr | None:
    """`invariant` with the smallest subterm enclosing `g` replaced by `g`;
    None unless `g` occurs once, under an arithmetic operator whose other
    operand holds no generalisation variable."""
    if _occurrences(invariant, g) != 1:
        return None

    def walk(e: Expr) -> Expr | None:
        if g not in free_vars(e):
            return e
        if not isinstance(e, Op):
            return None
        if Var(g) in e.args:
            alone = e.op in NAT_OPS and free_vars(e) & set(genvars) == {g}
            return Var(g) if alone else None
        args = tuple(walk(a) for a in e.args)
        return None if any(a is None for a in args) else Op(e.op, args)

    return walk(invariant)


def _to_front(items: list, i: int) -> None:
    items.insert(0, items.pop(i))


Holding = Callable[[Store], bool]  # a conjunction, as `evaluator.conjunction` compiles it


def _entry_counterexample(
    conjuncts: list[Expr], initial: dict[str, Expr], entries: list[Store], stats: SolveStats
) -> Store | None:
    """Requirement 1: the first entry store where an initial fails to
    evaluate, or where the conjuncts do not hold with each generalisation
    variable at its initial value; None when every entry passes.  The
    refuting entry is moved to the front of `entries`, so that a caller
    passing the same list again tries it first."""
    holding, valued = conjunction(conjuncts), valuation(initial)
    for i, entry in enumerate(entries):
        if not _entry_holds(holding, entry, valued(entry), stats):
            _to_front(entries, i)
            return entry
    return None


def _value(e: Expr, env: Store) -> int | None:
    """`e`'s value at `env`; None when it fails to evaluate."""
    try:
        return eval_expr(e, env)
    except EvalError:
        return None


def _entry_holds(holding: Holding, entry: Store, gvals: dict[str, int | None], stats: SolveStats) -> bool:
    """Requirement 1 at one entry store, given the conjuncts' conjunction
    and the initials' values there, None where one fails to evaluate,
    which refutes it."""
    if None in gvals.values():
        stats.eval_rejections += 1
        return False
    stats.stores_tested += 1
    return holding({**entry, **gvals})


Start = tuple[LoopRun, dict[str, int]]  # a run and the generalisation variables' initial values


def _starts(initial: dict[str, Expr], runs: list[LoopRun]) -> list[Start]:
    """Each run with the initials evaluated at its entry, for initials
    that passed requirement 1 there."""
    return [(run, {g: eval_expr(e, run.entry) for g, e in initial.items()}) for run in runs]


def _advance(
    conjuncts: list[Expr], holding: Holding, nxt: dict[str, int | None], post: Store, stats: SolveStats
) -> tuple[bool, dict[str, int] | None]:
    """Requirement 2 on one observed iteration to `post`, given the
    conjunction of `conjuncts` and the step's values `nxt`, None where
    one fails to evaluate.  A step error truncates
    the run when, at the post-store with the other variables' next values,
    the conjuncts leave the next value of every failing variable
    undetermined, or cannot tell; otherwise it refutes the step.  (False,
    _) when the step is refuted there, by an error or by conjuncts failing
    at the post-store; (True, None) when it truncates the run; otherwise
    (True, the variables' next values)."""
    gvals = {g: v for g, v in nxt.items() if v is not None}
    failed = [g for g in nxt if g not in gvals]
    env_post = {**post, **gvals}
    if failed:
        if any(_admitted(conjuncts, g, env_post) not in (_ANY, None) for g in failed):
            stats.eval_rejections += 1
            return False, None
        stats.step_truncations += 1
        return True, None
    stats.stores_tested += 1
    return holding(env_post), gvals


def _step_counterexample(
    conjuncts: list[Expr], step: dict[str, Expr], starts: list[Start], stats: SolveStats
) -> tuple[Store | None, int]:
    """Requirement 2 along the runs of `starts` (see `_starts`): the
    pre-store (with the generalisation variables' values) of the first
    iteration that refutes `step`, or None; and the number of iterations
    validated.  The refuting run is moved to the front of `starts`, so
    that a caller passing the same list again tries it first.  A step
    passes only on every run, so the order decides which counterexample
    is found, never whether one is, nor `validated` when none is."""
    holding, valued = conjunction(conjuncts), valuation(step)
    validated = 0
    for i, (run, gvals) in enumerate(starts):
        # Each pre-store is the entry store, where requirement 1 holds, or
        # the post-store of the iteration before, where the conjuncts held.
        for pre, post in run.transitions:
            env_pre = {**pre, **gvals}
            ok, nxt = _advance(conjuncts, holding, valued(env_pre), post, stats)
            if not ok:
                _to_front(starts, i)
                return env_pre, validated
            if nxt is None:
                break
            gvals = nxt
            validated += 1
    return None, validated


def _post_counterexample(
    putative: Expr, final: dict[str, Expr], loop: While, post: Expr, cfg: SolverConfig, stats: SolveStats
) -> Store | None:
    """Requirement 3 over the box of stores of the variables it mentions:
    the first store where the invariant instantiated with `final` and the
    exit condition hold but `post` does not, or None.  Every store a plain
    scan would visit up to that one counts as tested."""
    holding = top_conjuncts(substitute(putative, final)) + [Op("¬", (loop.cond,))]
    store, position = first_store(holding, [post], cfg.domain_bound)
    stats.stores_tested += position
    return store


def _apply(op: str | None, lv: int | None, rv: int | None) -> int | None:
    """A row's template valued from its operands' values (see `_Pool`)."""
    if op is None:
        return rv
    if lv is None or rv is None:
        return None
    try:
        return ARITHMETIC[op]((lv, rv))
    except EvalError:
        return None


class _Values(dict):
    """A pool's templates of sizes 1 and 3 valued at `env` by size, None
    where one fails: worked out on first use, size 3 from size 1 by
    `evaluator.ARITHMETIC`, so that only the atoms are compiled."""

    def __init__(self, pool: _Pool, env: Store):
        super().__init__()
        self.pool, self.env = pool, env
        self.groups: dict[int, dict[int | None, list[int]]] = {}

    def __missing__(self, size: int) -> list[int | None]:
        if size == 1:
            values = [_value(a, self.env) for a in self.pool.lists[1]]
        else:
            values = [_apply(op, self[1][i], rv) for op, _, i, _ in self.pool.rows(3) for rv in self[1]]
        self[size] = values
        return values

    def at(self, row: Row, j: int) -> int | None:
        op, ls, i, rs = row
        return _apply(op, self[ls][i], self[rs][j])

    def positions(self, size: int) -> dict[int | None, list[int]]:
        """Each value of the templates of `size`, with their ascending positions."""
        if size not in self.groups:
            groups = self.groups[size] = {}
            for j, v in enumerate(self[size]):
                groups.setdefault(v, []).append(j)
        return self.groups[size]


@dataclass
class _Summary:
    """What a store says of one row: the ascending positions of the
    templates it leaves to the full check or to a later store, and those
    of the refuted ones, grouped by the (eval_rejections, stores_tested)
    of their refutation."""

    survivors: list[int]
    refuted: list[tuple[list[int], int, int]]

    def next(self, j: int, end: int) -> int:
        """The first survivor from position j on, or `end`."""
        k = bisect.bisect_left(self.survivors, j)
        return self.survivors[k] if k < len(self.survivors) else end

    def counts(self, a: int, b: int) -> tuple[int, int]:
        """The counts of refuting the templates at positions a to b-1."""
        rejected = tested = 0
        for positions, r, t in self.refuted:
            n = bisect.bisect_left(positions, b) - bisect.bisect_left(positions, a)
            rejected, tested = rejected + n * r, tested + n * t
        return rejected, tested


# Where a store ends the check of an item: (refuted, eval_rejections,
# stores_tested, step_truncations), the counts the full check adds there.
Outcome = tuple[bool, int, int, int]


class _Level:
    """One store of an item of the front, where candidates are judged by
    value: an entry store for initials, an iteration of a run for steps.
    `test(values, stats)` is the full check's test of that store: False
    when it refutes, True when the item passes there (an entry that
    holds, a run's last iteration, a truncating step error), or the
    `_Level` of the next iteration."""

    def __init__(self, pool: _Pool, env: Store, test: Callable):
        self.values, self.test = _Values(pool, env), test
        self.outcomes: dict[tuple, Outcome | _Level] = {}  # by tuple of values
        self.summaries: dict[tuple, _Summary] = {}

    def outcome(self, genvars: tuple[str, ...], key: tuple) -> Outcome | _Level:
        """What this store says of a candidate whose templates take the values `key`."""
        if key not in self.outcomes:
            tally = SolveStats()
            got = self.test(dict(zip(genvars, key)), tally)
            self.outcomes[key] = got if isinstance(got, _Level) else (
                not got, tally.eval_rejections, tally.stores_tested, tally.step_truncations
            )
        return self.outcomes[key]

    def summary(self, genvars: tuple[str, ...], heads: list[Expr], row: Row) -> _Summary:
        """The row after `heads`, judged at this store once per value of
        the heads and of the row's left template."""
        head = tuple(_value(h, self.values.env) for h in heads) if heads else ()
        op, ls, i, rs = row
        lv = self.values[ls][i]
        key = (head, op, lv, rs)
        if key not in self.summaries:
            survivors, refuted = [], {}
            for rv, positions in self.values.positions(rs).items():
                got = self.outcome(genvars, head + (_apply(op, lv, rv),))
                if isinstance(got, tuple) and got[0]:
                    refuted.setdefault(got[1:3], []).extend(positions)
                else:
                    survivors.extend(positions)
            self.summaries[key] = _Summary(
                sorted(survivors), [(sorted(p), *counts) for counts, p in refuted.items()]
            )
        return self.summaries[key]


def _entry_level(holding: Holding, pool: _Pool, entry: Store) -> _Level:
    """An entry store as the `_Level` of an item of the initials' front,
    given the conjuncts' conjunction."""
    return _Level(pool, entry, functools.partial(_entry_holds, holding, entry))


def _front_run(
    conjuncts: list[Expr], holding: Holding, pool: _Pool, start: Start, j: int = 0
) -> _Level | None:
    """The j-th iteration of a start's run as a `_Level` of the step front:
    `_step_counterexample` on that run alone, from values, given the
    conjunction of `conjuncts`.  A pass leads to the next iteration,
    entered with the values the step gave; a truncating error and the
    last iteration pass the run.  None for a run without iterations."""
    run, gvals = start
    if j == len(run.transitions):
        return None
    pre, post = run.transitions[j]

    def test(nxt: dict[str, int | None], stats: SolveStats) -> bool | _Level:
        ok, after = _advance(conjuncts, holding, nxt, post, stats)
        if ok and after is not None and j + 1 < len(run.transitions):
            return _front_run(conjuncts, holding, pool, (run, after), j + 1)
        return ok

    return _Level(pool, {**pre, **gvals}, test)


class _Front:
    """Requirement 1 or 2 on the judged items of `items` (the entries or
    starts that the full check reorders), by the values of `genvars`.
    `prepare(item)` gives an item's first `_Level`, or None; an item's
    chain of `_Level`s is built when it first comes to the front.  Since
    `_to_front` moves every refuter there, the items that have been at
    the front are a prefix of the list, and the full check tries them
    first: they are the judged items.  The judgement stops at the first
    item with no `_Level`, which the full check may pass: building the
    chains of items that have never refuted a candidate costs more than
    the full checks it would spare."""

    def __init__(self, genvars: tuple[str, ...], items: list, prepare: Callable[..., _Level | None]):
        self.genvars, self.items, self.prepare = genvars, items, prepare
        self.fronts: dict[int, _Level | None] = {}  # by id: items are reordered, never dropped

    def current(self) -> _Level | None:
        """The front item's first `_Level`, kept for the search; None when
        it judges nothing."""
        if not self.items:
            return None
        item = self.items[0]
        if id(item) not in self.fronts:
            self.fronts[id(item)] = self.prepare(item)
        return self.fronts[id(item)]

    def judge(self, level: _Level, heads: list[Expr], row: Row, j: int) -> tuple[int, int, int] | None:
        """The (eval_rejections, stores_tested, step_truncations) that the
        full check adds in refuting the candidate of `heads` and the row's
        j-th template on the judged items, where the heads and the template
        are valued again at each store; the refuting item is moved to the
        front, as the full check moves it.  None when every judged item
        passes, and the full check decides.  `level` is the front item's
        first `_Level` (`current`)."""
        rejected = tested = truncated = 0
        for k, item in enumerate(self.items):
            if k and (level := self.fronts.get(id(item))) is None:
                return None
            while True:
                value = level.values.at(row, j)
                key = (*[_value(h, level.values.env) for h in heads], value) if heads else (value,)
                got = level.outcome(self.genvars, key)
                if not isinstance(got, _Level):
                    break
                level, tested = got, tested + 1
            refuted, r, t, tr = got
            if refuted:
                if k:
                    _to_front(self.items, k)
                return rejected + r, tested + t, truncated + tr
            rejected, tested, truncated = rejected + r, tested + t, truncated + tr
        return None


# ---------------------------------------------------------------------------
# Search


def _top_branch(body: Stmt) -> Expr | None:
    """Condition of the first top-level If on the body's statement spine."""
    match body:
        case If(cond, _, _):
            return cond
        case Seq(a, b):
            return _top_branch(a) or _top_branch(b)
        case Block(_, inner):
            return _top_branch(inner)
        case _:
            return None


class _Search:
    def __init__(
        self,
        triple: Triple,
        loop: While,
        putative: Expr,
        genvars: tuple[str, ...],
        cfg: SolverConfig,
        stats: SolveStats,
        runs: list[LoopRun],
    ):
        self.loop = loop
        self.putative = putative
        self.genvars = genvars
        self.cfg = cfg
        self.stats = stats
        # Reordered as candidates are refuted (see the checks); the caller's
        # list is never mutated, since check_requirements needs its order.
        self.runs = runs
        self.entries = [r.entry for r in runs]
        self.any_transition = any(r.transitions for r in runs)
        names = global_vars(triple).union(*self.entries)  # those in scope at the loop head
        atoms = [Num(v) for v in _LITERALS] + [Var(n) for n in sorted(names)]
        # Built once: the initials and finals draw from one pool, each
        # variable's steps from one over the atoms and its previous value.
        self.pool = _Pool(atoms, cfg.operator_pool)
        self.step_pools = {g: _Pool(atoms + [Var(g)], cfg.operator_pool) for g in genvars}
        self.branch_cond = _top_branch(loop.body)

    def _spend(self) -> None:
        self.stats.candidates_tried += 1
        if self.stats.candidates_tried > self.cfg.max_candidates:
            raise _Budget()

    def _survivors(
        self, pools: list[_Pool], front: _Front | None = None, sizes: Sequence[int] = _SIZES
    ) -> Iterator[tuple[Expr, ...]]:
        """Joint candidates, one template of one of `sizes` per pool, by
        total size, then sizes left to right, then lexicographically: those
        that `front`, if any, leaves to the full check, the last pool
        scanned by rows.  Each spends a unit of budget.  The refuted ones up
        to the next survivor are counted in bulk, before it is yielded or
        `_Budget` raised at the candidate where the budget runs out.  A
        row's summary at the front item is kept for its survivors until
        the full check or the front puts another item there."""
        stats, last = self.stats, pools[-1]
        # A stable sort keeps the sizes of one total in lexicographic order.
        for *combo, n in sorted(itertools.product(sizes, repeat=len(pools)), key=sum):
            for heads in _heads(pools[:-1], combo):
                for row in last.rows(n):
                    j, end = 0, len(last.lists[row[3]])
                    level = summary = None
                    while j < end:
                        # The full check may have moved another item to the front.
                        current = front and front.current()
                        if current is not level:
                            level, summary = current, current and current.summary(front.genvars, heads, row)
                        room = self.cfg.max_candidates - stats.candidates_tried
                        stop = min(summary.next(j, end) if summary else j, j + room)
                        if stop > j:
                            rejected, tested = summary.counts(j, stop)
                            stats.candidates_tried += stop - j
                            stats.eval_rejections += rejected
                            stats.stores_tested += tested
                        if stop == end:
                            break
                        self._spend()  # a survivor, or the candidate at which the budget runs out
                        j = stop + 1
                        counts = level and front.judge(level, heads, row, stop)
                        if counts:
                            stats.eval_rejections += counts[0]
                            stats.stores_tested += counts[1]
                            stats.step_truncations += counts[2]
                        else:
                            yield *heads, last.template(row, stop)

    def _preserves(self, comp: _Component, starts: list[Start], step: dict[str, Expr]) -> bool:
        """Requirement 2, plus the search's own demand that the step
        validate at least one iteration when there are any."""
        refuting, validated = _step_counterexample(comp.conjuncts, step, starts, self.stats)
        return refuting is None and (validated > 0 or not self.any_transition)

    def solve_component(self, comp: _Component) -> tuple[dict[str, Expr], dict[str, Expr]]:
        prepare = functools.partial(_entry_level, conjunction(comp.conjuncts), self.pool)
        front = _Front(comp.genvars, self.entries, prepare)
        some_initial_held = False
        try:
            for heads in self._survivors([self.pool] * len(comp.genvars), front):
                init = dict(zip(comp.genvars, heads))
                if _entry_counterexample(comp.conjuncts, init, self.entries, self.stats) is not None:
                    continue
                some_initial_held = True
                starts = _starts(init, self.runs)
                step = self._find_step(comp, starts)
                self.runs = [run for run, _ in starts]  # the next initial tries refuters first
                if step is not None:
                    return init, step
            detail = (
                f"initial values exist for {comp.genvars} but no step expression "
                "preserves the invariant along the observed iterations"
                if some_initial_held
                else f"no initial values for {comp.genvars} satisfy the invariant on the "
                f"{len(self.entries)} collected entry stores"
            )
        except _Budget:
            detail = (
                f"template budget ({self.cfg.max_candidates}) exhausted while "
                f"searching component {comp.genvars}"
            )
        raise SolverFailure(2 if some_initial_held else 1, detail, self.stats)

    def _find_step(self, comp: _Component, starts: list[Start]) -> dict[str, Expr] | None:
        conditional = self.branch_cond is not None and len(comp.genvars) == 1
        pools = [self.step_pools[g] for g in comp.genvars]
        prepare = functools.partial(_front_run, comp.conjuncts, conjunction(comp.conjuncts), pools[-1])
        front = _Front(comp.genvars, starts, prepare)
        # With a branching body, cap unconditional templates so the
        # conditional stage is reachable within the budget.
        sizes = (1, 3, 5) if conditional else _SIZES
        steps: Iterable[tuple[Expr, ...]] = self._survivors(pools, front, sizes)
        if conditional:
            steps = itertools.chain(steps, self._conditional_steps(comp, starts, pools[0]))
        candidates = (dict(zip(comp.genvars, t)) for t in steps)
        return next((step for step in candidates if self._preserves(comp, starts, step)), None)

    def _conditional_steps(
        self, comp: _Component, starts: list[Start], pool: _Pool
    ) -> Iterator[tuple[Expr]]:
        """Steps choosing between a template for each branch by the branch
        condition.  A template is kept for a branch when it preserves the
        invariant on the first transitions that take that branch, where the
        generalisation variable's value is fixed by the initial.  A branch's
        templates of one size are scanned as the steps are, judged at a
        front of those transitions and then checked in full, each spending
        a unit of budget.  A run whose condition fails to evaluate at its
        entry takes neither branch; the full check of a step still walks
        it."""
        (g,), cond = comp.genvars, self.branch_cond
        assert cond is not None
        # Split when first asked: the unconditional scan has reordered `starts`.
        firsts: dict[bool, list[Start]] = {True: [], False: []}
        for run, gvals in starts:
            taken = _value(cond, run.entry)
            if run.transitions and taken is not None:
                firsts[bool(taken)].append((LoopRun(run.states[:2]), gvals))
        prepare = functools.partial(_front_run, comp.conjuncts, conjunction(comp.conjuncts), pool)

        def sift(front: _Front, n: int) -> list[Expr]:
            return [
                t for (t,) in self._survivors([pool], front, (n,))
                if _step_counterexample(comp.conjuncts, {g: t}, front.items, self.stats)[0] is None
            ]

        fronts = [_Front(comp.genvars, firsts[want], prepare) for want in (True, False)]
        branches = [_Kept(functools.partial(sift, front)) for front in fronts]
        for then, other in self._survivors(branches):
            yield (Case(cond, then, other),)

    def solve_finals(self, post: Expr) -> dict[str, Expr]:
        finals = (dict(zip(self.genvars, t)) for t in self._survivors([self.pool] * len(self.genvars)))

        def implies_post(final: dict[str, Expr]) -> bool:
            return _post_counterexample(self.putative, final, self.loop, post, self.cfg, self.stats) is None

        try:
            final = next(filter(implies_post, finals), None)
            if final is not None:
                return final
            detail = (
                "no final values make the invariant plus the exit condition imply the "
                "postcondition"
            )
        except _Budget:
            detail = f"template budget ({self.cfg.max_candidates}) exhausted while searching finals"
        raise SolverFailure(3, detail, self.stats)


def solve(
    triple: Triple,
    loop: While,
    putative: Expr,
    genvars: tuple[str, ...],
    post: Expr,
    cfg: SolverConfig | None = None,
) -> InvariantReport:
    """Find witnesses for `putative`'s generalisation variables on `loop`
    (a node of triple.program, compared by identity) against `post`, the
    postcondition the loop must establish.  When the runs show that
    `putative` admits no witness, a coarser invariant is searched instead
    (see the module docstring), and the report's `invariant` is the one
    the assignment witnesses.  Raises SolverFailure when the search space
    is exhausted; otherwise the returned report carries the independently
    re-checked verdict."""
    cfg = cfg or SolverConfig()
    stats = SolveStats()
    runs = collect_trajectories(triple, loop, cfg, stats)
    entries = [r.entry for r in runs]

    _, base = _split_components(top_conjuncts(putative), genvars)
    for c in base:
        entry = _entry_counterexample([c], {}, entries, stats)
        if entry is not None:
            raise SolverFailure(
                1,
                f"conjunct {pretty(c)} (no generalisation variables) fails on "
                f"entry store {entry}",
                stats,
            )

    invariant, derived = putative, None
    while True:
        components, _ = _split_components(top_conjuncts(invariant), genvars)
        blocked = next(
            ((c.genvars[0], why) for c in components if (why := _no_witness(c, runs))), None
        )
        if blocked is None:
            break
        g, (requirement, reason) = blocked
        derived = derived or SolverFailure(requirement, reason, stats)
        coarser = _coarsen(invariant, g, genvars)
        if coarser is None:
            raise derived
        lost = sorted(free_vars(post) & set(diagnose_lost_variables(coarser, loop.body)))
        if lost:
            raise SolverFailure(
                derived.requirement,
                f"{derived.detail}; the coarser {pretty(coarser)} does not mention "
                f"{', '.join(lost)}, which the postcondition mentions and the body assigns",
                stats,
            )
        invariant = coarser

    search = _Search(triple, loop, invariant, genvars, cfg, stats, runs)
    try:
        initial: dict[str, Expr] = {}
        step: dict[str, Expr] = {}
        for comp in components:
            comp_init, comp_step = search.solve_component(comp)
            initial.update(comp_init)
            step.update(comp_step)
        final = search.solve_finals(post) if genvars else {}
    except SolverFailure as err:
        if derived is None:
            raise
        raise SolverFailure(
            derived.requirement,
            f"{derived.detail}; the coarser {pretty(invariant)} failed too: {err}",
            stats,
        ) from None
    # Re-key in creation order for stable reporting.
    initial = {g: initial[g] for g in genvars}
    step = {g: step[g] for g in genvars}

    assignment = Assignment(initial, step, final)
    verdict = check_requirements(triple, loop, invariant, assignment, post, cfg, runs=runs)
    return InvariantReport(invariant, genvars, assignment, verdict, stats)


def check_requirements(
    triple: Triple,
    loop: While,
    putative: Expr,
    assignment: Assignment,
    post: Expr,
    cfg: SolverConfig | None = None,
    stats: SolveStats | None = None,
    runs: list[LoopRun] | None = None,
) -> Verdict:
    """Independent bounded check of the three invariant requirements for a
    concrete assignment; used both as the reported verdict behind solve()
    and directly on hand-written assignments.  `runs` are the loop's
    collected trajectories, collected here when not given."""
    cfg = cfg or SolverConfig()
    stats = stats if stats is not None else SolveStats()
    if runs is None:
        runs = collect_trajectories(triple, loop, cfg, stats)

    def as_failure(req: int, store: Store) -> Failed:
        return Failed(req, tuple(sorted(store.items())))

    # Requirement 1: the initials make the invariant hold whenever the loop
    # is entered.  Requirement 2: the step walks every observed iteration;
    # a step error truncates a run only where _advance says so.
    # Fresh lists, in the order the runs were collected (smallest input
    # first), so each check reports its first counterexample in that order.
    conjuncts = top_conjuncts(putative)
    entry = _entry_counterexample(conjuncts, assignment.initial, [r.entry for r in runs], stats)
    if entry is not None:
        return as_failure(1, entry)
    starts = _starts(assignment.initial, runs)
    refuting, _ = _step_counterexample(conjuncts, assignment.step, starts, stats)
    if refuting is not None:
        return as_failure(2, refuting)

    # Requirement 3: final instantiation plus exit condition implies the
    # post.  Nothing ties a final to the value the step walks its variable
    # to, so the post must also hold where the observed runs exit.
    counterexample = _post_counterexample(putative, assignment.final, loop, post, cfg, stats)
    if counterexample is not None:
        return as_failure(3, counterexample)
    for run in runs:
        stats.stores_tested += 1
        if not holds(post, run.exit):
            return as_failure(3, run.exit)
    return VerifiedUpToBound(cfg.domain_bound)


def diagnose_lost_variables(putative: Expr, body: Stmt) -> tuple[str, ...]:
    """Body-assigned variables missing from the invariant, in first-
    assignment order; block locals, and the assignments to a local that
    shadows a variable, are left out, since no invariant can mention
    them.  A non-empty result usually means generalisation swallowed the
    variable's update (it only ever appeared as part of a larger
    subterm), so no witness search can succeed."""
    assigned = (s.var for s, hidden in scopes(body) if isinstance(s, Assign) and s.var not in hidden)
    return tuple(v for v in dict.fromkeys(assigned) if v not in free_vars(putative))
