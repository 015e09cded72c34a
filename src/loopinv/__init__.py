"""Loop-invariant discovery for a small imperative language.

The pipeline: pull the postcondition backward through loop iterations
(`wlp`), simplify each approximation (`simplify`), watch for growth with
the homeomorphic embedding (`embeds`), generalise embedded pairs to
their most specific common shape (`msg`), and stop at a renaming — the
fixed point is the putative invariant (`find_invariant`).  Bounded
testing then instantiates its generalisation variables (`solve`) and
checks the classical invariant requirements up to a domain bound
(`check_requirements`).

The package exports the entry points of that pipeline; everything else
is imported from its module (`loopinv.solver`, `loopinv.terms`, ...).
"""

from .engine import annotate_program
from .parser import parse_program
from .solver import SolverFailure, solve

__version__ = "0.1.0"

__all__ = ["SolverFailure", "annotate_program", "parse_program", "solve"]
