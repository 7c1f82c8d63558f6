"""The Differential Re-evaluation Algorithm (paper Section 4).

See DESIGN.md S4. Entry points:

* :func:`dra_execute` — Algorithm 1 for SPJ queries;
* :func:`dra_initial` — E_0, the first complete execution, as the one
  term seeded by a whole relation: every tier's install step;
* :func:`prepare_cq` / :class:`PreparedCQ` / :class:`PlanCache` — the
  registration-time compilation layer feeding ``dra_execute``'s
  ``prepared=`` fast path;
* :class:`DifferentialAggregate` — incremental aggregate maintenance;
* :func:`diff_select` / :func:`diff_project` / :func:`diff_join` — the
  paper's named differential operator forms;
* :func:`is_relevant` — Section 5.2's irrelevant-update pre-test;
* :class:`ColumnBatch` / :class:`TermKernel` — the kernel layer every
  ``dra_execute`` runs: struct-of-arrays batches swept by
  plan-specialized kernels. The per-row interpreter
  (``columnar=False``) is kept only as the reference the tests and E15
  check the kernels against;
* :class:`PredicateIndex` — the Section 5.2 relevance test turned into
  a shared attribute index over every subscription's local predicates,
  routing one consolidated delta batch to the affected subscriptions.
"""

from repro.dra.aggregates import DifferentialAggregate
from repro.dra.algorithm import dra_execute, dra_initial
from repro.dra.assembly import DRAResult, WeightInvariantError
from repro.dra.kernels import ColumnBatch, TermKernel, compile_term_kernel
from repro.dra.operators import diff_join, diff_project, diff_select
from repro.dra.predindex import IntervalIndex, PredicateIndex
from repro.dra.prepared import PlanCache, PreparedCQ, prepare_cq
from repro.dra.relevance import is_relevant, relevant_entry_counts
from repro.dra.truth_table import TruthTable

__all__ = [
    "ColumnBatch",
    "DRAResult",
    "DifferentialAggregate",
    "IntervalIndex",
    "PlanCache",
    "PredicateIndex",
    "PreparedCQ",
    "TermKernel",
    "TruthTable",
    "WeightInvariantError",
    "compile_term_kernel",
    "diff_join",
    "diff_project",
    "diff_select",
    "dra_execute",
    "dra_initial",
    "is_relevant",
    "prepare_cq",
    "relevant_entry_counts",
]
