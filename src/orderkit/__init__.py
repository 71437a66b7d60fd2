"""orderkit: exact computation on finite posets and lattices.

Core values (FinitePoset, FiniteLattice) are immutable; every operation is
a pure function, safe to run concurrently.  A subset of a carrier is an
integer bit mask (bit i for element i); ``P.labels_of(mask)`` gives its labels.
"""

from .errors import (
    CycleError,
    NotALatticeError,
    OrderkitError,
    ParseError,
    SizeLimitError,
    UnknownLabelError,
    UnknownNameError,
)
from .poset import FiniteLattice, FinitePoset, Verdict, Witness, build_poset
from .relations import fin_family, prec, way_below, way_below_sets, way_way_below
from .scott import OpenSetLattice, is_scott_open, scott_closed_lattice, scott_closure, scott_opens
from .properties import (
    is_continuous,
    is_distributive,
    is_frame,
    is_hypercontinuous,
    is_join_continuous,
    is_meet_continuous,
    is_prime_continuous,
    is_quasicontinuous,
    supinf_continuous_rhs,
    supinf_hyper_rhs,
    supinf_prime_rhs,
)
from .generators import enumerate_lattices, enumerate_posets, named, random_poset
from .verifier import (
    SuiteReport,
    chain_check,
    characterization_check,
    lemma31_check,
    run_suite,
    run_suites,
    thm21_check,
    thm23_check,
    thm25_check,
    thm32_check,
    thm34_check,
)
from .files import emit, export_dot, parse

__version__ = "0.1.0"

__all__ = [
    "CycleError", "NotALatticeError", "OrderkitError", "ParseError",
    "SizeLimitError", "UnknownLabelError", "UnknownNameError",
    "FinitePoset", "FiniteLattice", "Verdict", "Witness", "build_poset",
    "way_below", "way_below_sets", "fin_family", "way_way_below", "prec",
    "OpenSetLattice", "is_scott_open", "scott_opens", "scott_closed_lattice",
    "scott_closure",
    "is_continuous", "is_quasicontinuous", "is_meet_continuous",
    "is_join_continuous", "is_frame",
    "is_hypercontinuous", "is_prime_continuous", "is_distributive",
    "supinf_continuous_rhs", "supinf_hyper_rhs", "supinf_prime_rhs",
    "named", "enumerate_posets", "enumerate_lattices", "random_poset",
    "SuiteReport", "lemma31_check", "thm32_check", "thm34_check", "thm21_check",
    "thm23_check", "thm25_check", "chain_check", "characterization_check",
    "run_suite", "run_suites",
    "parse", "emit", "export_dot",
]
