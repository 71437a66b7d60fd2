"""Size caps for definitional enumerations.

Brute-force oracles loop over 2^n subsets; the caps below keep them from
being invoked on carriers where that blows up.  Tables whose size does not
follow from n alone (directed subsets, upper sets) are bounded by their
own count, checked before or while they are built.  ``OPENS_LIMIT`` also
bounds the k x k order rows of a set lattice such as the Scott opens,
refused before they are built when k * k passes it.  ``CANON_LIMIT``
bounds the relation-table cells one canonical labelling compares, counted
while it searches.  ``EXPRESSION_DEPTH`` bounds the nesting of
parentheses in a filter expression, which its parser and evaluator
recurse through.

Each enumerated universe has its own ceiling: posets up to
``ENUM_MAX_HARD["posets"]`` elements and lattices, read off the poset
level two below, up to ``ENUM_MAX_HARD["lattices"]``.  Both default to
``ENUM_MAX_DEFAULT``; the ORDERKIT_MAX_N environment variable raises or
lowers every universe's ceiling, each clamped to its own hard ceiling.
The lattice suites loop over upper sets, bounded by ``OPENS_LIMIT``, not
over 2^n subsets.
"""

import os

from .errors import InputError, SizeLimitError

SUBSET_CAP = 24           # refuse 2^n loops and named carriers beyond this size
OPENS_LIMIT = 1 << 20     # max number of upper sets tabulated per poset
DIRECTED_LIMIT = 1 << 16  # max number of directed subsets tabulated per poset
CANON_LIMIT = 1 << 24     # max relation-table cells compared by one canonical labelling
EXPRESSION_DEPTH = 100    # max nesting of parentheses in a filter expression
ENUM_MAX_DEFAULT = 7      # enumeration ceiling of every universe (env-overridable)
ENUM_MAX_HARD = {"posets": 9, "lattices": 11}


def check_subset_cap(n, what):
    """Refuse a loop over the 2^n subsets of an n-element carrier."""
    check_limit(n, what, SUBSET_CAP)


def check_limit(needed, what, limit):
    """Refuse work whose size is known, or counted so far, to pass ``limit``."""
    if needed > limit:
        raise SizeLimitError(what, needed, limit)


def check_count(value, what, least=0):
    """Reject a size or count below ``least``."""
    if value < least:
        raise InputError(f"{what} must be at least {least}, got {value}")


def enum_max(kind):
    """The enumeration ceiling of the ``kind`` universe ("posets" or
    "lattices"): ORDERKIT_MAX_N, ASCII digits only, clamped to the
    universe's hard ceiling, or the default when it is unset."""
    raw = os.environ.get("ORDERKIT_MAX_N")
    if raw is None:
        return ENUM_MAX_DEFAULT
    digits = raw.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise InputError(f"ORDERKIT_MAX_N must be a non-negative integer, got {raw!r}")
    # ceilings have few digits: a longer string is past every one of them,
    # and int() is not asked to read it
    if len(digits.lstrip("0")) > 3:
        return ENUM_MAX_HARD[kind]
    return min(int(digits), ENUM_MAX_HARD[kind])
