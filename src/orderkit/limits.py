"""Size caps for definitional enumerations.

Brute-force oracles loop over 2^n subsets; the caps below keep them from
being invoked on carriers where that blows up.  Tables whose size does not
follow from n alone (directed subsets, upper sets) are bounded by their
own count, checked before or while they are built.  ``OPENS_LIMIT`` also
bounds the k x k order rows of a set lattice such as the Scott opens,
refused before they are built when k * k passes it.  ``CANON_LIMIT``
bounds the relation-table cells one canonical labelling compares, counted
while it searches.  The enumeration ceiling for generators can be raised
with the ORDERKIT_MAX_N environment variable.
"""

import os

from .errors import InputError, SizeLimitError

SUBSET_CAP = 24           # refuse 2^n loops and named carriers beyond this size
OPENS_LIMIT = 1 << 20     # max number of upper sets tabulated per poset
DIRECTED_LIMIT = 1 << 16  # max number of directed subsets tabulated per poset
CANON_LIMIT = 1 << 24     # max relation-table cells compared by one canonical labelling
ENUM_MAX_DEFAULT = 7      # poset enumeration ceiling (env-overridable)
ENUM_MAX_HARD = 8


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


def enum_max():
    raw = os.environ.get("ORDERKIT_MAX_N")
    if raw is None:
        return ENUM_MAX_DEFAULT
    if not raw.strip().isdigit():
        raise InputError(f"ORDERKIT_MAX_N must be a non-negative integer, got {raw!r}")
    return min(int(raw), ENUM_MAX_HARD)
