"""Size caps for definitional enumerations.

Brute-force oracles loop over 2^n subsets; the caps below keep them from
being invoked on carriers where that blows up.  The enumeration ceiling
for generators can be raised with the ORDERKIT_MAX_N environment variable.
"""

import os

from .errors import InputError, SizeLimitError

SUBSET_CAP = 24          # refuse 2^n loops beyond this carrier size
OPENS_LIMIT = 1 << 20    # max number of upper sets materialized at once
ENUM_MAX_DEFAULT = 7     # poset enumeration ceiling (env-overridable)
ENUM_MAX_HARD = 8


def subset_cap(cap=None):
    return SUBSET_CAP if cap is None else cap


def check_subset_cap(n, what, cap=None):
    cap = subset_cap(cap)
    if n > cap:
        raise SizeLimitError(what, n, cap)
    return cap


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


def opens_limit(limit=None):
    return OPENS_LIMIT if limit is None else limit
