"""Size caps for definitional enumerations.

Each cap sits on the loop or table it bounds.  ``SUBSET_CAP`` guards only
the oracles' loops over 2^n subsets, and named carriers beyond it; a loop
over a table another cap bounds reads no carrier size.
``DIRECTED_LIMIT`` alone bounds the directed-subset table, counted before
it is built; only the oracles and ``way_below_sets`` read it.
``OPENS_LIMIT`` bounds the upper-set table, which the shortcut routes and
the interpolation-order oracle read, while it is built, and the k x k order
rows of a set lattice such as the Scott opens, refused before they are
built when k * k passes it.  ``CANON_LIMIT`` bounds the work of one
canonical labelling, counted while it searches: the relation-table cells
of each chunk it computes, one per chunk it reads from a rank class's
table, and the steps of each orbit test, one per stored automorphism and
prefix position.  ``EXPRESSION_DEPTH`` bounds the nesting of
parentheses in a filter expression, which its parser and evaluator
recurse through.

Each enumerated universe has one ceiling, ``ENUM_MAX[kind]``: posets up
to 9 elements and lattices, read off the poset level two below, up to 11.
A size past it is refused before any level is built.  The lattice suites
loop over upper sets, bounded by ``OPENS_LIMIT``, not over 2^n subsets.
``POOL_FROM[kind]`` is the least ``max_n`` at which ``verify`` was measured
to gain from a pool of one worker per CPU (timings in the README); it
checks a smaller universe in its own process.
"""

from .errors import InputError, SizeLimitError

SUBSET_CAP = 24           # refuse 2^n loops and named carriers beyond this size
OPENS_LIMIT = 1 << 20     # max number of upper sets tabulated per poset
DIRECTED_LIMIT = 1 << 16  # max number of directed subsets tabulated per poset
CANON_LIMIT = 1 << 24     # max steps of one canonical labelling: cells compared, chunks read, orbit tests
EXPRESSION_DEPTH = 100    # max nesting of parentheses in a filter expression
ENUM_MAX = {"posets": 9, "lattices": 11}  # enumeration ceiling of each universe
POOL_FROM = {"posets": 8, "lattices": 11}  # least max_n verified in a pool


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
