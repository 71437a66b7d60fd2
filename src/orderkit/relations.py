"""Auxiliary order relations, each with a definitional brute-force oracle.

Every relation here quantifies over some family of subsets (directed sets,
arbitrary subsets, upper sets).  With ``oracle=True`` each executes that
definition literally; by default it uses a finite-carrier collapse, and the
two must agree everywhere (enforced by the test suite on whole enumeration
universes).

A relation R is returned as a tuple of n column masks laid out like
``P.down``: bit x of ``R[y]`` is set exactly when x R y, so ``R[y]`` is the
set of elements related to y, the set every characterisation joins.
"""

from __future__ import annotations

from . import limits
from .poset import FiniteLattice, FinitePoset, iter_bits, mask_of, set_order


def way_below(P: FinitePoset, *, oracle=False) -> tuple:
    """x way-below y: every directed set with an existing supremum >= y
    meets the up set of x.

    The oracle enumerates all directed subsets.  On a finite carrier every
    directed set contains its supremum, which collapses the relation to the
    order itself; the shortcut returns that.
    """
    if not oracle:
        return P.down
    cols = [P.full_mask] * P.n
    for dmask, s in P.directed_sets():
        # x meets D upward exactly when x lies in the down closure of D
        down_d = P.down_closure_mask(dmask)
        for y in iter_bits(P.down[s]):
            cols[y] &= down_d
    return tuple(cols)


def way_below_sets(P: FinitePoset, fmask: int, gmask: int) -> bool:
    """Set-to-set approximation: every directed set whose existing supremum
    lies in the up set of g already meets the up set of f."""
    P.check_mask(fmask)
    P.check_mask(gmask)
    if fmask == 0 or gmask == 0:
        raise ValueError("both subsets must be nonempty")
    up_f = P.up_closure_mask(fmask)
    up_g = P.up_closure_mask(gmask)
    for dmask, s in P.directed_sets():
        if up_g >> s & 1 and not dmask & up_f:
            return False
    return True


def fin_family(P: FinitePoset, x: int, *, oracle=False) -> tuple:
    """The distinct up sets, as masks in ``set_order``, of all nonempty
    finite subsets F with F approximating {x} (set way-below, singleton on
    the right).

    The oracle tries every nonempty F.  The shortcut lists upper sets instead:
    approximation reads F only through its up set, and every nonempty upper
    set is the up set of its minimal elements.  A directed set meets an
    upper set U exactly when its supremum, which it contains, lies in U,
    and every s >= x is the supremum of {s}; so the members are the upper
    sets containing x, the least of them the up set of x: one filter of
    the poset's cached ``P.upper_masks()``, which keeps its order and its
    refusal past ``limits.OPENS_LIMIT``, bounded by the upper-set count,
    not by n.  Only the oracle's 2^n loop is refused at
    ``limits.SUBSET_CAP``.
    """
    if not oracle:
        bit = 1 << x
        return tuple([u for u in P.upper_masks() if u & bit])
    limits.check_subset_cap(P.n, "approximating-family enumeration")
    seen = set()
    for fmask in range(1, 1 << P.n):
        if way_below_sets(P, fmask, 1 << x):
            seen.add(P.up_closure_mask(fmask))
    return tuple(sorted(seen, key=set_order))


def way_way_below(L: FiniteLattice, *, oracle=False) -> tuple:
    """u way-way-below v: every subset S with join >= v has a member above u.

    The oracle quantifies over all 2^n subsets including the empty one.
    The shortcut uses the worst-case witness S = complement of the up set of
    u, whose join decides the relation: u is way-way-below v exactly when
    that join is not >= v.  The join-irreducibles not above u have the
    same join, since each x not above u is the join of the
    join-irreducibles below it, none of them above u.  So the u are
    grouped by the set of join-irreducibles not above them, and each
    group's join, one AND per member of that set, is computed once.  The
    group is OR-ed into a row kept for every v below its join, so the row
    of v collects the u whose join is above v, and the column of v is the
    complement of that row.
    """
    P = L.base
    n = L.n
    if not oracle:
        up, full, irreducible = P.up, P.full_mask, L.join_irreducibles
        groups = {}  # join-irreducibles not above u -> mask of those u
        for u, row in enumerate(up):
            rest = irreducible & ~row
            groups[rest] = groups.get(rest, 0) | 1 << u
        above = [0] * n  # above[v]: the u whose join is above v
        for rest, us in groups.items():
            ub = full
            for j in iter_bits(rest):
                ub &= up[j]
            for v in iter_bits(P.down[L._up_index[ub]]):
                above[v] |= us
        return tuple(full ^ us for us in above)
    limits.check_subset_cap(n, "subset enumeration for way-way-below")
    cols = [P.full_mask] * n
    for smask in range(1 << n):
        # u has a member of S above it exactly when u lies in the down closure of S
        down_s = P.down_closure_mask(smask)
        for v in iter_bits(P.down[L.join_mask(smask)]):
            cols[v] &= down_s
    return tuple(cols)


def prec(L: FiniteLattice, *, oracle=False) -> tuple:
    """x below y in the upper-set interpolation order: every upper set
    inside the up set of y is already inside the up set of x.

    Single upper sets suffice on a finite carrier: any intersection of a
    nonempty collection of upper sets is itself an upper set and the whole
    finite collection can serve as the finitely-many subcollection.  The
    shortcut returns the order itself, the finite collapse of the definition.
    """
    P = L.base
    n = L.n
    if not oracle:
        return P.down
    cols = [P.full_mask] * n
    for v in P.upper_masks():
        inside = mask_of(y for y in range(n) if not v & ~P.up[y])
        for y in iter_bits(inside):
            cols[y] &= inside
    return tuple(cols)
