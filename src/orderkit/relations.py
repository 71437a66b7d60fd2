"""Auxiliary order relations, each with a definitional brute-force oracle.

Every relation here quantifies over some family of subsets (directed sets,
arbitrary subsets, upper sets).  The oracle modes execute those definitions
literally; the fast/closed modes use finite-carrier collapses, and the two
must agree everywhere (enforced by the test suite on whole enumeration
universes).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import limits
from .poset import FiniteLattice, FinitePoset, iter_bits, mask_of, set_order


@dataclass(frozen=True)
class Relation:
    """An n x n boolean table over one carrier; ``rows[x]`` has bit y set
    when the relation holds at (x, y)."""

    owner: FinitePoset
    rows: tuple

    def holds(self, x, y):
        return bool(self.rows[x] >> y & 1)

    def pairs(self):
        for x in range(self.owner.n):
            for y in iter_bits(self.rows[x]):
                yield (x, y)


def way_below(P: FinitePoset, mode="fast") -> Relation:
    """x way-below y: every directed set with an existing supremum >= y
    meets the up set of x.

    The oracle enumerates all directed subsets.  On a finite carrier every
    directed set contains its supremum, which collapses the relation to the
    order itself; fast mode returns that.
    """
    n = P.n
    if mode == "fast":
        return Relation(P, P.up)
    if mode != "oracle":
        raise ValueError(f"unknown mode {mode!r}")
    rows = [P.full_mask] * n
    for dmask, s in P.directed_sets():
        for x in range(n):
            if not P.up[x] & dmask:
                # D misses the up set of x: x is not way-below anything <= sup D
                rows[x] &= ~P.down[s]
    return Relation(P, tuple(rows))


def approximants(P: FinitePoset, x: int, mode="fast") -> int:
    """Mask of all elements way-below x; the down set of x on finite
    carriers."""
    rel = way_below(P, mode)
    mask = 0
    for p in range(P.n):
        if rel.holds(p, x):
            mask |= 1 << p
    return mask


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


@dataclass(frozen=True)
class FinFamily:
    """The up sets of finite subsets approximating a single element,
    reported as the antichain of minimal members plus the family size."""

    owner: FinitePoset
    element: int
    members: tuple  # all distinct up-set masks, in set_order
    minimal: tuple  # the inclusion-minimal members, same order

    @property
    def size(self):
        return len(self.members)

    def intersection_mask(self):
        acc = self.owner.full_mask
        for m in self.members:
            acc &= m
        return acc


def fin_family(P: FinitePoset, x: int, mode="fast") -> FinFamily:
    """Collect the up sets of all nonempty finite subsets F with F
    approximating {x} (set way-below, singleton on the right).

    The oracle tries every nonempty F.  Fast mode lists upper sets instead:
    approximation reads F only through its up set, and every nonempty upper
    set is the up set of its minimal elements.  A directed set meets an
    upper set U exactly when its supremum, which it contains, lies in U,
    and every s >= x is the supremum of {s}; so the members are the upper
    sets containing the up set of x, the least of them.
    """
    limits.check_subset_cap(P.n, "approximating-family enumeration")
    if mode == "fast":
        members = tuple(u for u in P.upper_masks() if u >> x & 1)
        return FinFamily(P, x, members, (P.up[x],))
    if mode != "oracle":
        raise ValueError(f"unknown mode {mode!r}")
    seen = set()
    for fmask in range(1, 1 << P.n):
        if way_below_sets(P, fmask, 1 << x):
            seen.add(P.up_closure_mask(fmask))
    members = sorted(seen, key=set_order)
    minimal = tuple(
        m for m in members if not any(o != m and o & ~m == 0 for o in members)
    )
    return FinFamily(P, x, tuple(members), minimal)


def way_way_below(L: FiniteLattice, mode="closed") -> Relation:
    """u way-way-below v: every subset S with join >= v has a member above u.

    Oracle mode quantifies over all 2^n subsets including the empty one.
    Closed mode uses the worst-case witness S = complement of the up set of
    u, whose join decides the relation: u is way-way-below v exactly when
    that join is not >= v.
    """
    P = L.base
    n = L.n
    if mode == "closed":
        rows = []
        for u in range(n):
            m = L.join_mask(P.full_mask & ~P.up[u])
            rows.append(P.full_mask & ~P.down[m])
        return Relation(P, tuple(rows))
    if mode != "oracle":
        raise ValueError(f"unknown mode {mode!r}")
    limits.check_subset_cap(n, "subset enumeration for way-way-below")
    rows = [P.full_mask] * n
    for smask in range(1 << n):
        j = L.join_mask(smask)
        down_s = P.down_closure_mask(smask)
        above = P.down[j]  # all v with join S >= v
        for u in range(n):
            if not down_s >> u & 1:
                rows[u] &= ~above
    return Relation(P, tuple(rows))


def prec(L: FiniteLattice, mode="fast") -> Relation:
    """x below y in the upper-set interpolation order: every upper set
    inside the up set of y is already inside the up set of x.

    Single upper sets suffice on a finite carrier: any intersection of a
    nonempty collection of upper sets is itself an upper set and the whole
    finite collection can serve as the finitely-many subcollection.  Fast
    mode returns the order itself, the finite collapse of the definition.
    """
    P = L.base
    n = L.n
    if mode == "fast":
        return Relation(P, P.up)
    if mode != "oracle":
        raise ValueError(f"unknown mode {mode!r}")
    limits.check_subset_cap(n, "upper-set enumeration for interpolation order")
    rows = [P.full_mask] * n
    for v in P.upper_masks():
        inside_y = mask_of(y for y in range(n) if not v & ~P.up[y])
        for x in range(n):
            if v & ~P.up[x]:
                rows[x] &= ~inside_y
    return Relation(P, tuple(rows))
