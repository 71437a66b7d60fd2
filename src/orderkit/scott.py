"""Scott topology on a finite poset and its lattice of opens.

On a finite carrier every directed set contains its supremum, so the Scott
opens are exactly the upper sets.  The definitional checks are still
implemented and cross-checked against that collapse.
"""

from __future__ import annotations

from collections import namedtuple

from . import limits
from .errors import InputError
from .poset import FiniteLattice, FinitePoset, cached_view, iter_bits


def is_scott_open(P: FinitePoset, mask: int, *, oracle=False) -> bool:
    """Upper, and every directed set with an existing supremum inside the
    set already meets it.  The shortcut checks upperness only, the
    finite-carrier equivalent; the oracle also tests every directed set."""
    P.check_mask(mask)
    upper = P.up_closure_mask(mask) == mask
    if not oracle or not upper:
        return upper
    for dmask, s in P.directed_sets():
        if mask >> s & 1 and not dmask & mask:
            return False
    return True


def scott_closure(P: FinitePoset, mask: int, *, oracle=False) -> int:
    """Mask of the smallest Scott-closed superset; the down closure on
    finite carriers.

    The oracle intersects all Scott-closed supersets instead and is kept
    for cross-checking.
    """
    P.check_mask(mask)
    if not oracle:
        return P.down_closure_mask(mask)
    acc = P.full_mask
    for u in P.upper_masks():
        closed = P.full_mask ^ u
        if not mask & ~closed:
            acc &= closed
    return acc


def _lattice_of_set_family(P, masks, name):
    """The lattice of a family of subsets of P under inclusion, given in
    set_order, built in one pass and not validated.

    The family must be all the upper sets, or all the down sets, of P.  It
    is then closed under union and intersection, and a member m' covers m
    exactly when m' adds one element to m: of the elements of m' not in m,
    a maximal one (minimal, for down sets) can be added alone.  set_order
    puts the members of each size s in one run of indices, so the lower
    covers of a member of size s are its down row within the run of size
    s - 1, and the join-irreducibles, the members with exactly one lower
    cover, are known here.  From the members containing each element e,
    a member m's down row is the members disjoint from every e not in m;
    its up row, the AND of those over e in m, and its cover row, its up
    row within the next run, wait for their first read, as its label does;
    see ``SetFamilyPoset``.
    """
    k = len(masks)
    limits.check_limit(k * k, "set-lattice table", limits.OPENS_LIMIT)
    containing = [0] * P.n
    # runs[s]: the members of size s; runs[n + 1], also read as runs[-1],
    # stays empty, the run above size n and below size 0
    runs = [0] * (P.n + 2)
    for i, m in enumerate(masks):
        bit = 1 << i
        runs[m.bit_count()] |= bit
        for e in iter_bits(m):
            containing[e] |= bit
    full = (1 << k) - 1
    down, irreducible = [], 0
    for i, m in enumerate(masks):
        outside = 0
        for e in iter_bits(P.full_mask ^ m):
            outside |= containing[e]
        row = full & ~outside
        lower = row & runs[m.bit_count() - 1]
        if lower and not lower & (lower - 1):
            irreducible |= 1 << i
        down.append(row)
    base = SetFamilyPoset(P, tuple(masks), name, containing, runs, tuple(down))
    return OpenSetLattice(P, base.members, FiniteLattice(base, join_irreducibles=irreducible))


def _member_labels(P, masks, name):
    """Each member's label, its elements' labels in braces: ``{a,b}``.  Two
    members whose labels print alike, such as the pair of elements a and b
    and the singleton of an element labelled "a,b", raise InputError."""
    labels = tuple("{" + ",".join([P.labels[e] for e in iter_bits(m)]) + "}" for m in masks)
    if len(set(labels)) != len(labels):
        clash = next(lab for i, lab in enumerate(labels) if lab in labels[:i])
        raise InputError(f"{name} has two members labelled {clash}")
    return labels


class SetFamilyPoset(FinitePoset):
    """The poset of a family of subsets of ``family_of`` under inclusion,
    element i standing for the mask ``members[i]``, built by
    ``_lattice_of_set_family`` with its down rows.  ``containing[e]``
    masks the members holding element e and ``runs[s]`` those of size s.
    The up rows, the cover rows and the labels are built on their first
    read: the suites read no cover row, and no up row of Γ(P); ``emit``,
    ``dual`` and witnesses read the labels."""

    def __init__(self, family_of, members, name, containing, runs, down):
        self.family_of = family_of
        self.members = members
        self.name = name
        self.n = len(members)
        self.containing = containing
        self.runs = runs
        self.down = down  # shadows the cached view

    @cached_view
    def up(self):
        full, containing = self.full_mask, self.containing
        rows = []
        for m in self.members:
            row = full
            for e in iter_bits(m):
                row &= containing[e]
            rows.append(row)
        return tuple(rows)

    @cached_view
    def cover_rows(self):
        runs = self.runs
        return tuple(row & runs[m.bit_count() + 1] for m, row in zip(self.members, self.up))

    @cached_view
    def labels(self):
        return _member_labels(self.family_of, self.members, self.name)


class OpenSetLattice(namedtuple("OpenSetLattice", "base_poset opens lattice")):
    """A family of subsets of one poset, with the lattice they form under
    inclusion (union as join, intersection as meet); ``opens`` holds the
    member masks in lattice element order."""

    __slots__ = ()


def scott_opens(P: FinitePoset) -> OpenSetLattice:
    """The lattice of Scott-open subsets ordered by inclusion."""
    return _lattice_of_set_family(P, P.upper_masks(), name=f"sigma({P.name or 'P'})")


def scott_closed_lattice(P: FinitePoset) -> OpenSetLattice:
    """The lattice of Scott-closed subsets (complements of opens) ordered by
    inclusion; order-dual to the open-set lattice via complementation."""
    # complementing reverses set_order: sizes turn around, and of two sets
    # of one size A comes first exactly when the least element of their
    # symmetric difference lies in A, that is, not in A's complement
    masks = [P.full_mask ^ m for m in reversed(P.upper_masks())]
    return _lattice_of_set_family(P, masks, name=f"gamma({P.name or 'P'})")
