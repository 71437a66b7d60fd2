"""Test universes: named instances, exhaustive enumeration up to
isomorphism, and seeded random posets.

Enumeration grows posets one element at a time: every poset arises from a
smaller one by adding a new maximal element above a down-closed subset.
Each level is built by canonical augmentation (McKay, "Isomorph-free
exhaustive generation", 1998): every canonical representative is extended by
one down set from each orbit of its automorphism group, whose generators its
own canonical labelling finds, and a child is kept only when its new
element stands for its canonical deletion, a maximal element chosen by an
isomorphism-invariant rule, so each class has one parent class.  A
size bound and a degree-signature pre-filter refuse most other children
before they are built, and before their down set's orbit is.  A child's
rows are the parent's with one element added.  One stable sort of its
degree signatures, with a twin test along each run of equal ones, decides
most children: when every run is a set of twins the sort is the canonical
order, and the key is the rows relabelled through it.  Any other child is
refined on its rows; only one that passes its ranks' test is made a poset,
seeded with those rows and ranks, and it is labelled without a search when
its rank classes are all sets of twins.  The keys are deduplicated per
parent, since two orbits can still give one class, and one sort of all
parents' keys orders the level.
Lattices with n >= 2 elements are read off the poset level n - 2: each is
one such poset with a new bottom and a new top added, kept when the result
is a lattice, and distinct poset classes give distinct lattice classes.
Lattice keys need no labelling: a bounded level key is already the
canonical key of its lattice, in the level's order.
The published counts of unlabeled posets and lattices serve as acceptance
oracles for these constructions, not as inputs.
"""

from __future__ import annotations

import random
import re
from functools import lru_cache

from . import limits
from .errors import NotALatticeError, SizeLimitError, UnknownNameError
from .poset import (
    FinitePoset,
    _closure_rows,
    degree_signature,
    iter_bits,
    mask_of,
    refined_ranks,
    twin_sort,
)


@lru_cache(maxsize=32)
def default_labels(n):
    if n <= 26:
        return tuple(chr(ord("a") + i) for i in range(n))
    return tuple(f"x{i}" for i in range(n))


# every named instance, and nothing else; k is ASCII digits only
NAME_RE = re.compile(r"M3|N5|(chain|antichain|boolean)\(([0-9]+)\)")


def named(name: str) -> FinitePoset:
    """Canonical named instances: chain(k), antichain(k), boolean(k), and
    the two minimal non-distributive five-element lattices M3 and N5."""
    m = NAME_RE.fullmatch(name)
    if not m:
        raise UnknownNameError(name)
    if name == "M3":
        return _m3()
    if name == "N5":
        return _n5()
    kind, digits = m.group(1), m.group(2).lstrip("0") or "0"
    # bound the carrier before building it, from the digit string when it is
    # longer than the cap's (int() refuses more than 4300 digits); boolean(k)
    # has 2^k elements, more than the cap exactly when k reaches the cap's
    # bit length
    if len(digits) > len(str(limits.SUBSET_CAP)):
        needed = f"2^{digits}" if kind == "boolean" else digits
        raise SizeLimitError(f"carrier of {name}", needed, limits.SUBSET_CAP)
    k = int(digits)
    if kind == "boolean" and k >= limits.SUBSET_CAP.bit_length():
        raise SizeLimitError(f"carrier of {name}", f"2^{k}", limits.SUBSET_CAP)
    limits.check_limit(k, f"carrier of {name}", limits.SUBSET_CAP)
    if kind == "chain":
        labels = tuple(str(i) for i in range(k))
        rows = [mask_of(range(i, k)) for i in range(k)]
        return FinitePoset(labels, rows, name=name)
    if kind == "antichain":
        labels = default_labels(k)
        rows = [1 << i for i in range(k)]
        return FinitePoset(labels, rows, name=name)
    # boolean(k): subsets of a k-element set by containment, labeled by the
    # decimal value of their membership mask
    size = 1 << k
    labels = tuple(str(i) for i in range(size))
    rows = [mask_of(j for j in range(size) if i & j == i) for i in range(size)]
    return FinitePoset(labels, rows, name=name)


def _m3():
    # 0 below the three incomparable atoms a, b, c, all below 1
    labels = ("0", "a", "b", "c", "1")
    rows = [
        mask_of([0, 1, 2, 3, 4]),
        mask_of([1, 4]),
        mask_of([2, 4]),
        mask_of([3, 4]),
        mask_of([4]),
    ]
    return FinitePoset(labels, rows, name="M3")


def _n5():
    # pentagon: 0 < a < c < 1 and 0 < b < 1, with b incomparable to a and c
    labels = ("0", "a", "b", "c", "1")
    rows = [
        mask_of([0, 1, 2, 3, 4]),
        mask_of([1, 3, 4]),
        mask_of([2, 4]),
        mask_of([3, 4]),
        mask_of([4]),
    ]
    return FinitePoset(labels, rows, name="N5")


NAMED_LATTICE_EXAMPLES = (
    "chain(1)", "chain(2)", "chain(3)", "chain(4)", "chain(5)",
    "boolean(1)", "boolean(2)", "boolean(3)",
    "M3", "N5",
)

NAMED_POSET_EXAMPLES = NAMED_LATTICE_EXAMPLES + (
    "antichain(1)", "antichain(2)", "antichain(3)", "antichain(4)", "antichain(5)",
)


def _extend_with_max(P, down, tops, signature):
    """The rows of P with one new maximal element m added strictly above
    exactly the down set ``down``, given its maximal elements ``tops`` and
    m's ``degree_signature`` ``signature``: the child's ``up``, ``down``,
    strict up and signature rows, as lists but ``down``.

    They are P's with m added, in O(n): each x in ``down`` gains m in its
    up and strict up rows and one element above in its signature, each top
    also gains one cover above, and m itself is below nothing and covers
    exactly the tops.  No cover rows are built: the signatures count
    them, and nothing else of a child reads them."""
    m = 1 << P.n
    up, strict_up = list(P.up), list(P._strict_up)
    signatures = list(P._degree_signatures)
    for x in iter_bits(down):
        up[x] |= m
        strict_up[x] |= m
        below, above, covered, covering = signatures[x]
        signatures[x] = (below, above + 1, covered, covering + (tops >> x & 1))
    up.append(m)
    strict_up.append(0)
    signatures.append(signature)
    return up, (*P.down, down | m), strict_up, signatures


def _delete(up, c):
    """The poset of the rows ``up`` without element c; the elements after c
    move down one index."""
    low = (1 << c) - 1
    rows = [row & low | row >> (c + 1) << c for i, row in enumerate(up) if i != c]
    return FinitePoset._trusted(default_labels(len(rows)), rows)


@lru_cache(maxsize=None)
def _poset_level(n):
    """Canonical keys of all isomorphism classes of size n, sorted.  Each
    parent is its key, already in canonical order, and labels itself for
    the automorphisms that prune its down sets."""
    if n == 0:
        return ((),)
    keys = []
    labels = default_labels(n - 1)
    for key in _poset_level(n - 1):
        keys.extend(_canonical_children(FinitePoset._trusted(labels, key), key))
    keys.sort()
    return tuple(keys)


def _canonical_children(parent, key):
    """The set of canonical keys of the extensions of ``parent`` (canonical
    key ``key``) by a new maximal element m that stands for the child's
    canonical deletion.

    The canonical deletion of a poset C is its maximal element of top rank
    when that element is unique, and otherwise the maximal element c last in
    C's canonical order.  A child C is kept when m has the top rank among
    C's maximal elements and either it is that unique element, or c == m,
    or C - c is isomorphic to the parent.  Either way the parent's class is
    the class of C minus its canonical deletion, which the class of C
    determines, so different parents give disjoint classes; and every class
    arises from the parent class of that deletion.

    Down sets in one orbit of the parent's automorphisms, generated by those
    its canonical labelling found, give children isomorphic by a map that
    fixes m, and the test above does not change under such a map, so only
    the first of each orbit is expanded.  Children of different orbits can
    still be isomorphic, when each passes by C - c being isomorphic to the
    parent, hence the set.

    Refinement keeps the order of ranks, so a child whose new element's
    ``degree_signature`` is below that of a maximal element it leaves
    maximal cannot give m the top rank; it is refused before it is built.
    A signature starts with the strict-down count, so with ``least`` the
    largest count of the parent's maximal elements, a down set of fewer
    than ``least`` elements is refused from its size alone: the maximal
    element that attains ``least`` lies outside it.  Neither test changes
    under the parent's automorphisms, so an orbit is refused whole or
    passes with the same first member, and it is computed only for a down
    set that passes both.

    A child is first sorted on the rows ``_extend_with_max`` gives:
    ``twin_sort`` of its signatures.  When every class of equal signatures
    is a set of twins, refinement would stop there, so the sort is the
    child's canonical order, and the child is kept: a rival's signature is
    the same in the child as in the parent, so the pre-filter put it at or
    below m's, a tie makes it m's twin, and m, last of its class by index,
    is then the maximal element last in the canonical order.  Its key is
    its rows relabelled through the sort, read from a poset seeded with
    that order.  Any other child is refined: one ``refined_ranks`` over
    the same rows.  Only a child whose ranks pass is built as a poset,
    seeded with its ``down`` rows and refinement, and it labels itself:
    from its ranks when every rank class is a set of twins, else by a
    search.  A child's generators are never built: only parents read them.
    """
    n = parent.n
    strict_up, signatures = parent._strict_up, parent._degree_signatures
    generators = parent._canonical_search[1]
    labels = default_labels(n + 1)
    maximal = [x for x in range(n) if not strict_up[x]]
    least = max((signatures[x][0] for x in maximal), default=0)
    found, seen = set(), set()
    for up_mask in parent.iter_upper_masks():
        if n - up_mask.bit_count() < least or up_mask in seen:
            continue
        down = parent.full_mask ^ up_mask
        rivals = [x for x in maximal if not down >> x & 1]
        tops = mask_of(x for x in iter_bits(down) if not strict_up[x] & down)
        signature = degree_signature(down, 0, tops, 0)
        if any(signatures[x] > signature for x in rivals):
            continue
        if generators:
            seen |= _orbit(up_mask, generators)
        up, downs, child_strict_up, child_signatures = _extend_with_max(
            parent, down, tops, signature)
        order, twins = twin_sort(child_signatures, downs, child_strict_up)
        if twins:
            child = FinitePoset._trusted(labels, up, _canonical_order=tuple(order))
            found.add(child.canonical_key())
            continue
        refinement = refined_ranks(child_signatures, downs, child_strict_up)
        ranks = refinement[0]
        if any(ranks[x] > ranks[n] for x in rivals):
            continue
        child = FinitePoset._trusted(labels, up, down=downs, _refinement=refinement)
        if any(ranks[x] == ranks[n] for x in rivals):
            c = next(e for e in reversed(child._canonical_order) if up[e] == 1 << e)
            if c != n and _delete(up, c).canonical_key() != key:
                continue
        found.add(child.canonical_key())
    return found


def _orbit(mask, generators):
    """The orbit of the subset ``mask`` under the group the permutations
    ``generators`` generate: the closure of {mask} under their images."""
    orbit, frontier = {mask}, [mask]
    while frontier:
        source = frontier.pop()
        for g in generators:
            image = mask_of(g[x] for x in iter_bits(source))
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def check_ceiling(kind, n):
    """Refuse the ``kind`` universe ("posets" or "lattices") at size n past
    its ceiling, ``limits.ENUM_MAX[kind]``, before any level is built.
    The lattices of size n are read off the poset level n - 2, so the
    lattice ceiling lies two past the poset ceiling: lattices at 11 read
    level 9, the largest poset level enumerated."""
    limits.check_count(n, "n")
    limits.check_limit(n, f"{kind[:-1]} enumeration", limits.ENUM_MAX[kind])


def enumerate_posets(n: int):
    """One canonical representative per isomorphism class of n-element
    posets, in canonical order; deterministic across runs."""
    check_ceiling("posets", n)
    for i, key in enumerate(_poset_level(n)):
        yield FinitePoset._trusted(default_labels(n), key, f"P{n}.{i}")


def enumerate_lattices(n: int):
    """One canonical representative per isomorphism class of n-element
    lattices, named ``L{n}.{k}`` in canonical order.

    For n >= 2 a lattice has a bottom and a top, and removing both leaves an
    (n-2)-element poset; conversely a poset with a new bottom and top added
    is a finite bounded poset, which is a lattice exactly when
    ``as_lattice`` accepts it.  So the lattices are read off the
    (n-2)-element poset level.  No deduplication is needed: the bounds are
    the unique least and greatest elements, so any isomorphism of two
    extensions maps bounds to bounds and restricts to an isomorphism of the
    posets, and distinct classes of the level give distinct classes of
    lattices.

    Nothing is labelled: a level key P with the bottom at index 0 and the
    top at n-1 is already the canonical key of the bounded poset B.
    Refinement: the bottom and the top have the unique least and greatest
    degree signatures (0 and n-1 elements strictly below), and each middle
    element's signature is a strictly increasing function of its signature
    in P, so every refinement round splits in step with P's and B's ranks
    are P's plus one, with the bounds at the two ends.  Search: the bottom
    is forced first and the top last, and each middle chunk is P's with
    every weight doubled plus the bottom's bit, common to all, so every
    comparison the search makes is one it makes on P.  A level key's
    canonical order is the identity, so B's is too, and its rows are its
    own key.  Order: ``(row << 1) | top`` is increasing in the row, so the
    bounded keys keep the level's order, and they are the lattice
    subsequence of the sorted n-element poset level; every name is the one
    a filter of ``enumerate_posets(n)`` would give.  The ceiling is the
    lattice ceiling, which reaches past the poset one.
    """
    check_ceiling("lattices", n)
    if n == 0:
        return
    if n == 1:
        yield FinitePoset._trusted(default_labels(1), (1,), "L1.0").as_lattice()
        return
    labels, top, k = default_labels(n), 1 << (n - 1), 0
    for key in _poset_level(n - 2):
        # bottom at index 0, the poset at 1..n-2, top at n-1
        rows = ((1 << n) - 1, *((row << 1) | top for row in key), top)
        try:
            lattice = FinitePoset._trusted(labels, rows, f"L{n}.{k}").as_lattice()
        except NotALatticeError:
            continue
        k += 1
        yield lattice


def random_poset(n: int, *, seed=0, density=0.0) -> FinitePoset:
    """Random poset from a shuffled linear extension: each forward pair is
    related with probability ``density``, then closed transitively.  A pure
    function of (n, seed, density)."""
    limits.check_count(n, "n", 0)
    if not 0 <= density <= 1:
        raise ValueError(f"density must lie in [0, 1], got {density}")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    rows = [1 << i for i in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                rows[order[a]] |= 1 << order[b]
    return FinitePoset(default_labels(n), _closure_rows(n, rows), name=f"R{n}.{seed}")
