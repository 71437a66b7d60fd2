"""Checks that only the tests use."""

import os
import random
from itertools import combinations_with_replacement, islice, permutations, product

from orderkit import limits
from orderkit.generators import (
    _poset_level,
    default_labels,
    enumerate_lattices,
    enumerate_posets,
    named,
)
from orderkit.poset import FinitePoset, Verdict, Witness, iter_bits, mask_of
from orderkit.properties import _first_violation, _verdict
from orderkit.scott import scott_opens
from orderkit.verifier import InstanceProfile, compile_expression


def pooled(monkeypatch):
    """Make ``verify`` check every universe in a spawned pool of two
    workers, whatever the size and the machine."""
    monkeypatch.setattr(limits, "POOL_FROM", {"posets": 1, "lattices": 1})
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


def is_canonical(P):
    """P's elements are already in its canonical order."""
    return P._canonical_order == tuple(range(P.n))


# level sizes of stacked antichains: antichain(7), antichain(3) below
# antichain(3), M5 (the lattice with five atoms) and a 2-3-3 stack
TWIN_LEVELS = ((7,), (3, 3), (1, 5, 1), (2, 3, 3))


def stacked_antichains(sizes, seed):
    """The antichains of the given sizes, each level wholly below the next,
    with the elements shuffled by ``seed``.  Every rank class is one level,
    a set of twins: elements with the same strict up and strict down rows."""
    n = sum(sizes)
    rows, start = [], 0
    for k in sizes:
        above = (1 << n) - (1 << (start + k))
        rows += [1 << i | above for i in range(start, start + k)]
        start += k
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    shuffled = [0] * n
    for i, row in enumerate(rows):
        shuffled[perm[i]] = mask_of(perm[j] for j in iter_bits(row))
    return FinitePoset(default_labels(n), shuffled)


def self_dual_classes(n):
    """The number of self-dual classes of poset level n, once the labelled
    dual of every key of the level is found to be a key of the same level.
    That ties the labelling to the generator without the canonical deletion
    rule the generator keeps its children by."""
    level = _poset_level(n)
    keys, labels, count = set(level), default_labels(n), 0
    for key in level:
        dual = FinitePoset._trusted(labels, key).dual().canonical_key()
        if dual not in keys:
            raise AssertionError(f"the dual of {key} is no key of level {n}")
        count += dual == key
    return count


def complement_isomorphism(opens, closeds):
    """Explicit order anti-isomorphism between two set lattices of one
    poset, such as σ(P) and Γ(P): the index map sending each member of
    ``opens`` to its complement.  Raises if the map is not a bijection
    reversing the order, returns it otherwise."""
    P = opens.base_poset
    index = {m: i for i, m in enumerate(closeds.opens)}
    # a missing complement maps to -1, which no bijection onto the indices has
    mapping = [index.get(P.full_mask ^ m, -1) for m in opens.opens]
    if sorted(mapping) != list(range(len(closeds.opens))):
        raise AssertionError("complementation is not a bijection between the families")
    a, b = opens.lattice.base, closeds.lattice.base
    for i in range(a.n):
        for j in range(a.n):
            if a.leq(i, j) != b.leq(mapping[j], mapping[i]):
                raise AssertionError("complementation does not reverse inclusion")
    return tuple(mapping)


def first_match(expression, max_n, enumerate_kind=enumerate_posets):
    """The first instance, by size 1..max_n and then in enumeration order,
    that the filter expression accepts, as ``enumerate --filter`` reads
    them; None when there is none."""
    evaluate = compile_expression(expression)
    return next((obj for n in range(1, max_n + 1) for obj in enumerate_kind(n)
                 if evaluate(InstanceProfile(obj))), None)


def is_meet_continuous_algebraic(L):
    """Algebraic form of meet continuity: meets distribute over directed
    joins, scanned as the order dual of join continuity over the directed
    sets."""
    return _verdict(L, _first_violation(L, [d for d, _ in L.base.directed_sets()], dual=True))


def is_completely_distributive_oracle(L, family_bound=3):
    """Cross-validates the binary shortcut: checks the complete distributive
    law for every family of at most ``family_bound`` nonempty subsets,
    enumerating all choice functions."""
    P = L.base
    n = L.n
    limits.check_subset_cap(n, "family enumeration for complete distributivity")
    subsets = [iter_bits(m) for m in range(1, 1 << n)]
    for k in range(1, family_bound + 1):
        for family in combinations_with_replacement(subsets, k):
            lhs = L.meet_mask(mask_of(L.join_mask(mask_of(js)) for js in family))
            rhs = L.join_mask(mask_of(L.meet_mask(mask_of(c)) for c in product(*family)))
            if lhs != rhs:
                w = Witness(subsets=tuple(tuple(P.labels[u] for u in js) for js in family),
                            lhs=P.labels[lhs], rhs=P.labels[rhs])
                return Verdict(False, w)
    return Verdict(True)


def birkhoff_bridge(k):
    """The canonical keys of σ(P) over the posets P with exactly k upper
    sets, and those of the distributive lattices with k elements, each a
    sorted list.  By Birkhoff's representation theorem the two lists are
    equal and free of repeats.  A poset with n elements has at least n + 1
    upper sets, and exactly n + 1 only when it is a chain, so the posets
    are the (k - 1)-chain and some of levels 0 to k - 2, read past the
    poset ceiling; the lattices come from poset level k - 2."""
    sigma = [scott_opens(named(f"chain({k - 1})")).lattice.base.canonical_key()]
    for n in range(k - 1):
        for key in _poset_level(n):
            P = FinitePoset._trusted(default_labels(n), key)
            if sum(1 for _ in islice(P.iter_upper_masks(), k + 1)) == k:
                sigma.append(scott_opens(P).lattice.base.canonical_key())
    lattices = [L.base.canonical_key() for L in enumerate_lattices(k)
                if L.birkhoff_distributive]
    return sorted(sigma), sorted(lattices)


def literal_refinement(P):
    """Refinement as defined, from the relation alone and with no early
    stop: each element's counts of the elements strictly below and above it
    and of those it covers and is covered by, then rounds that color each
    element by its color and the sorted colors of the elements strictly
    below and above, until a round splits no class; and whether every class
    of that partition is a set of pairwise twins (equal strict up and
    strict down sets)."""
    n = P.n
    below = [[j for j in range(n) if j != i and P.leq(j, i)] for i in range(n)]
    above = [[j for j in range(n) if j != i and P.leq(i, j)] for i in range(n)]
    covers = [[j for j in above[i] if not set(above[i]) & set(below[j])] for i in range(n)]
    covered = [[j for j in below[i] if not set(below[i]) & set(above[j])] for i in range(n)]

    def dense(colors):
        order = sorted(set(colors))
        return [order.index(c) for c in colors]

    ranks = dense([(len(below[i]), len(above[i]), len(covered[i]), len(covers[i]))
                   for i in range(n)])
    while True:
        new = dense([(ranks[i], tuple(sorted(ranks[j] for j in below[i])),
                      tuple(sorted(ranks[j] for j in above[i]))) for i in range(n)])
        if len(set(new)) == len(set(ranks)):
            break
        ranks = new
    twins = all(below[i] == below[j] and above[i] == above[j]
                for i in range(n) for j in range(n) if ranks[i] == ranks[j])
    return tuple(ranks), twins


def first_least_order(P):
    """The definition of the canonical order: of every rank-respecting
    ordering, in candidate order, the first whose relation table (for each
    position, the cells to the earlier positions below it, then above it)
    is lexicographically least."""
    ranks = P._refinement[0]
    classes = [[i for i in range(P.n) if ranks[i] == r] for r in sorted(set(ranks))]
    best = None
    for parts in product(*map(permutations, classes)):
        order = [e for part in parts for e in part]
        table = [([P.leq(a, e) for a in order[:k]], [P.leq(e, a) for a in order[:k]])
                 for k, e in enumerate(order)]
        if best is None or table < best[0]:
            best = table, tuple(order)
    return best[1]
