"""Continuity predicates on finite posets and lattices.

Each predicate returns a Verdict; failures carry the first witness found
when elements are scanned in index order and subsets in ascending mask
order, so results are reproducible regardless of execution schedule.

Several of these are always true on finite carriers (continuity,
quasicontinuity, meet continuity, hypercontinuity).  They are implemented
by their definitions anyway: a failure indicts the implementation, and the
verifier suites rely on exactly that.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from . import limits
from .poset import FiniteLattice, FinitePoset, Verdict, Witness, iter_bits
from .relations import fin_family, prec, way_below, way_way_below
from .scott import scott_closure


def is_continuous(P: FinitePoset, mode="fast") -> Verdict:
    """Every element is the directed supremum of its way-below approximants."""
    rel = way_below(P, mode)
    for x in range(P.n):
        approx = 0
        for p in range(P.n):
            if rel.holds(p, x):
                approx |= 1 << p
        if not P.is_directed_mask(approx):
            w = Witness(elements=(P.labels[x],), subsets=(P.labels_of(approx),),
                        note="approximant set not directed")
            return Verdict(False, w)
        s = P.sup_mask(approx)
        if s != x:
            w = Witness(elements=(P.labels[x],), subsets=(P.labels_of(approx),),
                        lhs=None if s is None else P.labels[s], rhs=P.labels[x],
                        note="approximant supremum differs from the element")
            return Verdict(False, w)
    return Verdict(True)


def is_quasicontinuous(P: FinitePoset) -> Verdict:
    """The family of up sets of finite approximating subsets of each element
    is directed under reverse inclusion and intersects to its up set."""
    for x in range(P.n):
        fam = fin_family(P, x)
        members = fam.members
        if not members:
            w = Witness(elements=(P.labels[x],), note="empty approximating family")
            return Verdict(False, w)
        # upper sets containing the up set of x are closed under
        # intersection, so the scan below rarely runs
        member_set = set(members)
        for a in members:
            for b in members:
                if a & b not in member_set and not any(not m & ~(a & b) for m in members):
                    w = Witness(elements=(P.labels[x],),
                                subsets=(P.labels_of(a), P.labels_of(b)),
                                note="family not directed under reverse inclusion")
                    return Verdict(False, w)
        if fam.intersection_mask() != P.up[x]:
            w = Witness(elements=(P.labels[x],),
                        subsets=(P.labels_of(fam.intersection_mask()),),
                        note="family intersection differs from the up set")
            return Verdict(False, w)
    return Verdict(True)


def is_meet_continuous(P: FinitePoset) -> Verdict:
    """Topological form: x lies in the Scott closure of (down x) meet
    (down D) whenever a directed D has an existing supremum above x."""
    for x in range(P.n):
        for dmask, s in P.directed_sets():
            if not P.up[x] >> s & 1:
                continue
            # D contains its supremum, so down D is down (sup D)
            trace = P.down[x] & P.down[s]
            if not scott_closure(P, trace).mask >> x & 1:
                w = Witness(elements=(P.labels[x],), subsets=(P.labels_of(dmask),),
                            note="element escapes the closure of its trace on D")
                return Verdict(False, w)
    return Verdict(True)


def is_meet_continuous_algebraic(L: FiniteLattice) -> Verdict:
    """Algebraic form: meets distribute over directed joins."""
    P = L.base
    for x in range(L.n):
        for dmask, s in P.directed_sets():
            lhs = L.meet_of(x, s)
            rhs = L.bottom
            for d in iter_bits(dmask):
                rhs = L.join_of(rhs, L.meet_of(x, d))
            if lhs != rhs:
                w = Witness(elements=(P.labels[x],), subsets=(P.labels_of(dmask),),
                            lhs=P.labels[lhs], rhs=P.labels[rhs])
                return Verdict(False, w)
    return Verdict(True)


def is_join_continuous(L: FiniteLattice, mode="reduced") -> Verdict:
    """Joins distribute over arbitrary meets: x join (meet of S) equals the
    meet of the pointwise joins, for every subset S including the empty one.

    Reduced mode checks two-element S only; subset meets are folds of binary
    meets, so the binary law decides the general one on a finite carrier,
    and the empty case holds in any bounded lattice.  Definitional mode
    enumerates all subsets.
    """
    P = L.base
    n = L.n
    if mode == "reduced":
        for x in range(n):
            for z in range(n):
                for y in range(z):
                    lhs = L.join_of(x, L.meet_of(y, z))
                    rhs = L.meet_of(L.join_of(x, y), L.join_of(x, z))
                    if lhs != rhs:
                        w = Witness(elements=(P.labels[x],),
                                    subsets=((P.labels[y], P.labels[z]),),
                                    lhs=P.labels[lhs], rhs=P.labels[rhs])
                        return Verdict(False, w)
        return Verdict(True)
    if mode != "definitional":
        raise ValueError(f"unknown mode {mode!r}")
    limits.check_subset_cap(n, "subset enumeration for join continuity")
    for x in range(n):
        for smask in range(1 << n):
            lhs = L.join_of(x, L.meet_mask(smask))
            rhs = L.top
            for s in iter_bits(smask):
                rhs = L.meet_of(rhs, L.join_of(x, s))
            if lhs != rhs:
                w = Witness(elements=(P.labels[x],), subsets=(P.labels_of(smask),),
                            lhs=P.labels[lhs], rhs=P.labels[rhs])
                return Verdict(False, w)
    return Verdict(True)


def is_frame(L: FiniteLattice, mode="reduced") -> Verdict:
    """Meets distribute over arbitrary joins; the order dual of join
    continuity, and computed that way."""
    v = is_join_continuous(L.dual(), mode)
    if v.holds:
        return v
    w = v.witness
    return Verdict(False, Witness(elements=w.elements, subsets=w.subsets,
                                  lhs=w.lhs, rhs=w.rhs, note="evaluated in the order dual"))


def is_hypercontinuous(L: FiniteLattice, mode="fast") -> Verdict:
    """Every element is the join of its predecessors in the upper-set
    interpolation order."""
    rel = prec(L, mode)
    return _join_of_predecessors(L, rel)


def is_prime_continuous(L: FiniteLattice, mode="closed") -> Verdict:
    """Every element is the join of the elements way-way-below it."""
    rel = way_way_below(L, mode)
    return _join_of_predecessors(L, rel)


def _join_of_predecessors(L, rel):
    P = L.base
    for y in range(L.n):
        preds = 0
        for x in range(L.n):
            if rel.holds(x, y):
                preds |= 1 << x
        j = L.join_mask(preds)
        if j != y:
            w = Witness(elements=(P.labels[y],), subsets=(P.labels_of(preds),),
                        lhs=P.labels[y], rhs=P.labels[j])
            return Verdict(False, w)
    return Verdict(True)


def is_distributive(L: FiniteLattice) -> Verdict:
    """Binary distributive law over all triples; on finite carriers this
    decides complete distributivity as well."""
    P = L.base
    n = L.n
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = L.meet_of(x, L.join_of(y, z))
                rhs = L.join_of(L.meet_of(x, y), L.meet_of(x, z))
                if lhs != rhs:
                    w = Witness(elements=(P.labels[x], P.labels[y], P.labels[z]),
                                lhs=P.labels[lhs], rhs=P.labels[rhs])
                    return Verdict(False, w)
    return Verdict(True)


def is_completely_distributive_oracle(L: FiniteLattice, family_bound=3) -> Verdict:
    """Cross-validates the binary shortcut: checks the complete distributive
    law for every family of at most ``family_bound`` nonempty subsets,
    enumerating all choice functions."""
    P = L.base
    n = L.n
    limits.check_subset_cap(n, "family enumeration for complete distributivity")
    subsets = [tuple(iter_bits(m)) for m in range(1, 1 << n)]
    for k in range(1, family_bound + 1):
        for family in combinations_with_replacement(subsets, k):
            lhs = L.top
            for js in family:
                term = L.bottom
                for u in js:
                    term = L.join_of(term, u)
                lhs = L.meet_of(lhs, term)
            rhs = L.bottom
            choice = [0] * k
            while True:
                term = L.top
                for i in range(k):
                    term = L.meet_of(term, family[i][choice[i]])
                rhs = L.join_of(rhs, term)
                i = k - 1
                while i >= 0 and choice[i] == len(family[i]) - 1:
                    choice[i] = 0
                    i -= 1
                if i < 0:
                    break
                choice[i] += 1
            if lhs != rhs:
                w = Witness(subsets=tuple(tuple(P.labels[u] for u in js) for js in family),
                            lhs=P.labels[lhs], rhs=P.labels[rhs])
                return Verdict(False, w)
    return Verdict(True)


def supinf_continuous_rhs(L: FiniteLattice, x: int) -> int:
    """Join over Scott opens containing x of the meet of the open."""
    P = L.base
    acc = L.bottom
    for u in P.upper_masks():
        if u >> x & 1:
            acc = L.join_of(acc, L.meet_mask(u))
    return acc


def supinf_hyper_rhs(L: FiniteLattice, x: int) -> int:
    """Join over finite sets M avoiding x downward of the meet of the
    complement of (down M)."""
    P = L.base
    limits.check_subset_cap(L.n, "subset enumeration for the finite-set form")
    acc = L.bottom
    for mmask in range(1 << L.n):
        if P.down_closure_mask(mmask) >> x & 1:
            continue
        acc = L.join_of(acc, L.meet_mask(P.full_mask ^ P.down_closure_mask(mmask)))
    return acc


def supinf_prime_rhs(L: FiniteLattice, x: int) -> int:
    """Join over single elements y not above x of the meet of the
    complement of (down y)."""
    P = L.base
    acc = L.bottom
    for y in range(L.n):
        if P.down[y] >> x & 1:
            continue
        acc = L.join_of(acc, L.meet_mask(P.full_mask ^ P.down[y]))
    return acc


POSET_PREDICATES = {
    "continuous": is_continuous,
    "quasicontinuous": is_quasicontinuous,
    "meet_continuous": is_meet_continuous,
}

LATTICE_PREDICATES = {
    "join_continuous": is_join_continuous,
    "frame": is_frame,
    "hypercontinuous": is_hypercontinuous,
    "prime_continuous": is_prime_continuous,
    "distributive": is_distributive,
}

PREDICATE_NAMES = (
    "continuous",
    "quasicontinuous",
    "meet_continuous",
    "join_continuous",
    "frame",
    "hypercontinuous",
    "prime_continuous",
    "distributive",
)
