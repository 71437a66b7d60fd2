"""Continuity predicates on finite posets and lattices.

Each predicate returns a Verdict; failures carry the first witness found
when elements are scanned in index order and subsets in ascending mask
order, so results are reproducible regardless of execution schedule.

Several of these are always true on finite carriers (continuity,
quasicontinuity, meet continuity, hypercontinuity).  They are implemented
by their definitions anyway: a failure indicts the implementation, and the
verifier suites rely on exactly that.

On a finite lattice join continuity, the frame law and distributivity are
one law, distributivity, read in different forms.  Birkhoff's test
(``FiniteLattice.birkhoff_distributive``) decides it; the law scan over
the order rows, ``_first_violation``, runs only when the test fails, to
find the first witness, so witnesses do not depend on the test.  A truth
value needs no witness: ``BIRKHOFF_LAWS`` names the three laws, and an
instance profile reads their values from the test alone.
"""

from __future__ import annotations

from functools import reduce
from operator import and_

from . import limits
from .poset import FiniteLattice, FinitePoset, Verdict, Witness, iter_bits, mask_of
from .relations import fin_family, prec, way_below, way_way_below
from .scott import scott_closure


def is_continuous(P: FinitePoset, *, oracle=False) -> Verdict:
    """Every element is the directed supremum of the elements way-below it."""
    for x, approx in enumerate(way_below(P, oracle=oracle)):
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
        members = fin_family(P, x)
        if not members:
            w = Witness(elements=(P.labels[x],), note="empty approximating family")
            return Verdict(False, w)
        # a finite family is directed under reverse inclusion exactly when
        # it has a least member, its intersection; the literal pair scan
        # runs only to find the first witness when it has none
        inter = reduce(and_, members, P.full_mask)
        if inter not in members:
            for a in members:
                for b in members:
                    if not any(not m & ~(a & b) for m in members):
                        w = Witness(elements=(P.labels[x],),
                                    subsets=(P.labels_of(a), P.labels_of(b)),
                                    note="family not directed under reverse inclusion")
                        return Verdict(False, w)
        if inter != P.up[x]:
            w = Witness(elements=(P.labels[x],), subsets=(P.labels_of(inter),),
                        note="family intersection differs from the up set")
            return Verdict(False, w)
    return Verdict(True)


def is_meet_continuous(P: FinitePoset) -> Verdict:
    """Topological form: x lies in the Scott closure of (down x) meet
    (down D) whenever a directed D has an existing supremum above x.  D
    contains its supremum s, so down D is down s, whose meet with down x
    is down x: the test is one closure per x, x ascending, without the
    directed sets.  When x fails, the literal scan's first failing D in
    ascending mask order is {s}, s the least index above x, since a
    directed set with greatest element d has a mask of at least 2^d."""
    for x in range(P.n):
        if not scott_closure(P, P.down[x]) >> x & 1:
            up = P.up[x]
            first = up & -up
            w = Witness(elements=(P.labels[x],), subsets=(P.labels_of(first),),
                        note="element escapes the closure of its trace on D")
            return Verdict(False, w)
    return Verdict(True)


def _first_violation(L, subsets, dual=False):
    """First (x, S, lhs, rhs), x ascending and S in the order of the
    reiterable ``subsets``, where x join (meet of S) differs from the meet
    of the x join s, or None; ``dual`` swaps join and meet.  Every form of
    the law is scanned here, on the order rows: the row of x join y for
    every y is looked up when the scan reaches x, and each side of the law
    is one AND loop over rows and one index lookup."""
    P = L.base
    up, down = (P.up, L._up_index), (P.down, L._down_index)
    (outer, outer_index), (inner, inner_index) = (down, up) if dual else (up, down)
    full = P.full_mask
    for x in range(L.n):
        r = outer[x]
        row = [outer_index[r & s] for s in outer]
        for smask in subsets:
            folded = pointwise = full
            for s in iter_bits(smask):
                folded &= inner[s]
                pointwise &= inner[row[s]]
            lhs = row[inner_index[folded]]
            rhs = inner_index[pointwise]
            if lhs != rhs:
                return x, smask, lhs, rhs
    return None


def _witness(L, subsets, dual=False):
    """The first violation of a law on a lattice that fails Birkhoff's
    test; finding none is an implementation fault."""
    hit = _first_violation(L, subsets, dual)
    if hit is None:
        raise AssertionError(f"Birkhoff's test and the scan disagree on {L.base!r}")
    return hit


def _verdict(L, hit, note=""):
    """The verdict on a law whose first violation is ``hit``, or None."""
    if hit is None:
        return Verdict(True)
    x, smask, lhs, rhs = hit
    labels = L.labels
    return Verdict(False, Witness(elements=(labels[x],), subsets=(L.base.labels_of(smask),),
                                  lhs=labels[lhs], rhs=labels[rhs], note=note))


def _distributes(L, dual=False, *, oracle=False):
    """x join (meet of S) equals the meet of the x join s, for every subset
    S including the empty one; ``dual`` swaps join and meet.

    The shortcut is Birkhoff's test: the binary law decides the general
    one on a finite carrier, since subset folds are folds of the binary
    operation and the empty case holds in any bounded lattice, and either
    binary law is distributivity.  The scan over the pairs y < z, in
    ascending mask order, runs only when the test fails, to find the first
    witness.  The oracle scans all subsets.
    """
    n = L.n
    note = "evaluated in the order dual" if dual else ""
    if oracle:
        limits.check_subset_cap(n, "subset enumeration for join continuity")
        return _verdict(L, _first_violation(L, range(1 << n), dual), note)
    if L.birkhoff_distributive:
        return Verdict(True)
    pairs = [1 << y | 1 << z for z in range(n) for y in range(z)]
    return _verdict(L, _witness(L, pairs, dual), note)


def is_join_continuous(L: FiniteLattice, *, oracle=False) -> Verdict:
    """Joins distribute over arbitrary meets: x join (meet of S) equals the
    meet of the pointwise joins, for every subset S."""
    return _distributes(L, oracle=oracle)


def is_frame(L: FiniteLattice, *, oracle=False) -> Verdict:
    """Meets distribute over arbitrary joins: the order dual of join
    continuity, checked as that law with the join and meet tables swapped."""
    return _distributes(L, dual=True, oracle=oracle)


def is_hypercontinuous(L: FiniteLattice, *, oracle=False) -> Verdict:
    """Every element is the join of its predecessors in the upper-set
    interpolation order."""
    return _joins_predecessors(L, prec(L, oracle=oracle))


def is_prime_continuous(L: FiniteLattice, *, oracle=False) -> Verdict:
    """Every element is the join of the elements way-way-below it."""
    return _joins_predecessors(L, way_way_below(L, oracle=oracle))


def _joins_predecessors(L, below):
    """Every y is the join of ``below[y]``, the column of its predecessors.

    Each column must be down-closed, as the columns of ``prec`` and
    ``way_way_below`` are on both routes: then it has the join of its
    join-irreducibles, since each member is the join of the
    join-irreducibles below it, which the column holds too.  So only those
    are joined; the witness still names the whole column.  The join is y
    exactly when the AND of their up rows is y's up row; it is looked up
    only to name the witness."""
    P = L.base
    up, full, irreducible = P.up, P.full_mask, L.join_irreducibles
    for y, preds in enumerate(below):
        ub = full
        for i in iter_bits(preds & irreducible):
            ub &= up[i]
        if ub != up[y]:
            j = L._up_index[ub]
            w = Witness(elements=(P.labels[y],), subsets=(P.labels_of(preds),),
                        lhs=P.labels[y], rhs=P.labels[j])
            return Verdict(False, w)
    return Verdict(True)


def is_distributive(L: FiniteLattice) -> Verdict:
    """Binary distributive law over all triples; on finite carriers this
    decides complete distributivity as well.  Birkhoff's test decides it,
    and the scan runs only to find the first witness: meet over join on
    the pairs y < z in y-major order.  A pair y = z never fails, and the
    law is symmetric in y and z, so no first witness is lost."""
    if L.birkhoff_distributive:
        return Verdict(True)
    n = L.n
    pairs = [1 << y | 1 << z for y in range(n) for z in range(y + 1, n)]
    x, smask, lhs, rhs = _witness(L, pairs, dual=True)
    y, z = iter_bits(smask)
    labels = L.labels
    w = Witness(elements=(labels[x], labels[y], labels[z]), lhs=labels[lhs], rhs=labels[rhs])
    return Verdict(False, w)


def supinf_continuous_rhs(L: FiniteLattice, x: int) -> int:
    """Join over Scott opens containing x of the meet of the open; the
    meets are computed once per lattice, in ``L.upper_meets``."""
    uppers = L.base.upper_masks()
    return L.join_mask(mask_of(m for u, m in zip(uppers, L.upper_meets) if u >> x & 1))


def supinf_hyper_rhs(L: FiniteLattice, x: int, *, oracle=False) -> int:
    """Join over finite sets M avoiding x downward of the meet of the
    complement of (down M).

    The term reads M only through its down set D, and every down set is
    the down set of itself, so the shortcut loops over the down sets, the
    complements of the cached upper sets U: x is outside D exactly when x
    lies in U, and the complement of D is U.  That is the sup-inf form of
    continuity, the Scott opens of a finite poset being its upper sets, so
    the shortcut is ``supinf_continuous_rhs``.  The oracle tries all 2^n
    subsets M."""
    P = L.base
    if not oracle:
        return supinf_continuous_rhs(L, x)
    limits.check_subset_cap(L.n, "subset enumeration for the finite-set form")
    downs = (P.down_closure_mask(m) for m in range(1 << L.n))
    return L.join_mask(mask_of(L.meet_mask(P.full_mask ^ d) for d in downs if not d >> x & 1))


def supinf_prime_rhs(L: FiniteLattice, x: int) -> int:
    """Join over single elements y not above x of the meet of the
    complement of (down y)."""
    P = L.base
    return L.join_mask(mask_of(L.meet_mask(P.full_mask ^ d) for d in P.down if not d >> x & 1))


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

BIRKHOFF_LAWS = ("join_continuous", "frame", "distributive")
"""The lattice predicates that are distributivity on a finite lattice.  On
the shortcut route Birkhoff's test decides each of them, and the law scan
only names a witness, so a truth value needs the test alone."""

PREDICATE_NAMES = (*POSET_PREDICATES, *LATTICE_PREDICATES)
