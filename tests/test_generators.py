import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    TWIN_LEVELS,
    first_least_order,
    is_canonical,
    literal_refinement,
    self_dual_classes,
    stacked_antichains,
)

from orderkit import (
    NotALatticeError,
    SizeLimitError,
    UnknownNameError,
    build_poset,
    emit,
    generators,
    is_join_continuous,
    is_scott_open,
    parse,
    poset,
    prec,
    scott_closure,
    way_below,
    way_way_below,
)
from orderkit.generators import (
    default_labels,
    enumerate_lattices,
    enumerate_posets,
    named,
    random_poset,
)
from orderkit.poset import FinitePoset, iter_bits, mask_of
from orderkit.scott import scott_closed_lattice, scott_opens

POSET_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}
LATTICE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53}


def test_named_instances():
    assert named("chain(1)").n == 1
    m3 = named("M3")
    assert m3.n == 5
    atoms = [i for i in range(5) if m3.down[i].bit_count() == 2]
    coatoms = [i for i in range(5) if m3.up[i].bit_count() == 2]
    assert len(atoms) == 3 and atoms == coatoms
    b2 = named("boolean(2)")
    assert b2.n == 4 and len(b2.hasse()) == 4
    with pytest.raises(UnknownNameError):
        named("zigzag(3)")
    with pytest.raises(UnknownNameError):
        named("chain(x)")


def test_poset_counts(posets_upto_5):
    for n, want in POSET_COUNTS.items():
        assert len(posets_upto_5[n]) == want


def test_lattice_counts(lattices_upto_6):
    for n in range(1, 7):
        assert len(lattices_upto_6[n]) == LATTICE_COUNTS[n]


# sha256 of repr(_poset_level(n)): the canonical keys of each level, pinned
# so that a change to canonical labelling cannot move a key unnoticed
LEVEL_DIGESTS = {
    6: (318, "9dc80f297d5dfb62550f48613b9a7f8106f38d74627206c109706d906573b505"),
    7: (2045, "3e05ea5d4ddbbe3e491a438f744ba068250ec7c070726c401ed15f23315f53d1"),
}


def test_poset_level_keys_pinned():
    for n, (count, digest) in LEVEL_DIGESTS.items():
        level = generators._poset_level(n)
        assert len(level) == count
        assert hashlib.sha256(repr(level).encode()).hexdigest() == digest


def test_poset_level_matches_literal_construction():
    # every class extended by every down set, deduplicated on one global set
    # of canonical keys
    literal = ((),)
    for n in range(1, 8):
        keys = set()
        for key in literal:
            P = FinitePoset(default_labels(n - 1), key)
            for down in range(1 << (n - 1)):
                if P.down_closure_mask(down) != down:
                    continue
                rows = [row | (1 << (n - 1) if down >> i & 1 else 0) for i, row in enumerate(key)]
                child = FinitePoset(default_labels(n), rows + [1 << (n - 1)])
                keys.add(child.canonical_key())
        literal = tuple(sorted(keys))
        assert generators._poset_level(n) == literal


def test_poset_level_labels_few_children(monkeypatch):
    # the literal construction labels all 5439 extensions of level 6; the
    # degree-signature pre-filter also keeps most children from being built,
    # and one down set per orbit of the parent's automorphisms leaves 2046
    # keys (2759 without that pruning) for 2045 classes: 2045 children and
    # one deletion
    generators._poset_level.cache_clear()
    generators._poset_level(6)
    counts = {"keys": 0, "builds": 0, "searches": 0, "refinements": 0, "sorted": 0}
    key, trusted = FinitePoset.canonical_key, FinitePoset._trusted
    view = vars(FinitePoset)["_canonical_search"]
    refine, sort = poset.refined_ranks, generators.twin_sort

    def counted_key(self):
        counts["keys"] += 1
        return key(self)

    def counted_trusted(cls, *args, **kwargs):
        counts["builds"] += 1
        return trusted(*args, **kwargs)

    def counted_search(P, compute=view.compute):
        counts["searches"] += 1
        return compute(P)

    def counted_refine(*args):
        counts["refinements"] += 1
        return refine(*args)

    def counted_sort(*args):
        order, twins = sort(*args)
        counts["sorted"] += twins
        return order, twins

    monkeypatch.setattr(FinitePoset, "canonical_key", counted_key)
    # every poset the level build makes is a trusted one: 2364 at level 7,
    # the 318 parents, 2045 children and one deletion (2427 while the 63
    # children refused by their ranks were built too, 3170 before the orbit
    # pruning)
    monkeypatch.setattr(FinitePoset, "_trusted", classmethod(counted_trusted))
    # the parents run _canonical_search for their automorphisms, and of
    # the children only the 195 whose rank classes are not all twins
    monkeypatch.setattr(view, "compute", counted_search)
    # 1578 of the 2108 children that pass the pre-filters have degree
    # signature classes of twins, and are keyed from one sort of their
    # signatures, with no refinement; the 318 parents, the other 530
    # children and the deletion are refined (2427 refinements when every
    # child was)
    monkeypatch.setattr(poset, "refined_ranks", counted_refine)
    monkeypatch.setattr(generators, "refined_ranks", counted_refine)
    monkeypatch.setattr(generators, "twin_sort", counted_sort)
    assert len(generators._poset_level(7)) == 2045
    assert counts == {"keys": 2046, "builds": 2364, "searches": 318 + 195,
                      "refinements": 318 + 530 + 1, "sorted": 1578}


def test_sorted_children_take_the_first_least_order(monkeypatch):
    # the children the level build keys from the sort of their degree
    # signatures, against the definition of the canonical order on the
    # literal refinement
    generators._poset_level.cache_clear()
    sort, keyed = generators.twin_sort, []

    def recording(signatures, down, strict_up):
        order, twins = sort(signatures, down, strict_up)
        if twins:
            keyed.append((order, strict_up))
        return order, twins

    monkeypatch.setattr(generators, "twin_sort", recording)
    per_level = []
    for n in range(1, 7):
        before = len(keyed)
        generators._poset_level(n)
        per_level.append(len(keyed) - before)
    assert per_level == [1, 2, 5, 15, 56, 264]
    for order, strict_up in keyed:
        n = len(order)
        C = FinitePoset(default_labels(n), [row | 1 << i for i, row in enumerate(strict_up)])
        assert C._refinement == literal_refinement(C)
        assert tuple(order) == first_least_order(C), C.up


def test_orbits_follow_the_prefilters(monkeypatch):
    # a down set smaller than a maximal element's strict down set, or whose
    # new element's signature is below a rival's, is refused with its whole
    # orbit, so only the down sets that pass have their orbits built: 1693
    # for levels 1-7, against 3106 when every orbit representative had one
    generators._poset_level.cache_clear()
    orbit, calls = generators._orbit, []

    def counted(mask, gens):
        calls.append(mask)
        return orbit(mask, gens)

    monkeypatch.setattr(generators, "_orbit", counted)
    per_level = []
    for n in range(1, 8):
        before = len(calls)
        generators._poset_level(n)
        per_level.append(len(calls) - before)
    assert per_level == [0, 0, 3, 9, 46, 227, 1408]


def _level_posets(top):
    for n in range(top + 1):
        for key in generators._poset_level(n):
            yield FinitePoset._trusted(default_labels(n), key), key


def _group(n, gens):
    # closure of the identity under composition with the generators
    group, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        h = frontier.pop()
        for g in gens:
            gh = tuple(g[x] for x in h)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return group


def test_stored_automorphisms_generate_the_group():
    for P, _ in _level_posets(6):
        relation = {(i, j) for i in range(P.n) for j in iter_bits(P.up[i])}
        gens = P._canonical_search[1]
        for g in gens:
            assert {(g[i], g[j]) for i, j in relation} == relation
        count = sum({(p[i], p[j]) for i, j in relation} == relation
                    for p in itertools.permutations(range(P.n)))
        assert len(_group(P.n, gens)) == count


def test_twin_class_generators_generate_the_group():
    # rank classes of twins: two generators per class of three or more, one
    # per pair, and the group is the product of the classes' symmetric groups
    for sizes in TWIN_LEVELS:
        P = stacked_antichains(sizes, seed=1)
        relation = {(i, j) for i in range(P.n) for j in iter_bits(P.up[i])}
        gens = P._canonical_search[1]
        assert len(gens) == sum((k > 1) + (k > 2) for k in sizes)
        for g in gens:
            assert {(g[i], g[j]) for i, j in relation} == relation
        assert len(_group(P.n, gens)) == math.prod(map(math.factorial, sizes))


def test_parents_label_themselves(monkeypatch):
    # a parent is its key, already in canonical order, and its own
    # labelling gives the automorphisms that prune its down sets: levels
    # 1-7 take 936 labellings, one for each of the 406 parents of levels
    # 0-6 and 530 for children and deletions; 297 have distinct ranks,
    # 370 more rank classes of twins, and 269 search.  The other 1921
    # children are keyed from the sort of their degree signatures and
    # labelled by nothing (2857 labellings, 992 / 1596 / 269, while every
    # child was).  Children labelled from their ranks read no
    # automorphisms, so 638 run _canonical_search: the 406 parents and the
    # 232 children that search
    generators._poset_level.cache_clear()
    view = vars(FinitePoset)["_canonical_search"]
    searches, twin_ranks, orders = [0, 0], [], []
    children, twin_order = generators._canonical_children, poset._twin_order

    def recorded_twin_order(ranks):
        twin_ranks.append(ranks)
        return twin_order(ranks)

    def counted(P, compute=view.compute):
        before = len(twin_ranks)
        searches[0] += 1
        found = compute(P)
        searches[1] += len(twin_ranks) == before
        return found

    def recording(parent, key):
        found = children(parent, key)
        orders.append((key, parent._canonical_search[0]))
        return found

    monkeypatch.setattr(view, "compute", counted)
    monkeypatch.setattr(poset, "_twin_order", recorded_twin_order)
    monkeypatch.setattr(generators, "_canonical_children", recording)
    assert len(generators._poset_level(7)) == 2045
    distinct = sum(len(set(ranks)) == len(ranks) for ranks in twin_ranks)
    assert (distinct, len(twin_ranks) - distinct, searches[1]) == (297, 370, 269)
    assert searches[0] == 406 + 232
    assert len(orders) == 406
    for key, order in orders:
        assert order == tuple(range(len(key))), key


def _unpruned_children(parent, key):
    # every down set extended, no pre-filter and no orbit skipped: a child
    # is kept when the new element m has the top refined rank among its
    # maxima and is the unique one, or is the last maximal element in
    # canonical order, or deleting that element leaves the parent's class
    n = parent.n
    out = set()
    for down in range(1 << n):
        if parent.down_closure_mask(down) != down:
            continue
        rows = [row | (1 << n if down >> i & 1 else 0) for i, row in enumerate(parent.up)]
        C = FinitePoset(default_labels(n + 1), rows + [1 << n])
        maxima = [x for x in range(n + 1) if C.up[x] == 1 << x]
        ranks = C._refinement[0]
        top = [x for x in maxima if ranks[x] == max(ranks[y] for y in maxima)]
        if n not in top:
            continue
        c = next(e for e in reversed(C._canonical_order) if e in maxima)
        if len(top) > 1 and c != n:
            keep = [x for x in range(n + 1) if x != c]
            rest = [mask_of(keep.index(j) for j in iter_bits(C.up[x]) if j != c) for x in keep]
            if FinitePoset(default_labels(n), rest).canonical_key() != key:
                continue
        out.add(C.canonical_key())
    return out


def test_orbit_pruning_keeps_every_child():
    for parent, key in _level_posets(6):
        assert generators._canonical_children(parent, key) == _unpruned_children(parent, key)


def test_children_views_seeded_from_parent(monkeypatch):
    built = []
    extend = generators._extend_with_max

    def recording(*args):
        rows = extend(*args)
        built.append(rows)
        return rows

    monkeypatch.setattr(generators, "_extend_with_max", recording)
    for parent, key in _level_posets(6):
        generators._canonical_children(parent, key)
    assert len(built) > 2000
    for up, down, strict_up, signatures in built:
        fresh = FinitePoset(default_labels(len(up)), up)
        assert down == fresh.down
        assert tuple(strict_up) == fresh._strict_up
        assert tuple(signatures) == fresh._degree_signatures


def _cycles(*lengths):
    """Height-two poset whose cover graph is a disjoint union of cycles, one
    of 2k elements per k: maxima b_i above minima a_i and a_(i+1 mod k)."""
    labels, pairs = [], []
    for c, k in enumerate(lengths):
        labels += [f"{x}{c}.{i}" for i in range(k) for x in "ab"]
        pairs += [(f"a{c}.{(i + d) % k}", f"b{c}.{i}") for i in range(k) for d in (0, 1)]
    P = build_poset(labels, pairs)
    return FinitePoset(default_labels(P.n), P.up)


def test_deletion_decides_between_tied_maxima():
    # beside an 8-cycle, a 4-cycle's maxima get the same refined rank as
    # the 8-cycle's, yet deleting one or the other leaves non-isomorphic
    # posets; exactly one of the two parents may keep the whole poset
    C = _cycles(2, 4)
    maxima = [x for x in range(C.n) if C.up[x] == 1 << x]
    assert len({C._refinement[0][x] for x in maxima}) == 1
    parents = [FinitePoset(default_labels(C.n - 1), generators._delete(C.up, m).canonical_key())
               for m in (maxima[0], maxima[-1])]
    assert not parents[0].is_isomorphic(parents[1])
    kept = [C.canonical_key() in generators._canonical_children(P, P.up) for P in parents]
    assert kept.count(True) == 1


def test_level_duals_are_level_keys():
    # the dual of a poset is a poset of the same size, so each level is
    # closed under labelled duals; the self-dual classes for n = 1..7
    for n, want in enumerate((1, 2, 3, 8, 15, 50, 119), start=1):
        assert self_dual_classes(n) == want


def _lattice_filter(n):
    # the literal route: the n-element poset level through as_lattice
    literal = []
    for P in enumerate_posets(n):
        try:
            literal.append(P.with_name(f"L{n}.{len(literal)}").as_lattice())
        except NotALatticeError:
            pass
    return literal


def test_lattices_match_poset_filter(lattices_upto_7):
    for n in range(1, 8):
        assert lattices_upto_7[n] == _lattice_filter(n)


def _bounded(key):
    # the poset of ``key`` with a new bottom at index 0 and top at the end
    n = len(key) + 2
    top = 1 << (n - 1)
    return ((1 << n) - 1, *((row << 1) | top for row in key), top)


def test_bounded_level_keys_are_canonical():
    # enumerate_lattices takes each bounded level key as its own canonical
    # key; labelling the bounded poset is the oracle, lattice or not
    for n in range(8):
        for key in generators._poset_level(n):
            rows = _bounded(key)
            assert FinitePoset._trusted(default_labels(n + 2), rows).canonical_key() == rows, key


def test_lattices_read_bounded_poset_level(monkeypatch):
    seen = []
    level = generators._poset_level
    level(5)
    view = vars(FinitePoset)["_canonical_search"]
    searches = [0]

    def recording(n):
        seen.append(n)
        return level(n)

    def counted(P, compute=view.compute):
        searches[0] += 1
        return compute(P)

    monkeypatch.setattr(generators, "_poset_level", recording)
    monkeypatch.setattr(view, "compute", counted)
    assert len(list(enumerate_lattices(7))) == LATTICE_COUNTS[7]
    assert seen and max(seen) <= 5
    # with the level cached, no poset is labelled
    assert searches[0] == 0


def test_route_check_catches_a_non_canonical_level_key(monkeypatch):
    # the lattice route rests on every level key being canonical: replace
    # one level-5 key, whose bounded poset is a lattice, by the rows of the
    # same class with the element order reversed
    literal = _lattice_filter(7)
    level = generators._poset_level(5)
    for i, key in enumerate(level):
        reversed_rows = tuple(mask_of(4 - j for j in iter_bits(row)) for row in reversed(key))
        if reversed_rows == key:
            continue
        try:
            FinitePoset(default_labels(7), _bounded(key)).as_lattice()
        except NotALatticeError:
            continue
        break
    FinitePoset(default_labels(5), reversed_rows)  # still a poset of that class
    assert FinitePoset._trusted(default_labels(5), reversed_rows).canonical_key() == key
    faulty = level[:i] + (reversed_rows,) + level[i + 1:]
    poset_level = generators._poset_level
    monkeypatch.setattr(generators, "_poset_level", lambda n: faulty if n == 5 else poset_level(n))
    got = list(enumerate_lattices(7))
    assert [L.name for L in got] == [L.name for L in literal]
    assert sum(a != b for a, b in zip(got, literal)) == 1


def test_lattices_n4():
    found = [L.base for L in enumerate_lattices(4)]
    assert len(found) == 2
    assert any(P.is_isomorphic(named("chain(4)")) for P in found)
    assert any(P.is_isomorphic(named("boolean(2)")) for P in found)


def test_lattices_n5_include_m3_n5(lattices_upto_6):
    bases = [L.base for L in lattices_upto_6[5]]
    assert any(P.is_isomorphic(named("M3")) for P in bases)
    assert any(P.is_isomorphic(named("N5")) for P in bases)


def test_enumeration_no_isomorphic_pair(posets_upto_5):
    for n in (3, 4, 5):
        keys = [P.canonical_key() for P in posets_upto_5[n]]
        assert len(set(keys)) == len(keys)


def test_enumeration_deterministic():
    first = [P.up for P in enumerate_posets(4)]
    second = [P.up for P in enumerate_posets(4)]
    assert first == second


def test_enumeration_emits_valid_canonical(posets_upto_5):
    for P in posets_upto_5[4]:
        assert P.validate()
        assert is_canonical(P)


def _assert_valid(P):
    # the validating constructor accepts the rows, and its generic walks
    # give the down and cover rows the builder may have seeded
    checked = FinitePoset(P.labels, P.up, name=P.name)
    assert checked == P
    assert P.down == checked.down
    assert P.cover_rows == checked.cover_rows


def test_trusted_builds_pass_validation(posets_upto_5, lattices_upto_7):
    for n in range(1, 8):
        for key in generators._poset_level(n):
            _assert_valid(FinitePoset._trusted(default_labels(n), key))
    for batch in lattices_upto_7.values():
        for L in batch:
            _assert_valid(L.base)
    for batch in posets_upto_5.values():
        for P in batch:
            _assert_valid(P)
            for Q in (scott_opens(P).lattice.base, scott_closed_lattice(P).lattice.base,
                      P.dual(), P.canonical_form(), P.with_name("renamed")):
                _assert_valid(Q)


def test_enumeration_cap():
    for n in (10, 20):
        with pytest.raises(SizeLimitError):
            list(enumerate_posets(n))
    for n in (12, 20):
        with pytest.raises(SizeLimitError):
            list(enumerate_lattices(n))
    assert len(list(enumerate_posets(3))) == 5
    assert len(list(enumerate_lattices(3))) == 1


def test_random_poset_extremes():
    anti = random_poset(5, seed=1, density=0.0)
    assert anti.is_isomorphic(named("antichain(5)"))
    chain = random_poset(5, seed=1, density=1.0)
    assert chain.is_isomorphic(named("chain(5)"))


def test_random_poset_deterministic():
    a = random_poset(6, seed=42, density=0.3)
    b = random_poset(6, seed=42, density=0.3)
    assert a == b
    assert a.validate()
    c = random_poset(6, seed=43, density=0.3)
    assert c.validate()


@given(st.integers(1, 7), st.integers(0, 2**20), st.floats(0, 1))
@settings(max_examples=50, deadline=None)
def test_random_poset_always_valid(n, seed, density):
    P = random_poset(n, seed=seed, density=density)
    assert P.validate()
    try:
        P.as_lattice()
    except NotALatticeError:
        pass


def test_random_poset_rejects_bad_sizes():
    for n in (-2, -1):
        with pytest.raises(ValueError):
            random_poset(n)
    for density in (-0.1, 1.5, 7.0, float("nan")):
        with pytest.raises(ValueError):
            random_poset(3, density=density)
    assert random_poset(0, density=1.0).n == 0


@given(st.integers(0, 6), st.integers(0, 2**20), st.floats(0, 1))
@settings(max_examples=40, deadline=None)
def test_random_poset_routes_agree(n, seed, density):
    """Round trip through a poset file, and every relation or predicate with
    a shortcut agrees with its definitional route on a random draw."""
    P = random_poset(n, seed=seed, density=density)
    assert parse(emit(P)).is_isomorphic(P)
    assert way_below(P) == way_below(P, oracle=True)
    for mask in range(1 << n):
        assert scott_closure(P, mask) == scott_closure(P, mask, oracle=True)
        assert is_scott_open(P, mask) == is_scott_open(P, mask, oracle=True)
    try:
        L = P.as_lattice()
    except NotALatticeError:
        return
    assert prec(L) == prec(L, oracle=True)
    assert way_way_below(L) == way_way_below(L, oracle=True)
    assert (is_join_continuous(L).holds
            == is_join_continuous(L, oracle=True).holds)
