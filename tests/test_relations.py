import inspect

import pytest

from orderkit import SizeLimitError, build_poset, limits, properties, relations, scott, verifier
from orderkit.generators import named
from orderkit.poset import iter_bits, set_order
from orderkit.scott import scott_closed_lattice, scott_opens
from orderkit.relations import (
    fin_family,
    prec,
    way_below,
    way_below_sets,
    way_way_below,
)


def pairs(rel):
    """(x, y) for every x related to y, read from the columns."""
    for y, col in enumerate(rel):
        for x in iter_bits(col):
            yield (x, y)


def test_way_below_oracle_collapses_to_order():
    c3 = named("chain(3)")
    assert way_below(c3, oracle=True) == c3.down
    one = named("chain(1)")
    assert list(pairs(way_below(one, oracle=True))) == [(0, 0)]
    m3 = named("M3")
    assert way_below(m3) == m3.down
    assert way_below(m3, oracle=True) == m3.down
    # 30 directed sets, no 2^30 loop: only DIRECTED_LIMIT bounds the oracle
    anti = build_poset([f"a{i}" for i in range(30)], [])
    assert way_below(anti, oracle=True) == anti.down


def test_way_below_cap(monkeypatch):
    # chain(4) has 1 + 2 + 4 + 8 directed sets
    P = named("chain(4)")
    monkeypatch.setattr(limits, "DIRECTED_LIMIT", 14)
    with pytest.raises(SizeLimitError) as err:
        way_below(P, oracle=True)
    assert err.value.needed == 15


def test_approximants():
    for oracle in (False, True):
        c3 = named("chain(3)")
        assert tuple(iter_bits(way_below(c3, oracle=oracle)[2])) == (0, 1, 2)
        a2 = named("antichain(2)")
        assert tuple(iter_bits(way_below(a2, oracle=oracle)[0])) == (0,)
        m3 = named("M3")
        assert way_below(m3, oracle=oracle)[m3.index_of("1")] == m3.full_mask


def test_way_below_sets():
    m3 = named("M3")
    x = m3.mask_of_labels
    assert way_below_sets(m3, x(["a"]), x(["a"]))
    assert way_below_sets(m3, x(["a"]), x(["1"]))
    c3 = named("chain(3)")
    assert not way_below_sets(c3, 1 << 2, 1 << 0)
    with pytest.raises(ValueError):
        way_below_sets(m3, 0, x(["a"]))
    with pytest.raises(ValueError):
        way_below_sets(m3, x(["a"]), 1 << 9)


def test_way_below_sets_matches_pointwise(posets_upto_5):
    for P in posets_upto_5[4]:
        rel = way_below(P, oracle=True)
        for x in range(P.n):
            for y in range(P.n):
                assert way_below_sets(P, 1 << x, 1 << y) == rel[y] >> x & 1


def test_fin_family_examples():
    c2 = named("chain(2)")
    fam = fin_family(c2, c2.index_of("1"))
    assert fam == (c2.up[1], c2.full_mask)
    a2 = named("antichain(2)")
    fam = fin_family(a2, 0)
    assert fam == (1, 3)
    one = named("chain(1)")
    fam = fin_family(one, 0)
    assert fam == (1,)


def test_fin_family_invariants(posets_upto_5):
    for P in posets_upto_5[4]:
        for x in range(P.n):
            fam = fin_family(P, x)
            # the up set of x is a member and the intersection of all of
            # them, so it is the least member
            assert P.up[x] in fam
            inter = P.full_mask
            for m in fam:
                inter &= m
            assert inter == P.up[x]
            assert len(set(fam)) == len(fam)


def test_fin_family_routes_agree(posets_upto_6):
    for n in range(1, 7):
        for P in posets_upto_6[n]:
            for x in range(n):
                fast = fin_family(P, x)
                oracle = fin_family(P, x, oracle=True)
                assert fast == oracle


def test_fin_family_upper_set_limit(monkeypatch):
    P = named("antichain(5)")
    assert len(fin_family(P, 0)) == 16
    monkeypatch.setattr(limits, "OPENS_LIMIT", 31)
    with pytest.raises(SizeLimitError) as err:
        fin_family(P, 0)
    assert err.value.needed == 32
    assert len(fin_family(P, 0, oracle=True)) == 16


def test_fin_family_subset_cap_on_the_oracle_alone():
    # a 30-element chain has 31 upper sets, which the shortcut lists; only
    # the oracle's loop over 2^30 subsets is refused at SUBSET_CAP
    labels = [f"c{i}" for i in range(30)]
    P = build_poset(labels, list(zip(labels, labels[1:])))
    top = P.index_of("c29")
    assert fin_family(P, top) == tuple(sorted(P.up, key=set_order))
    with pytest.raises(SizeLimitError) as err:
        fin_family(P, top, oracle=True)
    assert (err.value.needed, err.value.cap) == (30, limits.SUBSET_CAP)


def test_way_below_oracle_refused_at_directed_limit():
    # chain(24) has 2^24 - 1 directed sets: the shortcut reads none of them
    P = named("chain(24)")
    assert way_below(P) == P.down
    with pytest.raises(SizeLimitError) as err:
        way_below(P, oracle=True)
    assert (err.value.needed, err.value.cap) == ((1 << 24) - 1, limits.DIRECTED_LIMIT)


def test_way_way_below_chain3():
    L = named("chain(3)").as_lattice()
    expected = {(0, 1), (0, 2), (1, 1), (1, 2), (2, 2)}
    assert set(pairs(way_way_below(L))) == expected
    assert set(pairs(way_way_below(L, oracle=True))) == expected


def test_way_way_below_m3():
    m3 = named("M3")
    L = m3.as_lattice()
    rel = way_way_below(L)
    a, bot = m3.index_of("a"), m3.index_of("0")
    assert not any(col >> a & 1 for col in rel)
    assert {y for y in range(5) if rel[y] >> bot & 1} == {i for i in range(5) if i != bot}


def test_way_way_below_one_point_is_empty():
    L = named("chain(1)").as_lattice()
    assert list(pairs(way_way_below(L, oracle=True))) == []
    assert list(pairs(way_way_below(L))) == []


def test_way_way_below_laws(lattices_upto_6):
    for L in lattices_upto_6[5]:
        P = L.base
        rel = way_way_below(L)
        for u, v in pairs(rel):
            assert P.leq(u, v)
            for u2 in range(L.n):
                if P.leq(u2, u):
                    assert rel[v] >> u2 & 1
            for v2 in range(L.n):
                if P.leq(v, v2):
                    assert rel[v2] >> u & 1


def test_mode_agreement(lattices_upto_6):
    for n in (3, 4, 5):
        for L in lattices_upto_6[n]:
            assert way_way_below(L, oracle=True) == way_way_below(L)
            assert prec(L, oracle=True) == L.base.down
            assert way_below(L.base, oracle=True) == L.base.down


def _set_lattices(posets_upto_5):
    return [family(P).lattice for n in range(1, 4) for P in posets_upto_5[n]
            for family in (scott_opens, scott_closed_lattice)]


def _route_disagreements(relation, pool):
    # names of the instances on which the two routes of the named relation
    # differ, each route looked up on the module, so that a patched route
    # is the one checked
    route = getattr(relations, relation)
    return [X.name for X in pool if route(X) != route(X, oracle=True)]


def test_way_way_below_modes_agree_on_set_lattices(posets_upto_5):
    # the shortcut joins only the join-irreducibles, n of them on σ(P)
    assert _route_disagreements("way_way_below", _set_lattices(posets_upto_5)) == []


def _prec_pool(lattices_upto_6, posets_upto_5):
    return [*(L for batch in lattices_upto_6.values() for L in batch),
            *_set_lattices(posets_upto_5)]


def test_way_below_routes_agree(posets_upto_6):
    pool = [P for batch in posets_upto_6.values() for P in batch]
    assert _route_disagreements("way_below", pool) == []


def test_prec_routes_agree(lattices_upto_6, posets_upto_5):
    assert _route_disagreements("prec", _prec_pool(lattices_upto_6, posets_upto_5)) == []


def _dropping_one_bit(route, victim, v, u):
    # the route, with bit u of column v dropped from its shortcut on the
    # instance named like the victim alone
    def faulty(X, *, oracle=False):
        cols = route(X, oracle=oracle)
        if oracle or X.name != victim.name:
            return cols
        return cols[:v] + (cols[v] & ~(1 << u),) + cols[v + 1:]

    return faulty


def test_route_checks_catch_a_dropped_bit(monkeypatch, lattices_upto_6, posets_upto_6):
    # one bit of one column of the way_below or prec shortcut dropped, on
    # one instance at a time, each of n <= 6: the route check names that
    # instance and no other.  The suites miss many of these faults.
    # Continuity reads a way_below column's greatest element, which stays
    # while the element itself is in the column; hypercontinuity joins a
    # prec column's join-irreducibles, whose join stays while the element
    # is one of them and in the column
    posets = [P for batch in posets_upto_6.values() for P in batch]
    pools = {"way_below": (posets, posets[::9]),
             "prec": (_prec_pool(lattices_upto_6, posets_upto_6),) * 2}
    for relation, (pool, victims) in pools.items():
        route = getattr(relations, relation)
        for i, victim in enumerate(victims):
            v = i % victim.n
            down = victim.base.down if relation == "prec" else victim.down
            below = iter_bits(down[v])
            u = below[i % len(below)]
            monkeypatch.setattr(relations, relation, _dropping_one_bit(route, victim, v, u))
            assert _route_disagreements(relation, pool) == [victim.name], relation
        monkeypatch.undo()
    # a poset of n = 6 with a greatest element: the continuity suites see
    # that element dropped from its own way_below column, not its least one
    P = posets_upto_6[6][-1]
    top = P.n - 1
    assert P.down[top] == P.full_mask
    for u, caught in ((0, False), (top, True)):
        monkeypatch.setattr(properties, "way_below", _dropping_one_bit(way_below, P, top, u))
        reports = verifier.run_suites(("thm34", "thm21"), 6)
        assert [r.failures[0].name for r in reports if r.failures] == [P.name] * 2 * caught


def test_way_way_below_route_check_catches_a_flipped_bit(monkeypatch, posets_upto_5):
    # one bit of one column of the shortcut flipped, on one lattice at a
    # time: the route check names that lattice and no other
    pool = _set_lattices(posets_upto_5)
    shortcut = relations.way_way_below
    for i, victim in enumerate(pool):
        v = i % victim.n
        u = (i // victim.n) % victim.n

        def flipped(L, *, oracle=False):
            cols = shortcut(L, oracle=oracle)
            if oracle or L is not victim:
                return cols
            return cols[:v] + (cols[v] ^ 1 << u,) + cols[v + 1:]

        monkeypatch.setattr(relations, "way_way_below", flipped)
        assert _route_disagreements("way_way_below", pool) == [victim.name]


def test_predecessor_columns_are_down_closed(lattices_upto_6, posets_upto_5):
    # the precondition under which the hypercontinuity and prime continuity
    # checks join only the join-irreducibles of each column
    pool = [L for batch in lattices_upto_6.values() for L in batch]
    pool += [family(P).lattice for n in range(1, 5) for P in posets_upto_5[n]
             for family in (scott_opens, scott_closed_lattice)]
    for L in pool:
        for rel in (prec(L), prec(L, oracle=True),
                    way_way_below(L), way_way_below(L, oracle=True)):
            assert all(L.base.down_closure_mask(col) == col for col in rel), L.name


def test_prec_examples():
    for name in ("chain(2)", "boolean(2)", "chain(1)"):
        L = named(name).as_lattice()
        assert prec(L, oracle=True) == L.base.down
    # the oracle loops over the 31 upper sets, bounded by OPENS_LIMIT alone
    labels = [f"c{i}" for i in range(30)]
    L = build_poset(labels, list(zip(labels, labels[1:]))).as_lattice()
    assert prec(L, oracle=True) == prec(L)


ROUTED = (
    relations.way_below, relations.fin_family, relations.way_way_below, relations.prec,
    scott.is_scott_open, scott.scott_closure,
    properties.is_continuous, properties.is_join_continuous, properties.is_frame,
    properties.is_hypercontinuous, properties.is_prime_continuous,
    properties.supinf_hyper_rhs, properties._distributes,
    verifier.lemma31_check, verifier.downset_complement_identity,
)


def test_routes_switch_on_keyword_only_oracle():
    # one switch for every relation and predicate with two routes: the
    # shortcut by default, the definition with oracle=True
    for fn in ROUTED:
        params = inspect.signature(fn).parameters
        assert "mode" not in params, fn.__name__
        oracle = params["oracle"]
        assert oracle.kind is inspect.Parameter.KEYWORD_ONLY, fn.__name__
        assert oracle.default is False, fn.__name__
    # a stale positional route name is refused, not read as true
    with pytest.raises(TypeError):
        way_below(named("chain(2)"), "oracle")
