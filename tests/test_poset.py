import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    TWIN_LEVELS,
    first_least_order,
    is_canonical,
    literal_refinement,
    stacked_antichains,
)

from orderkit import (
    CycleError,
    NotALatticeError,
    SizeLimitError,
    UnknownLabelError,
    build_poset,
    generators,
    limits,
)
from orderkit.generators import default_labels, enumerate_posets, named, random_poset
from orderkit.poset import (
    FinitePoset,
    _closure_rows,
    iter_bits,
    mask_of,
    set_order,
    set_order_key,
)
from orderkit.scott import scott_closed_lattice, scott_opens


def test_build_two_chain():
    P = build_poset(["a", "b"], [("a", "b")])
    assert P.leq(0, 1) and not P.leq(1, 0)
    assert P.leq(0, 0) and P.leq(1, 1)


def test_build_one_point():
    P = build_poset(["a"], [])
    assert P.n == 1 and P.up == (1,)


def test_build_cycle_rejected():
    with pytest.raises(CycleError):
        build_poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_build_unknown_label():
    with pytest.raises(UnknownLabelError):
        build_poset(["a"], [("a", "z")])


def test_build_transitive_closure():
    P = build_poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
    assert P.leq(0, 2)


def test_closure_rows_match_fixed_point():
    # the literal closure: add i <= k for every i <= j <= k until nothing
    # changes; seeded pair lists, dense ones mostly cyclic
    rng = random.Random(7)
    cyclic = 0
    for _ in range(300):
        n = rng.randrange(9)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n + 1))]
        related = {(i, i) for i in range(n)} | set(pairs)
        grown = True
        while grown:
            new = {(i, k) for i, j in related for j2, k in related if j == j2}
            grown = not new <= related
            related |= new
        literal = [mask_of(j for i2, j in related if i2 == i) for i in range(n)]
        rows = [mask_of(b for a, b in pairs if a == i) for i in range(n)]
        assert _closure_rows(n, rows) == literal
        labels = default_labels(n)
        named_pairs = [(labels[a], labels[b]) for a, b in pairs]
        try:
            FinitePoset(labels, literal)
        except CycleError as err:
            cyclic += 1
            with pytest.raises(CycleError) as built:
                build_poset(labels, named_pairs)
            assert built.value.args == err.args
        else:
            assert build_poset(labels, named_pairs).up == tuple(literal)
    assert 0 < cyclic < 300


def _literal_axiom_error(labels, up):
    """The per-pair order-axiom check, written out: the first related pair
    (i, j), both ascending, that closes a cycle or breaks transitivity."""
    n = len(up)
    for i in range(n):
        for j in range(n):
            if j == i or not up[i] >> j & 1:
                continue
            if up[j] >> i & 1:
                return CycleError((labels[i], labels[j]))
            extra = up[j] & ~up[i]
            if extra:
                k = (extra & -extra).bit_length() - 1
                return ValueError(
                    f"relation not transitive: {labels[i]} <= {labels[j]} <= {labels[k]}")
    return None


def test_validate_matches_pair_scan():
    # seeded reflexive rows up to 12 elements, past the byte-table reader:
    # closures of random pairs (orders or cyclic), raw random rows (mostly
    # intransitive) and orders with one relation removed
    rng = random.Random(11)
    seen = {"valid": 0, "cyclic": 0, "intransitive": 0}
    for trial in range(600):
        n = rng.randrange(1, 13)
        full = (1 << n) - 1
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n))]
        rows = [mask_of(b for a, b in pairs if a == i) for i in range(n)]
        kind = trial % 3
        if kind == 0:
            rows = _closure_rows(n, rows)
        elif kind == 1:
            rows = [(rng.getrandbits(n) & full) | (1 << i) for i in range(n)]
        else:
            rows = random_poset(n, seed=trial, density=0.5).up
            strict = [(i, j) for i in range(n) for j in iter_bits(rows[i]) if j != i]
            if strict:
                i, j = rng.choice(strict)
                rows = [r & ~(1 << j) if k == i else r for k, r in enumerate(rows)]
        labels = default_labels(n)
        expected = _literal_axiom_error(labels, rows)
        if expected is None:
            seen["valid"] += 1
            FinitePoset(labels, rows)
            continue
        seen["cyclic" if isinstance(expected, CycleError) else "intransitive"] += 1
        with pytest.raises(type(expected)) as err:
            FinitePoset(labels, rows)
        assert type(err.value) is type(expected)
        assert str(err.value) == str(expected)
    assert min(seen.values()) > 50, seen


def test_empty_poset_is_legal():
    P = FinitePoset((), ())
    assert P.n == 0
    assert P.hasse() == []
    assert P.dual() == P
    with pytest.raises(NotALatticeError):
        P.as_lattice()


def test_up_closure_examples(m3):
    two = build_poset(["a", "b"], [("a", "b")])
    assert two.labels_of(two.up_closure_mask(two.mask_of_labels(["a"]))) == ("a", "b")
    assert two.up_closure_mask(0) == 0
    s = m3.up_closure_mask(m3.mask_of_labels(["a", "b"]))
    assert m3.labels_of(s) == ("a", "b", "1")


def test_down_closure(m3):
    s = m3.down_closure_mask(m3.mask_of_labels(["a", "b"]))
    assert m3.labels_of(s) == ("0", "a", "b")


def test_is_directed(m3):
    chain = named("chain(4)")
    assert chain.is_directed_mask(mask_of([0, 2, 3]))
    anti = named("antichain(2)")
    assert not anti.is_directed_mask(mask_of([0, 1]))
    assert not anti.is_directed_mask(0)
    assert m3.is_directed_mask(m3.mask_of_labels(["a", "b", "1"]))
    assert not m3.is_directed_mask(m3.mask_of_labels(["a", "b"]))


def test_sup_inf(m3):
    anti = named("antichain(2)")
    assert anti.sup_mask(mask_of([0, 1])) is None
    assert m3.sup_mask(m3.mask_of_labels(["a", "b"])) == m3.index_of("1")
    assert m3.as_lattice().meet_mask(m3.mask_of_labels(["a", "b"])) == m3.index_of("0")
    for x in range(m3.n):
        assert m3.sup_mask(1 << x) == x
    # sup of nothing is the bottom when there is one
    assert m3.sup_mask(0) == m3.index_of("0")
    assert anti.sup_mask(0) is None


def test_directed_sets_examples(m3):
    chain = named("chain(3)")
    assert chain.directed_sets() == (
        (0b001, 0), (0b010, 1), (0b011, 1), (0b100, 2),
        (0b101, 2), (0b110, 2), (0b111, 2),
    )
    anti = named("antichain(3)")
    assert anti.directed_sets() == ((0b001, 0), (0b010, 1), (0b100, 2))
    assert FinitePoset((), ()).directed_sets() == ()
    top = m3.index_of("1")
    assert len([s for _, s in m3.directed_sets() if s == top]) == 1 << 4


def _pairwise_directed(P, mask):
    """The definition: nonempty, and every pair of members has an upper
    bound among the members."""
    members = list(iter_bits(mask))
    return bool(members) and all(P.up[a] & P.up[b] & mask for a in members for b in members)


def test_directed_sets_match_literal_scan(posets_upto_6):
    for n in range(1, 7):
        for P in posets_upto_6[n]:
            literal = [m for m in range(1 << n) if _pairwise_directed(P, m)]
            assert [m for m in range(1 << n) if P.is_directed_mask(m)] == literal
            assert [m for m, _ in P.directed_sets()] == literal
            assert list(P.iter_directed_masks()) == literal
            assert all(s == P.sup_mask(m) for m, s in P.directed_sets())


def test_directed_sets_limit(monkeypatch):
    monkeypatch.setattr(limits, "DIRECTED_LIMIT", 6)
    with pytest.raises(SizeLimitError) as err:
        named("chain(3)").directed_sets()
    assert err.value.needed == 7 and err.value.cap == 6
    assert len(named("antichain(6)").directed_sets()) == 6


def test_sup_is_least_upper_bound(posets_upto_5):
    for P in posets_upto_5[4]:
        for mask in range(1 << P.n):
            s = P.sup_mask(mask)
            ub = [u for u in range(P.n) if all(P.leq(i, u) for i in iter_bits(mask))]
            if s is None:
                assert not ub or all(
                    any(not P.leq(m, u) for u in ub) for m in ub
                )
            else:
                assert s in ub
                assert all(P.leq(s, u) for u in ub)


def test_as_lattice_examples(m3):
    anti = named("antichain(2)")
    with pytest.raises(NotALatticeError) as err:
        anti.as_lattice()
    assert set(err.value.pair) == {"a", "b"}
    L = m3.as_lattice()
    a, b = m3.index_of("a"), m3.index_of("b")
    assert L.labels[L.join_mask(1 << a | 1 << b)] == "1"
    assert L.labels[L.meet_mask(1 << a | 1 << b)] == "0"
    assert named("boolean(2)").as_lattice().base.is_isomorphic(named("boolean(2)"))


def test_lattice_complete_bounds(lattices_upto_6):
    for L in lattices_upto_6[5]:
        assert L.join_mask(L.base.full_mask) == L.top
        assert L.meet_mask(L.base.full_mask) == L.bottom
        assert L.join_mask(0) == L.bottom
        assert L.meet_mask(0) == L.top
        for mask in range(1 << L.n):
            assert L.join_mask(mask) == L.base.sup_mask(mask)


def _literal_bound(P, members, leq):
    """The element below, under ``leq``, every other element that is above
    every member; None when there is none."""
    bounds = [u for u in range(P.n) if all(leq(i, u) for i in members)]
    return next((u for u in bounds if all(leq(u, v) for v in bounds)), None)


def _literal_join(P, members):
    return _literal_bound(P, members, P.leq)


def _literal_meet(P, members):
    return _literal_bound(P, members, lambda i, j: P.leq(j, i))


def _first_missing_bound(P):
    """(pair, kind) of the first pair (i, j >= i) lacking a join, or else a
    meet, the join tested first; None when every pair has both."""
    for i in range(P.n):
        for j in range(i, P.n):
            for kind, bound in (("join", _literal_join), ("meet", _literal_meet)):
                if bound(P, (i, j)) is None:
                    return (P.labels[i], P.labels[j]), kind
    return None


def test_as_lattice_matches_literal_scan(posets_upto_5):
    rng = random.Random(5)
    kinds = set()
    for n in range(1, 6):
        for P in posets_upto_5[n]:
            for Q in (P, _relabelled(P.up, rng)):
                expected = _first_missing_bound(Q)
                try:
                    assert Q.as_lattice().base is Q
                    got = None
                except NotALatticeError as err:
                    got = err.pair, err.kind
                assert got == expected
                kinds.add(expected and expected[1])
    assert kinds == {None, "join", "meet"}
    with pytest.raises(NotALatticeError) as err:
        FinitePoset((), ()).as_lattice()
    assert (err.value.pair, err.value.kind) == ((), "join")


def test_lattice_operations_match_literal_scan(lattices_upto_6):
    rng = random.Random(6)
    for n in range(1, 7):
        for L0 in lattices_upto_6[n]:
            for L in (L0, _relabelled(L0.base.up, rng).as_lattice()):
                P = L.base
                for mask in range(1 << n):
                    members = tuple(iter_bits(mask))
                    assert L.join_mask(mask) == _literal_join(P, members)
                    assert L.meet_mask(mask) == _literal_meet(P, members)
                assert L.bottom == _literal_join(P, ())
                assert L.top == _literal_meet(P, ())


def test_hasse_examples(m3):
    assert named("chain(3)").hasse() == [(0, 1), (1, 2)]
    assert named("antichain(3)").hasse() == []
    assert len(named("boolean(2)").hasse()) == 4
    assert len(m3.hasse()) == 6


def test_hasse_roundtrip(posets_upto_5):
    for P in posets_upto_5[5]:
        rebuilt = build_poset(
            P.labels, [(P.labels[i], P.labels[j]) for i, j in P.hasse()]
        )
        assert rebuilt.up == P.up


def test_dual(m3, n5):
    c3 = named("chain(3)")
    assert c3.dual().is_isomorphic(c3)
    assert n5.dual().is_isomorphic(n5)
    one = named("chain(1)")
    assert one.dual() == one
    assert m3.dual().dual() == m3


def test_canonical_relabeling():
    P = build_poset(["x", "y"], [("x", "y")])
    Q = build_poset(["p", "q"], [("p", "q")])
    assert P.canonical_key() == Q.canonical_key()
    assert P.canonical_form().up == Q.canonical_form().up


def test_canonical_discriminates(m3, n5):
    assert not named("chain(3)").is_isomorphic(named("antichain(3)"))
    assert not m3.is_isomorphic(n5)


def test_canonical_idempotent(posets_upto_5):
    for P in posets_upto_5[5][::7]:
        C = P.canonical_form()
        assert C.canonical_form() == C
        assert is_canonical(C)


def test_canonical_labelling_limit(monkeypatch):
    # sigma(antichain(4)) is the 16-element Boolean lattice; its labelling
    # counts 834 cells: 2k for each chunk it computes at depth k, one for
    # each it reads from a rank class's table (2314 when a read chunk
    # counted 2k too), and k per stored automorphism for each orbit test
    # below a prefix of k (14 in all)
    sigma = scott_opens(named("antichain(4)")).lattice.base
    monkeypatch.setattr(limits, "CANON_LIMIT", 834 - 1)
    with pytest.raises(SizeLimitError) as err:
        sigma.canonical_key()
    assert err.value.cap == 834 - 1
    monkeypatch.setattr(limits, "CANON_LIMIT", 834)
    assert is_canonical(sigma.canonical_form())


def test_canonical_labelling_limit_when_ranks_are_distinct(monkeypatch):
    # every element of chain(5) has its own rank, so the order is read off
    # the ranks; the search it stands for compares 2k cells at depth k
    chain = named("chain(5)")
    assert len(set(chain._refinement[0])) == 5
    monkeypatch.setattr(limits, "CANON_LIMIT", 5 * 4 - 1)
    with pytest.raises(SizeLimitError) as err:
        chain.canonical_key()
    assert err.value.cap == 5 * 4 - 1
    monkeypatch.setattr(limits, "CANON_LIMIT", 5 * 4)
    assert named("chain(5)").canonical_key() == chain.up


def test_canonical_labelling_limit_on_twin_classes():
    # an antichain of n is one class of twins, labelled from its ranks with
    # two generators: n(n-1) cells for the order and n per generator,
    # n(n+1) in all, within 2^24 at n = 4095 and past it at 4096
    assert limits.CANON_LIMIT == 1 << 24
    anti = FinitePoset(default_labels(4095), [1 << i for i in range(4095)])
    order, gens = anti._canonical_search
    assert order == tuple(range(4095)) and len(gens) == 2
    anti = FinitePoset(default_labels(4096), [1 << i for i in range(4096)])
    with pytest.raises(SizeLimitError) as err:
        anti.canonical_key()
    assert err.value.needed == 4096 * 4097


def _pairs_below_top(k):
    """k pairs a_i < b_i below one top t: every a_i is symmetric to every
    other, yet no two are twins."""
    labels = [f"{x}{i}" for x in "ab" for i in range(k)] + ["t"]
    pairs = [(f"a{i}", f"b{i}") for i in range(k)] + [(f"b{i}", "t") for i in range(k)]
    return build_poset(labels, pairs)


def test_refinement_matches_literal_rounds():
    # the refinement stops at a partition of twin classes, which no later
    # round splits; run to stability instead, it gives the same ranks
    cases = [FinitePoset(default_labels(n), key)
             for n in range(8) for key in generators._poset_level(n)]
    for n in range(6):
        for key in generators._poset_level(n):
            P = FinitePoset(default_labels(n), key)
            cases += [scott_opens(P).lattice.base, scott_closed_lattice(P).lattice.base]
    cases += [stacked_antichains(sizes, seed=2) for sizes in TWIN_LEVELS]
    cases += [_pairs_below_top(3), _pairs_below_top(3).dual()]
    for P in cases:
        assert P._refinement == literal_refinement(P), P.up


def _relabelled(key, rng):
    n = len(key)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [0] * n
    for i in range(n):
        for j in iter_bits(key[i]):
            rows[perm[i]] |= 1 << perm[j]
    return FinitePoset(default_labels(n), rows)


def test_canonical_order_is_first_least(posets_upto_6):
    rng = random.Random(11)
    for n in range(1, 7):
        for P in posets_upto_6[n]:
            Q = _relabelled(P.up, rng)
            assert Q._canonical_order == first_least_order(Q)
    for n in range(4):
        for P in enumerate_posets(n):
            for L in (scott_opens(P).lattice.base, scott_closed_lattice(P).lattice.base):
                assert L._canonical_order == first_least_order(L)
    # every rank class a set of twins: the order is read off the ranks
    for sizes in TWIN_LEVELS:
        for seed in range(3):
            P = stacked_antichains(sizes, seed)
            assert P._canonical_order == first_least_order(P), (sizes, seed)


def test_canonical_key_of_symmetric_level8_poset():
    # the search once let a branch that beat the best table stay ahead after
    # its leaf replaced it, and took this poset for its own canonical form
    P = FinitePoset(default_labels(8), (249, 246, 100, 152, 144, 96, 64, 128))
    key = (249, 246, 164, 88, 80, 160, 64, 128)
    assert P.canonical_key() == key
    assert FinitePoset(default_labels(8), key).canonical_key() == key
    perm = [3, 1, 0, 4, 5, 2, 7, 6]
    rows = [0] * 8
    for i in range(8):
        for j in iter_bits(P.up[i]):
            rows[perm[i]] |= 1 << perm[j]
    assert P.is_isomorphic(FinitePoset(default_labels(8), rows))


def test_keys_are_canonical(posets_upto_5):
    for key in generators._poset_level(7):
        assert is_canonical(FinitePoset(default_labels(7), key))
    # two sigma(P) at n = 5 once got a key that was not its own
    for P in posets_upto_5[5]:
        for L in (scott_opens(P).lattice.base, scott_closed_lattice(P).lattice.base):
            assert is_canonical(L.canonical_form())


# sha256 of repr() of the canonical orders below, recorded once
# test_canonical_order_is_first_least held on these inputs too: the
# tie-breaks among equal tables pick the labels that dual and emit write
CANONICAL_ORDERS = (456, "b98684f2a111a419983d09bdce71c88a9e65b1d360f2513069d0d5010c869e86")


def test_canonical_orders_pinned():
    rng = random.Random(20261018)
    orders = []
    for n in range(7):
        for key in generators._poset_level(n):
            orders.append(_relabelled(key, rng)._canonical_order)
    for n in range(5):
        for P in enumerate_posets(n):
            orders.append(scott_opens(P).lattice.base._canonical_order)
            orders.append(scott_closed_lattice(P).lattice.base._canonical_order)
    assert (len(orders), hashlib.sha256(repr(orders).encode()).hexdigest()) == CANONICAL_ORDERS


# sha256 of repr() of the (order, automorphisms) pairs of
# ``_canonical_search`` below, recorded while every node computed every
# candidate's chunk over its whole prefix: carrying the chunks through a
# rank class must keep the orders, the automorphisms met and their order
CANONICAL_SEARCHES = (177, "abccc42908c6795b579896d5468618b9dc788a6c8387023392925ab33977bab8")


def test_canonical_searches_pinned():
    rng = random.Random(20261020)
    searches = []
    for n in range(6):
        for P in enumerate_posets(n):
            for L in (scott_opens(P).lattice, scott_closed_lattice(P).lattice):
                searches.append(_relabelled(L.base.up, rng)._canonical_search)
    sigma = scott_opens(named("antichain(6)")).lattice.base
    searches.append(_relabelled(sigma.up, rng)._canonical_search)
    assert (len(searches), hashlib.sha256(repr(searches).encode()).hexdigest()) == CANONICAL_SEARCHES


def test_covers_match_definition(posets_upto_5):
    for batch in posets_upto_5.values():
        for P in batch:
            literal = [
                (i, j) for i in range(P.n) for j in range(P.n)
                if i != j and P.leq(i, j)
                and not any(k not in (i, j) and P.leq(i, k) and P.leq(k, j) for k in range(P.n))
            ]
            assert P.hasse() == literal
            assert P.cover_rows == tuple(mask_of(j for a, j in literal if a == i)
                                         for i in range(P.n))


def test_upper_walk_order(posets_upto_6):
    # the doubling the walk stands for: the upper sets of the first k + 1
    # elements of the linear extension are those of the first k, then each
    # of them with element k added, where that is still an upper set
    def walk(P, k):
        if k == 0:
            return [0]
        listed = walk(P, k - 1)
        bit = 1 << P._reverse_linear_extension[k - 1]
        return listed + [m | bit for m in listed if P.up_closure_mask(m | bit) == m | bit]

    for batch in posets_upto_6.values():
        for P in batch:
            assert list(P.iter_upper_masks()) == walk(P, P.n)


def test_upper_masks_are_upper(posets_upto_6):
    # the table against the literal scan, in the shared set order
    for batch in posets_upto_6.values():
        for P in batch:
            literal = [m for m in range(1 << P.n) if P.up_closure_mask(m) == m]
            assert P.upper_masks() == tuple(sorted(literal, key=set_order))


def test_set_order_key_orders_like_set_order():
    # the integer key the upper-set table sorts by, which the test above
    # pins on every poset with n <= 6, on all masks of the table widths
    # n <= 8 and of the wide widths n = 9..12
    for n in range(13):
        masks = range(1 << n)
        assert sorted(masks, key=set_order_key(n)) == sorted(masks, key=set_order), n


def test_up_closure_monotone(posets_upto_5):
    for P in posets_upto_5[4]:
        for small in range(1 << P.n):
            for extra in range(P.n):
                big = small | (1 << extra)
                assert P.up_closure_mask(small) & ~P.up_closure_mask(big) == 0


@given(st.integers(1, 7), st.integers(0, 2**32 - 1), st.floats(0, 1))
@settings(max_examples=60, deadline=None)
def test_random_poset_axioms(n, seed, density):
    P = random_poset(n, seed=seed, density=density)
    FinitePoset(P.labels, P.up)
    # closure laws
    full = P.full_mask
    for mask in (0, full, 1, full >> 1):
        up = P.up_closure_mask(mask)
        assert P.up_closure_mask(up) == up
        assert up & mask == mask


@given(st.integers(1, 6), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_relabeling_keeps_canonical_key(n, seed):
    import random as _random

    P = random_poset(n, seed=seed, density=0.4)
    rng = _random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [0] * n
    for i in range(n):
        for j in iter_bits(P.up[i]):
            rows[perm[i]] |= 1 << perm[j]
    Q = FinitePoset(tuple(P.labels[perm.index(i)] for i in range(n)), rows)
    assert Q.canonical_key() == P.canonical_key()
    assert Q.is_isomorphic(P)


def test_mask_helpers():
    assert mask_of([0, 3]) == 0b1001
    assert list(iter_bits(0b1010)) == [1, 3]
    # one walk at every width, below and past each of its shortcuts
    wide = [(1 << 16) - 1, 1 << 16, 1 << 300 | 1 << 64 | 0b1011 << 7, (1 << 1000) - 1]
    for mask in [*range(1 << 10), *wide]:
        bits = iter_bits(mask)
        assert list(bits) == [i for i in range(mask.bit_length()) if mask >> i & 1]
        if mask:
            assert bits[0] == (mask & -mask).bit_length() - 1
