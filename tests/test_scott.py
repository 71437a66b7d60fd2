import re

import pytest

from helpers import birkhoff_bridge, complement_isomorphism

from orderkit import SizeLimitError, limits, scott
from orderkit.errors import InputError
from orderkit.cli import main
from orderkit.generators import named
from orderkit.poset import FiniteLattice, FinitePoset, iter_bits, mask_of, set_order
from orderkit.properties import (
    is_distributive,
    is_frame,
    is_hypercontinuous,
    is_join_continuous,
    is_prime_continuous,
)
from orderkit.scott import (
    is_scott_open,
    scott_closed_lattice,
    scott_closure,
    scott_opens,
)
from orderkit.verifier import SUITE_ORDER, characterization_check, run_suites


def test_is_scott_open_examples():
    c2 = named("chain(2)")
    assert is_scott_open(c2, 1 << 1)
    assert not is_scott_open(c2, 1 << 0)
    m3 = named("M3")
    assert is_scott_open(m3, m3.mask_of_labels(["a", "b", "1"]))
    with pytest.raises(ValueError):
        is_scott_open(c2, 1 << 2)


def test_scott_open_modes_agree(posets_upto_5):
    for n in range(1, 5):
        for P in posets_upto_5[n]:
            for mask in range(1 << n):
                assert is_scott_open(P, mask, oracle=True) == is_scott_open(P, mask)


def test_scott_opens_examples():
    P = named("antichain(2)")
    sig = scott_opens(P)
    assert [P.labels_of(m) for m in sig.opens] == [(), ("a",), ("b",), ("a", "b")]
    assert sig.lattice.base.is_isomorphic(named("boolean(2)"))
    sig = scott_opens(named("chain(2)"))
    assert len(sig.opens) == 3
    assert sig.lattice.base.is_isomorphic(named("chain(3)"))
    sig = scott_opens(named("chain(1)"))
    assert sig.lattice.base.is_isomorphic(named("chain(2)"))


def test_scott_opens_structure(posets_upto_5):
    for P in posets_upto_5[4]:
        sig = scott_opens(P)
        for m in sig.opens:
            assert is_scott_open(P, m)
        # in σ(P) and Γ(P) alike, join is union and meet is intersection
        for family in (sig, scott_closed_lattice(P)):
            masks = set(family.opens)
            assert 0 in masks and P.full_mask in masks
            lat = family.lattice
            assert lat.base.labels[lat.bottom] == "{}"
            assert family.opens[lat.top] == P.full_mask
            for i, a in enumerate(family.opens):
                for j, b in enumerate(family.opens):
                    pair = 1 << i | 1 << j
                    assert family.opens[lat.join_mask(pair)] == a | b
                    assert family.opens[lat.meet_mask(pair)] == a & b


def test_set_lattice_tables_stay_lazy(posets_upto_5, capsys):
    for P in posets_upto_5[4]:
        L = scott_opens(P).lattice
        assert is_prime_continuous(L).holds
        assert is_hypercontinuous(L).holds
        assert characterization_check(L).holds
    for family in (scott_opens, scott_closed_lattice):
        for law in (is_join_continuous, is_frame, is_distributive):
            assert law(family(named("N5")).lattice).holds
    for name in ("N5", "M3"):
        for law in (is_join_continuous, is_frame, is_distributive):
            assert not law(named(name).as_lattice()).holds
    for flags in ([], ["--scott-closed"]):
        assert main(["dual", "boolean(3)", *flags]) == 0
    assert capsys.readouterr().out


def test_set_lattice_members_in_set_order(posets_upto_6):
    # the families are handed over in set_order and not re-sorted; Γ(P)
    # relies on complementing reversing that order
    for batch in posets_upto_6.values():
        for P in batch:
            for family in (scott_opens(P), scott_closed_lattice(P)):
                assert list(family.opens) == sorted(family.opens, key=set_order)


def _set_lattice_view_mismatches(posets):
    # the names of the σ(P) and Γ(P) whose rows or join-irreducibles
    # differ from what the validating constructor, over literal subset
    # tests and with its generic pair walks, gives
    out = []
    for P in posets:
        for family in (scott_opens(P), scott_closed_lattice(P)):
            L, masks = family.lattice, family.opens
            k = len(masks)
            rows = [mask_of(j for j in range(k) if not masks[i] & ~masks[j]) for i in range(k)]
            literal = FinitePoset(L.labels, rows)
            lower_covers = [sum(row >> x & 1 for row in literal.cover_rows) for x in range(k)]
            irreducible = mask_of(x for x in range(k) if lower_covers[x] == 1)
            views = (L.base.up, L.base.down, L.base.cover_rows, L.join_irreducibles)
            if views != (literal.up, literal.down, literal.cover_rows, irreducible):
                out.append(L.name)
    return out


def test_set_lattice_views_match_validating_route(posets_upto_6):
    # σ(P) and Γ(P) are built in one pass and not validated
    extras = [named(name) for name in ("chain(0)", "antichain(1)", "antichain(5)", "boolean(3)")]
    posets = [*(Q for batch in posets_upto_6.values() for Q in batch), *extras]
    assert _set_lattice_view_mismatches(posets) == []


def _dropping_join_irreducible(name, i):
    # the lattice constructor the set-family build calls, dropping the
    # i-th of the join-irreducibles, cyclically, of the lattice of that
    # name alone
    def build(base, *, join_irreducibles):
        if base.name == name:
            bits = iter_bits(join_irreducibles)
            join_irreducibles &= ~(1 << bits[i % len(bits)])
        return FiniteLattice(base, join_irreducibles=join_irreducibles)

    return build


def test_dropped_join_irreducible_is_caught(monkeypatch, posets_upto_6):
    # one join-irreducible dropped from the build of one σ(P) or Γ(P) at a
    # time, P with n <= 4: the check against the validating route names
    # that lattice and no other
    posets = [P for n in range(1, 5) for P in posets_upto_6[n]]
    for i, P in enumerate(posets):
        for family in ("sigma", "gamma"):
            name = f"{family}({P.name})"
            monkeypatch.setattr(scott, "FiniteLattice", _dropping_join_irreducible(name, i))
            assert _set_lattice_view_mismatches(posets) == [name]
    # the poset suites count the join-irreducibles of σ(P) and Γ(P), one
    # per element of P, before reading either
    for family in ("sigma", "gamma"):
        name = f"{family}(P6.100)"
        monkeypatch.setattr(scott, "FiniteLattice", _dropping_join_irreducible(name, 0))
        with pytest.raises(AssertionError, match=re.escape(name)):
            run_suites(("thm21", "thm23", "thm25"), 6)


def test_scott_opens_count_is_upper_set_count(posets_upto_5):
    for n, batch in posets_upto_5.items():
        for P in batch:
            literal = sum(P.up_closure_mask(m) == m for m in range(1 << P.n))
            assert len(scott_opens(P).opens) == literal
    assert len(scott_opens(named("antichain(3)")).opens) == 8


def test_scott_opens_limit(monkeypatch):
    monkeypatch.setattr(limits, "OPENS_LIMIT", 10)
    with pytest.raises(SizeLimitError) as err:
        scott_opens(named("antichain(4)"))
    assert err.value.needed == 11


def test_set_lattice_table_limit(monkeypatch):
    # the join and meet tables have k * k cells for k member sets
    monkeypatch.setattr(limits, "OPENS_LIMIT", 100)
    assert len(scott_opens(named("antichain(3)")).opens) == 8
    with pytest.raises(SizeLimitError) as err:
        scott_opens(named("antichain(4)"))
    assert err.value.needed == 256


def test_scott_opens_always_prime_continuous(posets_upto_5):
    for P in posets_upto_5[5][::5]:
        assert is_prime_continuous(scott_opens(P).lattice).holds


def test_closed_lattice_dual_to_opens(posets_upto_5):
    for P in posets_upto_5[4]:
        sig = scott_opens(P)
        gam = scott_closed_lattice(P)
        mapping = complement_isomorphism(sig, gam)
        assert sorted(mapping) == list(range(len(sig.opens)))
        assert gam.lattice.base.is_isomorphic(sig.lattice.base.dual())
    # the complement of the open {1} of chain(2) is not open
    sig = scott_opens(named("chain(2)"))
    with pytest.raises(AssertionError, match="not a bijection"):
        complement_isomorphism(sig, sig)


def test_closed_lattice_examples():
    assert scott_closed_lattice(named("antichain(2)")).lattice.base.is_isomorphic(
        named("boolean(2)")
    )
    assert scott_closed_lattice(named("chain(2)")).lattice.base.is_isomorphic(
        named("chain(3)")
    )
    assert scott_closed_lattice(named("chain(1)")).lattice.base.is_isomorphic(
        named("chain(2)")
    )


def test_scott_closure_examples():
    c3 = named("chain(3)")
    assert tuple(iter_bits(scott_closure(c3, 1 << 1))) == (0, 1)
    assert scott_closure(c3, 0) == 0
    m3 = named("M3")
    assert m3.labels_of(scott_closure(m3, m3.mask_of_labels(["a", "b"]))) == ("0", "a", "b")
    with pytest.raises(ValueError):
        scott_closure(m3, 1 << 9)


def test_scott_closure_modes_agree(posets_upto_5):
    for P in posets_upto_5[4]:
        for mask in range(1 << P.n):
            assert scott_closure(P, mask) == scott_closure(P, mask, oracle=True)


def test_birkhoff_bridge():
    # the σ(P) of the posets with k upper sets are the distributive
    # lattices with k elements, one class for one class (OEIS A006982);
    # this ties σ(P), built without labels, to the lattice route
    counts = []
    for k in range(1, 9):
        sigma, lattices = birkhoff_bridge(k)
        assert sigma == lattices, k
        assert len(set(sigma)) == len(sigma), k
        counts.append(len(sigma))
    assert counts == [1, 1, 1, 2, 3, 5, 8, 15]


def test_set_family_rows_built_on_demand(monkeypatch):
    # the suites read the down rows and the join-irreducibles, known at
    # build time, no cover row of σ(P) or Γ(P), and no up row of Γ(P)
    built = []
    for view in ("up", "cover_rows"):
        descriptor = vars(scott.SetFamilyPoset)[view]

        def counted(P, compute=descriptor.compute, view=view):
            built.append((view, P.name.partition("(")[0]))
            return compute(P)

        monkeypatch.setattr(descriptor, "compute", counted)
    assert all(r.passed for r in run_suites(SUITE_ORDER, 5))
    assert set(built) == {("up", "sigma")}
    # 87 posets with n <= 5, and the up rows of each σ(P) built once
    assert len(built) == 87
    L = scott_closed_lattice(named("chain(2)")).lattice
    assert L.base.cover_rows == (2, 4, 0)
    assert built[-2:] == [("cover_rows", "gamma"), ("up", "gamma")]


def test_member_labels_built_on_demand(monkeypatch):
    # the suites read no member label of σ(P) or Γ(P); emit, dual and
    # witnesses build them on first read, with their clash check
    built = []
    labels_of_members = scott._member_labels

    def counted(P, masks, name):
        built.append(name)
        return labels_of_members(P, masks, name)

    monkeypatch.setattr(scott, "_member_labels", counted)
    assert all(r.passed for r in run_suites(SUITE_ORDER, 5))
    assert built == []
    L = scott_opens(named("antichain(2)")).lattice
    assert L.labels == ("{}", "{a}", "{b}", "{a,b}")
    assert L.labels is L.labels
    assert built == ["sigma(antichain(2))"]
    clash = FinitePoset(("a", "b", "a,b"), (1, 2, 4))
    for family in (scott_opens, scott_closed_lattice):
        L = family(clash).lattice
        with pytest.raises(InputError, match="two members labelled {a,b}"):
            L.labels
