import pytest

from helpers import is_completely_distributive_oracle, is_meet_continuous_algebraic

from orderkit.generators import enumerate_lattices, named
from orderkit import SizeLimitError, limits, properties, verifier
from orderkit.poset import FiniteLattice, FinitePoset, iter_bits
from orderkit.properties import (
    is_continuous,
    is_distributive,
    is_frame,
    is_hypercontinuous,
    is_join_continuous,
    is_meet_continuous,
    is_prime_continuous,
    is_quasicontinuous,
    supinf_continuous_rhs,
    supinf_hyper_rhs,
    supinf_prime_rhs,
)
from orderkit.relations import fin_family
from orderkit.scott import scott_closed_lattice, scott_opens
from test_poset import _literal_join, _literal_meet


def test_continuous_examples(posets_upto_5, n5):
    assert is_continuous(named("chain(1)")).holds
    assert is_continuous(n5).holds
    for P in posets_upto_5[5]:
        assert is_continuous(P).holds


def test_quasicontinuous_examples(m3):
    assert is_quasicontinuous(named("antichain(3)")).holds
    assert is_quasicontinuous(m3).holds
    assert is_quasicontinuous(named("chain(1)")).holds


def test_quasicontinuous_witness_of_undirected_family(monkeypatch):
    # a family without a least member falls back to the literal pair scan,
    # whose first failing pair is the witness
    P = named("antichain(2)")
    monkeypatch.setattr(properties, "fin_family", lambda P, x: (0b01, 0b10))
    v = is_quasicontinuous(P)
    assert not v.holds
    assert v.witness.elements == ("a",)
    assert v.witness.subsets == (("a",), ("b",))
    assert v.witness.note == "family not directed under reverse inclusion"


def test_meet_continuous_examples(posets_upto_5, n5):
    assert is_meet_continuous(named("chain(4)")).holds
    assert is_meet_continuous(n5).holds
    for P in posets_upto_5[5]:
        assert is_meet_continuous(P).holds


def test_meet_continuity_closes_each_trace_once(monkeypatch, posets_upto_5):
    calls = []

    def closure_without(t):
        # the down closure with element t taken out; counts its calls
        def closure(P, mask):
            calls.append(mask)
            return P.down_closure_mask(mask) & ~(1 << t)
        return closure

    for P in posets_upto_5[5][::7]:
        # nothing taken out: every test passes, run once per element
        calls.clear()
        monkeypatch.setattr(properties, "scott_closure", closure_without(P.n))
        assert is_meet_continuous(P).holds
        assert len(calls) == P.n
        # x = t escapes, first at the first directed set with supremum above t
        for t in range(P.n):
            monkeypatch.setattr(properties, "scott_closure", closure_without(t))
            v = is_meet_continuous(P)
            first = next(d for d, s in P.directed_sets() if P.leq(t, s))
            assert not v.holds
            assert v.witness.elements == (P.labels[t],)
            assert v.witness.subsets == (P.labels_of(first),)


def test_meet_continuity_reads_no_directed_set():
    # chain(24) has 2^24 - 1 directed sets, too many to list; meet
    # continuity closes one down set per element and lists none of them
    P = named("chain(24)")
    assert is_meet_continuous(P).holds
    with pytest.raises(SizeLimitError) as err:
        P.directed_sets()
    assert err.value.cap == limits.DIRECTED_LIMIT


def test_quasicontinuity_fault_in_fin_family_table(monkeypatch, posets_upto_5):
    # the fin_family that properties reads drops one upper set u from the
    # family of one element x.  The route check of fin_family catches every
    # such fault; is_quasicontinuous reads only the least member and the
    # intersection, so it fails exactly when u is the up set of x
    for P in [Q for n in range(1, 5) for Q in posets_upto_5[n]]:
        for x in range(P.n):
            for u in fin_family(P, x):
                def faulty(Q, y, x=x, u=u):
                    return tuple(m for m in fin_family(Q, y) if y != x or m != u)

                monkeypatch.setattr(properties, "fin_family", faulty)
                assert faulty(P, x) != fin_family(P, x, oracle=True)
                assert is_quasicontinuous(P).holds == (u != P.up[x]), (P.name, x, u)


def test_meet_continuity_agreement(lattices_upto_6):
    for n in (4, 5):
        for L in lattices_upto_6[n]:
            assert is_meet_continuous(L.base).holds == is_meet_continuous_algebraic(L).holds


def test_join_continuous_witnesses(m3, n5):
    assert is_join_continuous(named("boolean(3)").as_lattice()).holds
    vn5 = is_join_continuous(n5.as_lattice())
    assert not vn5.holds
    assert vn5.witness.elements == ("a",)
    assert vn5.witness.subsets == (("b", "c"),)
    assert vn5.witness.lhs == "a" and vn5.witness.rhs == "c"
    vm3 = is_join_continuous(m3.as_lattice())
    assert not vm3.holds
    assert vm3.witness.elements == ("a",)
    assert vm3.witness.subsets == (("b", "c"),)
    assert vm3.witness.lhs == "a" and vm3.witness.rhs == "1"


def test_join_continuous_modes_agree(lattices_upto_6):
    for n in (4, 5, 6):
        for L in lattices_upto_6[n]:
            assert (
                is_join_continuous(L).holds
                == is_join_continuous(L, oracle=True).holds
            )


def test_frame_examples(m3):
    assert is_frame(named("chain(5)").as_lattice()).holds
    assert not is_frame(m3.as_lattice()).holds
    assert is_frame(named("boolean(2)").as_lattice()).holds


def test_frame_is_join_continuity_of_the_dual(lattices_upto_6):
    # pins the definition is_frame no longer builds: join continuity of the
    # order dual, with the dual's tables tabulated afresh
    for batch in lattices_upto_6.values():
        for L in batch:
            dual = L.base.dual().as_lattice()
            for oracle in (False, True):
                v, d = is_frame(L, oracle=oracle), is_join_continuous(dual, oracle=oracle)
                assert v.holds == d.holds, (L.name, oracle)
                if not v.holds:
                    assert v.witness.as_dict() == d.witness.as_dict(), (L.name, oracle)
                    assert v.witness.note == "evaluated in the order dual"


def test_frame_builds_no_dual(monkeypatch, m3):
    def refuse(self):
        raise AssertionError("dual poset built")

    b2, m3 = named("boolean(2)").as_lattice(), m3.as_lattice()
    monkeypatch.setattr(FinitePoset, "dual", refuse)
    for oracle in (False, True):
        assert is_frame(b2, oracle=oracle).holds
        assert not is_frame(m3, oracle=oracle).holds


def test_hypercontinuous_examples(m3, n5):
    assert is_hypercontinuous(m3.as_lattice()).holds
    assert is_hypercontinuous(n5.as_lattice()).holds
    assert is_hypercontinuous(named("chain(1)").as_lattice()).holds


def test_prime_continuous_examples(m3):
    assert is_prime_continuous(named("boolean(2)").as_lattice()).holds
    v = is_prime_continuous(m3.as_lattice())
    assert not v.holds
    assert v.witness.elements == ("a",)
    assert v.witness.rhs == "0"
    assert is_prime_continuous(named("chain(3)").as_lattice()).holds


def test_distributive_examples(m3, n5):
    assert is_distributive(named("boolean(3)").as_lattice()).holds
    v = is_distributive(m3.as_lattice())
    assert not v.holds
    assert v.witness.elements == ("a", "b", "c")
    assert v.witness.lhs == "a" and v.witness.rhs == "0"
    assert not is_distributive(n5.as_lattice()).holds


def _scan_verdicts(L):
    """Whether the law scan finds no violation, for each form of the binary
    law: join over meet and its dual on pairs y < z, and meet over join on
    all pairs."""
    n = L.n
    below = [1 << y | 1 << z for z in range(n) for y in range(z)]
    every = [1 << y | 1 << z for y in range(n) for z in range(n)]
    return {
        properties._first_violation(L, below) is None,
        properties._first_violation(L, below, dual=True) is None,
        properties._first_violation(L, every, dual=True) is None,
    }


def _literal_violation(L, subsets, dual):
    """``_first_violation`` written out with the literal bound scans."""
    P = L.base
    outer, inner = (_literal_meet, _literal_join) if dual else (_literal_join, _literal_meet)
    for x in range(L.n):
        for smask in subsets:
            members = tuple(iter_bits(smask))
            lhs = outer(P, (x, inner(P, members)))
            rhs = inner(P, tuple(outer(P, (x, s)) for s in members))
            if lhs != rhs:
                return x, smask, lhs, rhs
    return None


def test_law_scan_matches_literal_scan(lattices_upto_6):
    # every lattice with n <= 6, both orientations, all subsets in ascending
    # and in descending mask order
    hits = 0
    for batch in lattices_upto_6.values():
        for L in batch:
            for subsets in (range(1 << L.n), range((1 << L.n) - 1, -1, -1)):
                for dual in (False, True):
                    got = properties._first_violation(L, subsets, dual)
                    assert got == _literal_violation(L, subsets, dual), L.name
                    hits += got is not None
    # 25 lattices, 12 of them not distributive
    assert hits == 4 * 12


def test_birkhoff_screen_matches_triple_scan():
    # every lattice with n <= 8
    counts = {True: 0, False: 0}
    for n in range(1, 9):
        for L in enumerate_lattices(n):
            assert _scan_verdicts(L) == {L.birkhoff_distributive}, L.name
            counts[L.birkhoff_distributive] += 1
    # 300 lattices (OEIS A006966), 36 of them distributive (A006982)
    assert counts == {True: 36, False: 264}


def test_birkhoff_screen_on_set_lattices(posets_upto_5):
    # σ(P) and Γ(P) are rings of sets, so distributive
    for batch in posets_upto_5.values():
        for P in batch:
            for family in (scott_opens, scott_closed_lattice):
                L = family(P).lattice
                assert L.birkhoff_distributive, L.name
                assert _scan_verdicts(L) == {True}, L.name


def test_birkhoff_screen_disagreement_is_a_fault(monkeypatch):
    b2 = named("boolean(2)").as_lattice()
    monkeypatch.setattr(FiniteLattice, "birkhoff_distributive", False)
    for law in (is_join_continuous, is_frame, is_distributive):
        with pytest.raises(AssertionError, match="disagree"):
            law(b2)


_BIRKHOFF_TEST = vars(FiniteLattice)["birkhoff_distributive"].compute


def _birkhoff_flipped_on(name):
    # Birkhoff's test, answering wrong on the lattice of that name alone;
    # a property, so that no value cached on an instance is read instead
    return property(lambda L: _BIRKHOFF_TEST(L) != (L.name == name))


def test_suites_catch_a_flipped_birkhoff_test(monkeypatch, lattices_upto_6):
    # flipped on one lattice at a time, each with n <= 6: the suites read
    # join continuity from the test, so a distributive lattice turns not
    # join continuous while staying prime continuous, and a
    # non-distributive one turns join continuous without being prime
    # continuous; either way thm32 reports that lattice alone
    for L in (L for batch in lattices_upto_6.values() for L in batch):
        distributive = L.birkhoff_distributive
        monkeypatch.setattr(FiniteLattice, "birkhoff_distributive", _birkhoff_flipped_on(L.name))
        (report,) = verifier.run_suites(("thm32",), 6)
        assert [r.name for r in report.failures] == [L.name]
        profile = dict(report.failures[0].verdict.profile)
        assert profile["join_continuous"] is not distributive
        assert profile["prime_continuous"] is distributive
    # σ(P) and Γ(P), read by thm23, are distributive: flipped, the opens
    # are not join continuous, or the closeds not a frame, and thm23
    # reports the poset
    for name in ("sigma(P6.100)", "gamma(P6.100)"):
        monkeypatch.setattr(FiniteLattice, "birkhoff_distributive", _birkhoff_flipped_on(name))
        (report,) = verifier.run_suites(("thm23",), 6)
        assert [r.name for r in report.failures] == ["P6.100"]


def test_completely_distributive_oracle(m3):
    assert is_completely_distributive_oracle(named("boolean(2)").as_lattice(), 3).holds
    assert not is_completely_distributive_oracle(m3.as_lattice(), 2).holds
    assert is_completely_distributive_oracle(named("chain(4)").as_lattice(), 3).holds


def test_completely_distributive_agrees_binary(lattices_upto_6):
    for n in (4, 5):
        for L in lattices_upto_6[n]:
            assert (
                is_completely_distributive_oracle(L, 2).holds
                == is_distributive(L).holds
            )


def test_finite_discrimination(lattices_upto_6):
    for n, batch in lattices_upto_6.items():
        for L in batch:
            jc = is_join_continuous(L).holds
            assert jc == is_frame(L).holds
            assert jc == is_distributive(L).holds
            assert jc == is_prime_continuous(L).holds
            assert is_hypercontinuous(L).holds


def test_implication_chain(lattices_upto_6):
    for L in lattices_upto_6[5]:
        pc = is_prime_continuous(L).holds
        if pc:
            assert is_join_continuous(L).holds
            assert is_frame(L).holds
            assert is_hypercontinuous(L).holds
        if is_hypercontinuous(L).holds:
            assert is_continuous(L.base).holds


def test_supinf_continuous_rhs(m3):
    c3 = named("chain(3)").as_lattice()
    assert supinf_continuous_rhs(c3, 1) == 1
    L = m3.as_lattice()
    assert supinf_continuous_rhs(L, L.bottom) == L.bottom
    assert supinf_continuous_rhs(L, m3.index_of("a")) == m3.index_of("a")


def test_supinf_hyper_rhs(m3):
    L = m3.as_lattice()
    assert supinf_hyper_rhs(L, m3.index_of("a")) == m3.index_of("a")
    assert supinf_hyper_rhs(L, L.bottom) == L.bottom
    c3 = named("chain(3)").as_lattice()
    assert supinf_hyper_rhs(c3, 2) == 2


def test_supinf_prime_rhs(m3):
    c3 = named("chain(3)").as_lattice()
    assert supinf_prime_rhs(c3, 1) == 1
    L = m3.as_lattice()
    assert supinf_prime_rhs(L, m3.index_of("a")) == L.bottom
    assert supinf_prime_rhs(L, L.bottom) == L.bottom


def test_supinf_coherence(lattices_upto_6):
    for L in lattices_upto_6[5]:
        n = L.n
        assert is_continuous(L.base).holds == all(
            supinf_continuous_rhs(L, x) == x for x in range(n)
        )
        assert is_hypercontinuous(L).holds == all(
            supinf_hyper_rhs(L, x) == x for x in range(n)
        )
        assert is_prime_continuous(L).holds == all(
            supinf_prime_rhs(L, x) == x for x in range(n)
        )


def test_canonical_form_invariance(m3, n5, posets_upto_5):
    sample = [m3, n5, named("boolean(2)")] + posets_upto_5[4][::3]
    for P in sample:
        C = P.canonical_form()
        assert is_continuous(P).holds == is_continuous(C).holds
        assert is_quasicontinuous(P).holds == is_quasicontinuous(C).holds
        assert is_meet_continuous(P).holds == is_meet_continuous(C).holds
        try:
            L, LC = P.as_lattice(), C.as_lattice()
        except Exception:
            continue
        assert is_join_continuous(L).holds == is_join_continuous(LC).holds
        assert is_prime_continuous(L).holds == is_prime_continuous(LC).holds
        assert is_distributive(L).holds == is_distributive(LC).holds
