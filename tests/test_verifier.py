import gc
import weakref
from collections import Counter

import pytest
from helpers import first_match, pooled

from orderkit import ParseError, limits, properties, verifier
from orderkit.errors import NotALatticeError
from orderkit.generators import NAMED_POSET_EXAMPLES, enumerate_lattices, named
from orderkit.poset import FiniteLattice, FinitePoset
from orderkit.properties import is_join_continuous
from orderkit.verifier import (
    SUITE_ORDER,
    chain_check,
    characterization_check,
    compile_expression,
    InstanceProfile,
    lemma31_check,
    run_suite,
    run_suites,
    thm21_check,
    thm23_check,
    thm25_check,
    thm32_check,
    thm34_check,
)


def test_lemma31_boolean2():
    L = named("boolean(2)").as_lattice()
    v = lemma31_check(L)
    assert v.holds


def test_lemma31_m3_witness(m3):
    v = lemma31_check(m3.as_lattice())
    assert not v.holds
    assert v.witness.subsets == (("a", "b"),)
    assert v.witness.lhs == "c"
    assert v.witness.rhs == "0"


def test_lemma31_empty_set_case(lattices_upto_6):
    # for the empty set both sides reduce to the least element
    for L in lattices_upto_6[5]:
        lhs = L.meet_mask(L.base.full_mask)  # meet of the untouched carrier
        assert lhs == L.bottom
        v = lemma31_check(L)
        if not v.holds:
            # the scan starts at the empty subset, so a discrepancy there
            # would have been the first witness reported
            assert v.witness.subsets[0] != ()


def test_lemma31_on_join_continuous(lattices_upto_6):
    for n, batch in lattices_upto_6.items():
        for L in batch:
            if is_join_continuous(L).holds:
                assert lemma31_check(L).holds


def test_downset_complement_identity(lattices_upto_6):
    # lemma31_check asserts the set identity at each M before the equation:
    # on no lattice with n <= 6 does it fail
    for batch in lattices_upto_6.values():
        for L in batch:
            v = lemma31_check(L)
            assert v.holds or v.witness.note != "set identity mismatch", L.name


def _downset_route_disagreements(lattices):
    """The names of the lattices on which a down-set route and the literal
    loop over all 2^n subsets differ: lemma31_check, set identity included,
    with its exact witness, or the hypercontinuous sup-inf form at some x."""
    return [L.name for L in lattices
            if lemma31_check(L) != lemma31_check(L, oracle=True)
            or any(properties.supinf_hyper_rhs(L, x)
                   != properties.supinf_hyper_rhs(L, x, oracle=True) for x in range(L.n))]


def test_downset_routes_match_subset_oracles():
    # every lattice with n <= 8: the down-set routes give the verdicts and
    # exact witnesses of the literal loops over all 2^n subsets
    lattices = [L for n in range(1, 9) for L in enumerate_lattices(n)]
    assert _downset_route_disagreements(lattices) == []
    # the first failing M is not always one element or a pair
    sizes = Counter(len(v.witness.subsets[0]) for v in map(lemma31_check, lattices) if not v.holds)
    assert sizes.keys() == {2, 3, 4, 5}


def test_route_check_catches_a_skipped_downset(monkeypatch, lattices_upto_6):
    # the lemma31 shortcut without the first failing down set D of one
    # lattice at a time, each with n <= 6: max(D) and its cached meet are
    # dropped together, so the other cases stay paired.  The route check
    # names that lattice and no other.  The lemma31 suite does not notice:
    # every such lattice is outside the hypothesis, so the suite still
    # passes, and only that lattice's record moves to a later witness or,
    # when D was its only failing down set, drops out
    pool = [L for batch in lattices_upto_6.values() for L in batch]
    victims = [L for L in pool if not lemma31_check(L).holds]
    assert len(victims) == 12
    (clean,) = run_suites(("lemma31",), 6)
    maximal = verifier._maximal_of_downsets
    meets = vars(FiniteLattice)["upper_meets"].compute
    dropped = []
    for victim in victims:
        first = victim.base.mask_of_labels(lemma31_check(victim).witness.subsets[0])
        k = list(maximal(victim.base)).index(first)

        def skip(cases, name):
            cases = tuple(cases)
            return cases[:k] + cases[k + 1:] if name == victim.name else cases

        monkeypatch.setattr(verifier, "_maximal_of_downsets", lambda P: skip(maximal(P), P.name))
        # a property, so that no value cached on an instance is read instead
        monkeypatch.setattr(FiniteLattice, "upper_meets", property(lambda L: skip(meets(L), L.name)))
        assert _downset_route_disagreements(pool) == [victim.name]
        (report,) = run_suites(("lemma31",), 6)
        assert report.passed and report.failures == ()
        changed = set(clean.expected_failures) ^ set(report.expected_failures)
        assert {r.name for r in changed} == {victim.name}
        if len(changed) == 1:
            dropped.append(victim.name)
        monkeypatch.undo()
    assert dropped == ["L5.1", "L6.8", "L6.11"]


def test_set_identity_routes_report_a_fault_alike(monkeypatch, lattices_upto_7):
    # a down closure that drops the lowest member of every set of two or
    # more breaks the identity on every lattice but the chains; both routes
    # of lemma31_check name the same first subset, before the equation
    closure = FinitePoset.down_closure_mask
    monkeypatch.setattr(FinitePoset, "down_closure_mask",
                        lambda P, m: closure(P, m & (m - 1) if m.bit_count() > 1 else m))
    failing = 0
    for batch in lattices_upto_7.values():
        for L in batch:
            v = lemma31_check(L)
            assert v == lemma31_check(L, oracle=True), L.name
            if not v.holds:
                assert v.witness.note == "set identity mismatch", L.name
                failing += 1
    assert failing == 71


def test_lemma31_walks_down_sets_once(monkeypatch, lattices_upto_6):
    # the shortcut finds max(D) for every down set D in one walk, which the
    # set identity and the equation share
    calls = []
    walk = verifier._maximal_of_downsets
    monkeypatch.setattr(verifier, "_maximal_of_downsets",
                        lambda P: calls.append(P) or walk(P))
    checks = 0
    for batch in lattices_upto_6.values():
        for L in batch:
            lemma31_check(L)
            checks += 1
    assert len(calls) == checks


def test_thm32_examples(m3):
    assert thm32_check(m3.as_lattice()).holds
    assert thm32_check(named("boolean(3)").as_lattice()).holds
    assert thm32_check(named("chain(1)").as_lattice()).holds
    prof = thm32_check(m3.as_lattice()).profile_dict()
    assert prof == {
        "join_continuous": False,
        "hypercontinuous": True,
        "prime_continuous": False,
    }


def test_thm34_examples(posets_upto_5, n5):
    assert thm34_check(n5).holds
    assert thm34_check(named("chain(1)")).holds
    for P in posets_upto_5[5]:
        assert thm34_check(P).holds


def test_thm21_examples():
    v = thm21_check(named("antichain(3)"))
    assert v.holds and v.profile_dict()["opens_prime_continuous"]
    assert thm21_check(named("chain(4)")).holds
    assert thm21_check(named("chain(1)")).holds


def test_thm23_examples():
    assert thm23_check(named("antichain(2)")).holds
    assert thm23_check(named("chain(3)")).holds
    assert thm23_check(named("chain(1)")).holds


def test_thm25_examples(m3):
    assert thm25_check(named("antichain(2)")).holds
    assert thm25_check(m3).holds
    assert thm25_check(named("chain(1)")).holds


def test_chain_check(m3, n5):
    assert chain_check(m3.as_lattice()).holds
    assert chain_check(n5.as_lattice()).holds
    assert chain_check(named("boolean(2)").as_lattice()).holds


def _force_false(monkeypatch, forced):
    """Make ``InstanceProfile.value`` answer False for the laws in ``forced``,
    on every profile, and return the list of the laws it is asked for."""
    value = InstanceProfile.value
    read = []

    def forcing(profile, name):
        read.append(name)
        return False if name in forced else value(profile, name)

    monkeypatch.setattr(InstanceProfile, "value", forcing)
    return read


def _law(name):
    return name.removeprefix("opens_").removeprefix("closeds_")


@pytest.mark.parametrize("check, names", [
    (thm32_check, ("join_continuous", "hypercontinuous", "prime_continuous")),
    (thm34_check, ("meet_continuous", "quasicontinuous", "continuous")),
    (thm21_check, ("continuous", "opens_prime_continuous")),
    (thm23_check, ("meet_continuous", "opens_join_continuous", "closeds_frame")),
    (thm25_check, ("quasicontinuous", "opens_hypercontinuous")),
], ids=lambda p: getattr(p, "__name__", None))
def test_theorem_with_a_side_forced_false_reports_its_whole_profile(monkeypatch, check, names):
    # every name is true on boolean(2), a distributive lattice.  Each one
    # forced false in turn makes the sides differ, and the verdict still
    # reads every name, in order, the ones after the false side included
    P = named("boolean(2)")
    for forced in names:
        read = _force_false(monkeypatch, {_law(forced)})
        v = check(P)
        assert not v.holds, forced
        assert v.witness.note == "biconditional sides differ"
        assert v.profile == tuple((name, name != forced) for name in names)
        assert read == [_law(name) for name in names]
        monkeypatch.undo()
    v = check(P)
    assert v.holds and v.witness is None
    assert v.profile == tuple((name, True) for name in names)


@pytest.mark.parametrize("forced, broken", [
    ((), None),
    (("prime_continuous",), None),
    (("join_continuous",), "prime_continuous->join_continuous"),
    (("frame",), "prime_continuous->frame"),
    (("hypercontinuous",), "prime_continuous->hypercontinuous"),
    (("continuous",), "hypercontinuous->continuous"),
    (("frame", "continuous"), "prime_continuous->frame"),
    (("prime_continuous", "continuous"), "hypercontinuous->continuous"),
])
def test_chain_check_names_the_first_broken_implication(monkeypatch, forced, broken):
    names = ("prime_continuous", "join_continuous", "frame", "hypercontinuous", "continuous")
    read = _force_false(monkeypatch, set(forced))
    v = chain_check(named("boolean(2)"))
    assert v.holds == (broken is None)
    if broken is not None:
        assert v.witness.note == "broken implication " + broken
    assert v.profile == tuple((name, name not in forced) for name in names)
    assert read == list(names)


def test_characterization_check(m3):
    assert characterization_check(m3.as_lattice()).holds
    assert characterization_check(named("chain(3)").as_lattice()).holds
    assert characterization_check(named("chain(1)").as_lattice()).holds


def test_run_suite_thm32():
    report = run_suite("thm32", 5)
    assert report.instances == 10
    assert report.passed and not report.failures
    assert "hypercontinuous" in report.trivialized


def test_run_suite_thm23():
    report = run_suite("thm23", 4)
    assert report.instances == 24
    assert report.passed


def test_run_suite_lemma31_expected_failures():
    report = run_suite("lemma31", 5)
    assert report.passed
    names = {rec.name for rec in report.expected_failures}
    assert len(names) == 2
    from orderkit.files import parse

    parsed = [parse(rec.text) for rec in report.expected_failures]
    assert any(P.is_isomorphic(named("M3")) for P in parsed)
    assert any(P.is_isomorphic(named("N5")) for P in parsed)


def test_run_suite_jobs_deterministic(monkeypatch):
    # in this process, then in the pool
    seq = run_suite("chains", 4)
    # batches of 7 instances: several per universe, the last one ragged
    monkeypatch.setattr(verifier, "_BATCH", 7)
    reports = [[r._replace(wall_time=0) for r in run_suites(SUITE_ORDER, 6)]]
    pooled(monkeypatch)
    par = run_suite("chains", 4)
    assert seq.failures == par.failures
    assert seq.instances == par.instances
    reports.append([r._replace(wall_time=0) for r in run_suites(SUITE_ORDER, 6)])
    assert reports[0] == reports[1]
    assert [r.instances for r in reports[0]] == [25, 25, 405, 405, 405, 405, 25, 25]


def test_run_suites_streams(monkeypatch):
    # an instance is dropped once its outcome is folded in: when instance k
    # is yielded, none before k - 1 is alive
    refs = []
    dead_before = []

    def stream(kind, max_n):
        for k in range(6):
            gc.collect()
            dead_before.append(all(ref() is None for ref in refs[:k - 1]))
            P = named(f"chain({k + 1})")
            refs.append(weakref.ref(P))
            yield P

    monkeypatch.setattr(verifier, "_stream", stream)
    (report,) = run_suites(("thm34",), 6)
    assert report.instances == 6 and report.passed
    assert dead_before == [True] * 6


def test_run_suite_unknown():
    with pytest.raises(ValueError):
        run_suite("thm99", 3)


def test_search_examples():
    hit = first_match("lattice & !join_continuous", 5)
    base = hit.base if hasattr(hit, "base") else hit
    assert base.is_isomorphic(named("M3")) or base.is_isomorphic(named("N5"))
    assert first_match("!continuous", 6) is None
    hit2 = first_match("lattice & hypercontinuous & !prime_continuous", 5)
    b2 = hit2.base if hasattr(hit2, "base") else hit2
    assert b2.is_isomorphic(named("M3")) or b2.is_isomorphic(named("N5"))


def test_search_stable():
    a = first_match("lattice & !join_continuous", 5)
    b = first_match("lattice & !join_continuous", 5)
    assert a == b


def test_search_lattice_kind():
    hit = first_match("!distributive", 5, enumerate_lattices)
    assert hit.base.is_isomorphic(named("M3")) or hit.base.is_isomorphic(named("N5"))


def test_expression_parser():
    ev = compile_expression("lattice & (!frame | continuous)")
    prof = InstanceProfile(named("M3"))
    assert ev(prof) is True
    with pytest.raises(ParseError):
        compile_expression("lattice &")
    with pytest.raises(ParseError):
        compile_expression("unheard_of")
    with pytest.raises(ParseError):
        compile_expression("lattice & 3")
    with pytest.raises(ParseError):
        compile_expression("(lattice")


def test_expression_chains_and_nesting():
    # chains and runs of ! are flat; parentheses nest up to a fixed depth
    prof = InstanceProfile(named("M3"))
    assert compile_expression(" & ".join(["lattice"] * 3000))(prof) is True
    assert compile_expression("!" * 3000 + "lattice")(prof) is True
    assert compile_expression("!" * 3001 + "lattice")(prof) is False
    deep = "lattice"
    for _ in range(limits.EXPRESSION_DEPTH - 1):
        deep = f"!(frame | lattice & {deep})"
    assert compile_expression(f"({deep})")(prof) is False
    # one more level: the error names the column of the innermost (
    text = f"(({deep}))"
    with pytest.raises(ParseError, match="parentheses nested") as info:
        compile_expression(text)
    assert info.value.column == text.rindex("(") + 1


def test_profile_on_non_lattice():
    prof = InstanceProfile(named("antichain(2)"))
    assert prof.value("lattice") is False
    assert prof.verdict("join_continuous") is None
    assert prof.value("join_continuous") is False
    assert prof.value("continuous") is True


def test_bounds_test_refuses_only_non_lattices(posets_upto_6):
    # InstanceProfile.lattice refuses a poset with no least or greatest
    # element before as_lattice runs; it is None exactly when as_lattice
    # refuses, and otherwise the same lattice
    posets = [P for level in posets_upto_6.values() for P in level]
    posets += [named(name) for name in NAMED_POSET_EXAMPLES]
    posets.append(FinitePoset((), ()))
    for P in posets:
        try:
            want = P.as_lattice()
        except NotALatticeError:
            want = None
        assert InstanceProfile(P).lattice == want, P


def test_truth_values_scan_for_no_witness(monkeypatch):
    # Birkhoff's test decides join continuity, frames and distributivity,
    # so a filter and the lattice suites read them without the witness
    # scan, which is refused here
    def refused(*args):
        raise AssertionError("witness scan run for a truth value")

    monkeypatch.setattr(properties, "_first_violation", refused)
    evaluate = compile_expression("lattice & !distributive")
    counts = [sum(evaluate(InstanceProfile(L)) for L in enumerate_lattices(n))
              for n in range(1, 8)]
    # A006966 less A006982: 53 - 8 = 45 non-distributive lattices at n = 7
    assert counts == [0, 0, 0, 0, 2, 10, 45]
    reports = run_suites(("lemma31", "thm32", "chains", "characterizations"), 7)
    assert all(r.passed for r in reports)


def test_run_suites_shares_work_per_instance(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setitem(properties.POSET_PREDICATES, "quasicontinuous",
                        counted("quasicontinuous",
                                properties.POSET_PREDICATES["quasicontinuous"]))
    monkeypatch.setattr(verifier, "scott_opens",
                        counted("scott_opens", verifier.scott_opens))
    reports = run_suites(SUITE_ORDER, 4)
    assert [r.suite for r in reports] == list(SUITE_ORDER)
    assert all(r.passed for r in reports)
    # 24 posets up to n = 4: thm34 and thm25 share quasicontinuity, and
    # thm21, thm23 and thm25 share the lattice of Scott opens
    assert calls == {"quasicontinuous": 24, "scott_opens": 24}


def test_run_suites_walks_upper_sets_once_per_poset(monkeypatch):
    walked = []  # keeps every walked poset alive, so ids stay distinct
    walk = FinitePoset.iter_upper_masks

    def counted(self):
        walked.append(self)
        return walk(self)

    monkeypatch.setattr(FinitePoset, "iter_upper_masks", counted)
    assert all(r.passed for r in run_suites(SUITE_ORDER, 4))
    assert walked
    assert len({id(P) for P in walked}) == len(walked)
