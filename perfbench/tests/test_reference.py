"""The reference checker against published counts and known lattices."""

import json
import random

import pytest

import reference
import run


@pytest.mark.parametrize("n", range(1, 6))
def test_brute_force_counts_match_oeis(n):
    classes = reference.poset_classes(n)
    lattices = [up for up in classes if reference.is_lattice(up)]
    assert len(classes) == reference.POSETS[n]
    assert len(lattices) == reference.LATTICES[n]
    assert sum(reference.is_distributive(up) for up in lattices) == reference.DISTRIBUTIVE[n]


def test_m3_and_n5_are_the_non_distributive_five_element_lattices():
    m3, n5 = reference.m3(), reference.n5()
    assert reference.is_lattice(m3) and reference.is_lattice(n5)
    assert not reference.is_distributive(m3) and not reference.is_distributive(n5)
    assert not reference.isomorphic(m3, n5)
    bad = [up for up in reference.poset_classes(5)
           if reference.is_lattice(up) and not reference.is_distributive(up)]
    assert len(bad) == 2
    assert {reference.canonical(m3), reference.canonical(n5)} == set(bad)


def test_expected_check_values():
    assert reference.expected_check(reference.m3())["frame"] is False
    assert reference.expected_check(reference.boolean(2))["prime_continuous"] is True
    assert reference.expected_check(reference.antichain(2))["distributive"] == "skipped"
    assert reference.expected_check(reference.antichain(2))["quasicontinuous"] is True


def test_upper_set_counts():
    assert reference.count_upper_sets(reference.chain(6)) == 7
    assert reference.count_upper_sets(reference.antichain(5)) == 32
    assert reference.count_upper_sets(reference.boolean(3)) == 20
    assert reference.count_upper_sets(reference.m3()) == 10


def test_emit_parse_round_trip_on_draws():
    rng = random.Random(3)
    for n in range(1, 9):
        up = run.draw_poset(rng, n, rng.random())
        labels = [f"e{i}" for i in range(n)]
        assert reference.parse(reference.emit(labels, up)) == (labels, up)


def test_draws_repeat_for_a_seed():
    first = [run.draw_poset(random.Random(9), 7, 0.3) for _ in range(2)]
    assert first[0] == first[1]


def verify_report(lemma31_failures):
    suites = []
    for name, kind in reference.SUITE_UNIVERSE.items():
        suites.append({
            "suite": name,
            "instances": 87 if kind == "posets" else 10,
            "pass": True,
            "failures": [],
            "expected_failures": lemma31_failures if name == "lemma31" else [],
        })
    return json.loads(json.dumps({"max_n": 5, "suites": suites}))


def test_verify_report_check():
    labels = ["0", "a", "b", "c", "1"]
    m3 = {"poset": reference.emit(labels, reference.m3())}
    n5 = {"poset": reference.emit(labels, reference.n5())}
    assert reference.check_verify_report(verify_report([n5, m3]), 5) == []
    assert reference.check_verify_report(verify_report([m3]), 5)
    assert reference.check_verify_report(verify_report([m3, m3]), 5)
    report = verify_report([m3, n5])
    report["suites"][2]["instances"] = 86
    assert reference.check_verify_report(report, 5)
