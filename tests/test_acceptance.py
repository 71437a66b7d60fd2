"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion; any assertion failure marks the criterion failed.
"""

import contextlib
import io
import json
import subprocess
import sys

from helpers import complement_isomorphism, first_match, pooled

from orderkit.cli import main
from orderkit.files import emit, parse
from orderkit.generators import (
    NAMED_LATTICE_EXAMPLES,
    NAMED_POSET_EXAMPLES,
    enumerate_lattices,
    enumerate_posets,
    named,
)
from orderkit.properties import (
    is_distributive,
    is_frame,
    is_hypercontinuous,
    is_join_continuous,
    is_prime_continuous,
    supinf_continuous_rhs,
    supinf_hyper_rhs,
    supinf_prime_rhs,
)
from orderkit.relations import prec, way_below, way_way_below
from orderkit.scott import scott_closed_lattice, scott_opens
from orderkit.verifier import (
    characterization_check,
    lemma31_check,
    run_suite,
    thm21_check,
    thm23_check,
    thm25_check,
    thm32_check,
    thm34_check,
)


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_1_discrimination(lattices_upto_7):
    total = 0
    for n in range(1, 8):
        for L in lattices_upto_7[n]:
            total += 1
            jc = is_join_continuous(L).holds
            assert is_frame(L).holds == jc, L.name
            assert is_distributive(L).holds == jc, L.name
            assert is_prime_continuous(L).holds == jc, L.name
            assert is_hypercontinuous(L).holds, L.name
    assert total == 78
    _report(1, f"join = frame = distributive = prime and hyper true on {total} lattices, n <= 7")


def test_criterion_2_lemma31(lattices_upto_7, m3):
    checked = jc_count = 0
    for n in range(1, 8):
        for L in lattices_upto_7[n]:
            checked += 1
            v = lemma31_check(L)
            assert v.holds or v.witness.note != "set identity mismatch", L.name
            if is_join_continuous(L).holds:
                jc_count += 1
                assert v.holds, L.name
    v = lemma31_check(m3.as_lattice())
    assert not v.holds
    assert v.witness.subsets == (("a", "b"),)
    assert v.witness.lhs == "c" and v.witness.rhs == "0"
    _report(2, f"equation on {jc_count} join-continuous lattices, set identity before each "
               f"equation on all {checked} lattices n <= 7, M3 witness M={{a,b}} lhs=c rhs=bottom")


def test_criterion_3_thm32_thm34(lattices_upto_7, posets_upto_5):
    for n in range(1, 8):
        for L in lattices_upto_7[n]:
            assert thm32_check(L).holds, L.name
    for n in range(1, 6):
        for P in posets_upto_5[n]:
            assert thm34_check(P).holds, P.name
    r32 = run_suite("thm32", 4)
    r34 = run_suite("thm34", 4)
    assert r32.trivialized == ("hypercontinuous",)
    assert set(r34.trivialized) == {"meet_continuous", "quasicontinuous", "continuous"}
    _report(3, "biconditionals on 78 lattices n <= 7 and 87 posets n <= 5, "
               "reports flag trivialized conjuncts")


def test_criterion_4_stone_duals(posets_upto_5):
    total = 0
    for n in range(1, 6):
        for P in posets_upto_5[n]:
            total += 1
            assert thm21_check(P).holds, P.name
            assert thm23_check(P).holds, P.name
            assert thm25_check(P).holds, P.name
            sig = scott_opens(P)
            assert is_prime_continuous(sig.lattice).holds, P.name
            gam = scott_closed_lattice(P)
            complement_isomorphism(sig, gam)
    assert total == 87
    _report(4, f"sigma/gamma built and all three dual biconditionals verified on {total} posets")


def test_criterion_5_oracle_equivalence(lattices_upto_6):
    lattice_pool = [L for n in range(1, 7) for L in lattices_upto_6[n]]
    lattice_pool += [named(name).as_lattice() for name in NAMED_LATTICE_EXAMPLES]
    for L in lattice_pool:
        assert way_way_below(L) == way_way_below(L, oracle=True), L.name
        assert prec(L, oracle=True) == L.base.down, L.name
    poset_pool = [L.base for L in lattice_pool] + [named(n) for n in NAMED_POSET_EXAMPLES]
    for P in poset_pool:
        assert way_below(P, oracle=True) == P.down, P.name
    _report(5, f"closed/oracle agreement on {len(lattice_pool)} lattices and "
               f"{len(poset_pool)} posets")


def test_criterion_6_characterizations(lattices_upto_6):
    count = 0
    for n in range(1, 7):
        for L in lattices_upto_6[n]:
            count += 1
            v = characterization_check(L)
            assert v.holds, (L.name, v.profile)
            for x in range(L.n):
                assert supinf_continuous_rhs(L, x) == x
                assert supinf_hyper_rhs(L, x) == x
            pc = is_prime_continuous(L).holds
            assert all(supinf_prime_rhs(L, x) == x for x in range(L.n)) == pc
    assert count == 25
    _report(6, f"sup-inf characterization coherence on {count} lattices n <= 6")


def test_criterion_7_enumeration_counts():
    poset_counts = [sum(1 for _ in enumerate_posets(n)) for n in range(1, 6)]
    assert poset_counts == [1, 2, 5, 16, 63]
    lattice_counts = [sum(1 for _ in enumerate_lattices(n)) for n in range(1, 8)]
    assert lattice_counts == [1, 1, 1, 2, 5, 15, 53]
    _report(7, "posets 1,2,5,16,63 and lattices 1,1,1,2,5,15,53 match published sequences")


def _main_stdout(argv):
    """What ``main(argv)`` writes to stdout; it must exit 0.  Not captured
    by capsys, which would hold back the criterion's report line."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    out.flush()
    return out.buffer.getvalue().decode("utf-8")


def test_criterion_8_determinism(monkeypatch):
    argv = ["verify", "--suite", "full", "--max-n", "4", "--json", "--deterministic"]
    runs = [subprocess.run([sys.executable, "-m", "orderkit", *argv],
                           capture_output=True, text=True) for _ in range(2)]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    # in this process, and in a spawned pool of two workers
    in_process = _main_stdout(argv)
    pooled(monkeypatch)
    assert runs[0].stdout == in_process == _main_stdout(argv)
    assert json.loads(runs[0].stdout)["max_n"] == 4
    hits = [first_match("lattice & !join_continuous", 5) for _ in range(2)]
    assert hits[0] == hits[1]
    base = hits[0].base if hasattr(hits[0], "base") else hits[0]
    assert base.is_isomorphic(named("M3")) or base.is_isomorphic(named("N5"))
    _report(8, "byte-identical full verify output across runs, in process and pooled; "
               "stable search result")


def test_criterion_9_roundtrip(posets_upto_5):
    count = 0
    for n in range(1, 6):
        for P in posets_upto_5[n]:
            count += 1
            assert parse(emit(P)).is_isomorphic(P), P.name
    assert count == 87
    _report(9, f"parse(emit(P)) isomorphic to P on {count} posets n <= 5")
