"""Executable theorem checks, exhaustive suites, and predicate expressions.

Each check evaluates both sides of a biconditional (or an equation) on one
instance and returns a Verdict with the full property profile.  Checks read
predicates from an InstanceProfile, which computes each predicate, the
lattice structure, σ(P) and Γ(P) at most once per instance.  ``run_suites``
enumerates each universe once and runs every requested suite on an
instance before the next, dropping its profile; a suite's ``wall_time`` is
the time in its checks, so a shared predicate is charged to the first
suite in table order that asks for it.

On finite carriers several conjuncts are always true (continuity and its
relatives collapse); suite reports carry an explicit list of these
trivialized conjuncts so that a green run is not overread.  The join /
frame / distributivity / prime-continuity discrimination and the finite-set
meet-complement equation are the non-trivial finite content.
"""

from __future__ import annotations

import os
import re
import time
from collections import namedtuple
from functools import partial
from itertools import islice

from . import limits, properties
from .errors import NotALatticeError, ParseError
from .files import emit
from .generators import check_ceiling, enumerate_lattices, enumerate_posets
from .poset import FiniteLattice, Verdict, Witness, cached_view, iter_bits, mask_of
from .scott import scott_closed_lattice, scott_opens


def lemma31_check(L: FiniteLattice, *, oracle=False) -> Verdict:
    """For every finite subset M: the meet of the complement of (down M)
    equals the join over m in M of the meets of the single complements.
    Both sides reduce to the bottom element for empty M.

    Asserts at each M, before the equation, the set identity behind it:
    the complement of (down M) is the intersection of the single-element
    complements.  The first M that fails either is the witness.

    Both sides read M only through its down set D: the left side is the
    meet of P minus D, and the meet of P minus (down m) falls as m rises,
    so the right side is the join over the maximal elements of M, which
    are those of D.  The shortcut therefore tests M = max(D) for each down
    set D, in ascending mask order, and reads the left sides, their meets,
    from ``L.upper_meets``.  Its first failing max(D) is the first failing
    M in mask order, since every M with down set D contains max(D).  The
    oracle tries all 2^n subsets.
    """
    P = L.base
    if oracle:
        limits.check_subset_cap(L.n, "subset enumeration for lemma 3.1")
        cases = ((mmask, None) for mmask in range(1 << L.n))
    else:
        cases = sorted(zip(_maximal_of_downsets(P), L.upper_meets))
    full = P.full_mask
    singles = [L.meet_mask(full ^ d) for d in P.down]
    for mmask, lhs in cases:  # lhs is None when not cached
        rest = full ^ P.down_closure_mask(mmask)
        failure = _identity_failure(P, mmask, rest)
        if failure is not None:
            return failure
        if lhs is None:
            lhs = L.meet_mask(rest)
        rhs = L.join_mask(mask_of(singles[m] for m in iter_bits(mmask)))
        if lhs != rhs:
            w = Witness(subsets=(P.labels_of(mmask),), lhs=P.labels[lhs], rhs=P.labels[rhs])
            return Verdict(False, w)
    return Verdict(True)


def downset_complement_identity(L: FiniteLattice, *, oracle=False) -> Verdict:
    """Just the set identity part of lemma31_check.  The oracle tests every
    subset M.  The shortcut tests the antichains, each the maximal elements
    of one down set: in a transitive order a subset's non-maximal members
    change neither side, so the identity fails at M exactly when it fails
    at max(M), whose mask is no larger, and the failing antichain of least
    mask is the oracle's first witness."""
    P = L.base
    if oracle:
        limits.check_subset_cap(L.n, "subset enumeration for the set identity")
        subsets = range(1 << L.n)
    else:
        subsets = sorted(_maximal_of_downsets(P))
    for mmask in subsets:
        failure = _identity_failure(P, mmask, P.full_mask ^ P.down_closure_mask(mmask))
        if failure is not None:
            return failure
    return Verdict(True)


def _identity_failure(P, mmask, rest):
    """The failing verdict of the set identity at M, or None when the
    intersection of the complements of (down m), m in M, is ``rest``."""
    full = P.full_mask
    inter = full
    for m in iter_bits(mmask):
        inter &= full ^ P.down[m]
    if inter == rest:
        return None
    return Verdict(False, Witness(subsets=(P.labels_of(mmask),), note="set identity mismatch"))


def _maximal_of_downsets(P):
    """max D for every down set D of P, the complement of a cached upper
    set, in the order of ``P.upper_masks()``."""
    full = P.full_mask
    for u in P.upper_masks():
        d = full ^ u
        below = 0  # elements strictly below a member of D
        for m in iter_bits(d):
            below |= P.down[m] ^ 1 << m
        yield d & ~below


def _profile_verdict(holds, profile, note=""):
    prof = tuple(profile.items())
    if holds:
        return Verdict(True, profile=prof)
    return Verdict(False, Witness(note=note or "biconditional sides differ"), profile=prof)


def _profile_of(instance):
    return instance if isinstance(instance, InstanceProfile) else InstanceProfile(instance)


def thm32_check(L) -> Verdict:
    """join continuous and hypercontinuous, together, iff prime continuous."""
    p = _profile_of(L)
    jc = p.value("join_continuous")
    hc = p.value("hypercontinuous")
    pc = p.value("prime_continuous")
    return _profile_verdict(
        (jc and hc) == pc,
        {"join_continuous": jc, "hypercontinuous": hc, "prime_continuous": pc},
    )


def thm34_check(P) -> Verdict:
    """meet continuous and quasicontinuous, together, iff continuous."""
    p = _profile_of(P)
    mc = p.value("meet_continuous")
    qc = p.value("quasicontinuous")
    c = p.value("continuous")
    return _profile_verdict(
        (mc and qc) == c,
        {"meet_continuous": mc, "quasicontinuous": qc, "continuous": c},
    )


def thm21_check(P) -> Verdict:
    """P continuous iff its open-set lattice is prime continuous."""
    p = _profile_of(P)
    c = p.value("continuous")
    pc = p.sigma.value("prime_continuous")
    return _profile_verdict(
        c == pc, {"continuous": c, "opens_prime_continuous": pc}
    )


def thm23_check(P) -> Verdict:
    """P meet continuous iff its open-set lattice is join continuous iff
    its closed-set lattice is a frame."""
    p = _profile_of(P)
    mc = p.value("meet_continuous")
    jc = p.sigma.value("join_continuous")
    fr = p.gamma.value("frame")
    return _profile_verdict(
        mc == jc == fr,
        {"meet_continuous": mc, "opens_join_continuous": jc, "closeds_frame": fr},
    )


def thm25_check(P) -> Verdict:
    """P quasicontinuous iff its open-set lattice is hypercontinuous."""
    p = _profile_of(P)
    qc = p.value("quasicontinuous")
    hc = p.sigma.value("hypercontinuous")
    return _profile_verdict(
        qc == hc, {"quasicontinuous": qc, "opens_hypercontinuous": hc}
    )


def chain_check(L) -> Verdict:
    """The implication chain between the lattice continuities: prime
    implies join, frame and hyper; hyper implies continuous."""
    p = _profile_of(L)
    profile = {
        name: p.value(name)
        for name in ("prime_continuous", "join_continuous", "frame",
                     "hypercontinuous", "continuous")
    }
    pc, jc, fr, hc, c = profile.values()
    implications = {
        "prime_continuous->join_continuous": (not pc) or jc,
        "prime_continuous->frame": (not pc) or fr,
        "prime_continuous->hypercontinuous": (not pc) or hc,
        "hypercontinuous->continuous": (not hc) or c,
    }
    bad = [name for name, ok in implications.items() if not ok]
    return _profile_verdict(not bad, profile, "broken implication " + bad[0] if bad else "")


def characterization_check(L) -> Verdict:
    """Each relational predicate agrees with its sup-inf right-hand-side
    form at every element."""
    p = _profile_of(L)
    L, P = p.lattice, p.poset
    checks = (
        ("continuous", properties.supinf_continuous_rhs),
        ("hypercontinuous", properties.supinf_hyper_rhs),
        ("prime_continuous", properties.supinf_prime_rhs),
    )
    profile = {}
    for name, rhs_fn in checks:
        pred = p.value(name)
        moved = None  # labels of the first x and its sup-inf form, if they differ
        for x in range(L.n):
            r = rhs_fn(L, x)
            if r != x:
                moved = (P.labels[x], P.labels[r])
                break
        profile[name] = pred
        profile[name + "_supinf"] = moved is None
        if pred != (moved is None):
            x, r = moved or (None, None)
            w = Witness(elements=() if x is None else (x,), lhs=x, rhs=r,
                        note=f"{name} disagrees with its sup-inf form")
            return Verdict(False, w, profile=tuple(profile.items()))
    return Verdict(True, profile=tuple(profile.items()))


# -- suites ------------------------------------------------------------


class CheckRecord(namedtuple("CheckRecord", "name n text verdict")):
    """One suite entry that needs reporting; ``text`` re-creates the
    instance exactly."""

    __slots__ = ()


class SuiteReport(namedtuple("SuiteReport", "suite universe instances failures "
                                            "expected_failures trivialized wall_time")):
    __slots__ = ()

    @property
    def passed(self):
        return not self.failures


def _classify_lemma31(profile):
    v = lemma31_check(profile.lattice)
    if v.holds:
        return ("pass", v)
    if v.witness is not None and v.witness.note == "set identity mismatch":
        return ("fail", v)
    if profile.value("join_continuous"):
        return ("fail", v)
    # outside the hypothesis the equation may fail; report it, do not count it
    return ("expected", v)


def _plain(check):
    def run(profile):
        v = check(profile)
        return ("pass" if v.holds else "fail", v)

    return run


# name -> (universe, classifier of a profile, trivialized conjuncts), in
# report order.  Trivialized conjuncts cannot fail on finite carriers; a
# green result for them only exercises the implementation, it does not
# test the mathematics.
SUITES = {
    "lemma31": ("lattices", _classify_lemma31, ()),
    "thm32": ("lattices", _plain(thm32_check), ("hypercontinuous",)),
    "thm34": ("posets", _plain(thm34_check),
              ("meet_continuous", "quasicontinuous", "continuous")),
    "thm21": ("posets", _plain(thm21_check), ("continuous", "opens_prime_continuous")),
    "thm23": ("posets", _plain(thm23_check),
              ("meet_continuous", "opens_join_continuous", "closeds_frame")),
    "thm25": ("posets", _plain(thm25_check), ("quasicontinuous", "opens_hypercontinuous")),
    "chains": ("lattices", _plain(chain_check), ("hypercontinuous", "continuous")),
    "characterizations": ("lattices", _plain(characterization_check),
                          ("continuous", "hypercontinuous")),
}

SUITE_ORDER = tuple(SUITES)

_BATCH = 1024  # instances handed to the worker pool at a time


def _stream(kind, max_n):
    """The enumerated universe of one kind, n = 1..max_n, in order."""
    enumerate_kind = enumerate_lattices if kind == "lattices" else enumerate_posets
    for n in range(1, max_n + 1):
        yield from enumerate_kind(n)


def _check_instance(names, instance):
    """(status, CheckRecord or None on a pass, seconds) of each named suite on
    one instance; the suites share one profile, which is dropped on return."""
    profile = InstanceProfile(instance)
    P = profile.poset
    out = []
    for name in names:
        started = time.perf_counter()
        status, verdict = SUITES[name][1](profile)
        spent = time.perf_counter() - started
        record = None if status == "pass" else CheckRecord(P.name, P.n, emit(P), verdict)
        out.append((status, record, spent))
    return out


def _outcomes(check, stream, jobs):
    """``check`` of each instance of ``stream``, in order.  A pool takes the
    stream a batch at a time: its ``map`` would submit all of it at once."""
    if jobs == 1:
        yield from map(check, stream)
        return
    # imported here: multiprocessing costs every other run its import.
    # Workers are spawned, not forked: forking a process that may hold
    # threads can deadlock the child, and the default differs by platform
    # and Python version
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        while batch := list(islice(stream, _BATCH)):
            yield from pool.map(check, batch, chunksize=8)


def run_suites(names, max_n: int) -> list:
    """Run the named suites up to max_n, one report per name in the order
    given.  Each universe kind is enumerated once, every requested suite
    checks one instance before the next, and the outcomes are folded into
    the reports as they arrive, so no instance outlives its checks.  From
    ``limits.POOL_FROM[kind]`` on, a pool of one worker per CPU checks the
    universe; the reports do not depend on it.  Every universe asked for
    is checked against its ceiling before any is enumerated."""
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
    limits.check_count(max_n, "max_n", 1)
    kinds = {}
    for kind in ("lattices", "posets"):
        wanted = tuple(s for s in names if SUITES[s][0] == kind)
        if wanted:
            check_ceiling(kind, max_n)
            kinds[kind] = wanted
    reports = {}
    for kind, wanted in kinds.items():
        jobs = (os.cpu_count() or 1) if max_n >= limits.POOL_FROM[kind] else 1
        count = 0
        records = {name: {"fail": [], "expected": []} for name in wanted}
        spent = dict.fromkeys(wanted, 0)
        for outcome in _outcomes(partial(_check_instance, wanted), _stream(kind, max_n), jobs):
            count += 1
            for name, (status, record, seconds) in zip(wanted, outcome):
                if record is not None:
                    records[name][status].append(record)
                spent[name] += seconds
        for name in wanted:
            found = records[name]
            reports[name] = SuiteReport(name, f"{kind} n=1..{max_n}", count, tuple(found["fail"]),
                                        tuple(found["expected"]), SUITES[name][2], spent[name])
    return [reports[name] for name in names]


def run_suite(which: str, max_n: int) -> SuiteReport:
    """Run one suite; see run_suites."""
    return run_suites((which,), max_n)[0]


# -- predicate expressions ---------------------------------------------

EXPRESSION_NAMES = properties.PREDICATE_NAMES + ("lattice",)

_SPACE_RE = re.compile(r"\s*")
_TOKEN_RE = re.compile(r"(?:([a-z_]+)|([!&|()]))\s*")


def _tokenize(text):
    """(kind, value, column) of each token, then an end token."""
    tokens = []
    pos = _SPACE_RE.match(text).end()
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", column=pos + 1)
        name, sym = m.groups()
        if name is None:
            tokens.append(("sym", sym, pos + 1))
        elif name not in EXPRESSION_NAMES:
            raise ParseError(f"unknown predicate name {name!r}", column=pos + 1)
        else:
            tokens.append(("name", name, pos + 1))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


def compile_expression(text: str):
    """Compile a boolean combination of predicate names (operators !, &, |
    and parentheses) into a function of an instance profile.

    A chain of one binary operator is one node, evaluated by ``all`` or
    ``any``, and a run of ! keeps only its parity, so the parser and the
    evaluator recurse once per level of parentheses, which may nest at
    most ``limits.EXPRESSION_DEPTH`` deep."""
    tokens = _tokenize(text)
    pos = 0

    def take(kind, value=None):
        nonlocal pos
        t = tokens[pos]
        if t[0] != kind or (value is not None and t[1] != value):
            raise ParseError(f"expected {value or kind}, found {t[1] or 'end of input'!r}",
                             column=t[2])
        pos += 1

    def parse_chain(depth, sym):
        # a chain of | over & chains, or of & over negations
        nodes = []
        while True:
            nodes.append(parse_chain(depth, "&") if sym == "|" else parse_not(depth))
            if tokens[pos][:2] != ("sym", sym):
                return nodes[0] if len(nodes) == 1 else (sym, nodes)
            take("sym", sym)

    def parse_not(depth):
        negate = False
        while tokens[pos][:2] == ("sym", "!"):
            take("sym", "!")
            negate = not negate
        kind, value, column = tokens[pos]
        if (kind, value) == ("sym", "("):
            if depth == limits.EXPRESSION_DEPTH:
                raise ParseError("parentheses nested more than "
                                 f"{limits.EXPRESSION_DEPTH} deep", column=column)
            take("sym", "(")
            node = parse_chain(depth + 1, "|")
            take("sym", ")")
        elif kind == "name":
            take("name")
            node = ("name", value)
        else:
            raise ParseError(f"expected a predicate name, found {value or 'end of input'!r}",
                             column=column)
        return ("!", node) if negate else node

    tree = parse_chain(0, "|")
    take("end")

    def evaluate(profile, node=tree):
        op, arg = node
        if op == "name":
            return profile.value(arg)
        if op == "!":
            return not evaluate(profile, arg)
        if op == "&":
            return all(evaluate(profile, child) for child in arg)
        return any(evaluate(profile, child) for child in arg)

    return evaluate


class InstanceProfile:
    """What the checks read about one poset or lattice, each computed at
    most once: the lattice structure, the Scott open and closed set
    lattices as profiles of their own, and predicate verdicts by name.
    Truth values of the laws Birkhoff's test decides are read from the
    test, so the suites and ``enumerate --filter`` scan for no witness;
    ``verdict`` still gives each law's witness."""

    def __init__(self, instance):
        if isinstance(instance, FiniteLattice):
            self.lattice = instance  # known already: shadows the cached view
            instance = instance.base
        self.poset = instance
        self._verdicts = {}

    @cached_view
    def lattice(self):
        """The poset as a lattice, or None when it is not one.  A poset
        with no least element (no up row is the full mask) or no greatest
        (no down row is) is refused before ``as_lattice`` builds its row
        indexes."""
        P = self.poset
        if P.full_mask not in P.up or P.full_mask not in P.down:
            return None
        try:
            return P.as_lattice()
        except NotALatticeError:
            return None

    @cached_view
    def sigma(self):
        """Profile of the lattice of Scott opens."""
        return self._set_lattice_profile(scott_opens(self.poset).lattice)

    @cached_view
    def gamma(self):
        """Profile of the lattice of Scott-closed sets."""
        return self._set_lattice_profile(scott_closed_lattice(self.poset).lattice)

    def _set_lattice_profile(self, L):
        # the join-irreducibles of σ(P) and Γ(P) are the principal up and
        # down sets, one per element of P; the suites, which read Γ(P)
        # through Birkhoff's test alone, would not notice one missing
        found = L.join_irreducibles.bit_count()
        if found != self.poset.n:
            raise AssertionError(f"{L.name} has {found} join-irreducibles, "
                                 f"not one per element of {self.poset.name}")
        return InstanceProfile(L)

    def verdict(self, name):
        """The predicate's Verdict, or None for a lattice-only predicate
        when the instance is not a lattice."""
        if name not in self._verdicts:
            if name in properties.POSET_PREDICATES:
                v = properties.POSET_PREDICATES[name](self.poset)
            elif name not in properties.LATTICE_PREDICATES:
                raise ParseError(f"unknown predicate name {name!r}")
            elif self.lattice is None:
                v = None
            else:
                v = properties.LATTICE_PREDICATES[name](self.lattice)
            self._verdicts[name] = v
        return self._verdicts[name]

    def value(self, name):
        """Truth value of ``lattice`` or a predicate; False without a verdict.
        A law of ``properties.BIRKHOFF_LAWS`` whose verdict is not cached is
        read from Birkhoff's test, which decides it, with no witness scan."""
        if name == "lattice":
            return self.lattice is not None
        if name in properties.BIRKHOFF_LAWS and name not in self._verdicts:
            return self.lattice is not None and self.lattice.birkhoff_distributive
        v = self.verdict(name)
        return v is not None and v.holds
