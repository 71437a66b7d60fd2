"""Golden verdicts, witnesses and sup-inf values of the lattice predicates.

``data/lattice_witnesses.json`` pins them on every lattice with n <= 6 and
on σ(P) and Γ(P) of every poset with n <= 4.  The routes that loop over all
2^n subsets (the definitional ones and the hypercontinuous sup-inf form)
are recorded where n <= 12, which leaves out only σ and Γ of antichain(4).
The file is regenerated by running this file as a script:

    PYTHONPATH=src python tests/test_lattice_witnesses.py > tests/data/lattice_witnesses.json
"""

import json
from pathlib import Path

from orderkit.generators import enumerate_lattices, enumerate_posets
from helpers import is_completely_distributive_oracle, is_meet_continuous_algebraic

from orderkit.properties import (
    is_distributive,
    is_frame,
    is_join_continuous,
    supinf_continuous_rhs,
    supinf_hyper_rhs,
    supinf_prime_rhs,
)
from orderkit.scott import scott_closed_lattice, scott_opens

GOLDEN = Path(__file__).parent / "data" / "lattice_witnesses.json"


def _lattices():
    for n in range(1, 7):
        yield from enumerate_lattices(n)
    for n in range(1, 5):
        for P in enumerate_posets(n):
            yield scott_opens(P).lattice
            yield scott_closed_lattice(P).lattice


def _verdict(v):
    w = v.witness
    return {"holds": v.holds,
            "witness": None if w is None else w.as_dict(),
            "note": None if w is None else w.note}


def _record(L):
    out = {
        "join_continuous": _verdict(is_join_continuous(L)),
        "frame": _verdict(is_frame(L)),
        "distributive": _verdict(is_distributive(L)),
        "meet_continuous_algebraic": _verdict(is_meet_continuous_algebraic(L)),
        "supinf_continuous": [L.labels[supinf_continuous_rhs(L, x)] for x in range(L.n)],
        "supinf_prime": [L.labels[supinf_prime_rhs(L, x)] for x in range(L.n)],
    }
    if L.n <= 12:
        out["supinf_hyper"] = [L.labels[supinf_hyper_rhs(L, x)] for x in range(L.n)]
        out["join_continuous_definitional"] = _verdict(is_join_continuous(L, oracle=True))
        out["frame_definitional"] = _verdict(is_frame(L, oracle=True))
    if L.n <= 5:
        out["completely_distributive_2"] = _verdict(is_completely_distributive_oracle(L, 2))
    return out


def build():
    return {L.name: _record(L) for L in _lattices()}


def test_lattice_witnesses_match_golden():
    assert build() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    print(json.dumps(build(), indent=1, sort_keys=True))
