"""Self-time arithmetic of the span tracer, on a fake clock."""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import tracer as tracing

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def ticks(monkeypatch):
    """A clock that advances by one second per reading."""
    counter = itertools.count()
    monkeypatch.setattr(tracing, "clock", lambda: float(next(counter)))


def test_self_time_subtracts_direct_children(ticks):
    t = tracing.Tracer()

    def leaf():
        return 1

    def middle():
        return t.call("leaf", leaf) + t.call("leaf", leaf)

    assert t.call("top", lambda: t.call("middle", middle)) == 2
    totals = tracing.layer_totals(t.spans)
    # each span reads the clock once on entry and once on exit
    assert totals["leaf"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0, "count": 0, "units": 0}
    assert totals["middle"]["total_s"] == 5.0
    assert totals["middle"]["self_s"] == 3.0
    assert totals["top"]["total_s"] == 7.0
    assert totals["top"]["self_s"] == 2.0


def test_generator_span_counts_only_its_own_running_time(ticks):
    t = tracing.Tracer()

    def source():
        for mask in (1, 4, 6):
            t.call("inner", lambda: None)
            yield mask

    def consumer():
        out = []
        for mask in t.iterate("gen", source(), size=8):
            t.call("outside", lambda: None)
            out.append(mask)
            if mask == 4:
                break
        return out

    assert t.call("top", consumer) == [1, 4]
    totals = tracing.layer_totals(t.spans)
    gen = totals["gen"]
    assert gen["count"] == 2 and gen["units"] == 5   # stopped after mask 4
    assert gen["total_s"] == 6.0                     # two resumptions of 3 s each
    assert gen["self_s"] == 4.0                      # minus the two inner calls
    assert totals["top"]["self_s"] == totals["top"]["total_s"] - 6.0 - 2.0
    assert [s.parent for s in t.spans if s.name == "inner"] == [1, 1]


def test_generator_run_to_the_end_scans_every_candidate(ticks):
    t = tracing.Tracer()
    assert list(t.iterate("gen", iter([0, 2]), size=8)) == [0, 2]
    assert tracing.layer_totals(t.spans)["gen"]["units"] == 8


def traced(argv, tmp_path):
    result = tmp_path / "result.json"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), str(result), "1",
                    *argv], cwd=ROOT, check=True, capture_output=True)
    return json.loads(result.read_text())


def test_traced_enumeration_counts_classes(tmp_path):
    record = traced(["enumerate", "--n", "5"], tmp_path)
    candidates, classes = record["enumeration"]
    assert classes == sum(reference.POSETS[1:6])
    assert candidates >= classes
    assert record["layers"]["poset.canonical_key"]["calls"] >= candidates


def test_traced_check_sees_every_predicate_once(tmp_path):
    layers = traced(["check", "M3", "--json", "--no-assert"], tmp_path)["layers"]
    for pred in reference.ALWAYS_TRUE + reference.LATTICE_ONLY:
        assert layers[f"properties.{pred}"]["calls"] >= 1
    assert layers["poset.as_lattice"]["count"] == 1
