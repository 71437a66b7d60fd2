"""orderkit benchmark: time to a correct verdict, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify|enumerate|instance \\
        --seed N --seconds S --trace 0|1

One client sends requests in a closed loop: the next request starts only
after the last one ends.  Each request is a fresh interpreter
(``perfbench/child.py``) that imports orderkit from ``src`` and calls
``orderkit.cli.main(argv)``, so no request inherits a warm
``generators._poset_level`` cache, a request can be killed at its time limit,
and only one child runs at a time.  ``verify --jobs`` stays at 1.

Every answer is checked against ``reference.py``, which never calls
orderkit; a wrong answer aborts the run with exit code 1.  The report
lines name the metrics per request kind; the last line is one JSON object
with the metrics declared in BENCHMARK.json: the end-to-end ones with
``--trace 0``, the per-layer ones (from traced requests) with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from child import IMPORT_FAILED

ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
CHILD = Path(__file__).resolve().parent / "child.py"

# Per-request wall-time limit, interpreter start included.  Requests that
# are decided take at most ~5 s here (check on n = 8 draws and boolean(3));
# the known non-finishing ones take 25 s (check chain(9)) to hours.
LIMIT_S = 10.0
# The machine's speed drifts by up to 1.7x within a minute (other tenants
# of the host), and that moved the median verify time by 10-20 % between
# runs.  So every time is converted to a reference speed: multiplied by
# REFERENCE_CALIBRATION_S over the time of child.calibrate() measured in the
# same interpreter just before and after the request.  On the 2-core machine
# of the baseline the loop took 5-7 ms.
REFERENCE_CALIBRATION_S = 0.005
MAX_N = 5
# dual runs only on carriers with at most this many upper sets: up to 29,
# 400 draws all finished within 0.25 s; from 30 on, most ran past 2 s.
UPPER_SET_CAP = 29


class WrongAnswer(Exception):
    def __init__(self, message, attempted):
        super().__init__(message)
        self.attempted = attempted


class Request:
    def __init__(self, kind, argv, check, source=None):
        self.kind = kind
        self.argv = argv
        self.check = check    # stdout text -> list of problems
        self.source = source  # the input's name, where a kind has several


# -- workloads ------------------------------------------------------------------


def verify_rounds(rng):
    argv = ["verify", "--suite", "full", "--max-n", str(MAX_N), "--json", "--deterministic"]

    def check(out):
        return reference.check_verify_report(json.loads(out), MAX_N)

    while True:
        yield [Request("verify", argv, check)]


def enumerate_rounds(rng):
    posets = reference.POSETS[7]
    lattices = reference.LATTICES[7]
    non_distributive = lattices - reference.DISTRIBUTIVE[7]

    def count_is(want):
        return lambda out: [] if out.split() == [str(want)] else [f"printed {out!r}, want {want}"]

    while True:
        yield [
            Request("posets", ["enumerate", "--n", "7", "--kind", "posets"], count_is(posets)),
            Request("lattices", ["enumerate", "--n", "7", "--kind", "lattices", "--filter",
                                 "lattice & !distributive"], count_is(non_distributive)),
        ]


def draw_poset(rng, n, density):
    """Relation rows drawn the way ``orderkit.random_poset`` draws them: a
    shuffled linear extension, each forward pair related with probability
    ``density``, then transitively closed."""
    order = list(range(n))
    rng.shuffle(order)
    rows = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                rows[order[a]] |= 1 << order[b]
    return reference.close(n, rows)


# Draws with n = 5..8 at densities spread over (0, 1), from one fixed seed.
# With a fresh catalogue per run seed, the work a run does varied with the
# draws: the spread of check times between seeds was about 20 %.
CATALOGUE_SEED = 0
DENSITIES = (0.125, 0.375, 0.625, 0.875)
NAMED = ("M3", "N5", "chain(7)", "antichain(4)", "boolean(3)")


def catalogue():
    """(name, up rows) of every instance input."""
    rng = random.Random(CATALOGUE_SEED)
    out = [(f"R{n}.{d}", draw_poset(rng, n, d)) for n in range(5, 9) for d in DENSITIES]
    return out + [(name, reference.named(name)) for name in NAMED]


def relabel(rng, up):
    """The same poset with its elements in a random order."""
    n = len(up)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [0] * n
    for i in range(n):
        for j in reference.bits(up[i]):
            rows[perm[i]] |= 1 << perm[j]
    return rows


def instance_rounds(rng):
    """One round per catalogue input, in a seeded order; the seed also
    relabels each input before it is written to a poset file."""
    items = catalogue()
    k = 0
    while True:
        rng.shuffle(items)
        for name, up in items:
            want = reference.expected_check(up)
            uppers = reference.count_upper_sets(up)
            path = WORK / f"input{k}.poset"
            k += 1
            labels = [chr(ord("a") + i) for i in range(len(up))]
            path.write_text(reference.emit(labels, relabel(rng, up)))
            spec = str(path.relative_to(ROOT))

            def check_report(out, want=want, n=len(up)):
                report = json.loads(out)
                if report["n"] != n or report["properties"] != want:
                    return [f"check reported {report['properties']}, want {want}"]
                return []

            def dual_size(out, want=uppers):
                size = len(reference.parse(out)[0])
                return [] if size == want else [f"dual has {size} elements, want {want}"]

            rnd = [Request("check", ["check", spec, "--json", "--no-assert"], check_report, name)]
            if uppers <= UPPER_SET_CAP:
                rnd.append(Request("dual", ["dual", spec], dual_size, name))
            yield rnd


WORKLOADS = {
    "verify": verify_rounds,
    "enumerate": enumerate_rounds,
    "instance": instance_rounds,
}


# -- requests -------------------------------------------------------------------


def run_request(req, trace, seq):
    """Spawn one child, wait up to LIMIT_S, check its answer."""
    result_path = WORK / f"result{seq}.json"
    out_path = WORK / f"out{seq}.txt"
    with open(out_path, "w") as out:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(result_path), "1" if trace else "0", *req.argv],
            stdout=out, stderr=subprocess.PIPE, cwd=ROOT,
        )
        try:
            _, err = proc.communicate(timeout=LIMIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"kind": req.kind, "source": req.source, "failed": True, "time_s": LIMIT_S}
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode == IMPORT_FAILED:
        raise RuntimeError(err.decode(errors="replace").strip())
    if not result_path.exists():
        sys.stderr.write(err.decode(errors="replace"))
        return {"kind": req.kind, "source": req.source, "failed": True, "time_s": LIMIT_S}
    record = json.loads(result_path.read_text())
    problems = [f"exit code {record['rc']}"] if record["rc"] != 0 else []
    problems += req.check(out_path.read_text())
    if problems:
        raise WrongAnswer(f"{' '.join(req.argv)}: " + "; ".join(problems), seq + 1)
    result_path.unlink()
    out_path.unlink()
    scale = REFERENCE_CALIBRATION_S / record["calibration_s"]
    layers = record.get("layers")
    for row in (layers or {}).values():
        row["total_s"] *= scale
        row["self_s"] *= scale
    return {
        "kind": req.kind,
        "source": req.source,
        "failed": False,
        "calibration_s": record["calibration_s"],
        "setup_s": (record["ready"] - spawned) * scale,
        "time_s": (record["end"] - record["start"]) * scale,
        "rss_mb": record["maxrss_kb"] / 1024,
        "layers": layers,
        "enumeration": record.get("enumeration"),
    }


# -- statistics -----------------------------------------------------------------


def tail(values, beyond=10):
    """(percentile, value) of the highest order statistic with at least
    ``beyond`` samples above it, or (None, None) with too few samples."""
    rank = len(values) - beyond  # 1-based
    if rank < 1:
        return None, None
    return math.floor(100 * rank / len(values)), sorted(values)[rank - 1]


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def kind_time(results, kind):
    """A request kind's typical time: the median time of each input, then
    the geometric mean over inputs, so every input weighs the same however
    often the run reached it.  A timed-out request counts as the limit."""
    by_source = {}
    for r in results:
        if r["kind"] == kind:
            by_source.setdefault(r["source"], []).append(r["time_s"])
    return geomean([statistics.median(times) for times in by_source.values()])


def end_to_end(results, items):
    """The gated metrics: set-up time, memory, and the workload's throughput,
    the geometric mean over request kinds of items per second of typical
    request time."""
    done = [r for r in results if not r["failed"]]
    rates = [per_request / kind_time(results, kind) for kind, per_request in items.items()]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in done), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in done), "MB"),
        "items_per_s": (geomean(rates), "1/s"),
    }


PREDICATES = ("continuous", "quasicontinuous", "meet_continuous", "join_continuous",
              "frame", "hypercontinuous", "prime_continuous", "distributive")
SUITES = tuple(reference.SUITE_UNIVERSE)


def per_layer(traced, rounds, overhead):
    """The per-layer metrics: totals over the traced requests that finished,
    divided by the number of rounds, and ratios of totals."""
    totals = {}
    candidates = classes = 0
    for r in traced:
        if r["failed"]:
            continue
        for name, row in r["layers"].items():
            acc = totals.setdefault(name, dict.fromkeys(row, 0))
            for key, value in row.items():
                acc[key] += value
        candidates += r["enumeration"][0]
        classes += r["enumeration"][1]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0, "units": 0}

    def layer(name):
        return totals.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}

    def put(name, value, unit, per_round=True):
        m[name] = (value / rounds if per_round else value, unit)

    for name in ("poset.canonical_key", "poset.as_lattice", "poset.iter_directed_masks",
                 "poset.iter_upper_masks", "relations.fin_family",
                 "relations.way_below_sets", "scott.scott_opens",
                 "scott.scott_closed_lattice"):
        put(f"{name}.calls", layer(name)["calls"], "count")
        put(f"{name}.self_s", layer(name)["self_s"], "s")
    put("relations.fin_family.total_s", layer("relations.fin_family")["total_s"], "s")
    put("generators.enumerate.candidates_per_class", ratio(candidates, classes), "ratio",
        per_round=False)
    lat = layer("poset.as_lattice")
    put("poset.as_lattice.lattice_ratio", ratio(lat["count"], lat["calls"]), "ratio",
        per_round=False)
    put("poset.construct.count", layer("poset.construct")["calls"], "count")
    put("poset.construct.self_s", layer("poset.construct")["self_s"], "s")
    directed = layer("poset.iter_directed_masks")
    put("poset.iter_directed_masks.yield_ratio", ratio(directed["count"], directed["units"]),
        "ratio", per_round=False)
    for pred in PREDICATES:
        put(f"properties.{pred}.calls", layer(f"properties.{pred}")["calls"], "count")
        put(f"properties.{pred}.self_s", layer(f"properties.{pred}")["self_s"], "s")
    for suite in SUITES:
        put(f"verifier.suite.{suite}.s", layer(f"verifier.suite.{suite}")["total_s"], "s")
    put("scott.scott_opens.opens", layer("scott.scott_opens")["count"], "count")
    put("files.parse.self_s", layer("files.parse")["self_s"], "s")
    put("files.emit.self_s", layer("files.emit")["self_s"], "s")
    put("trace.overhead_s", overhead, "s", per_round=False)
    return m


# -- runs -----------------------------------------------------------------------


def measure(workload, seed, seconds, trace):
    """Run rounds in a closed loop for ``seconds``; with ``trace`` each round
    runs twice, untraced then traced, on the same inputs."""
    rng = random.Random(seed)
    rounds = WORKLOADS[workload](rng)
    plain, traced, pairs = [], [], []
    started = time.monotonic()
    while not plain or time.monotonic() - started < seconds:
        rnd = next(rounds)
        for req in rnd:
            plain.append(run_request(req, False, len(plain) + len(traced)))
        if trace:
            for req in rnd:
                traced.append(run_request(req, True, len(plain) + len(traced)))
            pairs.append(sum(r["time_s"] for r in traced[-len(rnd):])
                         - sum(r["time_s"] for r in plain[-len(rnd):]))
    return plain, traced, pairs


# Items one request of each kind decides, per workload.
KIND_ITEMS = {
    "verify": {"verify": reference.checks_in_verify(MAX_N)},
    "enumerate": {"posets": reference.POSETS[7], "lattices": reference.LATTICES[7]},
    "instance": {"check": 1, "dual": 1},
}
RATE_NAMES = {"verify": "verify.checks_per_s", "posets": "enumerate.posets_per_s",
              "lattices": "enumerate.lattices_per_s", "check": "check.instances_per_s",
              "dual": "dual.instances_per_s"}


def report(workload, results, items):
    """Human-readable lines: the end-to-end metrics per request kind."""
    failed = sum(r["failed"] for r in results)
    cal = [r["calibration_s"] for r in results if not r["failed"]]
    m = end_to_end(results, items)
    lines = [
        f"{workload}: {len(results)} requests, failed_share {failed / len(results):.4f}"
        f" ({failed} timed out or crashed, limit {LIMIT_S:g} s)",
        "  " + "  ".join(f"{k} {v:.4f}" for k, (v, _) in m.items())
        + f"  (calibration loop median {1000 * statistics.median(cal):.2f} ms;"
        f" times are scaled to {1000 * REFERENCE_CALIBRATION_S:g} ms)",
    ]
    for kind, per_request in items.items():
        times = [r["time_s"] for r in results if r["kind"] == kind]
        pct, value = tail(times)
        shown = f"p{pct} {value:.4f}" if pct is not None else "undefined"
        lines.append(
            f"  {RATE_NAMES[kind]} {per_request / kind_time(results, kind):.3f}"
            f"  {kind}.p50_s {statistics.median(times):.4f}"
            f"  {kind}.tail_s {shown} ({len(times)} requests)"
        )
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "orderkit" / "__init__.py").is_file():
        print(f"no orderkit sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    items = KIND_ITEMS[args.workload]
    try:
        plain, traced, pairs = measure(args.workload, args.seed, args.seconds, args.trace)
    except WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": exc.attempted, "failed": 0,
                          "metrics": {}}))
        return 1
    except RuntimeError as exc:
        print(f"cannot run orderkit: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if all(r["failed"] for r in plain) or (traced and all(r["failed"] for r in traced)):
        print("no request finished within the limit", file=sys.stderr)
        return 1

    for line in report(args.workload, plain, items):
        print(line)
    if args.trace:
        print("traced requests of the same rounds:")
        for line in report(args.workload, traced, items):
            print(line)
        metrics = per_layer(traced, len(pairs), statistics.median(pairs))
    else:
        metrics = end_to_end(plain, items)
    out = {
        "correct": True,
        "attempted": len(plain),
        "failed": sum(r["failed"] for r in plain),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
