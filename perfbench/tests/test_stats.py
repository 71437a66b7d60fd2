"""The tail-percentile rule and the end-to-end aggregation."""

import math

import run


def test_tail_leaves_ten_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.tail(values) == (90, 90.0)
    assert sum(v > 90.0 for v in values) == 10
    assert run.tail([0.5] * 20 + [3.0] * 13) == (69, 3.0)
    assert run.tail([2.0, 1.0] + [5.0] * 9) == (9, 1.0)
    assert run.tail([1.0] * 10) == (None, None)
    assert run.tail([]) == (None, None)


def test_items_per_s_weighs_each_input_once():
    def ok(kind, source, time_s, setup_s, rss_mb):
        return {"kind": kind, "source": source, "failed": False, "time_s": time_s,
                "setup_s": setup_s, "rss_mb": rss_mb}

    results = [
        ok("a", "x", 2.0, 0.2, 10.0),
        ok("a", "x", 8.0, 0.4, 12.0),
        ok("a", "y", 20.0, 0.3, 11.0),
        ok("b", "z", 0.5, 0.5, 11.0),
        {"kind": "b", "source": "w", "failed": True, "time_s": run.LIMIT_S},
    ]
    # a: median 5 s on x and 20 s on y -> 10 s; b: 0.5 s and a timeout at the limit
    assert math.isclose(run.kind_time(results, "a"), 10.0)
    assert math.isclose(run.kind_time(results, "b"), math.sqrt(0.5 * run.LIMIT_S))
    m = run.end_to_end(results, {"a": 40, "b": 1})
    assert math.isclose(m["items_per_s"][0], math.sqrt(40 / 10.0 / math.sqrt(0.5 * run.LIMIT_S)))
    assert m["setup_s"] == (0.35, "s")
    assert m["peak_rss_mb"] == (12.0, "MB")
