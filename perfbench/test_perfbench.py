"""Tests of the benchmark's own arithmetic and output checker.

    python3 -m pytest perfbench
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import drive  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from phidetect import CalibrationTable, mc_null_tables  # noqa: E402
from spans import Tracer, self_times, tail  # noqa: E402


@pytest.mark.parametrize("n, pct, beyond", [
    (10000, 99.9, 10),
    (1000, 99.0, 10),
    (999, 95.0, 49),
    (200, 95.0, 10),
    (199, 90.0, 19),
    (20, 50.0, 10),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, beyond):
    xs = list(range(n, 0, -1))  # unsorted on purpose
    p, value, k = tail(xs)
    assert (p, k) == (pct, beyond)
    assert value == n - beyond  # the largest sample not among the k beyond
    assert sum(1 for x in xs if x > value) == beyond


def test_tail_needs_twenty_samples():
    assert tail(range(19)) is None


def _span(i, parent, start, end):
    return {"id": i, "name": f"s{i}", "parent": parent, "rid": None,
            "start": start, "end": end, "attrs": {}}


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 0, 3.0, 6.0),    # overlaps span 1: the union [1, 6] is covered once
        _span(3, 1, 2.0, 3.0),    # grandchild: counts against span 1 only
        _span(4, 0, 9.0, 12.0),   # runs past its parent: clipped to [9, 10]
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])


def test_tracer_nests_and_inherits_ids():
    tr = Tracer()
    with tr.span("outer", rid="req0", n=5):
        with tr.span("inner"):
            pass
        with tr.span("other", rid="rep1", rusage=True):
            pass
    outer, inner, other = tr.spans
    assert inner["parent"] == other["parent"] == outer["id"]
    assert inner["rid"] == "req0" and other["rid"] == "rep1"
    assert outer["start"] <= inner["start"] <= inner["end"] <= other["start"] <= outer["end"]
    assert {"minflt", "sys_s"} <= set(other["attrs"]) and outer["attrs"] == {"n": 5}
    selfs = self_times(tr.spans)
    assert selfs[0] == pytest.approx((outer["end"] - outer["start"])
                                     - (inner["end"] - inner["start"])
                                     - (other["end"] - other["start"]))


def test_patched_wraps_module_functions_and_restores_them():
    import types

    mod = types.SimpleNamespace(inner=lambda x: x + 1)
    mod.outer = lambda x: 2 * mod.inner(x)  # looks ``inner`` up at call time
    orig = (mod.inner, mod.outer)
    tr = Tracer()
    targets = [(mod, "outer", "m.outer", lambda a, r: {"x": a[0], "r": r}, False),
               (mod, "inner", "m.inner", lambda a, r: {"r": r}, True)]
    with tr.patched(targets):
        assert mod.outer(3) == 8
    assert (mod.inner, mod.outer) == orig and mod.outer(3) == 8
    outer, inner = tr.spans
    assert (outer["name"], outer["attrs"]) == ("m.outer", {"x": 3, "r": 8})
    assert inner["name"] == "m.inner" and inner["parent"] == outer["id"]
    assert inner["attrs"]["r"] == 4 and "minflt" in inner["attrs"]


@pytest.fixture(scope="module")
def tables():
    return mc_null_tables(50, drive.FIVE_S, 100, 11)


@pytest.mark.parametrize("j", range(len(drive.FIVE_S)))
def test_table_check_rejects_entry_perturbed_by_1e6(tables, j):
    table = tables[j]
    assert oracle.check_table(table, drive.null_draw, "t") == []
    rn = oracle.centering(table.n)
    want = oracle.textbook_sup(drive.null_draw(table.seed, 0, table.n), table.s) - rn
    stats = table.sorted_stats.copy()
    i = int(np.argmin(np.abs(stats - want)))
    stats[i] += 1e-6 * abs(stats[i] + rn)
    bad = CalibrationTable(n=table.n, s=table.s, reps=table.reps, seed=table.seed,
                           rng_id=table.rng_id, sorted_stats=np.sort(stats))
    assert oracle.check_table(bad, drive.null_draw, "t") != []


@pytest.fixture(scope="module")
def request_payload(tmp_path_factory):
    work = tmp_path_factory.mktemp("request")
    data = np.random.default_rng(3).standard_normal(300)
    data[:3] += 3.0
    path = work / "data.txt"
    path.write_text("".join(f"{float(x)!r}\n" for x in data), encoding="utf-8")
    code, text = layers.run_cli(["test", str(path), "--model", "normal", "--s", "2",
                                "--reps", "200", "--seed", "5", "--cache-dir", str(work),
                                "--json"])
    assert code == 0
    from phidetect import Normal, cache_load, to_pvalues
    values = to_pvalues(data, Normal()).values
    return json.loads(text), values, cache_load(work, 300, 2.0, 200, 5).sorted_stats


def test_payload_check_accepts_real_output(request_payload):
    payload, values, stats = request_payload
    assert oracle.check_test_payload(payload, values, stats, "r") == []


@pytest.mark.parametrize("field", ["verdict", "reject"])
def test_payload_check_rejects_flipped_verdict(request_payload, field):
    payload, values, stats = request_payload
    flipped = dict(payload)
    if field == "verdict":
        flipped["verdict"] = "retain" if payload["verdict"] == "reject" else "reject"
    else:
        flipped["reject"] = not payload["reject"]
    assert oracle.check_test_payload(flipped, values, stats, "r") != []


def test_payload_check_rejects_perturbed_statistic(request_payload):
    payload, values, stats = request_payload
    bad = dict(payload, statistic=payload["statistic"] * (1 + 1e-6))
    assert oracle.check_test_payload(bad, values, stats, "r") != []


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(name, unit) for name, unit, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(drive.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
