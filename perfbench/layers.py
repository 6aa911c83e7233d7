"""Per-layer metrics of the traced run: the wrapped functions and the probe.

Layers are the package modules (``_rand``, ``nulldist``, ``divergence``,
``models``, ``experiments``, ``cli``).  ``traced(tr)`` wraps the functions in
``WRAPPED`` where their callers look them up, so the workload's own job
records one span per call on the program's real call path: table loads,
builds and stores, power cells, the boundary comparison and, inside them,
sampling, p-values, the kernel and the likelihood ratio.

The table builder's per-replicate steps (draw, sort, kernel) are not wrapped,
so ``nulldist.build_s`` stays the program's own figure.  Those steps, and
every other call a workload does not make at some size, come from the
**probe**: a small re-drive of the same public functions after the job, one
span per call, each marked ``probe: true``.  The probe also sends
``phidetect test`` requests through ``phidetect.cli.main``, which no workload
makes.  Timings use the workload's spans where it has any and the probe's
otherwise; counts use only the workload's spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

from phidetect import (
    MixtureSpec,
    Normal,
    SortedPValueSample,
    cli,
    ensure_tables,
    experiments,
    log_likelihood_ratio,
    mixture_family,
    nulldist,
    replicate_rng,
    sample_mixture,
    stable_seed,
    sup_statistic,
    sup_statistic_values,
    to_pvalues,
    uniform_open,
)
from phidetect.experiments import PowerGridConfig

import oracle
from drive import ALPHA, FIVE_S, null_draw
from spans import median, self_times, tail

#: (module, function, span name, attributes from (positional args, result),
#: rusage deltas) for every function ``traced`` wraps.
WRAPPED = (
    (nulldist, "cache_load", "nulldist.load",
     lambda a, r: {"n": a[1], "hit": r is not None}, False),
    (nulldist, "cache_store", "nulldist.store",
     lambda a, r: {"n": a[0].n, "bytes": r.stat().st_size}, False),
    (nulldist, "mc_null_tables", "nulldist.build",
     lambda a, r: {"n": r[0].n, "k": len(r), "reps": r[0].reps}, False),
    (experiments, "_run_cell", "experiments.cell",
     lambda a, r: {"n": r.n, **({"error": r.error} if r.error else {})}, False),
    (experiments, "boundary_comparison", "experiments.boundary", lambda a, r: {"n": r.n}, False),
    (experiments, "sample_mixture", "models.sample", lambda a, r: {"n": r[0].size}, False),
    (experiments, "to_pvalues", "models.pvalues", lambda a, r: {"n": r.n}, False),
    (experiments, "sup_statistic", "divergence.sup", lambda a, r: {"n": a[0].n, "k": 1}, True),
    (experiments, "sup_statistic_values", "divergence.sup_values",
     lambda a, r: {"n": a[0].n, "k": len(r)}, True),
    (experiments, "log_likelihood_ratio", "models.llr", lambda a, r: {"n": len(a[0])}, False),
    (cli, "read_data_file", "cli.read", lambda a, r: {"n": r.size}, False),
    (cli, "to_pvalues", "models.pvalues", lambda a, r: {"n": r.n}, False),
    (cli, "run_divergence_test", "experiments.test", lambda a, r: {"n": a[0].n}, False),
)


def traced(tr):
    """Context manager: every ``WRAPPED`` function records spans into ``tr``."""
    return tr.patched(WRAPPED)


#: metric -> (span name, n or None for any, number of s or None for any);
#: the value is the median span duration, in ms or s as the name says.
TIMED = {
    "rand.draw_ms.n1e3": ("_rand.draw", 1000, None),
    "rand.draw_ms.n1e5": ("_rand.draw", 100000, None),
    "nulldist.sort_ms.n1e3": ("nulldist.sort", 1000, None),
    "nulldist.sort_ms.n1e5": ("nulldist.sort", 100000, None),
    "divergence.sup_values_ms.n1e3": ("divergence.sup_values", 1000, 5),
    "divergence.sup_values_ms.n1e4": ("divergence.sup_values", 10000, 5),
    "divergence.sup_values_ms.n1e5": ("divergence.sup_values", 100000, 5),
    "divergence.sup_ms.n1e3": ("divergence.sup", 1000, None),
    "divergence.sup_ms.n1e5": ("divergence.sup", 100000, None),
    "divergence.sample_check_ms.n1e5": ("divergence.sample_check", 100000, None),
    "nulldist.build_s.n1e3": ("nulldist.build", 1000, None),
    "nulldist.build_s.n1e4": ("nulldist.build", 10000, None),
    "nulldist.build_s.n1e5": ("nulldist.build", 100000, None),
    "nulldist.store_ms": ("nulldist.store", None, None),
    "nulldist.load_ms": ("nulldist.load", None, None),
    "models.sample_ms.n1e5": ("models.sample", 100000, None),
    "models.pvalues_ms.n1e5": ("models.pvalues", 100000, None),
    "models.pvalues_ms.n5e3": ("models.pvalues", 5000, None),
    "models.llr_ms.n1e4": ("models.llr", 10000, None),
    "experiments.cell_s": ("experiments.cell", None, None),
    "experiments.boundary_s": ("experiments.boundary", None, None),
    "experiments.test_ms": ("experiments.test", None, None),
    "cli.read_ms": ("cli.read", None, None),
    "cli.request_ms": ("cli.request", None, None),
}

#: Every per-layer metric: (name, unit, better).
PER_LAYER = (
    [(name, "ms" if "_ms" in name else "s", "lower") for name in TIMED]
    + [
        ("rand.draws", "count", "higher"),
        ("divergence.candidate_evals", "count", "higher"),
        ("divergence.ns_per_candidate", "ns", "lower"),
        ("divergence.minflt_per_call.n1e5", "count", "lower"),
        ("divergence.sys_ms_per_call.n1e5", "ms", "lower"),
        ("divergence.alloc_peak_mb.n1e5", "MB", "lower"),
        ("nulldist.store_bytes", "bytes", "lower"),
        ("nulldist.cache_hits", "count", "higher"),
        ("nulldist.cache_misses", "count", "lower"),
        ("nulldist.cache_hit_ratio", "ratio", "higher"),
        ("experiments.cells", "count", "higher"),
        ("experiments.failed_cells", "count", "lower"),
        ("experiments.self_ms", "ms", "lower"),
        ("cli.self_ms", "ms", "lower"),
        ("cli.request_tail_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)

#: Calls the probe makes per missing metric.
PROBE_CALLS = 5
#: `phidetect test` requests the probe sends; 100 puts 10 beyond p90.
PROBE_REQUESTS = 100
#: Fresh interpreters started per figure in ``cli.import_ms``.
IMPORT_RUNS = 3


def _matches(rec, span, n, k) -> bool:
    attrs = rec["attrs"]
    return (rec["name"] == span and (n is None or attrs.get("n") == n)
            and (k is None or attrs.get("k") == k))


def measured(spans) -> set[str]:
    """TIMED metrics that have at least one span."""
    return {m for m, key in TIMED.items() if any(_matches(r, *key) for r in spans)}


# --------------------------------------------------------------------------
# probe


def _boundary_spec(n):
    return MixtureSpec(mixture_family("scale-exponential", regime="dense"), 0.1, 0.4, n)


def run_cli(argv) -> tuple[int, str]:
    """``phidetect.cli.main(argv)`` in process: exit code, and stdout or stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() if code == 0 else err.getvalue()


def _probe_steps(work, seed):
    """(metrics provided, call) pairs; a call runs only if one of its metrics is missing.

    Steps that open their own spans call the package's top-level names, which
    ``traced`` leaves alone; cell and boundary steps go through the wrapped
    module functions.
    """

    def null(n):
        def call(tr):
            for rep in range(PROBE_CALLS):
                rid = f"probe/null{n}/rep{rep}"
                with tr.span("_rand.draw", rid=rid, n=n):
                    u = uniform_open(replicate_rng(seed, rep), n)
                with tr.span("nulldist.sort", rid=rid, n=n):
                    u = np.sort(u)
                with tr.span("divergence.sample_check", rid=rid, n=n):
                    sample = SortedPValueSample(u)
                with tr.span("divergence.sup_values", rid=rid, n=n, k=len(FIVE_S), rusage=True):
                    sup_statistic_values(sample, FIVE_S)
        return call

    def power(n):
        spec = MixtureSpec(mixture_family("normal"), 0.6, 0.5, n)

        def call(tr):
            for j in range(PROBE_CALLS):
                rid = f"probe/power{n}/rep{j}"
                with tr.span("models.sample", rid=rid, n=n):
                    data, _ = sample_mixture(spec, replicate_rng(seed, j))
                with tr.span("models.pvalues", rid=rid, n=n):
                    sample = to_pvalues(data, spec.noise)
                with tr.span("divergence.sup", rid=rid, n=n, k=1, rusage=True):
                    sup_statistic(sample, 2.0)
        return call

    def llr(tr):
        spec = _boundary_spec(10000)
        for j in range(PROBE_CALLS):
            data, _ = sample_mixture(spec, replicate_rng(seed, j))
            with tr.span("models.llr", rid=f"probe/llr/rep{j}", n=spec.n):
                log_likelihood_ratio(data, spec)

    def cell(tr):
        cfg = PowerGridConfig(family="normal", betas=(0.6,), rs=(0.5,), s_values=(2.0,),
                              n_values=(1000,), reps=10, seed=seed,
                              cache_dir=str(work / "tables"), table_reps=100, table_seed=seed)
        experiments.power_sweep(cfg)

    def boundary(tr):
        experiments.boundary_comparison(_boundary_spec(1000), FIVE_S, ALPHA, 10, seed,
                                        cache_dir=work / "tables", table_reps=100,
                                        table_seed=seed)

    return [
        ({"rand.draw_ms.n1e3", "nulldist.sort_ms.n1e3", "divergence.sup_values_ms.n1e3"},
         null(1000)),
        ({"divergence.sup_values_ms.n1e4"}, null(10000)),
        ({"rand.draw_ms.n1e5", "nulldist.sort_ms.n1e5", "divergence.sup_values_ms.n1e5",
          "divergence.sample_check_ms.n1e5"}, null(100000)),
        ({"divergence.sup_ms.n1e3"}, power(1000)),
        ({"divergence.sup_ms.n1e5", "models.sample_ms.n1e5", "models.pvalues_ms.n1e5"},
         power(100000)),
        ({"models.llr_ms.n1e4"}, llr),
        ({"experiments.cell_s"}, cell),
        ({"experiments.boundary_s"}, boundary),
    ]


def probe_requests(tr, work, seed: int, ck) -> None:
    """PROBE_REQUESTS ``phidetect test --json`` requests on one n=5000 file of
    README quick-start shape (standard normal, n/200 means shifted by 3).
    The first payload is checked against the oracle, the rest against it."""
    n, reps = 5000, 100
    data = np.random.default_rng(seed).standard_normal(n)
    data[: n // 200] += 3.0
    path = work / f"data-{n}.txt"
    path.write_text("".join(f"{float(x)!r}\n" for x in data), encoding="utf-8")
    table = ensure_tables(work / "tables", n, (2.0,), reps, seed)[2.0]
    argv = ["test", str(path), "--model", "normal", "--s", "2", "--reps", str(reps),
            "--seed", str(seed), "--cache-dir", str(work / "tables"), "--json"]
    first = None
    for i in range(PROBE_REQUESTS):
        with tr.span("cli.request", rid=f"probe/req{i}"):
            code, text = run_cli(argv)
        if code != 0:
            ck.check([f"probe request exited {code}: {text[-500:]}"])
        elif first is None:
            first = json.loads(text)
            values = to_pvalues(data, Normal()).values
            ck.check(oracle.check_test_payload(first, values, table.sorted_stats, "probe request"))
        elif json.loads(text) != first:
            ck.check([f"probe request {i} differs from the first: {text!r}"])


def probe(tr, work, seed: int, ck) -> None:
    """Trace the requests and the calls that no workload span covers yet."""
    seed = stable_seed(seed, "perfbench-probe")
    first = len(tr.spans)
    work.mkdir(parents=True, exist_ok=True)
    probe_requests(tr, work, seed, ck)
    for provides, call in _probe_steps(work, seed):
        if provides - measured(tr.spans):
            call(tr)
    for rec in tr.spans[first:]:
        rec["attrs"]["probe"] = True


def alloc_peak_mb(seed: int, runs: int = 3) -> float:
    """tracemalloc peak inside one five-s ``sup_statistic_values`` call at n=1e5."""
    sample = SortedPValueSample(null_draw(seed, 0, 100000))
    peaks = []
    for _ in range(runs):
        tracemalloc.start()
        try:
            sup_statistic_values(sample, FIVE_S)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return median(peaks) / 2**20


def import_ms(env, cwd) -> float:
    """Fresh ``import phidetect.cli`` minus a bare interpreter start (medians)."""

    def run(code):
        times = []
        for _ in range(IMPORT_RUNS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True,
                           timeout=120, stdout=subprocess.DEVNULL)
            times.append(time.perf_counter() - t0)
        return median(times)

    return (run("import phidetect.cli") - run("pass")) * 1e3


# --------------------------------------------------------------------------
# metrics


def _evals(rec) -> int:
    """Candidate evaluations of a kernel or build span: 2(n-1) per s and replicate."""
    attrs = rec["attrs"]
    return 2 * (attrs["n"] - 1) * attrs["k"] * attrs.get("reps", 1)


def layer_metrics(spans, extras: dict) -> tuple[dict[str, tuple[float, int]], dict[str, str]]:
    """Every PER_LAYER metric as (value, sample count), and notes on some of them."""
    own = [r for r in spans if not r["attrs"].get("probe")]

    def pick(pred):
        """Matching spans of the workload, or of the probe if the workload has none."""
        return [r for r in own if pred(r)] or [r for r in spans if pred(r)]

    def named(*names):
        return lambda r: r["name"] in names

    out = {}
    for name, key in TIMED.items():
        durs = [r["end"] - r["start"] for r in pick(lambda r, key=key: _matches(r, *key))]
        out[name] = (median(durs) * (1e3 if "_ms" in name else 1.0), len(durs))

    builds = [r for r in own if r["name"] == "nulldist.build"]
    own_kernel = [r for r in own if named("divergence.sup", "divergence.sup_values")(r)]
    kernel = pick(named("divergence.sup", "divergence.sup_values"))
    big = pick(lambda r: _matches(r, "divergence.sup_values", 100000, 5))
    loads = [r for r in own if r["name"] == "nulldist.load"]
    hits = sum(1 for r in loads if r["attrs"]["hit"])
    stores = [r for r in own if r["name"] == "nulldist.store"]
    cells = [r for r in own if r["name"] == "experiments.cell"]
    selfs = self_times(spans)
    exp_self = [selfs[r["id"]] for r in pick(named("experiments.cell", "experiments.boundary"))]
    requests = [r for r in spans if r["name"] == "cli.request"]
    p, request_tail, beyond = tail([r["end"] - r["start"] for r in requests])
    evals = sum(_evals(r) for r in builds + own_kernel)
    out.update({
        "rand.draws": (sum(r["attrs"]["reps"] for r in builds), len(builds)),
        "divergence.candidate_evals": (evals, len(builds) + len(own_kernel)),
        "divergence.ns_per_candidate": (
            sum(r["end"] - r["start"] for r in kernel) / sum(_evals(r) for r in kernel) * 1e9,
            len(kernel)),
        "divergence.minflt_per_call.n1e5": (
            statistics.fmean(r["attrs"]["minflt"] for r in big), len(big)),
        "divergence.sys_ms_per_call.n1e5": (
            statistics.fmean(r["attrs"]["sys_s"] for r in big) * 1e3, len(big)),
        "divergence.alloc_peak_mb.n1e5": (extras["alloc_peak_mb"], 3),
        "nulldist.store_bytes": (sum(r["attrs"]["bytes"] for r in stores), len(stores)),
        "nulldist.cache_hits": (hits, len(loads)),
        "nulldist.cache_misses": (len(loads) - hits, len(loads)),
        "nulldist.cache_hit_ratio": (hits / len(loads) if loads else 0.0, len(loads)),
        "experiments.cells": (len(cells), len(cells)),
        "experiments.failed_cells": (sum(1 for r in cells if "error" in r["attrs"]), len(cells)),
        "experiments.self_ms": (sum(exp_self) * 1e3, len(exp_self)),
        "cli.self_ms": (median([selfs[r["id"]] for r in requests]) * 1e3, len(requests)),
        "cli.request_tail_ms": (request_tail * 1e3, len(requests)),
        "cli.import_ms": (extras["import_ms"], IMPORT_RUNS),
        "trace.overhead_s": (extras["overhead_s"], 1),
    })
    notes = {
        "rand.draws": "computed: null replicates drawn by the table builds",
        "divergence.candidate_evals": "computed: sum of 2(n-1)*|s| per replicate",
        "cli.request_tail_ms": f"p{p:g}: {beyond} of {len(requests)} requests beyond it",
    }
    return out, notes
