"""End-to-end acceptance checks for the statistical guarantees.

One test per criterion, each ending in a single ``[criterion N] PASS/FAIL``
line (re-printed in the terminal summary by conftest).  Criteria 3-8 write
canonical JSON result files through module-scoped drivers; criterion 9 re-runs
every driver with a different worker count into a fresh directory and
byte-compares all outputs, calibration-table cache included.

All seeds below were fixed before the expected numbers were looked at; the
asserted bands come from the statistical guarantees themselves, not from the
observed values.
"""

import json
import math
import time

import numpy as np
import pytest

from phidetect import (
    MixtureSpec,
    PowerGridConfig,
    SortedPValueSample,
    beta_sharp_expfam,
    beta_sharp_from_alpha,
    boundary_comparison,
    ensure_tables,
    mixture_family,
    power_sweep,
    replicate_rng,
    rho_normal_sparse,
    scaled_statistics,
    sup_statistic_values,
    uniform_open,
    z_sup,
)
from phidetect.experiments import atomic_write_text
from phidetect.nulldist import critical_from_sorted

SEED_TABLES = 745031
SEED_ORACLE = 187001
SEED_IDENTITY = 187002
SEED_STABILITY = 930211
SEED_SIZE = 412807
SEED_SPARSE = 550190
SEED_DENSE = 662441
SEED_BOUNDARY = 781534

TABLE_REPS = 10_000

S_FULL = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0)
S_STAB = (-1.0, 0.0, 0.5, 1.0, 3.0)
S_SIZE = (0.5, 2.0)
S_GAP = (-1.0, 0.0, 0.5, 1.0, 2.0)

N_CURVE = (1_000, 10_000, 100_000)


def _record(log, num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}"
    log.append(line)
    print(line)
    assert ok, line


# --------------------------------------------------------------------------
# criterion 1: endpoint sup vs dense-grid brute force

_POINTS = 100_000
_RAMP = np.linspace(0.0, 1.0, _POINTS)
_BUF = {k: np.empty(_POINTS) for k in "v w iv iw lv lw sv sw v2 w2 t1 t2".split()}


def _oracle_sup(values):
    """Dense-grid maximization of K_s(F_n(x), x), one interval at a time.

    Evaluates the raw composition v*phi_s(u/v) + (1-v)*phi_s((1-u)/(1-v)) in
    the power form (1 - u^s v^(1-s) - (1-u)^s (1-v)^(1-s)) / (s(1-s)) at every
    grid point, with no use of the endpoint/convexity argument under test.
    u = i/n is constant on each constancy interval of F_n, so u^s is a scalar
    per interval and v^(1-s) on this s-grid reduces to products, reciprocals
    and square roots; the division by s(1-s) is monotone, so it is applied
    after the grid reduction (sign of s(1-s) picks max vs min of u^s v^(1-s)
    + (1-u)^s (1-v)^(1-s)).
    """
    n = values.size
    b = _BUF
    v, w, iv, iw, lv, lw, sv, sw, v2, w2, t1, t2 = (
        b["v"], b["w"], b["iv"], b["iw"], b["lv"], b["lw"],
        b["sv"], b["sw"], b["v2"], b["w2"], b["t1"], b["t2"],
    )
    best = {s: -math.inf for s in S_FULL}
    for i in range(1, n):
        u = i / n
        g = 1.0 - u
        x0, x1 = values[i - 1], values[i]
        np.multiply(_RAMP, x1 - x0, out=v)
        v += x0
        np.subtract(1.0, v, out=w)
        np.divide(1.0, v, out=iv)
        np.divide(1.0, w, out=iw)
        np.log(v, out=lv)
        np.log(w, out=lw)
        np.sqrt(v, out=sv)
        np.sqrt(w, out=sw)
        np.multiply(v, v, out=v2)
        np.multiply(w, w, out=w2)

        # s = 2: a+b = u^2/v + g^2/w, s(1-s) = -2
        np.multiply(iv, u * u, out=t1)
        np.multiply(iw, g * g, out=t2)
        t1 += t2
        best[2.0] = max(best[2.0], (t1.max() - 1.0) / 2.0)

        # s = 3: a+b = u^3/v^2 + g^3/w^2, s(1-s) = -6
        np.multiply(iv, iv, out=t1)
        t1 *= u**3
        np.multiply(iw, iw, out=t2)
        t2 *= g**3
        t1 += t2
        best[3.0] = max(best[3.0], (t1.max() - 1.0) / 6.0)

        # s = -1: a+b = v^2/u + w^2/g, s(1-s) = -2
        np.multiply(v2, 1.0 / u, out=t1)
        np.multiply(w2, 1.0 / g, out=t2)
        t1 += t2
        best[-1.0] = max(best[-1.0], (t1.max() - 1.0) / 2.0)

        # s = -2: a+b = v^3/u^2 + w^3/g^2, s(1-s) = -6
        np.multiply(v2, v, out=t1)
        t1 *= 1.0 / (u * u)
        np.multiply(w2, w, out=t2)
        t2 *= 1.0 / (g * g)
        t1 += t2
        best[-2.0] = max(best[-2.0], (t1.max() - 1.0) / 6.0)

        # s = 1/2: a+b = sqrt(u v) + sqrt(g w), s(1-s) = 1/4 -> minimize
        np.multiply(sv, math.sqrt(u), out=t1)
        np.multiply(sw, math.sqrt(g), out=t2)
        t1 += t2
        best[0.5] = max(best[0.5], 4.0 * (1.0 - t1.min()))

        # s = 0 limit: K = v log(v/u) + w log(w/g)
        np.multiply(v, lv, out=t1)
        np.multiply(w, lw, out=t2)
        t1 += t2
        np.multiply(v, math.log(u), out=t2)
        t1 -= t2
        np.multiply(w, math.log(g), out=t2)
        t1 -= t2
        best[0.0] = max(best[0.0], t1.max())

        # s = 1 limit: K = u log(u/v) + g log(g/w)
        np.multiply(lv, u, out=t1)
        np.multiply(lw, g, out=t2)
        t1 += t2
        c = u * math.log(u) + g * math.log(g)
        best[1.0] = max(best[1.0], c - t1.min())

    return np.array([max(best[s], 0.0) for s in S_FULL])


def test_criterion_1_sup_matches_dense_grid(criterion_log):
    t0 = time.perf_counter()
    rng = replicate_rng(SEED_ORACLE, 0)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 51))
        sample = SortedPValueSample.from_values(uniform_open(rng, n))
        got = sup_statistic_values(sample, S_FULL)
        ref = _oracle_sup(sample.values)
        rel = np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300)
        worst = max(worst, float(rel.max()))
    dt = time.perf_counter() - t0
    _record(criterion_log, 1, worst <= 1e-6 and dt < 60.0,
            f"500 samples, 7 s-values: max rel err {worst:.2e} (tol 1e-6), {dt:.1f}s (cap 60s)")


# --------------------------------------------------------------------------
# criterion 2: higher-criticism identity n*S_n(2) = Z^2/2 on the matched range


def test_criterion_2_higher_criticism_identity(criterion_log):
    t0 = time.perf_counter()
    rng = replicate_rng(SEED_IDENTITY, 0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 501))
        sample = SortedPValueSample.from_values(uniform_open(rng, n))
        lhs = n * float(sup_statistic_values(sample, [2.0])[0])
        z = z_sup(sample, float(sample.values[0]), float(sample.values[-1]))
        worst = max(worst, abs(lhs - 0.5 * z * z) / max(abs(lhs), 1e-300))
    dt = time.perf_counter() - t0
    _record(criterion_log, 2, worst <= 1e-10 and dt < 60.0,
            f"100 samples, n <= 500: max rel err {worst:.2e} (tol 1e-10), {dt:.2f}s")


# --------------------------------------------------------------------------
# criteria 3-8 run through drivers that write canonical result files, so the
# determinism criterion can re-run them under a different worker count


def _write_result(path, payload):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _drive_stability(results_dir, cache_dir, workers):
    reps = 200
    cols = list(S_STAB) + [2.0]
    diffs = np.empty((reps, len(N_CURVE), len(S_STAB)))
    for j in range(reps):
        # one uniform stream per replicate, truncated to its first n draws:
        # the three sample sizes share draws, so their medians move together
        u = uniform_open(replicate_rng(SEED_STABILITY, j), max(N_CURVE))
        for a, n in enumerate(N_CURVE):
            sample = SortedPValueSample.from_values(u[:n])
            vals = n * sup_statistic_values(sample, cols)
            diffs[j, a] = np.abs(vals[:-1] - vals[-1])
    med = np.median(diffs, axis=0)
    payload = {
        "coupling": "per-replicate stream, first n draws",
        "criterion": 3,
        "medians": {repr(s): [float(med[a, k]) for a in range(len(N_CURVE))]
                    for k, s in enumerate(S_STAB)},
        "n_values": list(N_CURVE),
        "reps": reps,
        "s_reference": 2.0,
        "seed": SEED_STABILITY,
    }
    _write_result(results_dir / "criterion3.json", payload)
    return payload


def _drive_size(results_dir, cache_dir, workers):
    n, reps, alpha = 2_000, 2_000, 0.05
    tables = ensure_tables(cache_dir, n, S_SIZE, TABLE_REPS, SEED_TABLES, workers=workers)
    crit = {s: critical_from_sorted(tables[s].sorted_stats, alpha) for s in S_SIZE}
    hits = dict.fromkeys(S_SIZE, 0)
    for j in range(reps):
        sample = SortedPValueSample.from_values(uniform_open(replicate_rng(SEED_SIZE, j), n))
        stats = scaled_statistics(sample, S_SIZE)
        for k, s in enumerate(S_SIZE):
            hits[s] += bool(stats[k] > crit[s])
    payload = {
        "alpha": alpha,
        "criterion": 4,
        "criticals": {repr(s): float(crit[s]) for s in S_SIZE},
        "n": n,
        "rates": {repr(s): hits[s] / reps for s in S_SIZE},
        "reps": reps,
        "seed": SEED_SIZE,
        "table_reps": TABLE_REPS,
        "table_seed": SEED_TABLES,
    }
    _write_result(results_dir / "criterion4.json", payload)
    return payload


def _drive_formulas(results_dir, cache_dir, workers):
    r_grid = [round(0.05 * k, 2) for k in range(1, 20)]
    numeric, closed = [], []
    for r in r_grid:
        numeric.append(beta_sharp_from_alpha(
            lambda t, r=r: 2.0 * math.sqrt(r) * t - r, 0.0, 4.0))
        closed.append(0.5 + r if r <= 0.25 else 2.0 * math.sqrt(r) - r)
    payload = {
        "closed": closed,
        "criterion": 5,
        "expfam_spots": {
            "r=0.5,p=1": beta_sharp_expfam(0.5, 1.0),
            "r=2,p=1": beta_sharp_expfam(2.0, 1.0),
        },
        "numeric": numeric,
        "r_grid": r_grid,
        "rho_at_three_quarters": [rho_normal_sparse(0.75),
                                  (1.0 - math.sqrt(1.0 - 0.75)) ** 2],
    }
    _write_result(results_dir / "criterion5.json", payload)
    return payload


def _power_payload(criterion, cfg, results):
    return {
        "alpha": cfg.alpha,
        "beta": cfg.betas[0],
        "cells": [
            {
                "ci": None if c.error else [c.wilson_ci[0], c.wilson_ci[1]],
                "error": c.error,
                "n": c.n,
                "r": c.r,
                "rate": None if c.error else c.rejection_rate,
                "s": c.s,
                "seed": c.seed,
            }
            for c in results
        ],
        "criterion": criterion,
        "family": cfg.family,
        "reps": cfg.reps,
        "seed": cfg.seed,
        "table_reps": cfg.table_reps,
        "table_seed": cfg.table_seed,
    }


def _drive_sparse_power(results_dir, cache_dir, workers):
    cfg = PowerGridConfig(
        family="normal", betas=(0.6,), rs=(0.02, 0.5), s_values=(2.0,),
        n_values=N_CURVE, alpha=0.05, reps=200, seed=SEED_SPARSE,
        cache_dir=cache_dir, table_reps=TABLE_REPS, table_seed=SEED_TABLES,
        workers=workers,
    )
    payload = _power_payload(6, cfg, power_sweep(cfg))
    _write_result(results_dir / "criterion6.json", payload)
    return payload


def _drive_dense_power(results_dir, cache_dir, workers):
    cfg = PowerGridConfig(
        family="scale-exponential", regime="dense", betas=(0.1,),
        rs=(0.2, 0.6), s_values=(2.0,), n_values=N_CURVE, alpha=0.05,
        reps=200, seed=SEED_DENSE, cache_dir=cache_dir,
        table_reps=TABLE_REPS, table_seed=SEED_TABLES, workers=workers,
    )
    payload = _power_payload(7, cfg, power_sweep(cfg))
    _write_result(results_dir / "criterion7.json", payload)
    return payload


def _drive_boundary_gap(results_dir, cache_dir, workers):
    spec = MixtureSpec(mixture_family("scale-exponential", regime="dense"),
                       beta=0.1, r=0.4, n=100_000)
    cmp = boundary_comparison(
        spec, S_GAP, alpha=0.05, reps=1_000, seed=SEED_BOUNDARY,
        cache_dir=cache_dir, table_reps=TABLE_REPS, table_seed=SEED_TABLES,
        workers=workers,
    )
    payload = {
        "alpha": cmp.alpha,
        "beta": cmp.beta,
        "criterion": 8,
        "error_sums": {repr(s): float(e) for s, e in zip(cmp.s_values, cmp.error_sums)},
        "family": cmp.family,
        "lr_error_sum": float(cmp.lr_error_sum),
        "n": cmp.n,
        "r": cmp.r,
        "reps": cmp.reps,
        "seed": cmp.seed,
        "table_reps": TABLE_REPS,
        "table_seed": SEED_TABLES,
        "var_T": 1.0,
    }
    _write_result(results_dir / "criterion8.json", payload)
    return payload


_DRIVERS = {
    3: _drive_stability,
    4: _drive_size,
    5: _drive_formulas,
    6: _drive_sparse_power,
    7: _drive_dense_power,
    8: _drive_boundary_gap,
}


class _Runner:
    """Memoizing driver runner bound to one results/cache directory pair."""

    def __init__(self, results_dir, cache_dir, workers, log):
        self.results_dir = results_dir
        self.cache_dir = cache_dir
        self.workers = workers
        self.payloads = {}
        self.elapsed = {}
        results_dir.mkdir(parents=True, exist_ok=True)
        cache_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        self._warm_tables()
        line = (f"[warm-up] workers={workers}: null tables for n=2e3, 1e3, 1e4, 1e5 "
                f"({TABLE_REPS} reps) built in {time.perf_counter() - t0:.0f}s")
        log.append(line)
        print(line)

    def _warm_tables(self):
        # one shared-draw build per n covering every s the drivers need; each
        # (n, s) table is byte-identical to an individually built one, this
        # just avoids re-drawing the n=1e5 null samples once per s
        ensure_tables(self.cache_dir, 2_000, S_SIZE, TABLE_REPS, SEED_TABLES,
                      workers=self.workers)
        for n in (1_000, 10_000):
            ensure_tables(self.cache_dir, n, (2.0,), TABLE_REPS, SEED_TABLES,
                          workers=self.workers)
        ensure_tables(self.cache_dir, 100_000, S_GAP, TABLE_REPS, SEED_TABLES,
                      workers=self.workers)

    def get(self, num):
        if num not in self.payloads:
            t0 = time.perf_counter()
            self.payloads[num] = _DRIVERS[num](self.results_dir, self.cache_dir,
                                               self.workers)
            self.elapsed[num] = time.perf_counter() - t0
        return self.payloads[num]


@pytest.fixture(scope="module")
def acceptance_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def run_a(acceptance_dir, criterion_log):
    return _Runner(acceptance_dir / "run-a", acceptance_dir / "cache-a", workers=1,
                   log=criterion_log)


def _get_or_fail(run, num, log):
    try:
        return run.get(num)
    except Exception as exc:
        line = f"[criterion {num}] FAIL - driver raised {type(exc).__name__}: {exc}"
        log.append(line)
        print(line)
        raise


def test_criterion_3_s_stability(run_a, criterion_log):
    payload = _get_or_fail(run_a, 3, criterion_log)
    med = payload["medians"]
    decreasing = {s: med[repr(s)][0] > med[repr(s)][1] > med[repr(s)][2]
                  for s in S_STAB}
    dt = run_a.elapsed[3]
    _record(criterion_log, 3, all(decreasing.values()) and dt < 600.0,
            f"median |n*S(s) - n*S(2)| strictly decreasing over n=1e3..1e5 "
            f"for s in {list(S_STAB)}: {decreasing}, {dt:.0f}s (cap 600s)")


def test_criterion_4_size_control(run_a, criterion_log):
    payload = _get_or_fail(run_a, 4, criterion_log)
    rates = {s: payload["rates"][repr(s)] for s in S_SIZE}
    ok = all(0.037 <= r <= 0.063 for r in rates.values())
    dt = run_a.elapsed[4]
    _record(criterion_log, 4, ok and dt < 300.0,
            f"alpha=0.05, n=2000, 2000 fresh null reps: rates {rates} "
            f"in [0.037, 0.063], {dt:.0f}s (cap 300s)")


def test_criterion_5_boundary_formulas(run_a, criterion_log):
    payload = _get_or_fail(run_a, 5, criterion_log)
    err = max(abs(a - b) for a, b in zip(payload["numeric"], payload["closed"]))
    rho_left, rho_right = payload["rho_at_three_quarters"]
    branches_exact = rho_left == rho_right == 0.25
    spots = payload["expfam_spots"]
    spots_exact = spots["r=0.5,p=1"] == 0.75 and spots["r=2,p=1"] == 1.0
    dt = run_a.elapsed[5]
    _record(criterion_log, 5, err <= 1e-3 and branches_exact and spots_exact and dt < 1.0,
            f"19-point grid max |numeric - closed| = {err:.2e} (tol 1e-3), "
            f"rho branches at 3/4 exact: {branches_exact}, spot values exact: "
            f"{spots_exact}, {dt * 1e3:.0f}ms (cap 1s)")


def _rates_by_cell(payload):
    errors = [c["error"] for c in payload["cells"] if c["error"]]
    rates = {(c["r"], c["n"]): c["rate"] for c in payload["cells"]}
    return rates, errors


def test_criterion_6_sparse_trichotomy(run_a, criterion_log):
    payload = _get_or_fail(run_a, 6, criterion_log)
    rates, errors = _rates_by_cell(payload)
    curve = [rates[(0.5, n)] for n in N_CURVE]
    ok = (not errors
          and rates[(0.5, 100_000)] >= 0.9
          and rates[(0.02, 100_000)] <= 0.3
          and all(a <= b for a, b in zip(curve, curve[1:]))
          and curve[-1] > curve[0])
    dt = run_a.elapsed[6]
    _record(criterion_log, 6, ok and dt < 1200.0,
            f"power(r=0.5, n=1e5)={rates[(0.5, 100_000)]} (>= 0.9), "
            f"power(r=0.02, n=1e5)={rates[(0.02, 100_000)]} (<= 0.3), "
            f"power(r=0.5) over n: {curve} nondecreasing with overall rise, "
            f"{dt:.0f}s (cap 1200s)")


def test_criterion_7_dense_detection(run_a, criterion_log):
    payload = _get_or_fail(run_a, 7, criterion_log)
    rates, errors = _rates_by_cell(payload)
    curve = [rates[(0.2, n)] for n in N_CURVE]
    gap = rates[(0.2, 100_000)] - rates[(0.6, 100_000)]
    ok = (not errors
          and gap >= 0.2
          and all(a <= b for a, b in zip(curve, curve[1:]))
          and curve[-1] > curve[0])
    dt = run_a.elapsed[7]
    _record(criterion_log, 7, ok and dt < 1200.0,
            f"power(r=0.2, n=1e5) - power(r=0.6, n=1e5) = {gap:.3f} (>= 0.2), "
            f"power(r=0.2) over n: {curve} nondecreasing with overall rise, "
            f"{dt:.0f}s (cap 1200s)")


def test_criterion_8_boundary_optimality_gap(run_a, criterion_log):
    payload = _get_or_fail(run_a, 8, criterion_log)
    lr = payload["lr_error_sum"]
    sums = {s: payload["error_sums"][repr(s)] for s in S_GAP}
    lr_ok = abs(lr - 0.617) <= 0.03
    gaps_ok = all(e >= lr - 0.02 for e in sums.values())
    dt = run_a.elapsed[8]
    _record(criterion_log, 8, lr_ok and gaps_ok and dt < 1800.0,
            f"zero-threshold LR error sum {lr:.4f} in 0.617 +/- 0.03: {lr_ok}; "
            f"S_n(s) error sums {sums} all >= LR - 0.02: {gaps_ok}, "
            f"{dt:.0f}s (cap 1800s)")


def test_transfer_to_location_gumbel_sparse(run_a):
    """The paper's transfer claim on a non-normal exponential family: location-
    Gumbel sparse (tail exponent p = 1, beta^#(r) = (min(r, 1) + 1)/2) at n = 1e5,
    on the warm-up's five-s tables (no table is built).  Well above the boundary
    (beta = 0.6, r = 0.8; beta^# = 0.9) every s detects; well below it (beta = 0.9,
    r = 0.5; beta^# = 0.75) none does.  The bounds are criterion 6's, 0.9 and 0.3,
    applied to the 99% Wilson interval of each cell's rate."""
    cells = {}
    for beta, r in ((0.6, 0.8), (0.9, 0.5)):
        cfg = PowerGridConfig(
            family="location-gumbel", regime="sparse", betas=(beta,), rs=(r,),
            s_values=S_GAP, n_values=(100_000,), alpha=0.05, reps=200, seed=SEED_SPARSE,
            cache_dir=run_a.cache_dir, table_reps=TABLE_REPS, table_seed=SEED_TABLES,
        )
        cells[beta] = power_sweep(cfg)
    assert all(c.error is None for cs in cells.values() for c in cs)
    above = {c.s: c.wilson_ci for c in cells[0.6]}
    below = {c.s: c.wilson_ci for c in cells[0.9]}
    assert all(lo >= 0.9 for lo, _ in above.values()), above
    assert all(hi <= 0.3 for _, hi in below.values()), below


def test_criterion_9_determinism_across_workers(run_a, acceptance_dir, criterion_log):
    for num in _DRIVERS:
        _get_or_fail(run_a, num, criterion_log)
    t0 = time.perf_counter()
    run_b = _Runner(acceptance_dir / "run-b", acceptance_dir / "cache-b", workers=2,
                    log=criterion_log)
    for num in _DRIVERS:
        _get_or_fail(run_b, num, criterion_log)

    mismatched = []
    for num in _DRIVERS:
        name = f"criterion{num}.json"
        if ((run_a.results_dir / name).read_bytes()
                != (run_b.results_dir / name).read_bytes()):
            mismatched.append(name)

    tables_a = sorted(p.name for p in run_a.cache_dir.glob("*.json"))
    tables_b = sorted(p.name for p in run_b.cache_dir.glob("*.json"))
    same_set = tables_a == tables_b
    for name in tables_a if same_set else []:
        if ((run_a.cache_dir / name).read_bytes()
                != (run_b.cache_dir / name).read_bytes()):
            mismatched.append(name)
    dt = time.perf_counter() - t0
    _record(criterion_log, 9, same_set and not mismatched,
            f"{len(_DRIVERS)} result files and {len(tables_a)} calibration "
            f"tables byte-identical between workers=1 and workers=2 "
            f"(same table set: {same_set}, mismatches: {mismatched}), "
            f"rerun {dt:.0f}s")
