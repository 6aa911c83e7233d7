import hashlib
import json
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from phidetect import (
    DomainError,
    MixtureSpec,
    PowerGridConfig,
    PowerResult,
    SortedPValueSample,
    boundary_comparison,
    centering_offset,
    log_likelihood_ratio,
    mc_null_tables,
    mixture_family,
    power_sweep,
    run_divergence_test,
    run_lr_test,
    sample_mixture,
    scaled_statistic,
    scaled_statistics,
    sup_statistic,
    to_pvalues,
    wilson_interval,
    write_power_csv,
    write_power_json,
)
import phidetect.experiments as pexp
import phidetect.nulldist as pnull
from phidetect._rand import replicate_rng, stable_seed, uniform_open
from phidetect.experiments import (
    POWER_CSV_FIELDS,
    WILSON_Z_99,
    atomic_write_text,
    cell_seed,
    power_csv,
)
from phidetect.models import _sample_pvalues
from phidetect.nulldist import pvalue_from_sorted


def test_wilson_z_is_the_99_percent_quantile():
    from scipy.special import ndtri

    assert WILSON_Z_99 == pytest.approx(-ndtri(0.005), rel=1e-15)


def test_wilson_reference_values():
    # frozen from a 40-digit evaluation of the score interval at z = WILSON_Z_99
    lo, hi = wilson_interval(10, 100)
    assert lo == pytest.approx(0.04602581170103503, rel=1e-14)
    assert hi == pytest.approx(0.20375073847162334, rel=1e-14)
    lo, hi = wilson_interval(117, 200)
    assert lo == pytest.approx(0.4939373764394158, rel=1e-14)
    assert hi == pytest.approx(0.6706040469081058, rel=1e-14)


def test_wilson_edge_cases_and_shape():
    assert wilson_interval(0, 50) == pytest.approx((0.0, 0.11715209171762796), rel=1e-14)
    assert wilson_interval(50, 50) == pytest.approx((0.882847908282372, 1.0), rel=1e-14)
    # mirror symmetry
    lo, hi = wilson_interval(13, 40)
    mlo, mhi = wilson_interval(27, 40)
    assert lo == pytest.approx(1.0 - mhi, rel=1e-12)
    assert hi == pytest.approx(1.0 - mlo, rel=1e-12)
    # more trials -> narrower
    w_small = np.diff(wilson_interval(10, 100))[0]
    w_big = np.diff(wilson_interval(100, 1000))[0]
    assert w_big < w_small
    for k, n in ((-1, 10), (11, 10), (0, 0)):
        with pytest.raises(DomainError):
            wilson_interval(k, n)


def test_wilson_degenerate_counts_pin_exact_endpoints():
    # the exact Wilson bound at p_hat in {0, 1} is the endpoint itself; a
    # one-ulp shortfall here once pushed an all-reject sweep cell outside its
    # own interval and crashed PowerResult validation
    for trials in (50, 200, 1000, 2000):
        lo0, hi0 = wilson_interval(0, trials)
        lo1, hi1 = wilson_interval(trials, trials)
        assert lo0 == 0.0 and hi1 == 1.0
        assert 0.0 < hi0 < 1.0 and 0.0 < lo1 < 1.0
        PowerResult("normal", 0.6, 0.5, 2.0, 1000, 0.05, trials, 1,
                    rejection_rate=1.0, wilson_ci=(lo1, hi1))
        PowerResult("normal", 0.6, 0.0, 2.0, 1000, 0.05, trials, 1,
                    rejection_rate=0.0, wilson_ci=(lo0, hi0))


def test_scaled_statistic_routes_agree():
    rng = replicate_rng(17, 0)
    sample = SortedPValueSample(np.sort(uniform_open(rng, 120)))
    s_values = [-1.0, 0.0, 2.0]
    vec = scaled_statistics(sample, s_values)
    for s, v in zip(s_values, vec):
        direct = 120 * sup_statistic(sample, s) - centering_offset(120)
        assert scaled_statistic(sample, s) == direct
        assert v == direct


def test_scaled_statistic_small_n_unshifted():
    sample = SortedPValueSample(np.array([0.2, 0.6, 0.9]))
    assert scaled_statistic(sample, 2.0) == 3 * sup_statistic(sample, 2.0)


def test_outcome_invariants():
    pexp.TestOutcome(1.2, 1.0, True, 0.01)
    with pytest.raises(DomainError):
        pexp.TestOutcome(1.2, 1.0, False, 0.01)
    with pytest.raises(DomainError):
        pexp.TestOutcome(0.5, 1.0, True, 0.2)
    with pytest.raises(DomainError):
        pexp.TestOutcome(1.2, 1.0, True, 1.5)


def test_run_divergence_test_rejects_mismatched_table():
    table = mc_null_tables(50, [2.0], 100, 5)[0]
    rng = replicate_rng(3, 0)
    sample = SortedPValueSample(np.sort(uniform_open(rng, 60)))
    with pytest.raises(DomainError):
        run_divergence_test(sample, 2.0, table, 0.05)  # wrong n
    sample = SortedPValueSample(np.sort(uniform_open(rng, 50)))
    with pytest.raises(DomainError):
        run_divergence_test(sample, 1.0, table, 0.05)  # wrong s


def test_run_divergence_test_consistency():
    table = mc_null_tables(50, [2.0], 300, 41)[0]
    for j in range(40):
        sample = SortedPValueSample(np.sort(uniform_open(replicate_rng(42, j), 50)))
        out = run_divergence_test(sample, 2.0, table, 0.05)
        assert out.statistic == scaled_statistic(sample, 2.0)
        assert out.reject == (out.statistic > out.critical)
        assert out.mc_pvalue == pvalue_from_sorted(table.sorted_stats, out.statistic)
        assert out.reject == (out.mc_pvalue <= 0.05)


def test_null_rejection_rate_near_level():
    table = mc_null_tables(100, [2.0], 400, 555)[0]
    rejects = 0
    for j in range(200):
        sample = SortedPValueSample(np.sort(uniform_open(replicate_rng(777, j), 100)))
        rejects += run_divergence_test(sample, 2.0, table, 0.1).reject
    assert 0.03 <= rejects / 200 <= 0.17  # nominal 0.1


# --------------------------------------------------------------------------
# likelihood ratio


def test_llr_degenerate_weights():
    fam = mixture_family("normal")
    spec0 = MixtureSpec(fam, 0.6, 0.4, 100, epsilon_override=0.0)
    assert log_likelihood_ratio(np.zeros(100), spec0) == 0.0
    spec1 = MixtureSpec(fam, 0.6, 0.4, 5, epsilon_override=1.0)
    x = np.array([0.1, -0.3, 0.8, 1.1, -2.0])
    want = float(np.sum(spec1.log_ratio()(x)))
    assert log_likelihood_ratio(x, spec1) == pytest.approx(want, rel=1e-14)


def test_llr_zero_when_signal_equals_noise():
    spec = MixtureSpec(mixture_family("normal"), 0.6, 0.0, 100)
    x = replicate_rng(8, 0).normal(size=100)
    assert log_likelihood_ratio(x, spec) == pytest.approx(0.0, abs=1e-10)


def test_llr_matches_naive_formula():
    spec = MixtureSpec(mixture_family("normal"), 0.6, 0.3, 500)
    x = replicate_rng(9, 0).normal(size=500)
    eps = spec.epsilon
    naive = float(np.sum(np.log((1.0 - eps) + eps * np.exp(spec.log_ratio()(x)))))
    assert log_likelihood_ratio(x, spec) == pytest.approx(naive, rel=1e-10)


def test_run_lr_test_zero_threshold():
    spec = MixtureSpec(mixture_family("normal"), 0.6, 0.3, 50)
    x = replicate_rng(10, 0).normal(size=50)
    out = run_lr_test(x, spec)
    assert out is (log_likelihood_ratio(x, spec) >= 0.0)
    # a sample stuffed with signal-sized values must push the llr positive
    big = np.full(50, spec.theta)
    assert run_lr_test(big, spec) is True


# --------------------------------------------------------------------------
# power sweeps


def test_config_validation():
    with pytest.raises(DomainError):
        PowerGridConfig("normal", (), (0.1,), (2.0,), (100,))
    with pytest.raises(DomainError):
        PowerGridConfig("normal", (0.6,), (0.1,), (2.0,), (100,), alpha=1.0)
    with pytest.raises(DomainError):
        PowerGridConfig("normal", (0.6,), (0.1,), (2.0,), (100,), reps=0)


def test_cells_in_declared_order():
    cfg = PowerGridConfig("normal", (0.6, 0.7), (0.1,), (0.0, 2.0), (50, 100))
    cells = cfg.cells()
    assert cells[0] == (0.6, 0.1, 0.0, 50)
    assert cells[1] == (0.6, 0.1, 0.0, 100)
    assert cells[2] == (0.6, 0.1, 2.0, 50)
    assert len(cells) == 8


def test_cell_seed_stable_and_distinct():
    a = cell_seed(0, "normal", 0.6, 0.1, 2.0, 100)
    assert a == cell_seed(0, "normal", 0.6, 0.1, 2.0, 100)
    others = {
        cell_seed(0, "normal", 0.6, 0.1, 2.0, 200),
        cell_seed(0, "normal", 0.6, 0.2, 2.0, 100),
        cell_seed(1, "normal", 0.6, 0.1, 2.0, 100),
    }
    assert a not in others and len(others) == 3


def test_resolved_table_seed(tmp_path):
    # the sweep's tables are keyed by table_seed, or by a fixed derivation of seed
    for table_seed, want in ((None, stable_seed(5, "calibration-tables")), (9, 9)):
        cache = tmp_path / str(table_seed)
        cfg = PowerGridConfig("normal", (0.6,), (0.1,), (2.0,), (100,), reps=2, seed=5,
                              cache_dir=str(cache), table_reps=100, table_seed=table_seed)
        assert all(r.error is None for r in power_sweep(cfg))
        want_name = pnull.cache_path("", 100, 2.0, 100, want).name
        assert [p.name for p in cache.iterdir()] == [want_name]


def _smoke_config(cache_dir, **kw):
    base = dict(
        family="normal", betas=(0.6,), rs=(0.0, 1.5), s_values=(2.0,),
        n_values=(64,), alpha=0.1, reps=60, seed=424242,
        cache_dir=str(cache_dir), table_reps=200,
    )
    base.update(kw)
    return PowerGridConfig(**base)


def test_power_sweep_orders_and_detects(tmp_path):
    res = power_sweep(_smoke_config(tmp_path))
    assert [(p.beta, p.r, p.s, p.n) for p in res] == [
        (0.6, 0.0, 2.0, 64), (0.6, 1.5, 2.0, 64)
    ]
    null_cell, alt_cell = res
    assert null_cell.error is None and alt_cell.error is None
    assert null_cell.rejection_rate < 0.3  # r=0: the mixture is the null
    assert alt_cell.rejection_rate > 0.6
    for p in res:
        assert p.wilson_ci[0] <= p.rejection_rate <= p.wilson_ci[1]
        assert p.seed == cell_seed(424242, "normal", p.beta, p.r, p.s, p.n)


def test_power_sweep_worker_count_invariance(tmp_path):
    serial = power_sweep(_smoke_config(tmp_path / "a"))
    parallel = power_sweep(_smoke_config(tmp_path / "b", workers=2))
    assert serial == parallel


def test_power_sweep_null_override(tmp_path):
    cfg = _smoke_config(tmp_path, rs=(1.5,), epsilon_override=0.0, reps=100,
                        table_reps=1000)
    (cell,) = power_sweep(cfg)
    assert 0.0 <= cell.rejection_rate <= 0.25  # forced null, nominal 0.1


def test_power_sweep_records_cell_failures(tmp_path):
    cfg = _smoke_config(tmp_path, family="scale-frechet", regime="sparse",
                        family_params=(("shape", -1.0),))
    res = power_sweep(cfg)
    assert all(r.error is not None for r in res)
    assert "DomainError" in res[0].error
    assert math.isnan(res[0].rejection_rate)


def test_power_cell_noise_never_leaves_the_pvalue_scale(tmp_path):
    # Frechet(0.01) has F_0^{-1}(u) = (-log u)^{-100}, which overflows to inf
    # for u near 1.  Noise p-values are drawn as open uniforms, so a pure-noise
    # cell runs; only signal points go through the raw-data scale.
    cfg = _smoke_config(tmp_path, family="scale-frechet", regime="sparse",
                        family_params=(("shape", 0.01),), rs=(0.5,), n_values=(1000,),
                        reps=20, table_reps=100, epsilon_override=0.0)
    (cell,) = power_sweep(cfg)
    assert cell.error is None and 0.0 <= cell.rejection_rate <= 1.0
    # with signal points the overflow is still an error of the cell
    for eps in (None, 1.0):
        with np.errstate(over="ignore"):
            (cell,) = power_sweep(replace(cfg, epsilon_override=eps))
        assert cell.error.startswith("DomainError: observation ")
        assert "= inf outside the open support" in cell.error


def test_power_sweep_builds_no_table_for_a_family_it_cannot_build(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    res = power_sweep(_smoke_config(cache, regime="dense"))
    assert list(cache.iterdir()) == []
    assert len(res) == 2 and all("regime 'dense'" in r.error for r in res)


def test_negative_zero_coordinates_are_the_zero_cells(tmp_path):
    # -0.0 is normalised to 0.0, so the cell seeds hash '0.0' and the draws match
    zero = power_csv(power_sweep(_smoke_config(tmp_path, rs=(0.0,), s_values=(0.0,))))
    negative = power_csv(power_sweep(_smoke_config(tmp_path, rs=(-0.0,), s_values=(-0.0,))))
    assert negative == zero


def test_power_sweep_cells_never_read_the_cache(tmp_path, monkeypatch):
    cfg = _smoke_config(tmp_path, betas=(0.6, 0.75), s_values=(1.0, 2.0),
                        n_values=(32, 64), reps=5)
    power_sweep(cfg)  # warm the tables
    loads = []
    real_load = pnull.cache_load

    def counting_load(*args, **kwargs):
        loads.append(args)
        return real_load(*args, **kwargs)

    monkeypatch.setattr(pnull, "cache_load", counting_load)
    res = power_sweep(cfg)
    assert all(r.error is None for r in res) and len(res) == 16
    assert len(loads) == len(cfg.n_values) * len(cfg.s_values)


# sha256 of the power CSV of a small grid: normal sparse, scale-exponential
# dense and location-gumbel sparse, the five s, n in {100, 1000}.  Rates sit
# between 0.025 and 0.975, so a change to how cells draw their samples, or to
# the statistic they compute, that moves any replicate across its critical
# value changes the bytes.
PINNED_POWER_CSV_SHA256 = "3c68b15487763b70c1477f5407e477fa2a13a09cab166fbe25e89b55d3cbdbdd"


def test_power_csv_bytes_are_pinned(tmp_path):
    common = dict(s_values=(-1.0, 0.0, 0.5, 1.0, 2.0), n_values=(100, 1000), alpha=0.1,
                  reps=40, seed=20261018, cache_dir=str(tmp_path), table_reps=200)
    configs = (
        PowerGridConfig(family="normal", betas=(0.6,), rs=(0.3, 0.6), **common),
        PowerGridConfig(family="scale-exponential", regime="dense", betas=(0.2,),
                        rs=(0.1, 0.2), **common),
        PowerGridConfig(family="location-gumbel", regime="sparse", betas=(0.6,),
                        rs=(0.5, 0.9), **common),
    )
    results = [r for cfg in configs for r in power_sweep(cfg)]
    assert len(results) == 60 and all(r.error is None for r in results)
    text = power_csv(results)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PINNED_POWER_CSV_SHA256


@pytest.mark.parametrize("n", [2, 1000, 8193, 8194])
def test_stacked_power_cell_equals_the_one_row_public_route(n):
    # stack heights 16384, 16, 2 and 1; neither 37 nor 5 replicates fill their stacks
    reps = range(37) if n <= 1000 else range(5)
    cells = (("normal", "sparse", 0.6, 6.0), ("scale-exponential", "dense", 0.2, 0.2))
    ceiling_hit = False
    for family, regime, beta, r in cells:
        spec = MixtureSpec(mixture_family(family, regime=regime), beta, r, n)
        seed = cell_seed(7, family, beta, r, 0.0, n)
        pvalues = [_sample_pvalues(spec, replicate_rng(seed, j)) for j in reps]
        ceiling_hit |= family == "normal" and any(p.max() == 1.0 - 2.0**-53 for p in pvalues)
        for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
            got = pnull._mc_stats(n, [s], seed, reps, partial(_sample_pvalues, spec))
            want = [scaled_statistic(SortedPValueSample.from_values(p), s) for p in pvalues]
            assert got.shape == (1, len(reps))
            assert got[0].tobytes() == np.array(want).tobytes(), (family, s)
    assert ceiling_hit or n == 2  # the normal signal p-values reach 1 - 2^-53


def test_power_result_invariant():
    with pytest.raises(DomainError):
        PowerResult("normal", 0.6, 0.1, 2.0, 100, 0.05, 10, 1,
                    rejection_rate=0.9, wilson_ci=(0.1, 0.5))


# --------------------------------------------------------------------------
# boundary benchmark


def test_boundary_comparison_requires_boundary(tmp_path):
    spec = MixtureSpec(mixture_family("normal"), 0.6, 0.5, 100)
    with pytest.raises(DomainError):
        boundary_comparison(spec, (2.0,), 0.05, 50, 1, cache_dir=tmp_path,
                            table_reps=100)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, math.nan])
def test_boundary_comparison_rejects_a_level_before_any_table_work(tmp_path, alpha):
    spec = MixtureSpec(mixture_family("scale-exponential", regime="dense"), 0.25, 0.25, 100)
    with pytest.raises(DomainError, match="alpha"):
        boundary_comparison(spec, (2.0,), alpha, 10, 1, cache_dir=tmp_path, table_reps=100)
    assert list(tmp_path.iterdir()) == []


def test_boundary_comparison_dense_smoke(tmp_path):
    spec = MixtureSpec(mixture_family("scale-exponential", regime="dense"), 0.25, 0.25, 100)
    bc = boundary_comparison(spec, (0.5, 2.0), 0.1, 60, 99,
                             cache_dir=tmp_path, table_reps=300)
    assert bc.s_values == (0.5, 2.0)
    assert len(bc.error_sums) == 2
    assert all(0.0 <= e <= 2.0 for e in bc.error_sums)
    assert 0.0 <= bc.lr_error_sum <= 2.0
    again = boundary_comparison(spec, (0.5, 2.0), 0.1, 60, 99,
                                cache_dir=tmp_path, table_reps=300)
    assert bc == again


# Every field of two boundary comparisons, scale-exponential dense on its
# boundary (beta = 0.1, r = 0.4), the five s: at n = 2000 the replicate loop
# stacks 8 rows a kernel call, at n = 1e4 one.  A change to the draws, the
# statistic or the counting that moves any replicate across a critical value,
# or flips an LR decision, changes an error sum.
PINNED_BOUNDARY = {
    (2000, 200): "BoundaryComparison(family='scale-exponential', beta=0.1, r=0.4, n=2000, "
                 "alpha=0.1, reps=200, seed=20261019, s_values=(-1.0, 0.0, 0.5, 1.0, 2.0), "
                 "error_sums=(0.945, 0.92, 0.905, 0.92, 0.97), lr_error_sum=0.54)",
    (10000, 60): "BoundaryComparison(family='scale-exponential', beta=0.1, r=0.4, n=10000, "
                 "alpha=0.1, reps=60, seed=20261019, s_values=(-1.0, 0.0, 0.5, 1.0, 2.0), "
                 "error_sums=(0.9166666666666666, 0.9166666666666666, 0.9666666666666667, "
                 "0.9833333333333333, 0.8833333333333333), lr_error_sum=0.6833333333333333)",
}


@pytest.mark.parametrize("n, reps", sorted(PINNED_BOUNDARY))
def test_boundary_comparison_is_pinned(tmp_path, n, reps):
    spec = MixtureSpec(mixture_family("scale-exponential", regime="dense"), 0.1, 0.4, n)
    bc = boundary_comparison(spec, (-1.0, 0.0, 0.5, 1.0, 2.0), 0.1, reps, 20261019,
                             cache_dir=tmp_path, table_reps=200)
    assert repr(bc) == PINNED_BOUNDARY[(n, reps)]


# --------------------------------------------------------------------------
# result files


def _some_results(tmp_path):
    return power_sweep(_smoke_config(tmp_path, reps=30, rs=(0.0,)))


def test_csv_roundtrip(tmp_path):
    res = _some_results(tmp_path)
    path = write_power_csv(res, tmp_path / "out" / "power.csv")
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(POWER_CSV_FIELDS)
    assert len(lines) == 1 + len(res)
    row = lines[1].split(",")
    # float fields are repr()ed, so parsing them back is exact
    assert float(row[POWER_CSV_FIELDS.index("rate")]) == res[0].rejection_rate
    assert float(row[POWER_CSV_FIELDS.index("ci_lo")]) == res[0].wilson_ci[0]
    assert int(row[POWER_CSV_FIELDS.index("n")]) == res[0].n


def test_json_output(tmp_path):
    res = _some_results(tmp_path)
    path = write_power_json(res, tmp_path / "power.json")
    docs = json.loads(path.read_text())
    assert len(docs) == len(res)
    assert docs[0]["rejection_rate"] == res[0].rejection_rate
    assert docs[0]["wilson_ci"] == list(res[0].wilson_ci)
    # failed cells serialize their rate as null
    bad = PowerResult("normal", 0.6, 0.1, 2.0, 100, 0.05, 1,
                      rejection_rate=math.nan, wilson_ci=(math.nan, math.nan),
                      seed=0, error="DomainError: boom")
    docs = json.loads(write_power_json([bad], tmp_path / "bad.json").read_text())
    assert docs[0]["rejection_rate"] is None
    assert docs[0]["wilson_ci"] == [None, None]
    assert docs[0]["error"] == "DomainError: boom"


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "deep" / "file.txt"
    atomic_write_text(target, "payload")
    assert target.read_text() == "payload"
    leftovers = [p for p in target.parent.iterdir() if p.name != "file.txt"]
    assert leftovers == []
