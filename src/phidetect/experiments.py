"""End-to-end tests, power sweeps, and the likelihood-ratio benchmark.

``run_divergence_test`` wires one sorted p-value sample through the
statistic + Monte-Carlo calibration pipeline.  ``power_sweep`` drives grids
of (beta, r, s, n) cells; each cell gets its own seed derived by a stable
hash of the master seed and the cell coordinates, and every replicate uses
an independent counter-based substream, so results are byte-identical for a
given configuration regardless of worker count or execution order.

``run_lr_test`` is the Neyman-Pearson benchmark in zero-threshold form
(reject iff the posterior likelihood favours the mixture), the form whose
type I + type II error sum has the sharp limit 2*(1 - Phi(sqrt(Var T)/2))
for dense tilts on the detection boundary.
"""

from __future__ import annotations

import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from ._rand import replicate_rng, stable_seed
from .boundary import Verdict, classify
from .divergence import SortedPValueSample, sup_statistic, sup_statistic_values
from .errors import DomainError
from .models import MixtureSpec, mixture_family, sample_mixture, to_pvalues
from .nulldist import (
    CalibrationTable,
    atomic_write_text,
    centering_offset,
    critical_from_sorted,
    ensure_tables,
    pvalue_from_sorted,
)

__all__ = [
    "WILSON_Z_99",
    "wilson_interval",
    "scaled_statistic",
    "scaled_statistics",
    "TestOutcome",
    "run_divergence_test",
    "LrOutcome",
    "log_likelihood_ratio",
    "run_lr_test",
    "PowerGridConfig",
    "PowerResult",
    "power_sweep",
    "BoundaryComparison",
    "boundary_comparison",
    "POWER_CSV_FIELDS",
    "power_csv",
    "write_power_csv",
    "write_power_json",
]

#: Two-sided 99% normal quantile used for every Wilson interval in the package.
WILSON_Z_99 = 2.5758293035489004


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z_99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (99% by default)."""
    if trials < 1 or not 0 <= successes <= trials:
        raise DomainError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    p_hat = successes / trials
    z2n = z * z / trials
    denom = 1.0 + z2n
    center = (p_hat + z2n / 2.0) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2n / (4.0 * trials)) / denom
    # at p_hat in {0, 1} the bound equals the endpoint exactly (half == center
    # resp. 1 - center); pin it so float op-order noise cannot push an
    # observed rate of exactly 0 or 1 outside its own interval
    lo = 0.0 if successes == 0 else max(center - half, 0.0)
    hi = 1.0 if successes == trials else min(center + half, 1.0)
    return lo, hi


def scaled_statistic(sample: SortedPValueSample, s: float) -> float:
    """n*S_n(s) - r_n, the scale every calibration table is built on."""
    return sample.n * sup_statistic(sample, s).value - centering_offset(sample.n)


def scaled_statistics(sample: SortedPValueSample, s_values) -> np.ndarray:
    """Vector of n*S_n(s) - r_n over several s, from one candidate pass."""
    return sample.n * sup_statistic_values(sample, s_values) - centering_offset(sample.n)


@dataclass(frozen=True)
class TestOutcome:
    """One calibrated test: statistic and critical on the n*S_n(s) - r_n scale."""

    statistic: float
    critical: float
    reject: bool
    mc_pvalue: float

    def __post_init__(self):
        if self.reject != (self.statistic > self.critical):
            raise DomainError("reject flag inconsistent with statistic vs critical")
        if not 0.0 <= self.mc_pvalue <= 1.0:
            raise DomainError("mc_pvalue outside [0, 1]")


def run_divergence_test(
    sample: SortedPValueSample, s: float, table: CalibrationTable, alpha: float
) -> TestOutcome:
    """Test the sample against the MC-calibrated critical value at level alpha."""
    if table.n != sample.n or table.s != float(s):
        raise DomainError(
            f"calibration table is for (n={table.n}, s={table.s}), "
            f"needed (n={sample.n}, s={float(s)})"
        )
    stat = scaled_statistic(sample, s)
    crit = critical_from_sorted(table.sorted_stats, alpha)
    return TestOutcome(stat, crit, stat > crit, pvalue_from_sorted(table.sorted_stats, stat))


@dataclass(frozen=True)
class LrOutcome:
    llr: float
    reject: bool


def log_likelihood_ratio(data, spec: MixtureSpec) -> float:
    """log dQ_n^n/dP_0^n = sum_i log((1-eps) + eps * (d mu_n/d P_0)(x_i))."""
    x = np.asarray(data, dtype=np.float64)
    eps = spec.epsilon
    if eps == 0.0:
        return 0.0
    ratio = spec.log_ratio()
    log_r = np.asarray(ratio(x), dtype=np.float64)
    if eps == 1.0:
        return float(np.sum(log_r))
    return float(np.sum(np.logaddexp(math.log1p(-eps), math.log(eps) + log_r)))


def run_lr_test(data, spec: MixtureSpec) -> LrOutcome:
    """Zero-threshold likelihood-ratio test of P_0^n against the mixture.

    Reject iff llr >= 0: the Neyman-Pearson form whose error sum attains the
    sharp boundary bound.
    """
    llr = log_likelihood_ratio(data, spec)
    return LrOutcome(llr, llr >= 0.0)


# --------------------------------------------------------------------------
# power sweeps


@dataclass(frozen=True)
class PowerGridConfig:
    """A rectangular (beta, r, s, n) grid for one mixture family.

    ``seed`` is the master seed: cell data streams are derived from it and
    the cell coordinates, so adding/removing cells never perturbs the others.
    ``table_seed`` defaults to a fixed derivation from the master seed;
    calibration tables are cached in ``cache_dir`` keyed by their recipe.
    """

    family: str
    betas: tuple[float, ...]
    rs: tuple[float, ...]
    s_values: tuple[float, ...]
    n_values: tuple[int, ...]
    alpha: float = 0.05
    reps: int = 200
    seed: int = 0
    cache_dir: str = ".phidetect-cache"
    table_reps: int = 10_000
    table_seed: int | None = None
    regime: str | None = None
    family_params: tuple[tuple[str, float], ...] = ()
    epsilon_override: float | None = None
    workers: int = 1

    def __post_init__(self):
        for name in ("betas", "rs", "s_values"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        object.__setattr__(self, "n_values", tuple(int(v) for v in self.n_values))
        object.__setattr__(self, "family_params", tuple(
            (str(k), float(v)) for k, v in self.family_params
        ))
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("alpha must be in (0, 1)")
        if self.reps < 1:
            raise DomainError("reps must be >= 1")
        if not (self.betas and self.rs and self.s_values and self.n_values):
            raise DomainError("grid axes must be nonempty")

    def cells(self) -> list[tuple[float, float, float, int]]:
        """Grid cells in declared axis order (beta, r, s, n)."""
        return list(itertools.product(self.betas, self.rs, self.s_values, self.n_values))

    def resolved_table_seed(self) -> int:
        if self.table_seed is not None:
            return self.table_seed
        return stable_seed(self.seed, "calibration-tables")


@dataclass(frozen=True)
class PowerResult:
    """One grid cell: coordinates, rejection rate, Wilson 99% CI.

    ``seed`` is the derived per-cell seed (enough to replay the cell alone).
    ``error`` marks a failed cell (rate and CI are NaN there).  No timing is
    carried, so equal configurations give byte-identical result files.
    """

    family: str
    beta: float
    r: float
    s: float
    n: int
    alpha: float
    reps: int
    seed: int
    rejection_rate: float
    wilson_ci: tuple[float, float]
    error: str | None = None

    def __post_init__(self):
        if self.error is None:
            lo, hi = self.wilson_ci
            if not (0.0 <= self.rejection_rate <= 1.0 and lo <= self.rejection_rate <= hi):
                raise DomainError("rejection rate must sit inside its Wilson interval")


def cell_seed(master_seed: int, family: str, beta: float, r: float, s: float, n: int) -> int:
    """The derived data seed for one grid cell."""
    return stable_seed(master_seed, family, float(beta), float(r), float(s), int(n))


def _run_cell(config: PowerGridConfig, coords: tuple[float, float, float, int],
              crit: float) -> PowerResult:
    """One grid cell against its precomputed critical value ``crit``."""
    beta, r, s, n = coords
    seed = cell_seed(config.seed, config.family, beta, r, s, n)
    try:
        fam = mixture_family(config.family, regime=config.regime,
                             **dict(config.family_params))
        spec = MixtureSpec(fam, beta, r, n, epsilon_override=config.epsilon_override)
        rejects = 0
        for j in range(config.reps):
            rng = replicate_rng(seed, j)
            data, _ = sample_mixture(spec, rng)
            rejects += scaled_statistic(to_pvalues(data, spec.noise), s) > crit
    except Exception as exc:
        return PowerResult(
            config.family, beta, r, s, n, config.alpha, config.reps, seed,
            rejection_rate=math.nan, wilson_ci=(math.nan, math.nan),
            error=f"{type(exc).__name__}: {exc}",
        )
    lo, hi = wilson_interval(rejects, config.reps)
    return PowerResult(
        config.family, beta, r, s, n, config.alpha, config.reps, seed,
        rejection_rate=rejects / config.reps, wilson_ci=(lo, hi),
    )


def power_sweep(config: PowerGridConfig) -> list[PowerResult]:
    """Run every grid cell; per-cell failures are recorded, not raised.

    Results come back in grid order.  Calibration tables are resolved first
    (one shared-draw build per n covering all s) and reduced to one critical
    value per (n, s), so cells never touch the cache.  A family that cannot
    be built gets no tables at all; every cell then records its error.
    """
    coords = config.cells()
    try:
        mixture_family(config.family, regime=config.regime, **dict(config.family_params))
    except DomainError:
        n_values = []
    else:
        n_values = sorted(set(config.n_values))
    tseed = config.resolved_table_seed()
    crit = {}
    for n in n_values:
        tables = ensure_tables(config.cache_dir, n, config.s_values, config.table_reps,
                               tseed, workers=config.workers)
        for s, table in tables.items():
            crit[(n, s)] = critical_from_sorted(table.sorted_stats, config.alpha)
    crits = [crit.get((n, s), math.nan) for _, _, s, n in coords]
    if config.workers <= 1:
        return [_run_cell(config, c, k) for c, k in zip(coords, crits)]
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(_run_cell, itertools.repeat(config), coords, crits))


# --------------------------------------------------------------------------
# boundary benchmark


@dataclass(frozen=True)
class BoundaryComparison:
    """Error sums (type I + type II) of calibrated S_n(s) tests vs the
    zero-threshold likelihood-ratio test, on matched null/alternative draws."""

    family: str
    beta: float
    r: float
    n: int
    alpha: float
    reps: int
    seed: int
    s_values: tuple[float, ...]
    error_sums: tuple[float, ...]
    lr_error_sum: float

    @property
    def gaps(self) -> tuple[float, ...]:
        """error_sum(s) - error_sum(LR), per s; nonnegative up to MC noise."""
        return tuple(e - self.lr_error_sum for e in self.error_sums)


def boundary_comparison(
    spec: MixtureSpec,
    s_values,
    alpha: float,
    reps: int,
    seed: int,
    *,
    cache_dir,
    table_reps: int = 10_000,
    table_seed: int | None = None,
    workers: int = 1,
) -> BoundaryComparison:
    """Compare every S_n(s) test against the LR benchmark exactly on the boundary.

    Each replicate draws one null sample (pure noise) and one mixture sample
    from paired substreams; all s share those draws, so differences between
    error sums are not sampling artifacts.  Rejecting specs off the boundary
    is deliberate — away from it the comparison answers a different question.
    """
    cls = classify(spec.family, spec.beta, spec.r)
    if cls.verdict is not Verdict.ON_BOUNDARY:
        raise DomainError(
            f"spec is not on the detection boundary (threshold {cls.threshold_value:.6g}, "
            f"margin {cls.margin:+.6g}); move r/beta onto the boundary first"
        )
    if reps < 1:
        raise DomainError("reps must be >= 1")
    s_list = [float(s) for s in s_values]
    tseed = table_seed if table_seed is not None else stable_seed(seed, "calibration-tables")
    tables = ensure_tables(cache_dir, spec.n, s_list, table_reps, tseed, workers=workers)
    crits = np.array([critical_from_sorted(tables[s].sorted_stats, alpha) for s in s_list])
    null_seed = stable_seed(seed, "boundary-null")
    alt_seed = stable_seed(seed, "boundary-alt")
    rej_null = np.zeros(len(s_list), dtype=np.int64)
    rej_alt = np.zeros(len(s_list), dtype=np.int64)
    lr_rej_null = 0
    lr_rej_alt = 0
    for j in range(reps):
        x0 = spec.noise.sample(spec.n, replicate_rng(null_seed, j))
        rej_null += scaled_statistics(to_pvalues(x0, spec.noise), s_list) > crits
        lr_rej_null += run_lr_test(x0, spec).reject
        x1, _ = sample_mixture(spec, replicate_rng(alt_seed, j))
        rej_alt += scaled_statistics(to_pvalues(x1, spec.noise), s_list) > crits
        lr_rej_alt += run_lr_test(x1, spec).reject
    error_sums = tuple((rej_null + (reps - rej_alt)) / reps)
    lr_error_sum = (lr_rej_null + (reps - lr_rej_alt)) / reps
    return BoundaryComparison(
        family=spec.family.name, beta=spec.beta, r=spec.r, n=spec.n,
        alpha=alpha, reps=reps, seed=seed, s_values=tuple(s_list),
        error_sums=tuple(float(e) for e in error_sums),
        lr_error_sum=float(lr_error_sum),
    )


# --------------------------------------------------------------------------
# result emission

POWER_CSV_FIELDS = (
    "family", "beta", "r", "s", "n", "alpha", "reps", "seed",
    "rate", "ci_lo", "ci_hi",
)


def power_csv(results) -> str:
    """Power results as CSV text: the header, then one row per cell.

    Floats go through ``repr`` (shortest round-trip form), so the text is a
    pure function of the results.
    """
    rows = [POWER_CSV_FIELDS] + [
        (r.family, r.beta, r.r, r.s, r.n, r.alpha, r.reps, r.seed,
         r.rejection_rate, r.wilson_ci[0], r.wilson_ci[1])
        for r in results
    ]
    return "".join(
        ",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n"
        for row in rows
    )


def write_power_csv(results, path) -> Path:
    return atomic_write_text(path, power_csv(results))


def write_power_json(results, path) -> Path:
    docs = []
    for r in results:
        doc = asdict(r)
        doc["wilson_ci"] = list(doc["wilson_ci"])
        if r.error is not None:
            doc["rejection_rate"] = None
            doc["wilson_ci"] = [None, None]
        docs.append(doc)
    return atomic_write_text(path, json.dumps(docs, indent=2, sort_keys=True) + "\n")
