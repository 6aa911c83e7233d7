"""End-to-end tests, power sweeps, and the likelihood-ratio benchmark.

``run_divergence_test`` wires one sorted p-value sample through the
statistic + Monte-Carlo calibration pipeline.  ``power_sweep`` drives grids
of (beta, r, s, n) cells; each cell gets its own seed derived by a stable
hash of the master seed and the cell coordinates, and every replicate uses
an independent counter-based substream, so results are byte-identical for a
given configuration regardless of worker count or execution order.  A cell
runs the null tables' stacked replicate loop (``nulldist._mc_stats``) on the
p-value scale: the noise p-values are the open uniforms themselves and only
signal points go through F_0, so its statistics match the public
``sample_mixture`` + ``to_pvalues`` route to about 1e-12, the route of
``boundary_comparison``'s mixture half (its null half reads ``noise.sample``'s uniforms).

``run_lr_test`` is the Neyman-Pearson benchmark in zero-threshold form
(reject iff the posterior likelihood favours the mixture), the form whose
type I + type II error sum has the sharp limit 2*(1 - Phi(sqrt(Var T)/2))
for dense tilts on the detection boundary.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, asdict
from functools import partial
from pathlib import Path

import numpy as np

from ._rand import _fill_uniform, _pool_map, stable_seed
from .boundary import Verdict, classify
from .divergence import SortedPValueSample, sup_statistic, sup_statistic_values
from .errors import DomainError
from .models import MixtureSpec, _sample_pvalues, mixture_family, sample_mixture, to_pvalues
from .nulldist import (
    CalibrationTable,
    _mc_stats,
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


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """99% Wilson score interval for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise DomainError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    z = WILSON_Z_99
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
    return sample.n * sup_statistic(sample, s) - centering_offset(sample.n)


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


def log_likelihood_ratio(data, spec: MixtureSpec) -> float:
    """log dQ_n^n/dP_0^n = sum_i log1p(eps * expm1(l_i)), l_i = log(d mu_n/d P_0)(x_i)."""
    x = np.asarray(data, dtype=np.float64)
    eps = spec.epsilon
    if eps == 0.0:
        return 0.0
    ratio = spec.log_ratio()
    log_r = np.asarray(ratio(x), dtype=np.float64).ravel()  # 1-d: terms are assigned below
    if eps == 1.0:
        return float(np.sum(log_r))
    terms = np.log1p(eps * np.expm1(np.minimum(log_r, 709.0)))  # exact for small eps and l
    big = log_r > 709.0  # past expm1's overflow, log((1-eps) + eps e^l) as a logaddexp
    terms[big] = np.logaddexp(math.log1p(-eps), math.log(eps) + log_r[big])
    return float(np.sum(terms))


def run_lr_test(data, spec: MixtureSpec) -> bool:
    """Zero-threshold likelihood-ratio test of P_0^n against the mixture.

    Rejects (True) iff llr >= 0: the Neyman-Pearson form whose error sum
    attains the sharp boundary bound.
    """
    return log_likelihood_ratio(data, spec) >= 0.0


# --------------------------------------------------------------------------
# power sweeps


def _table_seed(seed: int, table_seed: int | None) -> int:
    """The calibration-table seed: ``table_seed`` when given, else derived from ``seed``."""
    return stable_seed(seed, "calibration-tables") if table_seed is None else table_seed


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
            object.__setattr__(self, name, tuple(float(v) + 0.0 for v in getattr(self, name)))
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
        stats = _mc_stats(n, [s], seed, range(config.reps), partial(_sample_pvalues, spec))
        rejects = int(np.count_nonzero(stats[0] > crit))
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
    tseed = _table_seed(config.seed, config.table_seed)
    crit = {}
    for n in n_values:
        tables = ensure_tables(config.cache_dir, n, config.s_values, config.table_reps,
                               tseed, workers=config.workers)
        for s, table in tables.items():
            crit[(n, s)] = critical_from_sorted(table.sorted_stats, config.alpha)
    crits = [crit.get((n, s), math.nan) for _, _, s, n in coords]
    return _pool_map(_run_cell, config.workers, itertools.repeat(config), coords, crits)


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

    Each replicate draws one null sample (pure noise, its uniforms its p-values)
    and one mixture sample from paired substreams; all s share those draws, so
    differences between error sums are not sampling artifacts.  Rejecting specs
    off the boundary is deliberate — away from it the comparison answers a different question.
    """
    cls = classify(spec.family, spec.beta, spec.r)
    if cls.verdict is not Verdict.ON_BOUNDARY:
        raise DomainError(
            f"spec is not on the detection boundary (threshold {cls.threshold_value:.6g}, "
            f"margin {cls.margin:+.6g}); move r/beta onto the boundary first"
        )
    if reps < 1:
        raise DomainError("reps must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must be in (0, 1)")
    s_list = [float(s) + 0.0 for s in s_values]
    tseed = _table_seed(seed, table_seed)
    tables = ensure_tables(cache_dir, spec.n, s_list, table_reps, tseed, workers=workers)
    crits = np.array([critical_from_sorted(tables[s].sorted_stats, alpha) for s in s_list])

    def rejections(tag, fill):  # per s, and of the LR test, over the replicates
        lr = []

        def draw(rng, row):  # the LR test reads x here: the next replicate reuses rng
            lr.append(run_lr_test(fill(rng, row), spec))

        stats = _mc_stats(spec.n, s_list, stable_seed(seed, tag), range(reps), draw)
        return np.count_nonzero(stats > crits[:, None], axis=1), sum(lr)

    def alt(rng, row):  # the public route, its sorted p-values copied into the row
        x = sample_mixture(spec, rng)[0]
        row[:] = to_pvalues(x, spec.noise).values
        return x

    rej_null, lr_null = rejections(  # noise.sample's stream: p-values are its uniforms
        "boundary-null", lambda rng, row: spec.noise.quantile(_fill_uniform(rng, row)))
    rej_alt, lr_alt = rejections("boundary-alt", alt)
    return BoundaryComparison(
        family=spec.family.name, beta=spec.beta, r=spec.r, n=spec.n,
        alpha=alpha, reps=reps, seed=seed, s_values=tuple(s_list),
        error_sums=tuple(float(e) for e in (rej_null + (reps - rej_alt)) / reps),
        lr_error_sum=(lr_null + (reps - lr_alt)) / reps,
    )


# --------------------------------------------------------------------------
# result emission

POWER_CSV_FIELDS = (
    "family", "beta", "r", "s", "n", "alpha", "reps", "seed",
    "rate", "ci_lo", "ci_hi",
)


def _csv_text(rows) -> str:
    """The package's one CSV rendering: floats through ``repr`` (shortest
    round-trip form), everything else through ``str``, one line per row."""
    return "".join(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n"
                   for row in rows)


def power_csv(results) -> str:
    """Power results as CSV text: the header, then one row per cell, a pure
    function of the results."""
    return _csv_text([POWER_CSV_FIELDS] + [
        (r.family, r.beta, r.r, r.s, r.n, r.alpha, r.reps, r.seed,
         r.rejection_rate, r.wilson_ci[0], r.wilson_ci[1])
        for r in results
    ])


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
