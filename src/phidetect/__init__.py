"""phidetect: sparse-signal detection via phi-divergence sup-statistics.

The statistic S_n(s) takes the supremum over the empirical CDF of a
phi-divergence between i/n and the order statistics of the p-values;
s = 2 recovers higher criticism, s = 0 and s = 1 the Berk-Jones variants.
Calibration is Monte-Carlo first (seeded, cached, reproducible), with the
slow Gumbel-type limit exposed as advisory.  Mixture models, detection
boundaries, power experiments, and a CLI sit on top.
"""

from .errors import CacheCorruptionError, DomainError, IntegrationError
from ._rand import RNG_ID, replicate_rng, stable_seed, uniform_open
from .divergence import (
    DivergenceStatistic,
    EndpointSide,
    PhiIndex,
    Regime,
    SortedPValueSample,
    kappa,
    phi,
    sup_statistic,
    sup_statistic_values,
    z_sup,
)
from .nulldist import (
    CalibrationTable,
    cache_load,
    cache_path,
    cache_store,
    centering,
    centering_offset,
    ensure_tables,
    gumbel_cdf,
    gumbel_quantile,
    mc_null_tables,
)
from .models import (
    CurveKind,
    DiagnosticCurve,
    Distribution,
    Exponential,
    ExponentialFamily,
    Frechet,
    Gumbel,
    MixtureFamily,
    MixtureSpec,
    Normal,
    Uniform,
    diagnostic_H,
    diagnostic_H_sparse,
    h_exponent,
    location_gumbel_family,
    mixture_family,
    sample_mixture,
    scale_exponential_family,
    scale_frechet_family,
    signal_cdf_transformed,
    to_pvalues,
)
from .boundary import (
    RegimeClassification,
    Verdict,
    beta_sharp_expfam,
    beta_sharp_from_alpha,
    beta_sharp_from_gamma,
    classify,
    rho_dense,
    rho_normal_sparse,
    superlevel_measure,
)
from .experiments import (
    BoundaryComparison,
    LrOutcome,
    PowerGridConfig,
    PowerResult,
    TestOutcome,
    boundary_comparison,
    log_likelihood_ratio,
    power_sweep,
    run_divergence_test,
    run_lr_test,
    scaled_statistic,
    scaled_statistics,
    wilson_interval,
    write_power_csv,
    write_power_json,
)

__version__ = "0.1.0"
