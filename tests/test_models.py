import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from scipy import integrate, stats

from phidetect import (
    CurveKind,
    DiagnosticCurve,
    DomainError,
    Exponential,
    ExponentialFamily,
    Frechet,
    Gumbel,
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
from phidetect.models import Distribution, MIXTURE_FAMILY_NAMES

DISTS = [
    Uniform(),
    Normal(2.0, 3.0),
    Exponential(0.7),
    Gumbel(1.5),
    Frechet(2.0, 0.5),
]


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.name)
def test_quantile_cdf_roundtrip(dist):
    u = np.array([1e-6, 0.02, 0.31, 0.5, 0.77, 0.999])
    np.testing.assert_allclose(dist.cdf(dist.quantile(u)), u, rtol=1e-9, atol=1e-12)
    x = dist.quantile(u)
    np.testing.assert_allclose(dist.quantile(dist.cdf(x)), x, rtol=1e-9)


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.name)
def test_quantile_domain(dist):
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            dist.quantile(bad)


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.name)
def test_upper_quantile_consistent(dist):
    for eps in (0.4, 0.05, 1e-3):
        assert dist.quantile_upper(eps) == pytest.approx(dist.quantile(1.0 - eps), rel=1e-9)


@pytest.mark.parametrize("dist", DISTS[1:], ids=lambda d: d.name)
def test_upper_quantile_stable_in_deep_tail(dist):
    # survives weights far below the resolution of 1 - eps
    deep = float(dist.quantile_upper(1e-280))
    assert math.isfinite(deep)
    assert deep > float(dist.quantile_upper(1e-3))


def test_uniform_deep_upper_tail_is_unrepresentable():
    assert Uniform().quantile_upper(0.25) == 0.75
    with pytest.raises(DomainError):
        Uniform().quantile_upper(1e-280)


@pytest.mark.parametrize("dist", DISTS, ids=lambda d: d.name)
def test_sampling_matches_cdf(dist):
    rng = np.random.default_rng(2024)
    x = dist.sample(4000, rng)
    lo, hi = dist.support
    assert np.all((x > lo) & (x < hi))
    assert stats.kstest(x, dist.cdf).pvalue > 0.01


def test_known_cdf_points():
    assert Exponential(1.0).cdf(math.log(2.0)) == pytest.approx(0.5, rel=1e-15)
    assert Exponential(3.0).cdf(3.0 * math.log(2.0)) == pytest.approx(0.5, rel=1e-15)
    assert Gumbel(1.5).cdf(1.5) == pytest.approx(1.0 / math.e, rel=1e-15)
    assert Frechet(4.0, 2.0).cdf(2.0) == pytest.approx(1.0 / math.e, rel=1e-15)
    assert Frechet(1.0).cdf(0.0) == 0.0
    assert Frechet(1.0).cdf(-3.0) == 0.0
    assert Normal().cdf(0.0) == pytest.approx(0.5, rel=1e-15)


def test_parameter_validation():
    for bad in (lambda: Normal(sigma=0.0), lambda: Normal(mu=math.inf),
                lambda: Exponential(-1.0), lambda: Exponential(0.0),
                lambda: Gumbel(math.nan), lambda: Frechet(0.0),
                lambda: Frechet(1.0, -2.0)):
        with pytest.raises(DomainError):
            bad()


def test_density_ratios_match_logpdf_differences():
    """MixtureSpec.log_ratio() against scipy logpdf differences, per family.

    The scipy signal laws are built from theta_n and the documented tilts,
    not from ``spec.signal``, so the closed-form ratios are checked
    independently of the package's own signal constructors.
    """
    line = np.array([-1.3, 0.2, 0.9, 2.4, 4.0])
    half_line = np.array([0.5, 1.2, 3.0, 9.0])
    cases = [
        ("normal", {}, 0.6, line,
         lambda th, x: stats.norm.logpdf(x, th) - stats.norm.logpdf(x)),
        ("heteroscedastic-normal", {"sigma0": 1.7}, 0.6, line,
         lambda th, x: stats.norm.logpdf(x, th, 1.7) - stats.norm.logpdf(x)),
        ("scale-exponential", {}, 0.3, half_line,
         lambda th, x: stats.expon.logpdf(x, scale=1.0 / (1.0 + th)) - stats.expon.logpdf(x)),
        ("location-gumbel", {}, 0.6, line,
         lambda th, x: stats.gumbel_r.logpdf(x, loc=math.log1p(th)) - stats.gumbel_r.logpdf(x)),
        ("scale-frechet", {"shape": 2.0}, 0.6, half_line,
         lambda th, x: stats.invweibull.logpdf(x, 2.0, scale=(1.0 + th) ** 0.5)
         - stats.invweibull.logpdf(x, 2.0)),
    ]
    for name, params, beta, x, want in cases:
        spec = MixtureSpec(mixture_family(name, **params), beta, 0.4, 500)
        got = spec.log_ratio()(x)
        np.testing.assert_allclose(got, want(spec.theta, x), rtol=1e-11, atol=1e-12,
                                   err_msg=name)


# --------------------------------------------------------------------------
# exponential families


FAMILIES = [scale_exponential_family(), location_gumbel_family(), scale_frechet_family(2.0)]


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_laplace_closed_forms(fam):
    # all three instances share omega(theta) = 1/(1+theta)
    assert fam.laplace_transform(0.0) == pytest.approx(1.0, rel=1e-12)
    assert fam.laplace_transform(1.0) == pytest.approx(0.5, rel=1e-12)
    assert fam.C(1.0) == pytest.approx(2.0, rel=1e-12)
    assert fam.laplace_transform(3.0) == pytest.approx(0.25, rel=1e-12)


def test_laplace_quadrature_agrees_with_closed_form():
    """Same family declared without the closed form: pure quadrature route."""
    numeric = ExponentialFamily(
        Exponential(1.0),
        lambda x: -np.asarray(x, dtype=np.float64),
        name="scale-exponential-numeric",
        tilted=lambda th: Exponential(1.0 / (1.0 + th)),
        theta_domain=(-1.0, math.inf),
    )
    for theta in (0.5, 1.0, 2.0):
        assert numeric.laplace_transform(theta) == pytest.approx(1.0 / (1.0 + theta), rel=1e-8)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_var_T_is_one(fam):
    # T is exponential(1)-distributed under each base law here
    assert fam.var_T() == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_tilted_density_integrates_to_one(fam):
    ratio = fam.log_ratio(1.5)
    q = fam.base.quantile
    val, _ = integrate.quad(lambda w: math.exp(float(ratio(q(w)))), 0.0, 1.0, limit=200)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_tilted_closed_forms():
    assert scale_exponential_family().tilted(1.0) == Exponential(0.5)
    assert scale_exponential_family().tilted(0.0) == Exponential(1.0)
    assert location_gumbel_family().tilted(0.0) == Gumbel(0.0)
    assert location_gumbel_family().tilted(math.e - 1.0).loc == pytest.approx(1.0, rel=1e-15)
    assert scale_frechet_family(2.0).tilted(3.0) == Frechet(2.0, 2.0)


def test_theta_domain_enforced():
    fam = scale_exponential_family()
    for theta in (-1.0, -1.5):
        with pytest.raises(DomainError):
            fam.laplace_transform(theta)
        with pytest.raises(DomainError):
            fam.tilted(theta)
    # interior of the domain is fine
    assert fam.laplace_transform(-0.5) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_fitted_tail_exponent_near_one(fam):
    """Tail regularity: T_sup - T(Q_0(u)) ~ u^{1/p}, so the log-log slope is 1/p."""
    upper = fam.signal_tail == "upper"
    quantile = fam.base.quantile_upper if upper else fam.base.quantile
    u = np.logspace(-7, -3, 9)
    t_sup = float(np.asarray(fam.T(quantile(np.array([1e-13]))))[0])
    d = t_sup - np.asarray(fam.T(quantile(u)), dtype=np.float64)
    assert np.all(d > 0.0)
    slope = np.polyfit(np.log(u), np.log(d), 1)[0]
    assert 1.0 / slope == pytest.approx(1.0, abs=5e-3)
    assert fam.tail_exponent == 1.0


# --------------------------------------------------------------------------
# mixtures


def test_theta_rules():
    sparse = mixture_family("scale-exponential", regime="sparse")
    dense = mixture_family("scale-exponential", regime="dense")
    assert MixtureSpec(sparse, 0.75, 0.5, 100).theta == 10.0
    assert MixtureSpec(dense, 0.25, 0.5, 100).theta == pytest.approx(0.1, rel=1e-15)
    got = MixtureSpec(mixture_family("normal"), 0.6, 0.5, 100).theta
    assert got == pytest.approx(math.sqrt(math.log(100.0)), rel=1e-15)


def test_epsilon_schedule():
    spec = MixtureSpec(mixture_family("normal"), 0.75, 0.3, 10_000)
    assert spec.epsilon == pytest.approx(1e-3, rel=1e-15)
    assert MixtureSpec(mixture_family("normal"), 0.75, 0.3, 10_000,
                       epsilon_override=0.2).epsilon == 0.2


def test_mixture_spec_validation():
    fam = mixture_family("normal")
    with pytest.raises(DomainError):
        MixtureSpec(fam, 0.5, 0.3, 100)  # beta=1/2 is in neither regime
    with pytest.raises(DomainError):
        MixtureSpec(fam, 0.3, 0.3, 100)  # dense beta on a sparse family
    with pytest.raises(DomainError):
        MixtureSpec(mixture_family("scale-exponential", regime="dense"), 0.6, 0.3, 100)
    with pytest.raises(DomainError):
        MixtureSpec(fam, 0.6, -0.1, 100)
    with pytest.raises(DomainError):
        MixtureSpec(fam, 0.6, 0.3, 0)
    with pytest.raises(DomainError):
        MixtureSpec(fam, 0.6, 0.3, 100, epsilon_override=1.5)


def test_family_registry():
    for name in MIXTURE_FAMILY_NAMES:
        assert mixture_family(name).name.startswith(name.split("(")[0])
    assert mixture_family("scale-exponential").regime == "dense"
    assert mixture_family("scale-exponential", regime="sparse").regime == "sparse"
    assert mixture_family("heteroscedastic-normal", sigma0=2.0).noise == Normal()
    with pytest.raises(DomainError):
        mixture_family("cauchy-location")
    with pytest.raises(DomainError):
        mixture_family("heteroscedastic-normal", sigma0=0.0)
    # every name x every regime it supports builds; the default regime comes first
    supported = {
        "normal": ("sparse",),
        "heteroscedastic-normal": ("sparse",),
        "scale-exponential": ("dense", "sparse"),
        "location-gumbel": ("sparse", "dense"),
        "scale-frechet": ("sparse", "dense"),
    }
    assert set(MIXTURE_FAMILY_NAMES) == set(supported)
    for name, regimes in supported.items():
        assert mixture_family(name).regime == regimes[0]
        for regime in regimes:
            assert mixture_family(name, regime=regime).regime == regime
    # a regime or parameter the family does not take is an error, not ignored
    for name, kwargs, named in (
        ("normal", {"regime": "dense"}, "dense"),
        ("heteroscedastic-normal", {"regime": "dense"}, "dense"),
        ("normal", {"shape": 2.0}, "shape"),
        ("scale-exponential", {"sigma0": 2.0}, "sigma0"),
    ):
        with pytest.raises(DomainError, match=named):
            mixture_family(name, **kwargs)


def test_sample_mixture_deterministic():
    spec = MixtureSpec(mixture_family("normal"), 0.6, 0.4, 500)
    d1, k1 = sample_mixture(spec, 99)
    d2, k2 = sample_mixture(spec, 99)
    assert k1 == k2
    np.testing.assert_array_equal(d1, d2)
    d3, _ = sample_mixture(spec, 100)
    assert not np.array_equal(d1, d3)


def test_sample_mixture_degenerate_weights():
    fam = mixture_family("normal")
    data, k = sample_mixture(MixtureSpec(fam, 0.6, 0.4, 300, epsilon_override=0.0), 7)
    assert k == 0 and data.shape == (300,)
    _, k = sample_mixture(MixtureSpec(fam, 0.6, 0.4, 300, epsilon_override=1.0), 7)
    assert k == 300


def test_signal_count_is_binomial():
    """Latent counts across 100 seeds stay inside the central 99.9% band."""
    spec = MixtureSpec(mixture_family("normal"), 0.6, 0.4, 10_000,
                       epsilon_override=0.01)
    ks = np.array([sample_mixture(spec, seed)[1] for seed in range(100)])
    lo = stats.binom.ppf(0.0005, 10_000, 0.01)
    hi = stats.binom.ppf(0.9995, 10_000, 0.01)
    assert np.all((ks >= lo) & (ks <= hi))
    assert ks.std() > 0  # actually random, not a constant


def test_sample_mixture_accepts_generator():
    spec = MixtureSpec(mixture_family("normal"), 0.6, 0.4, 200)
    data, k = sample_mixture(spec, np.random.default_rng(5))
    assert data.shape == (200,) and 0 <= k <= 200


# --------------------------------------------------------------------------
# p-value transform


def test_to_pvalues_sorted_and_open():
    rng = np.random.default_rng(11)
    data = rng.normal(size=200)
    sample = to_pvalues(data, Normal())
    p = sample.values
    assert np.all(np.diff(p) >= 0)
    assert np.all((p > 0.0) & (p < 1.0))
    np.testing.assert_allclose(np.sort(stats.norm.cdf(data)), p, rtol=1e-12)


def test_to_pvalues_support_violation():
    with pytest.raises(DomainError) as err:
        to_pvalues([0.5, -1.0, 2.0], Exponential(1.0))
    assert "observation 1" in str(err.value)
    assert "-1.0" in str(err.value)


def test_to_pvalues_clamps_saturated_tails():
    # far in the upper tail the cdf rounds to 1.0; the transform must stay open
    sample = to_pvalues([1e-320, 0.5, 800.0], Exponential(1.0))
    assert sample.values[0] >= 1e-300
    assert sample.values[-1] < 1.0


def test_to_pvalues_shape_checks():
    with pytest.raises(DomainError):
        to_pvalues([], Normal())
    with pytest.raises(DomainError):
        to_pvalues([[0.1, 0.2]], Normal())


# --------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class _Window(Distribution):
    """Uniform on (0, width): a concentrated signal for hand-computable curves."""

    width: float

    name = "window"
    support = (0.0, 1.0)

    def cdf(self, x):
        return np.clip(np.asarray(x, dtype=np.float64) / self.width, 0.0, 1.0)

    def quantile(self, u):
        return np.asarray(u, dtype=np.float64) * self.width


def _window_spec():
    fam = replace(mixture_family("normal"), noise=Uniform(),
                  signal_of=lambda th: _Window(0.01))
    return MixtureSpec(fam, 0.6, 0.0, 100, epsilon_override=0.1)


def test_signal_cdf_transformed():
    spec = _window_spec()
    assert signal_cdf_transformed(spec, 0.005) == pytest.approx(0.5, rel=1e-15)
    assert signal_cdf_transformed(spec, 0.02) == 1.0
    v = np.linspace(0.001, 0.999, 41)
    out = signal_cdf_transformed(spec, v)
    assert np.all(np.diff(out) >= 0)
    # identity when the signal is the noise law
    null = MixtureSpec(mixture_family("normal"), 0.6, 0.0, 100)
    assert signal_cdf_transformed(null, 0.37) == pytest.approx(0.37, rel=1e-12)


def test_sparse_curve_hand_value():
    # sqrt(100) * 0.1 / sqrt(0.01) * (1 + 0) = 10
    curve = diagnostic_H_sparse(_window_spec(), [0.01])
    assert curve.kind is CurveKind.SPARSE_SIMPLIFIED
    assert curve.values[0] == pytest.approx(10.0, rel=1e-14)
    full = diagnostic_H(_window_spec(), [0.01])
    assert full.kind is CurveKind.FULL
    assert full.values[0] == pytest.approx(10.0, rel=1e-14)  # |1-v| + |0-v| = 1


def test_full_curve_vanishes_when_signal_is_noise():
    spec = MixtureSpec(mixture_family("normal"), 0.6, 0.0, 400)
    curve = diagnostic_H(spec, [0.05, 0.1, 0.3, 0.49])
    np.testing.assert_allclose(curve.values, 0.0, atol=1e-12)


def test_sparse_dominates_full_minus_centering():
    spec = MixtureSpec(mixture_family("normal"), 0.6, 0.4, 1000)
    v = np.linspace(0.01, 0.49, 25)
    full = diagnostic_H(spec, v).values
    sparse = diagnostic_H_sparse(spec, v).values
    slack = 2.0 * math.sqrt(spec.n) * spec.epsilon * np.sqrt(v)
    assert np.all(sparse >= full - slack - 1e-12)


def test_diagnostic_grid_validation():
    spec = MixtureSpec(mixture_family("normal"), 0.6, 0.4, 100)
    for bad in ([0.5], [0.0, 0.1], [-0.1], [0.3, 0.6]):
        with pytest.raises(DomainError):
            diagnostic_H(spec, bad)
    with pytest.raises(DomainError):
        DiagnosticCurve(np.array([0.1, 0.1]), np.array([1.0, 2.0]), CurveKind.FULL)
    with pytest.raises(DomainError):
        DiagnosticCurve(np.array([0.1, 0.2]), np.array([1.0]), CurveKind.FULL)


def test_h_exponent_zero_for_null_signal():
    spec = MixtureSpec(mixture_family("normal"), 0.6, 0.0, 1000)
    t = np.array([0.2, 0.5, 1.0, 4.0])
    np.testing.assert_array_equal(h_exponent(spec, t), np.zeros(4))


def test_h_exponent_domain():
    spec = MixtureSpec(mixture_family("normal"), 0.6, 0.4, 1000)
    t_min = math.log(2.0) / math.log(1000.0)
    with pytest.raises(DomainError):
        h_exponent(spec, 0.9 * t_min)
    assert math.isfinite(h_exponent(spec, t_min))
    with pytest.raises(DomainError, match="n >= 2"):
        h_exponent(MixtureSpec(mixture_family("normal"), 0.6, 0.4, 1), 1.0)


def test_h_exponent_scale_exponential_limit():
    """Tilted-family h(t)/log n approaches r*p (= r here) beyond the kink."""
    n = 10**8
    spec = MixtureSpec(mixture_family("scale-exponential", regime="sparse"), 0.75, 0.4, n)
    for t in (0.5, 0.6, 1.0, 3.0):
        assert h_exponent(spec, t) / math.log(n) == pytest.approx(0.4, abs=0.02)
    # below the kink the exponent collapses
    assert h_exponent(spec, 0.2) / math.log(n) < 0.0
