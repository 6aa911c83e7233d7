import math
import pickle
import warnings
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
from scipy import integrate, stats

from phidetect import (
    DomainError,
    Exponential,
    Frechet,
    Gumbel,
    MixtureFamily,
    MixtureSpec,
    Normal,
    SortedPValueSample,
    Uniform,
    classify,
    diagnostic_H,
    diagnostic_H_sparse,
    h_exponent,
    mixture_family,
    replicate_rng,
    sample_mixture,
    signal_cdf_transformed,
    sup_statistic_values,
    to_pvalues,
    uniform_open,
)
from phidetect.models import _FAMILIES, Distribution, _diagnostic_terms, _sample_pvalues

EPS = float(np.finfo(np.float64).eps)
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


@pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (2.0, 3.0), (-1.5, 0.25)])
def test_normal_is_ndtr_and_ndtri_bit_for_bit(mu, sigma):
    from scipy.special import ndtr, ndtri

    dist = Normal(mu, sigma)
    u = np.concatenate([10.0 ** -np.arange(300.0, 0.0, -7.0), np.linspace(0.01, 0.99, 99),
                        1.0 - 10.0 ** -np.arange(1.0, 16.0)])
    x = mu + sigma * np.linspace(-38.0, 38.0, 153)
    np.testing.assert_array_equal(dist.cdf(x), ndtr((x - mu) / sigma))
    np.testing.assert_array_equal(dist.sf(x), ndtr(-((x - mu) / sigma)))
    np.testing.assert_array_equal(dist.quantile(u), mu + sigma * ndtri(u))
    np.testing.assert_array_equal(dist.quantile_upper(u), mu - sigma * ndtri(u))
    assert dist.cdf(0.5) == ndtr((0.5 - mu) / sigma)  # a scalar too


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


#: Laws with points below and above their support; on the whole line, far tails where
#: the cdf rounds to 0 or 1 and a term overflows (Gumbel(1.5) at -800: exp(801.5)).
CDF_OUTSIDE = [
    (Uniform(), [-math.inf, -1e308, -0.5, -1e-300], [1.0 + 2.0**-52, 1.5, 1e308, math.inf]),
    (Exponential(0.7), [-math.inf, -1e308, -1.0, -1e-300], [1e308, math.inf]),
    (Frechet(2.0, 0.5), [-math.inf, -1e308, -3.0, -1e-300], [1e308, math.inf]),
    (Normal(2.0, 3.0), [-math.inf, -1e308, -800.0], [800.0, 1e308, math.inf]),
    (Gumbel(1.5), [-math.inf, -1e308, -800.0], [800.0, 1e308, math.inf]),
    (Normal(1e308, 1e-300), [-math.inf, -1e308, 0.0], [math.inf]),
    (Gumbel(-1e308), [-math.inf], [1e308, math.inf]),
]


@pytest.mark.parametrize("dist, below, above", CDF_OUTSIDE,
                         ids=[law.name + "-far" * (i > 4) for i, (law, *_) in enumerate(CDF_OUTSIDE)])
def test_cdf_is_0_below_the_support_and_1_above_it(dist, below, above):
    want = [0.0] * len(below) + [1.0] * len(above)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and with no RuntimeWarning
        assert dist.cdf(np.array(below + above)).tolist() == want
        assert [dist.cdf(x) for x in below + above] == want
        assert dist.sf(np.array(below + above)).tolist() == [1.0 - w for w in want]
        assert [dist.sf(x) for x in below + above] == [1.0 - w for w in want]


def test_parameter_validation():
    for bad in (lambda: Normal(sigma=0.0), lambda: Normal(mu=math.inf),
                lambda: Exponential(-1.0), lambda: Exponential(0.0),
                lambda: Gumbel(math.nan), lambda: Frechet(0.0),
                lambda: Frechet(1.0, -2.0), lambda: Frechet(math.inf),
                lambda: Frechet(math.nan), lambda: Frechet(1.0, math.inf),
                lambda: Frechet(1.0, math.nan),
                lambda: mixture_family("scale-frechet", shape=math.inf),
                lambda: mixture_family("heteroscedastic-normal", sigma0=math.inf),
                lambda: mixture_family("heteroscedastic-normal", sigma0=math.nan)):
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


#: The exponential-family laws, by test id.
TILTS = {"scale-exponential": mixture_family("scale-exponential").law,
         "location-gumbel": mixture_family("location-gumbel").law,
         "scale-frechet(shape=2)": mixture_family("scale-frechet", shape=2.0).law}


#: A point where theta*T(x) is too small to change log C(theta) + theta*T(x).
NORMALISER_X = {"exponential": 5e-324, "gumbel": 800.0, "frechet": 1e300}


@pytest.mark.parametrize("fam", TILTS.values(), ids=list(TILTS))
def test_laplace_closed_forms(fam):
    # all three share omega(theta) = 1/(1+theta), so the log normaliser
    # log C(theta) = log1p(theta); log(1 + theta) would lose about eps/theta
    # of it at a small theta
    for theta in (1e-12, 1e-9, 1e-6, 0.01, 3.0):
        got = float(fam.log_ratio(theta)(NORMALISER_X[fam.base.name]))
        assert got == pytest.approx(math.log1p(theta), rel=1e-14, abs=0.0), theta


@pytest.mark.parametrize("fam", TILTS.values(), ids=list(TILTS))
def test_var_T_is_one(fam):
    # T is exponential(1)-distributed under each base law here; moments by
    # quadrature on the p-scale
    def moment(k):
        val, _ = integrate.quad(lambda w: float(fam.T(fam.base.quantile(w))) ** k, 0.0, 1.0,
                                epsabs=1e-12, epsrel=1e-8, limit=200)
        return val

    assert moment(2) - moment(1) ** 2 == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("fam", TILTS.values(), ids=list(TILTS))
def test_tilted_density_integrates_to_one(fam):
    ratio = fam.log_ratio(1.5)
    q = fam.base.quantile
    val, _ = integrate.quad(lambda w: math.exp(float(ratio(q(w)))), 0.0, 1.0, limit=200)
    assert val == pytest.approx(1.0, abs=1e-6)


def test_tilted_closed_forms():
    exp, gumbel, frechet = TILTS.values()
    assert exp.tilted(1.0) == Exponential(0.5)
    assert exp.tilted(0.0) == Exponential(1.0)
    assert gumbel.tilted(0.0) == Gumbel(0.0)
    assert gumbel.tilted(math.e - 1.0).loc == pytest.approx(1.0, rel=1e-15)
    assert frechet.tilted(3.0) == Frechet(2.0, 2.0)


def test_theta_domain_enforced():
    fam = TILTS["scale-exponential"]
    for theta in (-1.0, -1.5):
        with pytest.raises(DomainError):
            fam.log_ratio(theta)
        with pytest.raises(DomainError):
            fam.tilted(theta)
    # interior of the domain is fine: log C(-1/2) = log(1/2)
    assert float(fam.log_ratio(-0.5)(0.0)) == pytest.approx(math.log(0.5), rel=1e-15)


@pytest.mark.parametrize("fam, upper", [pytest.param(f, up, id=key) for (key, f), up
                                         in zip(TILTS.items(), (False, True, True))])
def test_fitted_tail_exponent_near_one(fam, upper):
    """Tail regularity: T_sup - T(Q_0(u)) ~ u^{1/p}, so the log-log slope is 1/p.

    ``upper`` names the tail of the base law that carries the tilted mass."""
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
    for name in _FAMILIES:
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
    assert set(_FAMILIES) == set(supported)
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


def test_sample_mixture_membership_is_iid_per_position():
    """Each position holds a signal with probability eps, whatever its index:
    at theta = 12, x > theta/2 tells a signal from noise."""
    n, seeds, eps = 10, 400, 0.5
    spec = MixtureSpec(mixture_family("normal"), 0.6, 72.0 / math.log(n), n,
                       epsilon_override=eps)
    assert spec.theta == pytest.approx(12.0)
    hits = np.zeros(n, dtype=int)
    for seed in range(seeds):
        data, k = sample_mixture(spec, seed)
        is_signal = data > spec.theta / 2
        assert is_signal.sum() == k
        hits += is_signal
    lo, hi = stats.binom.ppf([0.0005, 0.9995], seeds, eps)
    assert np.all((hits >= lo) & (hits <= hi)), hits


def test_sample_mixture_accepts_generator():
    spec = MixtureSpec(mixture_family("normal"), 0.6, 0.4, 200)
    data, k = sample_mixture(spec, np.random.default_rng(5))
    assert data.shape == (200,) and 0 <= k <= 200


#: every registered (family, regime), with a non-default parameter where one is taken
_PARAMS = {"heteroscedastic-normal": {"sigma0": 0.5}, "scale-frechet": {"shape": 2.0}}
_FAMILY_REGIMES = [(name, regime) for name, (regimes, _, _) in _FAMILIES.items()
                   for regime in regimes]
#: (boundary_kind, tail_exponent, theta(0.4, 100)) of each family with its _PARAMS
_FAMILY_VALUES = {
    ("normal", "sparse"): ("normal-sparse", None, 1.9194103648752328),
    ("heteroscedastic-normal", "sparse"): (None, None, 1.9194103648752328),
    ("scale-exponential", "dense"): ("expfam-dense", 1.0, 0.15848931924611134),
    ("scale-exponential", "sparse"): ("expfam-sparse", 1.0, 6.309573444801933),
    ("location-gumbel", "sparse"): ("expfam-sparse", 1.0, 6.309573444801933),
    ("location-gumbel", "dense"): ("expfam-dense", 1.0, 0.15848931924611134),
    ("scale-frechet", "sparse"): ("expfam-sparse", 1.0, 6.309573444801933),
    ("scale-frechet", "dense"): ("expfam-dense", 1.0, 0.15848931924611134),
}


@pytest.mark.parametrize("name,regime", _FAMILY_REGIMES)
def test_families_are_values(name, regime):
    """A family, and a spec built from it, survive a pickle round trip and
    compare and hash equal; ``classify`` reads the family's boundary kind and
    tail exponent."""
    fam = mixture_family(name, regime=regime, **_PARAMS.get(name, {}))
    beta = 0.6 if regime == "sparse" else 0.3
    spec = MixtureSpec(fam, beta, 0.4, 100)
    rebuilt = mixture_family(name, regime=regime, **_PARAMS.get(name, {}))
    assert rebuilt == fam and hash(rebuilt) == hash(fam)
    for value in (fam, spec):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and hash(copy) == hash(value)
    kind, p, theta = _FAMILY_VALUES[name, regime]
    assert (fam.boundary_kind, fam.tail_exponent, fam.theta(0.4, 100)) == (kind, p, theta)
    if kind is None:
        with pytest.raises(DomainError):
            classify(fam, beta, 0.4)
    else:
        assert classify(fam, beta, 0.4) == classify(kind, beta, 0.4, p=p)


@pytest.mark.parametrize("n", [2, 100, 10_000])
@pytest.mark.parametrize("eps", [None, 0.0, 1.0])
@pytest.mark.parametrize("name,regime", _FAMILY_REGIMES)
def test_pvalue_draw_matches_the_raw_data_route(name, regime, eps, n):
    """The power cells' p-value draw against the documented stream layout (the
    same generator consumption, the noise p-values exactly the open uniforms,
    the same signal p-values) and against ``to_pvalues(sample_mixture(...))``
    (the same sorted p-values and S_n, to rounding)."""
    fam = mixture_family(name, regime=regime, **_PARAMS.get(name, {}))
    beta = 0.6 if regime == "sparse" else 0.3
    spec = MixtureSpec(fam, beta, 0.4, n, epsilon_override=eps)
    five_s = (-1.0, 0.0, 0.5, 1.0, 2.0)
    for j in range(3):
        fast_rng, raw_rng, ref_rng = (replicate_rng(2026, j) for _ in range(3))
        p = np.full(n, np.nan)  # a draw that leaves an entry unwritten fails below
        _sample_pvalues(spec, fast_rng, p)
        fast = SortedPValueSample.from_values(p)
        raw = to_pvalues(sample_mixture(spec, raw_rng)[0], spec.noise)
        np.testing.assert_allclose(fast.values, raw.values, rtol=1e-12, atol=0.0)
        # the documented layout: binomial count k, then n-k noise uniforms, then k signal draws
        k = int(ref_rng.binomial(n, spec.epsilon))
        u = uniform_open(ref_rng, n - k)
        signal = to_pvalues(spec.signal.sample(k, ref_rng), spec.noise).values if k else []
        np.testing.assert_equal(fast_rng.bit_generator.state, ref_rng.bit_generator.state)
        np.testing.assert_array_equal(np.sort(p[n - k:]), signal)
        np.testing.assert_array_equal(p[: n - k], u)
        np.testing.assert_allclose(sup_statistic_values(fast, five_s),
                                   sup_statistic_values(raw, five_s), rtol=1e-11, atol=0.0)


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


def test_to_pvalues_says_a_nan_observation_is_not_a_number():
    for noise in (Normal(), Exponential(1.0), Uniform()):
        with pytest.raises(DomainError) as err:
            to_pvalues([0.5, math.nan, 0.25], noise)
        assert str(err.value) == "observation 1 is not a number"


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

    def sf(self, x):
        return 1.0 - self.cdf(x)


@dataclass(frozen=True)
class _WindowLaw:
    """A signal law whose noise is Uniform() and whose signal is _Window(0.01)."""

    base = Uniform()

    def theta(self, r, n, regime):
        return 0.0

    def tilted(self, theta):
        return _Window(0.01)


def _window_spec():
    fam = MixtureFamily("window", "sparse", _WindowLaw())
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
    assert diagnostic_H_sparse(_window_spec(), [0.01])[0] == pytest.approx(10.0, rel=1e-14)
    full = diagnostic_H(_window_spec(), [0.01])
    assert full[0] == pytest.approx(10.0, rel=1e-14)  # |1-v| + |0-v| = 1


def test_full_curve_vanishes_when_signal_is_noise():
    spec = MixtureSpec(mixture_family("normal"), 0.6, 0.0, 400)
    np.testing.assert_allclose(diagnostic_H(spec, [0.05, 0.1, 0.3, 0.49]), 0.0, atol=1e-12)


def test_sparse_dominates_full_minus_centering():
    spec = MixtureSpec(mixture_family("normal"), 0.6, 0.4, 1000)
    v = np.linspace(0.01, 0.49, 25)
    full = diagnostic_H(spec, v)
    sparse = diagnostic_H_sparse(spec, v)
    slack = 2.0 * math.sqrt(spec.n) * spec.epsilon * np.sqrt(v)
    assert np.all(sparse >= full - slack - 1e-12)


def test_diagnostic_grid_validation():
    spec = MixtureSpec(mixture_family("normal"), 0.6, 0.4, 100)
    for bad in ([0.5], [0.0, 0.1], [-0.1], [0.3, 0.6]):
        with pytest.raises(DomainError):
            diagnostic_H(spec, bad)


def _mp_quantile_upper(law, v):
    v = mpmath.mpf(v)
    if isinstance(law, Normal):
        return law.mu + law.sigma * mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * v)
    if isinstance(law, Exponential):
        return -law.scale * mpmath.log(v)
    if isinstance(law, Gumbel):
        return law.loc - mpmath.log(-mpmath.log1p(-v))
    return law.scale * (-mpmath.log1p(-v)) ** (-1 / mpmath.mpf(law.shape))  # Frechet


def _mp_sf(law, x):
    if isinstance(law, Normal):
        return mpmath.erfc((x - law.mu) / (law.sigma * mpmath.sqrt(2))) / 2
    if isinstance(law, Exponential):
        return mpmath.exp(-x / law.scale)
    if isinstance(law, Gumbel):
        return -mpmath.expm1(-mpmath.exp(-(x - law.loc)))
    return -mpmath.expm1(-(x / law.scale) ** -law.shape)  # Frechet


@pytest.mark.parametrize("name, regime, params", [
    ("normal", "sparse", {}), ("heteroscedastic-normal", "sparse", {"sigma0": 2.0}),
    ("heteroscedastic-normal", "sparse", {"sigma0": 0.5}), ("scale-exponential", "dense", {}),
    ("scale-exponential", "sparse", {}), ("location-gumbel", "sparse", {}),
    ("location-gumbel", "dense", {}), ("scale-frechet", "sparse", {}),
    ("scale-frechet", "dense", {"shape": 2.5}),
])
def test_upper_signal_mass_matches_mpmath_deep_in_the_tail(name, regime, params):
    """mu[1-v, 1) = sf_signal(Q0_upper(v)) against mpmath.  The bound is 4 eps times
    1 + kappa + |log v|: kappa = |x sf'(x)/sf(x)| carries x's rounding through sf, and
    |log v| bounds the relative error a once-rounded log-scale step (Frechet's
    exponent -1/shape) leaves in x.  Through 1 - cdf(1 - v) the normal mass at
    v = 1e-14 was 4.6e-4 relative off, about 2e12 eps."""
    beta, r = (0.6, 0.5) if regime == "sparse" else (0.3, 0.2)
    spec = MixtureSpec(mixture_family(name, regime=regime, **params), beta, r, 10_000)
    vs = [0.4, 0.1, 1e-2, 1e-4, 1e-8, 1e-12, 1e-14, 1e-16, 1e-20, 1e-50, 1e-100]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # underflow to 0 is silent
        upper = _diagnostic_terms(spec, vs)[2]
    with mpmath.workdps(130):  # 1 - 2v at v = 1e-100 for the normal quantile
        for v, g in zip(vs, upper):
            x = _mp_quantile_upper(spec.noise, v)
            want = _mp_sf(spec.signal, x)
            if want < 2.0**-1022:  # below the normal doubles: agree to the smallest one
                assert abs(g - want) < 2.0**-1022, v
                continue
            kappa = abs(x * mpmath.diff(lambda y: _mp_sf(spec.signal, y), x) / want)
            bound = 4 * EPS * (1 + kappa + abs(math.log(v)))
            assert abs(g - want) / want < bound, (v, float(abs(g - want) / want / EPS))


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
