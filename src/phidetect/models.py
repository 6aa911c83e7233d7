"""Noise/signal models, two-group mixtures, and detectability diagnostics.

The observation model is the two-group mixture ``Q_n = (1-eps_n) P_0 +
eps_n mu_n`` with ``eps_n = n^{-beta}``.  A replicate draws k ~ Bin(n, eps_n),
the n-k noise uniforms, then the k signal draws (``_draw``); ``sample_mixture``
then shuffles, so membership is i.i.d.  Signal strength follows one of
three conventions, fixed per family:

* ``theta_n = sqrt(2 r log n)`` — normal location (sparse),
* ``theta_n = n^r``             — exponential-family tilts, sparse regime,
* ``theta_n = n^{-r}``          — exponential-family tilts, dense regime.

Exponential families are tilts ``dP_theta/dP_0 = C(theta) exp(theta T(x))``
of a base noise distribution, each with a closed-form tilted law.  Every
shipped family is the scale tilt of a statistic g(X) ~ Exp(1) under P_0, with
T = -g, so ``ExponentialFamily`` states the shared facts once: omega(theta) =
1/(1+theta) on theta > -1, Var T = 1 and p = 1.

The named mixture families live in one registry, ``_FAMILIES``: each CLI
name maps to its regimes (default first), the parameters it takes and a
builder.  ``mixture_family`` is the one constructor for a registered family
and rejects any other regime or parameter; ``expfam_mixture`` builds a
mixture from any ``ExponentialFamily``.

The diagnostics H_n, H~_n (curves over v) and the exponent h_n(t) quantify
detectability; they are exact formula evaluations, no simulation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri

from ._rand import uniform_open, replicate_rng
from .divergence import SortedPValueSample
from .errors import DomainError

__all__ = [
    "Distribution",
    "Uniform",
    "Normal",
    "Exponential",
    "Gumbel",
    "Frechet",
    "ExponentialFamily",
    "scale_exponential_family",
    "location_gumbel_family",
    "scale_frechet_family",
    "MixtureFamily",
    "MixtureSpec",
    "expfam_mixture",
    "mixture_family",
    "sample_mixture",
    "to_pvalues",
    "signal_cdf_transformed",
    "diagnostic_H",
    "diagnostic_H_sparse",
    "h_exponent",
]

# The clamp of in-support p-values into the open unit interval (see to_pvalues).
_P_FLOOR = 1e-300
_P_CEIL = float(np.nextafter(1.0, 0.0))


class Distribution:
    """Continuous scalar distribution: cdf, quantile, sampling.

    ``support`` is the open interval carrying the density; cdf/quantile are
    vectorised.  Sampling draws open-interval uniforms and applies the
    quantile, so samples never sit exactly on the support boundary.
    """

    name = "distribution"
    support: tuple[float, float] = (-math.inf, math.inf)

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, u):
        raise NotImplementedError

    def quantile_upper(self, eps):
        """Upper-tail quantile Q(1 - eps), stable for tiny eps."""
        return self.quantile(1.0 - np.asarray(eps, dtype=np.float64))

    def sample(self, n: int, rng) -> np.ndarray:
        return self.quantile(uniform_open(rng, n))


def _check_unit_open(u, what: str = "probability") -> np.ndarray:
    ua = np.asarray(u, dtype=np.float64)
    if np.any(~((ua > 0.0) & (ua < 1.0))):
        raise DomainError(f"{what} must lie strictly inside (0, 1)")
    return ua


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform on (0,1) — the identity model on the p-value scale."""

    name = "uniform"
    support = (0.0, 1.0)

    def cdf(self, x):
        return np.asarray(x, dtype=np.float64)

    def quantile(self, u):
        return _check_unit_open(u)

    def quantile_upper(self, eps):
        # the value scale *is* the probability scale, so 1 - eps rounding to
        # 1.0 means the requested quantile has no open-interval representation
        out = 1.0 - _check_unit_open(eps)
        if np.any(out >= 1.0):
            raise DomainError(
                "upper-tail weight is below the floating-point resolution of "
                "the uniform upper endpoint"
            )
        return out


@dataclass(frozen=True)
class Normal(Distribution):
    mu: float = 0.0
    sigma: float = 1.0

    name = "normal"

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma) and math.isfinite(self.mu)):
            raise DomainError("normal model needs finite mu and sigma > 0")

    def cdf(self, x):
        return ndtr((np.asarray(x, dtype=np.float64) - self.mu) / self.sigma)

    def quantile(self, u):
        return self.mu + self.sigma * ndtri(_check_unit_open(u))

    def quantile_upper(self, eps):
        return self.mu - self.sigma * ndtri(_check_unit_open(eps))


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential with mean ``scale`` (rate 1/scale), support (0, inf)."""

    scale: float = 1.0

    name = "exponential"
    support = (0.0, math.inf)

    def __post_init__(self):
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise DomainError("exponential model needs scale > 0")

    def cdf(self, x):
        return -np.expm1(-np.asarray(x, dtype=np.float64) / self.scale)

    def quantile(self, u):
        return -self.scale * np.log1p(-_check_unit_open(u))

    def quantile_upper(self, eps):
        return -self.scale * np.log(_check_unit_open(eps))


@dataclass(frozen=True)
class Gumbel(Distribution):
    """Standard Gumbel location family: cdf exp(-exp(-(x - loc)))."""

    loc: float = 0.0

    name = "gumbel"

    def __post_init__(self):
        if not math.isfinite(self.loc):
            raise DomainError("gumbel model needs finite loc")

    def cdf(self, x):
        return np.exp(-np.exp(-(np.asarray(x, dtype=np.float64) - self.loc)))

    def quantile(self, u):
        return self.loc - np.log(-np.log(_check_unit_open(u)))

    def quantile_upper(self, eps):
        return self.loc - np.log(-np.log1p(-_check_unit_open(eps)))


@dataclass(frozen=True)
class Frechet(Distribution):
    """Frechet with shape a and scale sigma: cdf exp(-(x/sigma)^-a) on (0, inf)."""

    shape: float
    scale: float = 1.0

    name = "frechet"
    support = (0.0, math.inf)

    def __post_init__(self):
        if not (0.0 < self.shape < math.inf and 0.0 < self.scale < math.inf):
            raise DomainError("frechet model needs finite shape > 0 and finite scale > 0")

    def cdf(self, x):
        xa = np.asarray(x, dtype=np.float64)
        pos = xa > 0.0
        return np.where(pos, np.exp(-(np.where(pos, xa, 1.0) / self.scale) ** (-self.shape)), 0.0)

    def quantile(self, u):
        return self.scale * (-np.log(_check_unit_open(u))) ** (-1.0 / self.shape)

    def quantile_upper(self, eps):
        return self.scale * (-np.log1p(-_check_unit_open(eps))) ** (-1.0 / self.shape)


# --------------------------------------------------------------------------
# exponential families


class ExponentialFamily:
    """Tilted family dP_theta/dP_0 = C(theta) exp(theta T(x)) of a statistic
    with -T ~ Exp(1) under P_0, the scale tilt every shipped family is.

    That law fixes what the class states once: the Laplace transform
    omega(theta) = E_0 exp(theta T) = 1/(1+theta), finite on ``theta_domain``
    = (-1, inf), so log C(theta) = log1p(theta); and the regularity exponent
    p = 1 of T near its essential supremum, T_sup - T(Q_0(u near signal
    tail)) ~ u^{1/p} (``tail_exponent``).

    Parameters
    ----------
    base:
        The noise law P_0.
    statistic:
        Vectorised natural statistic T.
    tilted:
        Closed-form constructor theta -> Distribution for P_theta.
    """

    theta_domain = (-1.0, math.inf)
    tail_exponent = 1.0

    def __init__(
        self,
        base: Distribution,
        statistic: Callable,
        *,
        name: str = "expfam",
        tilted: Callable,
    ):
        self.base = base
        self.T = statistic
        self.name = name
        self._tilted = tilted

    def _check_theta(self, theta: float) -> float:
        theta = float(theta)
        lo, hi = self.theta_domain
        if not (lo < theta < hi):
            raise DomainError(
                f"theta={theta} outside the finite-Laplace domain ({lo}, {hi}) of {self.name}"
            )
        return theta

    def log_ratio(self, theta: float) -> Callable:
        """x -> log(dP_theta/dP_0)(x) = log C(theta) + theta*T(x)."""
        theta = self._check_theta(theta)
        log_c = math.log1p(theta)
        T = self.T

        def ratio(x):
            return log_c + theta * np.asarray(T(np.asarray(x, dtype=np.float64)))

        return ratio

    def tilted(self, theta: float) -> Distribution:
        """The law P_theta."""
        return self._tilted(self._check_theta(theta))


def scale_exponential_family() -> ExponentialFamily:
    """Exp(1) base tilted by T(x) = -x: P_theta = Exp(rate 1+theta)."""
    return ExponentialFamily(Exponential(1.0), lambda x: -np.asarray(x, dtype=np.float64),
                             name="scale-exponential",
                             tilted=lambda th: Exponential(1.0 / (1.0 + th)))


def location_gumbel_family() -> ExponentialFamily:
    """Gumbel base tilted by T(x) = -exp(-x): P_theta = Gumbel(log(1+theta))."""
    return ExponentialFamily(Gumbel(0.0), lambda x: -np.exp(-np.asarray(x, dtype=np.float64)),
                             name="location-gumbel", tilted=lambda th: Gumbel(math.log1p(th)))


def scale_frechet_family(shape: float = 1.0) -> ExponentialFamily:
    """Frechet(shape) base tilted by T(x) = -x^{-shape}: scale (1+theta)^{1/shape}."""
    a = float(shape)

    def tilted(th: float) -> Frechet:
        try:
            return Frechet(a, (1.0 + th) ** (1.0 / a))
        except OverflowError:
            raise DomainError(f"scale-frechet(shape={a:g}) at theta={th:g}: the tilted scale "
                              "(1+theta)^(1/shape) overflows") from None

    return ExponentialFamily(Frechet(a, 1.0), lambda x: -np.asarray(x, dtype=np.float64) ** (-a),
                             name=f"scale-frechet(shape={a:g})", tilted=tilted)


# --------------------------------------------------------------------------
# mixtures


class _ThetaRule(enum.Enum):
    SPARSE_POWER = "n^r"
    DENSE_INVERSE_POWER = "n^-r"
    NORMAL_LOCATION = "sqrt(2 r log n)"


@dataclass(frozen=True)
class MixtureFamily:
    """A named mixture construction: noise law + signal law as a function of theta."""

    name: str
    regime: str  # 'sparse' or 'dense'
    noise: Distribution
    theta_rule: _ThetaRule
    signal_of: Callable[[float], Distribution]
    log_ratio_of: Callable[[float], Callable]
    boundary_kind: str | None = None  # key into boundary.classify, when known
    tail_exponent: float | None = None

    def theta(self, r: float, n: int) -> float:
        if self.theta_rule is _ThetaRule.SPARSE_POWER:
            return float(n) ** r
        if self.theta_rule is _ThetaRule.DENSE_INVERSE_POWER:
            return float(n) ** (-r)
        return math.sqrt(2.0 * r * math.log(n))


@dataclass(frozen=True)
class MixtureSpec:
    """(family, beta, r, n): the full mixture parametrisation.

    eps_n = n^{-beta} (overridable for degenerate/null studies); theta_n per
    the family's rule.  The sparse regime tag requires beta in (1/2, 1], the
    dense tag beta in (0, 1/2); beta = 1/2 belongs to neither.
    """

    family: MixtureFamily
    beta: float
    r: float
    n: int
    epsilon_override: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("mixture needs n >= 1")
        if self.r < 0.0 or not math.isfinite(self.r):
            raise DomainError("signal strength exponent r must be >= 0")
        if self.family.regime == "sparse":
            if not 0.5 < self.beta <= 1.0:
                raise DomainError(
                    f"sparse families need beta in (1/2, 1], got beta={self.beta}"
                )
        elif self.family.regime == "dense":
            if not 0.0 < self.beta < 0.5:
                raise DomainError(
                    f"dense families need beta in (0, 1/2), got beta={self.beta}"
                )
        else:
            raise DomainError(f"unknown regime tag {self.family.regime!r}")
        eps = self.epsilon
        if not 0.0 <= eps <= 1.0:
            raise DomainError(f"mixture weight eps={eps} outside [0, 1]")

    @property
    def epsilon(self) -> float:
        if self.epsilon_override is not None:
            return float(self.epsilon_override)
        return float(self.n) ** (-self.beta)

    @property
    def theta(self) -> float:
        return self.family.theta(self.r, self.n)

    @property
    def noise(self) -> Distribution:
        return self.family.noise

    @property
    def signal(self) -> Distribution:
        return self.family.signal_of(self.theta)

    def log_ratio(self) -> Callable:
        """x -> log(d mu_n / d P_0)(x)."""
        return self.family.log_ratio_of(self.theta)


def _normal_location(regime: str) -> MixtureFamily:
    """N(0,1) noise vs N(theta_n, 1) signal, theta_n = sqrt(2 r log n)."""

    def ratio_of(theta: float) -> Callable:
        def ratio(x):
            return theta * np.asarray(x, dtype=np.float64) - 0.5 * theta * theta

        return ratio

    return MixtureFamily(
        name="normal",
        regime=regime,
        noise=Normal(),
        theta_rule=_ThetaRule.NORMAL_LOCATION,
        signal_of=lambda th: Normal(mu=th),
        log_ratio_of=ratio_of,
        boundary_kind="normal-sparse",
    )


def _heteroscedastic_normal(regime: str, sigma0: float = 1.0) -> MixtureFamily:
    """N(0,1) noise vs N(theta_n, sigma0^2) signal; no closed boundary wired."""
    if not sigma0 > 0.0:
        raise DomainError("sigma0 must be positive")

    def ratio_of(theta: float) -> Callable:
        def ratio(x):
            xa = np.asarray(x, dtype=np.float64)
            return -math.log(sigma0) + 0.5 * xa**2 - 0.5 * ((xa - theta) / sigma0) ** 2

        return ratio

    return MixtureFamily(
        name=f"heteroscedastic-normal(sigma0={sigma0:g})",
        regime=regime,
        noise=Normal(),
        theta_rule=_ThetaRule.NORMAL_LOCATION,
        signal_of=lambda th: Normal(mu=th, sigma=sigma0),
        log_ratio_of=ratio_of,
    )


def expfam_mixture(family: ExponentialFamily, regime: str, name: str | None = None) -> MixtureFamily:
    """Mixture whose signal is the exponential-family tilt P_(theta_n)."""
    if regime not in ("sparse", "dense"):
        raise DomainError("regime must be 'sparse' or 'dense'")
    rule = _ThetaRule.SPARSE_POWER if regime == "sparse" else _ThetaRule.DENSE_INVERSE_POWER
    kind = "expfam-sparse" if regime == "sparse" else "expfam-dense"
    return MixtureFamily(
        name=name or f"{family.name}[{regime}]",
        regime=regime,
        noise=family.base,
        theta_rule=rule,
        signal_of=family.tilted,
        log_ratio_of=family.log_ratio,
        boundary_kind=kind,
        tail_exponent=family.tail_exponent,
    )


def _tilt(factory: Callable[..., ExponentialFamily], name: str) -> Callable[..., MixtureFamily]:
    """Registry builder for the mixture of an exponential-family tilt."""
    return lambda regime, **params: expfam_mixture(factory(**params), regime, name=name)


#: CLI name -> (regimes, default first; parameter names; builder(regime, **params)).
_FAMILIES = {
    "normal": (("sparse",), (), _normal_location),
    "heteroscedastic-normal": (("sparse",), ("sigma0",), _heteroscedastic_normal),
    "scale-exponential": (("dense", "sparse"), (),
                          _tilt(scale_exponential_family, "scale-exponential")),
    "location-gumbel": (("sparse", "dense"), (), _tilt(location_gumbel_family, "location-gumbel")),
    "scale-frechet": (("sparse", "dense"), ("shape",),
                      _tilt(scale_frechet_family, "scale-frechet")),
}


def mixture_family(name: str, *, regime: str | None = None, **params) -> MixtureFamily:
    """Build a registered family; ``regime`` defaults to the family's first one.

    A regime or a parameter the family does not take is a ``DomainError``.
    """
    key = name.strip().lower()
    if key not in _FAMILIES:
        raise DomainError(f"unknown mixture family {name!r}; known: {', '.join(_FAMILIES)}")
    regimes, takes, build = _FAMILIES[key]
    regime = regimes[0] if regime is None else regime
    if regime not in regimes:
        raise DomainError(f"mixture family {key!r} has no regime {regime!r}; "
                          f"it has: {', '.join(regimes)}")
    unknown = ", ".join(sorted(set(params) - set(takes)))
    if unknown:
        raise DomainError(f"mixture family {key!r} takes no parameter {unknown}; "
                          f"it takes: {', '.join(takes) or 'none'}")
    return build(regime, **{k: float(v) for k, v in params.items()})


def _draw(spec: MixtureSpec, rng) -> tuple[np.ndarray, np.ndarray]:
    """The one stream layout of a mixture replicate: the signal count k =
    ``rng.binomial(n, eps)``, then the n-k noise uniforms and the k signal draws."""
    k = int(rng.binomial(spec.n, spec.epsilon))
    u = uniform_open(rng, spec.n - k)
    return u, spec.signal.sample(k, rng) if k else np.empty(0)


def sample_mixture(spec: MixtureSpec, seed) -> tuple[np.ndarray, int]:
    """Draw n observations from Q_n = (1-eps) P_0 + eps mu_n.

    ``seed`` is either an integer (replicate 0 of its stream is used) or a
    ``numpy.random.Generator``.  Returns (data, signal_count); the latent
    count is for diagnostics only and must never feed a test statistic.
    ``_draw``'s k signals go to a uniform k-subset of positions (one shuffle),
    so membership is i.i.d. per observation: the joint law is the exact mixture.
    """
    rng = seed if isinstance(seed, np.random.Generator) else replicate_rng(int(seed), 0)
    u, x = _draw(spec, rng)
    data = np.concatenate((spec.noise.quantile(u), x))
    rng.shuffle(data)
    return data, x.size


def _sample_pvalues(spec: MixtureSpec, rng) -> np.ndarray:
    """The p-values of one ``_draw``, unsorted: noise uniforms as drawn, signal via F_0."""
    u, x = _draw(spec, rng)
    return np.concatenate((u, _pit(x, spec.noise)))


def _pit(x: np.ndarray, noise: Distribution) -> np.ndarray:
    """F_0(x) clamped inside (0, 1); x outside the noise's open support is rejected."""
    lo, hi = noise.support
    ok = (x > lo) & (x < hi)
    if not np.all(ok):
        i = int(np.flatnonzero(~ok)[0])
        raise DomainError(
            f"observation {i} = {float(x[i])!r} outside the open support ({lo}, {hi}) "
            f"of {noise.name}: its p-value would be exactly 0 or 1"
        )
    return np.clip(noise.cdf(x), _P_FLOOR, _P_CEIL)


def to_pvalues(data, noise: Distribution) -> SortedPValueSample:
    """Probability-integral transform: sorted F_0(x_i), strictly inside (0,1).

    Observations outside the open support of the noise law are rejected (the
    transform would be exactly 0 or 1 there); in-support values whose cdf
    saturates in double precision are clamped to the open interval.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise DomainError("data must be a nonempty 1-d array")
    return SortedPValueSample(np.sort(_pit(x, noise)))


def signal_cdf_transformed(spec: MixtureSpec, v):
    """mu_n^{F_0}((0, v]) = signal cdf at the noise quantile of v."""
    va = _check_unit_open(v, "v")
    out = spec.signal.cdf(spec.noise.quantile(va))
    return float(out) if np.ndim(v) == 0 else out


def _diagnostic_terms(spec: MixtureSpec, v_grid):
    """Shared part of H_n and H~_n: the grid v, the signal masses mu(0,v] and
    mu[1-v,1), and the scale sqrt(n) eps_n / sqrt(v)."""
    v = np.asarray(v_grid, dtype=np.float64)
    if np.any(~((v > 0.0) & (v < 0.5))):
        raise DomainError("diagnostic grid must lie inside (0, 1/2)")
    lower = signal_cdf_transformed(spec, v)
    upper = 1.0 - signal_cdf_transformed(spec, 1.0 - v)
    return v, lower, upper, math.sqrt(spec.n) * spec.epsilon / np.sqrt(v)


def diagnostic_H(spec: MixtureSpec, v_grid) -> np.ndarray:
    """H_n(v) = (sqrt(n) eps_n / sqrt(v)) * (|mu(0,v] - v| + |mu[1-v,1) - v|) on the grid."""
    v, lower, upper, scale = _diagnostic_terms(spec, v_grid)
    return scale * (np.abs(lower - v) + np.abs(upper - v))


def diagnostic_H_sparse(spec: MixtureSpec, v_grid) -> np.ndarray:
    """Sparse simplification: drops the centering, H~ = scale * (mu(0,v] + mu[1-v,1))."""
    v, lower, upper, scale = _diagnostic_terms(spec, v_grid)
    return scale * (lower + upper)


def h_exponent(spec: MixtureSpec, t):
    """h_n(t) = max of the signal log-density-ratio at the two n^{-t} tail quantiles.

    h_{n,1} evaluates log(d mu_n/d P_0) at F_0^{-1}(n^{-t}), h_{n,2} at
    F_0^{-1}(1 - n^{-t}); the deep upper quantile is computed through the
    stable upper-tail inverse.  Requires n >= 2 and t >= log 2 / log n so
    n^{-t} <= 1/2.
    """
    if spec.n < 2:
        raise DomainError(f"h_exponent requires n >= 2, got {spec.n}")
    ratio = spec.log_ratio()
    ta = np.asarray(t, dtype=np.float64)
    t_min = math.log(2.0) / math.log(spec.n)
    if np.any(ta < t_min):
        raise DomainError(f"t must be >= log2/log n = {t_min:.6g}")
    w = np.exp(-ta * math.log(spec.n))
    h1 = ratio(spec.noise.quantile(w))
    h2 = ratio(spec.noise.quantile_upper(w))
    out = np.maximum(h1, h2)
    return float(out) if np.ndim(t) == 0 else out
