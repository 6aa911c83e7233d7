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
T = -g, so ``ExponentialFamily(base)`` states the shared facts once:
omega(theta) = 1/(1+theta) on theta > -1, Var T = 1 and p = 1; the base law
supplies g and its tilted law.

The named mixture families live in one registry, ``_FAMILIES``: each CLI
name maps to its regimes (default first), the parameters it takes with their
defaults, and a signal-law builder.  ``mixture_family`` is the one
constructor of a ``MixtureFamily(name, regime, law)`` and rejects any other
regime or parameter.  Families hold only values, so they pickle and compare
equal by value.

The diagnostics H_n, H~_n (curves over v) and the exponent h_n(t) quantify
detectability; they are exact formula evaluations, no simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._rand import _CHUNK, _fill_uniform, replicate_rng, uniform_open
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
    "MixtureFamily",
    "MixtureSpec",
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

    def sf(self, x):
        """Survival function 1 - cdf(x), without the cancellation near cdf = 1."""
        raise NotImplementedError

    def quantile(self, u):
        raise NotImplementedError

    def quantile_upper(self, eps):
        """Upper-tail quantile Q(1 - eps), stable for tiny eps."""
        raise NotImplementedError

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
        return np.clip(np.asarray(x, dtype=np.float64), 0.0, 1.0)

    def sf(self, x):
        return np.clip(1.0 - np.asarray(x, dtype=np.float64), 0.0, 1.0)

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
    """N(mu, sigma^2).  ``scipy.special`` is imported at its first cdf or quantile."""

    mu: float = 0.0
    sigma: float = 1.0

    name = "normal"

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma) and math.isfinite(self.mu)):
            raise DomainError("normal model needs finite mu and sigma > 0")

    def cdf(self, x):
        from scipy.special import ndtr
        with np.errstate(over="ignore"):  # (x - mu)/sigma = +-inf: cdf 0 or 1
            return ndtr((np.asarray(x, dtype=np.float64) - self.mu) / self.sigma)

    def sf(self, x):
        from scipy.special import ndtr
        with np.errstate(over="ignore"):  # (x - mu)/sigma = +-inf: sf 1 or 0
            return ndtr(-((np.asarray(x, dtype=np.float64) - self.mu) / self.sigma))

    def quantile(self, u):
        from scipy.special import ndtri
        return self.mu + self.sigma * ndtri(_check_unit_open(u))

    def quantile_upper(self, eps):
        from scipy.special import ndtri
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
        return -np.expm1(-np.maximum(np.asarray(x, dtype=np.float64), 0.0) / self.scale)

    def sf(self, x):
        return np.exp(-np.maximum(np.asarray(x, dtype=np.float64), 0.0) / self.scale)

    def quantile(self, u):
        return -self.scale * np.log1p(-_check_unit_open(u))

    def quantile_upper(self, eps):
        return -self.scale * np.log(_check_unit_open(eps))

    def _exp1(self, x):
        """g(x) = x/scale, Exp(1) under this law, written over the float64 array x."""
        return np.divide(x, self.scale, out=x)

    def _exp1_tilt(self, theta: float) -> Exponential:
        return Exponential(self.scale / (1.0 + theta))


@dataclass(frozen=True)
class Gumbel(Distribution):
    """Standard Gumbel location family: cdf exp(-exp(-(x - loc)))."""

    loc: float = 0.0

    name = "gumbel"

    def __post_init__(self):
        if not math.isfinite(self.loc):
            raise DomainError("gumbel model needs finite loc")

    def cdf(self, x):
        with np.errstate(over="ignore"):  # exp(-(x - loc)) = inf far below loc: cdf 0
            return np.exp(-np.exp(-(np.asarray(x, dtype=np.float64) - self.loc)))

    def sf(self, x):
        with np.errstate(over="ignore"):  # exp(-(x - loc)) = inf far below loc: sf 1
            return -np.expm1(-np.exp(-(np.asarray(x, dtype=np.float64) - self.loc)))

    def quantile(self, u):
        return self.loc - np.log(-np.log(_check_unit_open(u)))

    def quantile_upper(self, eps):
        return self.loc - np.log(-np.log1p(-_check_unit_open(eps)))

    def _exp1(self, x):
        """g(x) = exp(-(x - loc)), Exp(1) under this law, written over the float64 array x."""
        return np.exp(np.negative(np.subtract(x, self.loc, out=x), out=x), out=x)

    def _exp1_tilt(self, theta: float) -> Gumbel:
        return Gumbel(self.loc + math.log1p(theta))


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
        pos, g = self._g_above_0(x)
        return np.where(pos, np.exp(-g), 0.0)

    def sf(self, x):
        pos, g = self._g_above_0(x)
        return np.where(pos, -np.expm1(-g), 1.0)

    def _g_above_0(self, x):
        """(x > 0, (x/scale)^-shape where x > 0): the support mask and g, for cdf and sf."""
        xa = np.asarray(x, dtype=np.float64)
        pos = xa > 0.0
        with np.errstate(over="ignore"):  # g = 0 or inf in the tails: cdf 1 or 0
            return pos, (np.where(pos, xa, 1.0) / self.scale) ** (-self.shape)

    def quantile(self, u):
        return self.scale * (-np.log(_check_unit_open(u))) ** (-1.0 / self.shape)

    def quantile_upper(self, eps):
        return self.scale * (-np.log1p(-_check_unit_open(eps))) ** (-1.0 / self.shape)

    def _exp1(self, x):
        """g(x) = (x/scale)^-shape, Exp(1) under this law, written over the float64 array x."""
        return np.power(np.divide(x, self.scale, out=x), -self.shape, out=x)

    def _exp1_tilt(self, theta: float) -> Frechet:
        try:
            return Frechet(self.shape, self.scale * (1.0 + theta) ** (1.0 / self.shape))
        except OverflowError:
            raise DomainError(f"frechet(shape={self.shape:g}) at theta={theta:g}: the tilted "
                              "scale (1+theta)^(1/shape) overflows") from None


# --------------------------------------------------------------------------
# exponential families


@dataclass(frozen=True)
class ExponentialFamily:
    """Tilted family dP_theta/dP_0 = C(theta) exp(theta T(x)) of a base law
    P_0 with a statistic g(X) ~ Exp(1) under it, T = -g: the scale tilt every
    shipped family is.  ``base`` supplies g (``_exp1``) and the closed-form
    law under which g ~ Exp(1+theta) (``_exp1_tilt``), which is P_theta.

    That law fixes what the class states once: the Laplace transform
    omega(theta) = E_0 exp(theta T) = 1/(1+theta), finite on theta in
    (-1, inf), so log C(theta) = log1p(theta); and the regularity exponent
    p = 1 of T near its essential supremum, T_sup - T(Q_0(u near signal
    tail)) ~ u^{1/p} (``tail_exponent``).
    """

    base: Distribution

    tail_exponent = 1.0

    def T(self, x):
        """The natural statistic T = -g, vectorised."""
        x = np.array(x, dtype=np.float64)
        return np.negative(self.base._exp1(x), out=x)

    def _check_theta(self, theta: float) -> float:
        theta = float(theta)
        if not -1.0 < theta < math.inf:
            raise DomainError(f"theta={theta} outside the finite-Laplace domain (-1.0, inf) "
                              f"of the {self.base.name} tilt")
        return theta

    def log_ratio(self, theta: float) -> Callable:
        """x -> log(dP_theta/dP_0)(x) = log C(theta) + theta*T(x)."""
        return _on_copy(self._log_ratio_over(theta))

    def _log_ratio_over(self, theta: float) -> Callable:  # log_ratio, over a float64 x
        theta = self._check_theta(theta)
        log_c = math.log1p(theta)

        def ratio(x):
            np.negative(self.base._exp1(x), out=x)  # T
            return np.add(np.multiply(x, theta, out=x), log_c, out=x)

        return ratio

    def tilted(self, theta: float) -> Distribution:
        """The law P_theta."""
        return self.base._exp1_tilt(self._check_theta(theta))

    def theta(self, r: float, n: int, regime: str) -> float:
        """theta_n = n^r in the sparse regime, n^-r in the dense one."""
        return float(n) ** (r if regime == "sparse" else -r)

    def boundary_kind(self, regime: str) -> str:
        return f"expfam-{regime}"


def _on_copy(ratio: Callable) -> Callable:
    """A log ratio that writes over its float64 argument, applied to a copy of x."""
    return lambda x: ratio(np.array(x, dtype=np.float64))


# --------------------------------------------------------------------------
# mixtures


@dataclass(frozen=True)
class _NormalShift:
    """N(theta, sigma0^2) signal against N(0, 1) noise, theta_n = sqrt(2 r log n).

    ``sigma0=None`` is the normal location model, the one with a closed-form
    boundary; a number is the heteroscedastic family, which has none.
    """

    sigma0: float | None = None

    base = Normal()
    tail_exponent = None

    def __post_init__(self):
        if self.sigma0 is not None and not 0.0 < self.sigma0 < math.inf:
            raise DomainError(f"heteroscedastic-normal needs finite sigma0 > 0, got {self.sigma0}")

    def log_ratio(self, theta: float) -> Callable:
        """x -> log(dN(theta, sigma0^2)/dN(0, 1))(x)."""
        return _on_copy(self._log_ratio_over(theta))

    def _log_ratio_over(self, theta: float) -> Callable:  # log_ratio, over a float64 x
        s = self.sigma0
        if s is None:  # theta x - theta^2/2
            return lambda x: np.subtract(np.multiply(x, theta, out=x), 0.5 * theta * theta, out=x)

        def ratio(x):  # -log s + x^2/2 - ((x - theta)/s)^2/2, the last term in chunks
            flat = x.reshape(-1)
            w = np.empty(min(flat.size, _CHUNK))
            for i in range(0, flat.size, _CHUNK):
                b = flat[i : i + _CHUNK]
                t = w[: b.size]
                np.square(np.divide(np.subtract(b, theta, out=t), s, out=t), out=t)
                np.add(np.multiply(np.square(b, out=b), 0.5, out=b), -math.log(s), out=b)
                np.subtract(b, np.multiply(t, 0.5, out=t), out=b)
            return x

        return ratio

    def tilted(self, theta: float) -> Normal:
        return Normal(theta, self.sigma0 or 1.0)

    def theta(self, r: float, n: int, regime: str) -> float:
        return math.sqrt(2.0 * r * math.log(n))

    def boundary_kind(self, regime: str) -> str | None:
        return "normal-sparse" if self.sigma0 is None else None


@dataclass(frozen=True)
class MixtureFamily:
    """A named mixture: a regime and a signal law, which holds the noise law P_0
    (``base``), the theta_n rule and P_theta.  Values only, so it pickles."""

    name: str
    regime: str  # 'sparse' or 'dense'
    law: ExponentialFamily | _NormalShift

    @property
    def noise(self) -> Distribution:
        return self.law.base

    @property
    def boundary_kind(self) -> str | None:
        """The key into boundary.classify, when the family has a closed-form boundary."""
        return self.law.boundary_kind(self.regime)

    @property
    def tail_exponent(self) -> float | None:
        return self.law.tail_exponent

    def theta(self, r: float, n: int) -> float:
        return self.law.theta(r, n, self.regime)


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
        return self.family.law.tilted(self.theta)

    def log_ratio(self) -> Callable:
        """x -> log(d mu_n / d P_0)(x)."""
        return self.family.law.log_ratio(self.theta)


#: CLI name -> (regimes, default first; parameters with their defaults; law builder).
#: The tilts: Exp(1) by T = -x, Gumbel by T = -e^-x, Frechet(shape) by T = -x^-shape.
_FAMILIES = {
    "normal": (("sparse",), {}, _NormalShift),
    "heteroscedastic-normal": (("sparse",), {"sigma0": 1.0}, _NormalShift),
    "scale-exponential": (("dense", "sparse"), {}, lambda: ExponentialFamily(Exponential())),
    "location-gumbel": (("sparse", "dense"), {}, lambda: ExponentialFamily(Gumbel())),
    "scale-frechet": (("sparse", "dense"), {"shape": 1.0},
                      lambda shape: ExponentialFamily(Frechet(shape))),
}


def mixture_family(name: str, *, regime: str | None = None, **params) -> MixtureFamily:
    """Build a registered family; ``regime`` defaults to the family's first one.

    A regime or a parameter the family does not take is a ``DomainError``.
    """
    key = name.strip().lower()
    if key not in _FAMILIES:
        raise DomainError(f"unknown mixture family {name!r}; known: {', '.join(_FAMILIES)}")
    regimes, defaults, build = _FAMILIES[key]
    regime = regimes[0] if regime is None else regime
    if regime not in regimes:
        raise DomainError(f"mixture family {key!r} has no regime {regime!r}; "
                          f"it has: {', '.join(regimes)}")
    unknown = ", ".join(sorted(set(params) - set(defaults)))
    if unknown:
        raise DomainError(f"mixture family {key!r} takes no parameter {unknown}; "
                          f"it takes: {', '.join(defaults) or 'none'}")
    params = {**defaults, **{k: float(v) for k, v in params.items()}}
    return MixtureFamily(key, regime, build(**params))


def _draw(spec: MixtureSpec, rng, row: np.ndarray) -> np.ndarray:
    """A mixture replicate's one stream layout: the signal count k = ``rng.binomial(n, eps)``,
    the n-k noise uniforms, written into ``row[:n-k]``, then the k signal draws, returned."""
    k = int(rng.binomial(spec.n, spec.epsilon))
    _fill_uniform(rng, row[: spec.n - k])
    return spec.signal.sample(k, rng) if k else np.empty(0)


def sample_mixture(spec: MixtureSpec, seed) -> tuple[np.ndarray, int]:
    """Draw n observations from Q_n = (1-eps) P_0 + eps mu_n.

    ``seed`` is either an integer (replicate 0 of its stream is used) or a
    ``numpy.random.Generator``.  Returns (data, signal_count); the latent
    count is for diagnostics only and must never feed a test statistic.
    ``_draw``'s k signals go to a uniform k-subset of positions (one shuffle),
    so membership is i.i.d. per observation: the joint law is the exact mixture.
    """
    rng = seed if isinstance(seed, np.random.Generator) else replicate_rng(int(seed), 0)
    data = np.empty(spec.n)
    x = _draw(spec, rng, data)
    m = spec.n - x.size
    data[:m], data[m:] = spec.noise.quantile(data[:m]), x
    rng.shuffle(data)
    return data, x.size


def _sample_pvalues(spec: MixtureSpec, rng, row: np.ndarray) -> None:
    """Write one ``_draw``'s p-values into ``row``: noise uniforms as drawn, signals via F_0."""
    x = _draw(spec, rng, row)
    row[spec.n - x.size :] = _pit(x, spec.noise)


def _pit(x: np.ndarray, noise: Distribution) -> np.ndarray:
    """F_0(x) clamped inside (0, 1); x outside the noise's open support is rejected."""
    lo, hi = noise.support
    ok = (x > lo) & (x < hi)
    if not np.all(ok):
        i = int(np.flatnonzero(~ok)[0])
        raise DomainError(f"observation {i} is not a number" if np.isnan(x[i]) else
                          f"observation {i} = {float(x[i])!r} outside the open support "
                          f"({lo}, {hi}) of {noise.name}: its p-value would be exactly 0 or 1")
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
    upper = spec.signal.sf(spec.noise.quantile_upper(v))
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
