"""Detection boundaries in the (beta, r) plane and regime classification.

Closed forms: rho(beta) for the sparse normal location mixture, rho*(beta)
for dense exponential-family tilts, and beta^#(r, p) for sparse tilts with
tail-regularity exponent p.  The numeric routes recover beta^# from an
exponent function (gamma on the n^{-t}-quantile scale, or alpha on the
sqrt(2 log n) scale) by maximising the corresponding variational expression
on a grid — a grid approximation of an essential supremum, exact in the
limit for the piecewise-continuous exponents that occur here.  Exponent
functions are called once on the whole grid, so they must be vectorised.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "rho_normal_sparse",
    "rho_dense",
    "beta_sharp_expfam",
    "beta_sharp_from_gamma",
    "beta_sharp_from_alpha",
    "Verdict",
    "RegimeClassification",
    "classify",
    "BOUNDARY_KINDS",
]

DEFAULT_GRID_POINTS = 10_000
DEFAULT_TOLERANCE = 1e-9


def rho_normal_sparse(beta: float) -> float:
    """Sparse normal-location boundary rho(beta) on (1/2, 1).

    beta - 1/2 on (1/2, 3/4], (1 - sqrt(1 - beta))^2 on (3/4, 1); the
    branches agree at 3/4.
    """
    beta = float(beta)
    if not 0.5 < beta < 1.0:
        raise DomainError(f"rho_normal_sparse needs beta in (1/2, 1), got {beta}")
    if beta <= 0.75:
        return beta - 0.5
    return (1.0 - math.sqrt(1.0 - beta)) ** 2


def rho_dense(beta: float) -> float:
    """Dense exponential-family boundary rho*(beta) = 1/2 - beta on (0, 1/2)."""
    beta = float(beta)
    if not 0.0 < beta < 0.5:
        raise DomainError(f"rho_dense needs beta in (0, 1/2), got {beta}")
    return 0.5 - beta


def beta_sharp_expfam(r: float, p: float) -> float:
    """Sparse exponential-family threshold beta^#(r, p) = (min(rp, 1) + 1)/2 for
    finite r >= 0 and p > 0; 1/2 at r = 0, its r -> 0 limit."""
    r, p = float(r), float(p)
    if not (0.0 <= r < math.inf and 0.0 < p < math.inf):
        raise DomainError(f"beta_sharp_expfam needs finite r >= 0 and p > 0, got r={r}, p={p}")
    return (min(r * p, 1.0) + 1.0) / 2.0


def _grid_eval(fn: Callable, lo: float, hi: float, grid_points: int, what: str):
    if grid_points < 1_000:
        raise DomainError(f"{what} needs grid_points >= 1000, got {grid_points}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"{what} needs a finite domain with lower < upper")
    t = np.linspace(lo, hi, int(grid_points))
    vals = np.asarray(fn(t), dtype=np.float64)
    if vals.shape != t.shape:
        raise DomainError(f"{what}: function must map the t grid to an array of its shape")
    if not np.all(np.isfinite(vals)):
        raise DomainError(f"{what}: function returned non-finite values on the grid")
    return t, vals


def beta_sharp_from_gamma(
    gamma_fn: Callable,
    t_min: float,
    t_max: float = 10.0,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> float:
    """Numeric threshold 1/2 + max_t { gamma(t) - t + min(t,1)/2 } over a grid."""
    t, g = _grid_eval(gamma_fn, t_min, t_max, grid_points, "beta_sharp_from_gamma")
    return 0.5 + float(np.max(g - t + np.minimum(t, 1.0) / 2.0))


def beta_sharp_from_alpha(
    alpha_fn: Callable,
    x_min: float,
    x_max: float = 10.0,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> float:
    """Numeric threshold 1/2 + max_t { alpha(t) - t^2 + min(t^2,1)/2 } over a grid."""
    t, a = _grid_eval(alpha_fn, x_min, x_max, grid_points, "beta_sharp_from_alpha")
    t2 = t * t
    return 0.5 + float(np.max(a - t2 + np.minimum(t2, 1.0) / 2.0))


class Verdict(enum.Enum):
    DETECTABLE = "Detectable"
    UNDETECTABLE = "Undetectable"
    ON_BOUNDARY = "OnBoundary"


@dataclass(frozen=True)
class RegimeClassification:
    """Where (beta, r) sits relative to a family's detection boundary.

    ``margin`` is signed toward detectability: positive means inside the
    detectable region by that amount (in r for the r-thresholds, in beta for
    the beta^# threshold).
    """

    verdict: Verdict
    threshold_value: float
    margin: float


BOUNDARY_KINDS = ("normal-sparse", "expfam-sparse", "expfam-dense")


def _verdict(margin: float) -> Verdict:
    if margin > DEFAULT_TOLERANCE:
        return Verdict.DETECTABLE
    if margin < -DEFAULT_TOLERANCE:
        return Verdict.UNDETECTABLE
    return Verdict.ON_BOUNDARY


def classify(model_family, beta: float, r: float, *, p: float | None = None) -> RegimeClassification:
    """Classify (beta, r) for a family with a known closed-form boundary.

    ``model_family`` is one of the kind strings in ``BOUNDARY_KINDS`` or a
    mixture family carrying a ``boundary_kind``.  Sparse tilts need the tail
    exponent p (taken from the family when available).  r must be finite and
    >= 0, as in ``MixtureSpec``; a margin within ``DEFAULT_TOLERANCE`` of 0 is
    on the boundary.
    """
    kind = model_family
    if hasattr(model_family, "boundary_kind"):
        kind = model_family.boundary_kind
        if p is None:
            p = getattr(model_family, "tail_exponent", None)
    if kind not in BOUNDARY_KINDS:
        raise DomainError(
            f"no known boundary for family {model_family!r}; expected one of {BOUNDARY_KINDS}"
        )
    beta, r = float(beta), float(r)
    if not (math.isfinite(r) and r >= 0.0):
        raise DomainError(f"signal strength exponent r must be finite and >= 0, got {r}")
    if kind == "normal-sparse":
        threshold = rho_normal_sparse(beta)
        margin = r - threshold
    elif kind == "expfam-dense":
        threshold = rho_dense(beta)
        margin = threshold - r
    else:  # expfam-sparse: boundary lives on the beta axis
        if p is None:
            raise DomainError("expfam-sparse classification needs the tail exponent p")
        if not 0.5 < beta <= 1.0:
            raise DomainError(f"sparse classification needs beta in (1/2, 1], got {beta}")
        threshold = beta_sharp_expfam(r, p)
        margin = threshold - beta
    return RegimeClassification(_verdict(margin), threshold, margin)
