"""Phi-divergence goodness-of-fit statistics on the p-value scale.

The family is indexed by a real parameter ``s``.  The convex generator is ::

    phi_s(x) = (1 - s + s*x - x**s) / (s*(1-s))    for s not in {0, 1}
    phi_0(x) = x - log(x) - 1
    phi_1(x) = x*(log(x) - 1) + 1

and the statistic compares the empirical CDF ``F_n`` of transformed
observations with the uniform CDF through the two-point divergence ::

    K_s(u, v) = v*phi_s(u/v) + (1-v)*phi_s((1-u)/(1-v)).

``sup_statistic`` maximises ``K_s(F_n(x), x)`` over the observation range.
``v -> K_s(u, v)`` is convex (phi_s''(x) = x**(s-2) > 0), so on each interval
where ``F_n`` is constant the supremum sits at an interval endpoint; the
implementation therefore evaluates only the 2(n-1) endpoint candidates and is
exact, with no grid search.

Numerics: everything is written in the jump ``d = u - v``.  Three members need
no transcendental function:

    s = 2   (higher criticism):  K_2  = d**2 / (2 v (1-v))
    s = -1  (Neyman chi^2):      K_-1 = d**2 / (2 u (1-u))
    s = 1/2 (Hellinger):         K_1/2 = 2[(d/(sqrt(u)+sqrt(v)))**2
                                          + (d/(sqrt(1-u)+sqrt(1-v)))**2]

Each is a handful of correctly rounded operations with no cancellation, so it
is accurate to a few ulps everywhere, including v at the p-value floor 1e-300
(where K_2 is about 1e299, finite).  Every other s uses ``expm1``/``log1p``,
centred at the nearer of s = 0 and s = 1 (v*e^(s*L1) = u*e^((s-1)*L1)):

    K_s(u,v) = -(v*expm1(s*L1) + (1-v)*expm1(s*L2)) / (s*(1-s))           s <= 1/2 or s >= 2
    K_s(u,v) = -(u*expm1((s-1)*L1) + (1-u)*expm1((s-1)*L2)) / (s*(1-s))   1/2 < s < 2
    L1 = log1p(d/v),  L2 = log1p(-d/(1-v)),

with the limits K_0 = -(v*L1 + (1-v)*L2) and K_1 = u*L1 + (1-u)*L2, used for
every s within ``S_REGIME_TOL`` of 0 or 1 (``_kernel_s``, the one place that
choice is written).  The terms are about s*d and -s*d (resp. (s-1)*d and
-(s-1)*d), so the relative error is O(eps/|d|) times 1/|1-s| (resp. 1/|s|), at
most 2 on (-1, 2), not O(eps/d**2) as in the textbook form.  No term overflows
for s < 2, so those K_s are finite at the floor; for s > 2, where e^(s*L1)
overflows before the scaling by v, v*expm1(s*L1) is recomputed as
exp(s*log(u) + (1-s)*log(v)), and where d/v overflows (a subnormal v), L1 as
log(u) - log(v).

Screen for every s in (-1, 2).  With c = (1-u)/(1-v), d/dv K_s(u, v) =
(c**s - (u/v)**s)/s and K_s(u, u) = 0, so ::

    K_s(u, v) = int_v^u int_b(t)^a(t) x**(s-1) dx dt,  a = u/t, b = (1-u)/(1-t).

For v < u, t < u gives a > 1 > b; for v > u both integrals run backwards.
Either way K_s is a positive mixture of x**(s-1) = e^((s-1) log x), which is
convex in s, so s -> K_s(u, v) is convex, and for s = 2 - 3w with w in [0, 1]
K_s <= w K_-1 + (1-w) K_2 <= max(K_2, K_-1) = B, with K_2 and K_-1 the closed
forms above.  So the maxima of the s in (-1, 2) need K_s only on the few
candidates whose bound reaches an exact K_s value (see ``_screened``); the
result is bit-identical to a full pass.  Outside [-1, 2] the bound fails
(K_s/B exceeds 1e5 at s = 2.5 and -1.5 for some (u, v) in (1e-12, 1)), so
those s make a full pass.

Pair-max rule.  The candidates (u_j, X_j) and (u_{j-1}, X_j), u_i = i/n, share
K_2's q = 2 fl(X_j(1-X_j)), and a u-group's, (u_i, X_i) and (u_i, X_{i+1}),
share K_-1's q = 2 fl(u_i(1-u_i)).  Rounding is monotone and odd, so for fixed
q > 0 the rounded (d/q)*d is even in d and nondecreasing in |d|: a pair's larger
value is the one at D_j = max(u_j - X_j, X_j - u_{j-1}) (u_0, u_n read as u_1,
u_{n-1}) or D1_i = max(u_i - X_i, X_{i+1} - u_i), each one candidate's |d| bit
for bit, as fl(a - b) = -fl(b - a).  So K_2 is computed once per order
statistic, K_-1 once per u-step, and the screen bounds a u-group by the larger
of its K_-1 and the K_2 at X_i and X_{i+1}: at least B at both its candidates.

Long rows skip the sort.  ``_sup`` takes rows in any order; it sorts a copy
(a copy alone of rows it is told are sorted, as the statistics' are) unless
n >= ``_LONG_N`` (2^14) and every s is in [-1, 2].  Then ``_bucketed``
puts the values in m = 2^k buckets of width 1/m, n/16 < m <= n/8 (floor(m x)
is exact), and a cumsum of the counts gives bucket k the ranks lo+1..hi.  Its
candidates lie in the box u in [lo/n, hi/n], X in [k/m, (k+1)/m], where each
K_s with s in [-1, 2] is at most B <= (largest (u-v)^2)/(2 least u(1-u) or
v(1-v)).  The ``_TOP`` buckets with the largest bounds (the edges' is inf) are
sorted, ranked from the counts and evaluated as a sorted row's candidates are
(``_k_into``); t, the least over s of their largest K_s, is at most each max,
so another bucket is evaluated only if its bound reaches ``_cut`` below t
(rarely): bit-identical maxima, with no n log n sort or n-long K_2 pass.

``_sup`` is the one path from samples to S_n(s), shared by the statistics (a
one-row stack) and the Monte-Carlo loop of null tables, power cells and
boundary comparisons (stacks, ``nulldist._mc_stats``).  Overflow (K_s = inf
near p = 0) is silenced by ``np.errstate`` in ``sup_statistic_values`` and
that loop only.  A sorted stack is read flat: slot j - 1 of a row holds X_j,
K_2 at X_j and u-group j (the last slot no u-group).  Each pass covers the
stack, so a stack pays numpy's per-call overhead once, and each reduction
stays in a row, so a row's values do not depend on its stack.  Each thread
keeps one workspace, for its last path, n and R (numpy releases the GIL, so a
shared one would race); no view of it outlives a call.  A call that needs
another drops the old one before it builds the new, so a thread that serves
short and long rows, or several n, never holds two at once (``_workspace``).
"""

from __future__ import annotations

import collections
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "S_REGIME_TOL",
    "SortedPValueSample",
    "phi",
    "kappa",
    "sup_statistic",
    "sup_statistic_values",
    "z_sup",
]

#: Proximity threshold for switching to the s=0 / s=1 closed forms.
S_REGIME_TOL = 1e-8


def _finite_s(s) -> float:
    """The divergence parameter as a float, checked where it enters from outside."""
    s = float(s)
    if not math.isfinite(s):
        raise DomainError(f"divergence parameter must be finite, got {s!r}")
    return s


def _kernel_s(s: float) -> float:
    """s as the kernel reads it: 0.0 or 1.0 where |s| or |s - 1| is below
    ``S_REGIME_TOL`` (the log forms K_0 and K_1), otherwise s itself.

    The one place the log-form choice is written; ``_plan`` applies it once
    per s, and ``_k_into`` and ``phi`` then test s == 0.0 and s == 1.0.
    """
    if abs(s) < S_REGIME_TOL:
        return 0.0
    if abs(s - 1.0) < S_REGIME_TOL:
        return 1.0
    return s


@dataclass(frozen=True, eq=False)
class SortedPValueSample:
    """n observations on the p-value scale: sorted, strictly inside (0, 1).

    Build with :meth:`from_values` (sorts a raw array) or pass an already
    sorted array directly.  A single observation is accepted (``z_sup`` is
    defined for n=1); ``sup_statistic`` itself requires n >= 2.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise DomainError("sample must be a 1-d array with at least one value")
        # NaN and +-inf fail these positive comparisons, so one pass checks all
        if not (v[0] > 0.0 and v[-1] < 1.0 and np.all(v[1:] >= v[:-1])):
            raise DomainError("sample values must be finite, sorted and strictly inside (0, 1)")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def from_values(cls, raw) -> "SortedPValueSample":
        return cls(np.sort(np.asarray(raw, dtype=np.float64)))

    @property
    def n(self) -> int:
        return int(self.values.size)


def phi(s: float, x) -> float | np.ndarray:
    """Evaluate the convex generator phi_s at x >= 0.

    Total on the domain: x=0 returns the right limit (1/s for s>0 outside
    {1}, 1.0 at s=1, +inf for s<=0), and x = +inf, or an x whose terms
    overflow, returns +inf.  phi_s(x) >= 0 with equality iff x == 1.
    """
    s = _kernel_s(_finite_s(s))
    xa = np.asarray(x, dtype=np.float64)
    if np.any(np.isnan(xa)) or np.any(xa < 0.0):
        raise DomainError("phi requires x >= 0")
    w = xa - 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lx = np.log1p(w)  # log(x); -inf at x=0
        if s == 0.0:
            out = w - lx
        elif s == 1.0:
            out = np.where(xa == 0.0, 1.0, xa * lx - w)  # 0*log(0) limit
        else:
            out = (s * w - np.expm1(s * lx)) / (s * (1.0 - s))
            if 0.5 < s < 2.0:  # centred at s = 1, as in ``_k_into``: x^s = x e^((s-1) log x)
                near = -w / s - xa * np.expm1((s - 1.0) * lx) / (s * (1.0 - s))
                out = np.where(np.isfinite(near), near, out)  # 0*inf at x = 0, inf - inf at huge x
            elif s < -1.0:  # s * w overflows near the float maximum, where phi_s is finite
                out = np.where(np.isinf(out), w / (1.0 - s) - np.expm1(s * lx) / (s * (1.0 - s)), out)
        out = np.where(np.isnan(out), np.inf, out)  # inf - inf: phi_s -> +inf as x -> inf
    return float(out) if np.ndim(x) == 0 else out


def _k_into(s: float, u, cu, v, cv, d, out, a, b) -> np.ndarray:
    """K_s(u, v) into ``out``; ``cu``, ``cv`` are 1 - u, 1 - v and ``d`` = u - v.

    The one switch over the K_s forms: every K_s evaluation in the package
    goes through it, or through its ``_chi2`` for K_-1 per u-step.  ``s``
    comes from ``_kernel_s``, so s == 0.0 and s == 1.0 select the log forms.
    ``a`` and ``b`` are scratch, which the log and expm1 forms fill with
    L1 = log(u/v), L2 = log((1-u)/(1-v)).  Its callers silence overflow once per
    call or per loop, so the stacked loop's kernel calls pay for no ``errstate``.
    """
    if s == 2.0 or s == -1.0:  # d^2 / (2w(1-w)), with w = v for s=2 and w = u for s=-1
        w, cw = (v, cv) if s == 2.0 else (u, cu)
        np.multiply(w, cw, out=out)
        return _chi2(d, np.add(out, out, out=out), out)
    if s == 0.5:  # 2[(d/(sqrt(u)+sqrt(v)))^2 + (d/(sqrt(1-u)+sqrt(1-v)))^2]
        np.add(np.sqrt(u, out=a), np.sqrt(v, out=b), out=a)
        np.square(np.divide(d, a, out=out), out=out)
        np.add(np.sqrt(cu, out=a), np.sqrt(cv, out=b), out=a)
        out += np.square(np.divide(d, a, out=a), out=a)
        return np.add(out, out, out=out)
    np.log1p(np.divide(d, v, out=a), out=a)
    if a.max(initial=0.0) == math.inf:  # d/v overflowed: v is subnormal
        big = a == math.inf
        a[big] = np.log(u[big]) - np.log(v[big])
    np.log1p(np.divide(np.negative(d, out=b), cv, out=b), out=b)
    if s == 0.0:
        np.multiply(v, a, out=out)
        out += cv * b
        return np.negative(out, out=out)
    if s == 1.0:
        np.multiply(u, a, out=out)
        out += cu * b
        return out
    # w*e^(c*L1) = u^s v^(1-s): centred at s = 1 on (1/2, 2), else at s = 0 (no cu read)
    c, w, cw = (s - 1.0, u, cu) if 0.5 < s < 2.0 else (s, v, cv)
    np.expm1(np.multiply(a, c, out=out), out=out)
    out *= w
    if out.max(initial=0.0) == math.inf:  # s > 2: e^(s*L1) overflowed before the scaling by v:
        big = out == math.inf  # there v*expm1(s*L1) = u^s v^(1-s) to within v
        out[big] = np.exp(s * np.log(u[big]) + (1.0 - s) * np.log(v[big]))
    np.expm1(np.multiply(b, c, out=b), out=b)
    b *= cw
    out += b
    return np.divide(out, -(s * (1.0 - s)), out=out)


def kappa(s: float, u, v) -> float | np.ndarray:
    """Two-point divergence K_s(u, v) for u, v strictly inside (0, 1).

    Symmetric under (u, v) -> (1-u, 1-v); zero iff u == v; convex in v.
    """
    s = _kernel_s(_finite_s(s))
    ua = np.asarray(u, dtype=np.float64)
    va = np.asarray(v, dtype=np.float64)
    if np.any(~((ua > 0.0) & (ua < 1.0))):
        raise DomainError("kappa requires 0 < u < 1")
    if np.any(~((va > 0.0) & (va < 1.0))):
        raise DomainError("kappa requires 0 < v < 1")
    # contiguous operands of one shape: the kernel's elementwise arithmetic, bit for bit
    shape = np.broadcast_shapes(ua.shape, va.shape)
    ub, vb = (np.array(np.broadcast_to(x, shape), ndmin=1) for x in (ua, va))
    with np.errstate(over="ignore"):
        out = _k_pairs((s,), ub, vb, 1.0 - vb)[0]
    return out if shape else float(out[0])


def _k_pairs(keys: tuple[float, ...], u, v, cv) -> np.ndarray:
    """K_s(u, v), a row per s in ``keys``, at the pairs (u, v) of one shape; ``cv`` = 1 - v."""
    cu, d = 1.0 - u, u - v
    a, b, *ks = out = np.empty((2 + len(keys), *v.shape))
    for s, k in zip(keys, ks):
        _k_into(s, u, cu, v, cv, d, k, a, b)
    return out[2:]


_thread_slot = threading.local()


def _workspace(build, *key):
    """This thread's one kernel workspace, ``build(*key)``, kept while calls ask for the
    same.  The reuse test reads the key alone and the slot drops the old workspace
    before the new one is built, so its arrays are freed first: never two at once."""
    slot = _thread_slot
    if getattr(slot, "key", None) != (build, *key):
        slot.ws = slot.key = None
        slot.ws, slot.key = build(*key), (build, *key)
    return slot.ws


#: The sorted path's workspace (in the thread's one slot, which ``_Lw`` shares): u_i;
#: then, R*n long, u_j, u_{j-1}, 2u(1-u), X, 1 - X, K_2 and scratch.
_Ws = collections.namedtuple("_Ws", "u ur ul du x cx k2 out a b")


def _sorted_ws(n: int, r: int) -> _Ws:
    u = np.arange(1, n, dtype=np.float64) / n
    steps = (np.append(u, u[-1]), np.insert(u, 0, u[0]), np.append(2.0 * (u * (1.0 - u)), 1.0))
    return _Ws(u, *(np.tile(y, r) for y in steps), *(np.empty(r * n) for _ in range(6)))


def _chi2(d, q, out) -> np.ndarray:
    """(d / q) * d into ``out``: K_2 and K_-1 with their denominators q."""
    return np.multiply(np.divide(d, q, out=out), d, out=out)


def _chi2_rows(x: np.ndarray, n: int, ws: _Ws, kn: bool) -> np.ndarray:
    """K_2 at each order statistic of the flat stack ``x`` (in ``k2``) and, if
    ``kn``, K_-1 of each u-group (0 in a row's last slot), by the pair-max rule."""
    e, f = np.subtract(ws.ur, x, out=ws.a), np.subtract(x, ws.ul, out=ws.b)
    k2 = _k_into(2.0, None, None, x, ws.cx, np.maximum(e, f, out=ws.out), ws.k2, None, None)
    if not kn:
        return k2
    _chi2(np.maximum(e[:-1], f[1:], out=ws.out[:-1]), ws.du[:-1], f[:-1])  # D1_i, then K_-1
    f[n - 1 :: n] = 0.0
    return f


def _k_groups(groups: np.ndarray, x: np.ndarray, ws: _Ws, screened: tuple[float, ...]):
    """Rows K_s, one per s in ``screened``, at both candidates of each u-group in
    ``groups`` (slots of ``x``), interleaved: one gather."""
    iu, iv = np.repeat(groups, 2), (groups[:, None] + (0, 1)).ravel()
    return _k_pairs(screened, ws.ur[iu], x[iv], ws.cx[iv])


@functools.lru_cache(maxsize=256)
def _plan(s_values: tuple[float, ...]):
    """How ``_sup`` serves ``s_values``, as kernel s (``_kernel_s``): the distinct
    s in (-1, 2); then 2.0 and -1.0, which the screen yields, and the rest.
    Also each of ``s_values``' place in that order, and whether all are in [-1, 2]."""
    if not s_values:
        raise DomainError("need at least one divergence parameter s")
    forms = [_kernel_s(s) for s in s_values]
    screened = tuple(dict.fromkeys(s for s in forms if -1.0 < s < 2.0))
    keys = (*screened, 2.0, -1.0) if screened else ()
    keys += tuple(s for s in dict.fromkeys(forms) if s not in keys)
    order = np.array([keys.index(s) for s in forms])
    order.flags.writeable = False  # shared by every call with these s_values
    return screened, keys, order, all(-1.0 <= s <= 2.0 for s in keys)


def _cut(t: float) -> float:
    """The cut below t, an exact K_s: no bound below it holds a maximum (``_screened``)."""
    t = max(t, 0.0)
    return t - 2.0 * (1e-9 * t + 1e-14 * math.sqrt(t)) if t < math.inf else -math.inf


def _screened(x: np.ndarray, n: int, ws: _Ws, screened: tuple[float, ...], vals) -> None:
    """Each row's max of K_s for each s in ``screened`` (all in (-1, 2)) into the
    first len(``screened``) rows of ``vals``, and of K_2 and K_-1 into the next two.

    A row's t, the smallest over ``screened`` of the largest K_s in the u-groups
    around its argmaxes of K_2 and K_-1, bounds each of its maxima from below.
    A u-group whose bound (at least B, see the module docstring) is below t is
    dropped only with a margin that covers rounding, which matters only for
    near-tied samples:
    - 1e-9 relative covers B and the s = 1/2 form, sums of positive terms good
      to a few ulps, and the relative error the other forms take from L1 and
      L2, each good to a few ulps of |L1| <= 745: about 1e-12 after e^(s*L1);
    - 1e-14*sqrt(t) covers the cancellation in the log forms: u*L1 and
      (1-u)*L2 are about d and -d, so K_0 and K_1 err by a few ulps of
      2|d| + 2B, with |d| <= sqrt(B/2).
    Every other form errs at most twice as much (the module docstring), so
    the margin is twice that.  A row whose t is not finite drops nothing.  So
    each max is exact.
    """
    r, j, base = x.size // n, len(screened), np.arange(0, x.size, n)
    kn, k2 = _chi2_rows(x, n, ws, True), ws.k2
    top2, topn = k2.reshape(r, n).argmax(axis=1), kn.reshape(r, n).argmax(axis=1)
    vals[j], vals[j + 1] = k2[top2 + base], kn[topn + base]
    np.maximum(np.maximum(k2[:-1], k2[1:], out=ws.out[:-1]), kn[:-1], out=ws.out[:-1])  # bounds
    top = (np.stack((np.maximum(top2 - 1, 0), np.minimum(top2, n - 2), topn)) + base).ravel()
    ts = _k_groups(top, x, ws, screened).reshape(j, 3, r, 2).max(axis=(1, 3)).min(axis=0)
    lim = [_cut(t) for t in ts.tolist()]
    # a one-row stack compares with a scalar, several times faster than per row
    keep = (ws.out.reshape(r, n) >= (np.array(lim)[:, None] if r > 1 else lim[0])).ravel()
    keep[n - 1 :: n] = False  # no u-group
    keep[top] = True  # t came from them, even where rounding lifts K_s above B
    (kept,) = keep.nonzero()  # row by row, each row in order
    starts = 2 * kept.searchsorted(base)  # every row keeps its tops
    np.maximum.reduceat(_k_groups(kept, x, ws, screened), starts, axis=1, out=vals[:j])


#: Rows this long skip the sort when every s is in [-1, 2]; they are put in
#: 2^(bit_length(n) - _BUCKET_BITS) buckets, n/16 < m <= n/8, _TOP of them first.
_LONG_N, _BUCKET_BITS, _TOP = 1 << 14, 4, 96

#: The long rows' workspace (in the thread's one slot, which ``_Ws`` shares): bucket ids and
#: a mask (n long); at the m + 1 bucket edges, counts below, u, u(1-u), v; per bucket, least
#: v(1-v); scratch.
_Lw = collections.namedtuple("_Lw", "ids mask c u q v qv e f")


def _long_ws(n: int) -> _Lw:
    m = 1 << (n.bit_length() - _BUCKET_BITS)
    q = (v := np.arange(m + 1) / m) * (1.0 - v)
    return _Lw(np.empty(n, np.intp), np.empty(n, bool), np.zeros(m + 1), *np.empty((2, m + 1)), v,
               np.minimum(q[:-1], q[1:]), *np.empty((2, m)))


def _k_members(x: np.ndarray, lw: _Lw, flag: np.ndarray, keys: tuple[float, ...]):
    """Max K_s (at least 0), s in ``keys``, at the values of ``x`` in the buckets ``flag`` marks."""
    v = np.sort(x[np.take(flag, lw.ids, out=lw.mask)])
    b = (v * flag.size).astype(np.intp)  # each value's bucket floor(m v), as in ``lw.ids``
    j = lw.c[b] + np.arange(1, b.size + 1) - b.searchsorted(b)  # rank: below, then in the bucket
    n = x.size  # (u_j, X_j), then (u_{j-1}, X_j), with u_0, u_n read as u_1, u_{n-1}
    u, v = np.concatenate((np.minimum(j, n - 1), np.maximum(j - 1, 1))) / n, np.concatenate((v, v))
    return _k_pairs(keys, u, v, 1.0 - v).max(axis=1, initial=0.0)


def _bucketed(x: np.ndarray, keys: tuple[float, ...]) -> np.ndarray:
    """Max K_s (at least 0), s in ``keys`` (all in [-1, 2]), over the row ``x``."""
    n, lw = x.size, _workspace(_long_ws, x.size)
    m, u, v, e, f = lw.qv.size, lw.u, lw.v, lw.e, lw.f
    np.multiply(x, m, out=lw.ids, casting="unsafe")  # floor(m x), exact: m = 2^k
    np.cumsum(np.bincount(lw.ids, minlength=m), out=lw.c[1:])
    np.divide(lw.c, n, out=u)  # bucket k's candidates: u in [u[k], u[k+1]], X in [v[k], v[k+1]]
    np.multiply(u, np.subtract(1.0, u, out=lw.q), out=lw.q)
    # B over the box: the largest (u - v)^2 over the least 2u(1-u) or 2v(1-v)
    np.square(np.maximum(np.subtract(u[1:], v[:-1], out=e), np.subtract(v[1:], u[:-1], out=f),
                         out=e), out=e)
    np.minimum(np.minimum(lw.q[:-1], lw.q[1:], out=f), lw.qv, out=f)
    with np.errstate(divide="ignore"):
        bound = np.divide(e, np.add(f, f, out=f), out=e)
    top = np.zeros(m, dtype=bool)  # with the edge buckets, whose bound is inf
    top[np.argpartition(bound, m - _TOP)[m - _TOP :]] = True
    best = _k_members(x, lw, top, keys)
    rest = (bound >= _cut(float(best.min()))) & ~top  # t = best.min() is at most each max
    return np.maximum(best, _k_members(x, lw, rest, keys)) if rest.any() else best


def _sup(rows: np.ndarray, s_values: list[float], presorted: bool = False) -> np.ndarray:
    """S_n(s) for each s in ``s_values`` on each row, in any order, of the (R, n)
    stack ``rows``, shaped (len(s_values), R).  Long rows may skip the sort, and
    ``presorted`` rows (each ascending) are copied unsorted; on
    sorted rows one screen serves every s in (-1, 2) and yields S_n(2) and
    S_n(-1), s = 2 or -1 alone is the row max of K_2 or K_-1, and any other s
    makes a full pass.  No checks: the Monte-Carlo loop runs it millions of times."""
    r, n = rows.shape
    screened, keys, order, bucketed = _plan(tuple(s_values))
    vals = np.zeros((len(keys), r))  # a full pass's running max starts at the clamp
    if bucketed and n >= _LONG_N:
        vals[:] = np.transpose([_bucketed(row, keys) for row in rows])
    else:
        ws = _workspace(_sorted_ws, n, r)
        x = ws.x
        np.copyto(x.reshape(r, n), rows)
        if not presorted:
            x.reshape(r, n).sort(axis=1)
        np.subtract(1.0, x, out=ws.cx)
        if screened:
            _screened(x, n, ws, screened, vals)
        for i in range(len(screened) + 2 if screened else 0, len(keys)):
            if keys[i] == 2.0 or keys[i] == -1.0:
                _chi2_rows(x, n, ws, keys[i] == -1.0).reshape(r, n).max(axis=1, out=vals[i])
            else:  # K_s at (u_j, X_j), then at (u_{j-1}, X_j); s > 2 or < -1 reads no 1 - u
                for u in (ws.ur, ws.ul):
                    _k_into(keys[i], u, None, x, ws.cx, np.subtract(u, x, out=ws.k2), *ws[-3:])
                    np.maximum(vals[i], ws.out.reshape(r, n).max(axis=1), out=vals[i])
    # K_s >= 0 mathematically: clamp rounding below 0; + 0.0 turns -0.0 into +0.0.
    return np.maximum(vals.take(order, axis=0), 0.0) + 0.0


def sup_statistic(sample: SortedPValueSample, s: float) -> float:
    """S_n(s): supremum of K_s(F_n(x), x) over the observation range, exactly
    ``max over i of max{K_s(i/n, X_{i:n}), K_s(i/n, X_{i+1:n})}`` (convexity in v)."""
    return float(sup_statistic_values(sample, [s])[0])


def sup_statistic_values(sample: SortedPValueSample, s_values) -> np.ndarray:
    """S_n(s) for several s at once, from one candidate scan."""
    if sample.n < 2:
        raise DomainError("sup_statistic needs n >= 2 (the sup range is empty for n=1)")
    with np.errstate(over="ignore"):
        return _sup(sample.values[None], [_finite_s(s) for s in s_values], presorted=True)[:, 0]


def z_sup(sample: SortedPValueSample, a: float, b: float) -> float:
    """sup over x in (a,b) of sqrt(n)*|F_n(x) - x| / sqrt(x*(1-x)).

    The weighted discrepancy has no interior local maxima between jumps of
    F_n (the only stationary points of x -> (c-x)^2/(x(1-x)) are minima), so
    the sup over the open interval is attained in the limit at one of:
    both one-sided values at each jump inside (a, b), the right limit at a
    (value F_n(a)), or the left limit at b (value F_n(b^-)).  All candidates
    are evaluated exactly.
    """
    if not (0.0 < a < b < 1.0):
        raise DomainError(f"need 0 < a < b < 1, got a={a!r}, b={b!r}")
    values = sample.values
    n = sample.n
    uniq, counts = np.unique(values, return_counts=True)
    after = np.cumsum(counts)
    before = after - counts
    inside = (uniq > a) & (uniq < b)
    # candidate (x, n*F) pairs
    xs = [uniq[inside], uniq[inside], np.array([a, b])]
    cs = [
        after[inside].astype(np.float64),
        before[inside].astype(np.float64),
        np.array(
            [
                float(np.searchsorted(values, a, side="right")),  # F_n(a+)
                float(np.searchsorted(values, b, side="left")),  # F_n(b-)
            ]
        ),
    ]
    x = np.concatenate(xs)
    u = np.concatenate(cs) / n
    g = np.abs(u - x) / np.sqrt(x * (1.0 - x))
    return float(math.sqrt(n) * g.max())
