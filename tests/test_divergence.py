import hashlib
import math
import sys
import threading
import tracemalloc
import warnings
import weakref
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phidetect import (
    DomainError,
    MixtureSpec,
    SortedPValueSample,
    boundary_comparison,
    ensure_tables,
    kappa,
    mc_null_tables,
    mixture_family,
    phi,
    replicate_rng,
    sample_mixture,
    scaled_statistic,
    scaled_statistics,
    sup_statistic,
    sup_statistic_values,
    to_pvalues,
    uniform_open,
    z_sup,
)
from phidetect import divergence
from phidetect._rand import _fill_uniform
from phidetect.divergence import S_REGIME_TOL, _sup
from phidetect.models import _sample_pvalues
from phidetect.nulldist import _mc_stats

S_GRID = [-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0]

# dyadic rationals k/2^53: 1-u is exact in double precision, which makes the
# (u,v) -> (1-u,1-v) symmetry testable bit-for-bit
dyadic01 = st.integers(min_value=1, max_value=2**53 - 1).map(lambda k: k / 2.0**53)


# --------------------------------------------------------------------------
# generator phi_s


def test_phi_closed_form_values():
    # phi_{1/2}(x) = 2*(sqrt(x)-1)^2, phi_2(x) = (x-1)^2/2, phi_{-1}(x) = (x+1/x-2)/2
    assert phi(0.5, 4.0) == pytest.approx(2.0, rel=1e-14)
    assert phi(2.0, 3.0) == pytest.approx(2.0, rel=1e-14)
    assert phi(-1.0, 0.5) == pytest.approx(0.25, rel=1e-14)
    assert phi(0.0, math.e) == pytest.approx(math.e - 2.0, rel=1e-14)
    assert phi(1.0, math.e) == pytest.approx(1.0, rel=1e-14)


def test_phi_is_zero_at_one_for_all_s():
    for s in S_GRID:
        assert phi(s, 1.0) == 0.0


def test_phi_at_zero_right_limits():
    assert phi(2.0, 0.0) == pytest.approx(0.5, rel=1e-15)  # 1/s
    assert phi(0.5, 0.0) == pytest.approx(2.0, rel=1e-15)
    assert phi(1.0, 0.0) == 1.0
    assert phi(0.0, 0.0) == math.inf
    assert phi(-1.0, 0.0) == math.inf


@pytest.mark.parametrize("s", [-3.0, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0])
def test_phi_at_large_x_is_inf_not_nan(s):
    # the terms of phi_s overflow to inf - inf at x = inf, and for s > 1 at x = 1e308;
    # for s <= -2, s * (x - 1) overflows at x = 1e308, where phi_s ~ x / (1 - s) is finite
    assert phi(s, math.inf) == math.inf
    finite = {-3.0: 1e308 / 4, -2.0: 1e308 / 3, -1.0: 5e307, 0.0: 1e308}
    assert phi(s, 1e308) == finite.get(s, math.inf)
    assert np.array_equal(phi(s, np.array([1.0, math.inf])), [0.0, math.inf])


def test_phi_rejects_negative_and_nan():
    with pytest.raises(DomainError):
        phi(2.0, -0.5)
    with pytest.raises(DomainError):
        phi(2.0, math.nan)


def test_phi_vectorized_matches_scalar():
    x = np.array([0.0, 0.2, 1.0, 3.7])
    for s in S_GRID:
        vec = phi(s, x)
        assert vec.shape == x.shape
        for xi, vi in zip(x, vec):
            assert phi(s, float(xi)) == vi


def test_phi_nonnegative_on_grid():
    x = np.geomspace(1e-8, 1e4, 300)
    for s in S_GRID:
        vals = phi(s, x)
        assert np.all(vals >= 0.0)


def test_regime_switch_thresholds():
    """Within S_REGIME_TOL of 0 or 1 every route uses the log form verbatim;
    just outside it, the expm1 form."""
    sample = SortedPValueSample(np.array([0.01, 0.2, 0.35, 0.8, 0.95]))

    def values(s):
        return (kappa(s, 0.3, 0.6), phi(s, math.e), sup_statistic(sample, s))

    for limit in (0.0, 1.0):
        assert values(limit + 9e-9) == values(limit)
        assert all(a != b for a, b in zip(values(limit + 2e-8), values(limit)))


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_divergence_parameter_must_be_finite(s, tmp_path):
    sample = SortedPValueSample(np.array([0.2, 0.5, 0.7]))
    for call in (lambda: phi(s, 2.0), lambda: kappa(s, 0.3, 0.6),
                 lambda: sup_statistic(sample, s),
                 lambda: sup_statistic_values(sample, [2.0, s]),
                 lambda: mc_null_tables(20, [2.0, s], 100, 0),
                 lambda: ensure_tables(tmp_path, 20, [s], 100, 0)):
        with pytest.raises(DomainError, match="finite"):
            call()
    assert list(tmp_path.iterdir()) == []


def test_an_empty_s_list_is_a_domain_error(tmp_path):
    sample = SortedPValueSample(np.array([0.2, 0.5, 0.7]))
    spec = MixtureSpec(mixture_family("scale-exponential", regime="dense"), 0.25, 0.25, 100)
    for call in (lambda: sup_statistic_values(sample, []),
                 lambda: scaled_statistics(sample, []),
                 lambda: mc_null_tables(1000, [], 100, 1),
                 lambda: boundary_comparison(spec, (), 0.1, 10, 1, cache_dir=tmp_path,
                                             table_reps=100)):
        with pytest.raises(DomainError, match="at least one"):
            call()
    assert list(tmp_path.iterdir()) == []


def test_phi_continuous_in_s_near_limits():
    # values just outside the branch window agree with the closed forms
    for x in (0.3, math.e, 7.0):
        assert abs(phi(2e-8, x) - phi(0.0, x)) < 1e-6
        assert abs(phi(1.0 + 2e-8, x) - phi(1.0, x)) < 1e-6
    # inside the window the closed form is used verbatim
    assert phi(1e-12, math.e) == phi(0.0, math.e)


def test_phi_near_one_matches_50_digit_references():
    # For 1/2 < s < 2, phi_s(x) = -(x-1)/s - x expm1((s-1) log x)/(s(1-s)).  On [1/8, 8]
    # each term errs by at most 13 eps relative: x - 1 (exact on [1/2, 2], else eps/2),
    # log1p (1 ulp, and x - 1's error times |(x-1)/(x log x)| <= 3.4), the product with
    # s - 1 (eps/2), expm1 (1 ulp, and its argument's error times 1 + |(s-1) log x| <=
    # 3.1), then three roundings.  The terms' magnitudes add up to at most 16 max(1,
    # 1/|x-1|) phi_s(x) (near x = 1 each is about |x-1|/s and phi_s about (x-1)^2/2),
    # so with the sum's rounding the relative error is below 210 eps max(1, 1/|x-1|).
    # The form centred at s = 0 erred 1/|1-s| times as much: 2.1e-2 relative at
    # phi(1 + 1e-7, 1 + 1e-7), 4.0e-5 at phi(1 + 2e-8, 1.0002), 2.0e-9 at phi(1 - 1e-7, 3).
    eps = 2.0**-52
    xs = [1.0 + sign * 10.0**-k for k in range(1, 13) for sign in (1, -1)]
    xs += [0.125, 1.0 / 3.0, 0.9, 1.0002, 1.1, 2.0, 3.0, 8.0]
    for s in (1.0 + 2e-8, 1.0 - 2e-8, 1.0 + 1e-7, 1.0 - 1e-7, 1.0 + 1e-6, 1.0 - 1e-6,
              0.5 + 2.0**-30, 0.75, 1.5, 1.9, 2.0 - 2.0**-30):
        for x in xs:
            with mpmath.workdps(50):
                ms, mx = mpmath.mpf(s), mpmath.mpf(x)
                want = (1 - ms + ms * mx - mx**ms) / (ms * (1 - ms))
                rel = abs((mpmath.mpf(phi(s, x)) - want) / want)
            assert rel <= 210.0 * eps * max(1.0, 1.0 / abs(x - 1.0)), (s, x, float(rel))


# --------------------------------------------------------------------------
# two-point divergence K_s

# independently derived reference values at (u, v) = (0.5, 0.25):
#   s=2   : (u-v)^2 / (2 v (1-v)) = 1/6
#   s=1   : 0.5*ln2 + 0.5*ln(2/3) = 0.5*ln(4/3)
#   s=0   : -(0.25*ln2 + 0.75*ln(2/3))
#   s=-1  : 0.25*phi(2) + 0.75*phi(2/3), phi_{-1}(x) = (x+1/x-2)/2 -> 1/8
#   s=3   : (x^3-3x+2)/6 pieces -> 11/54
KAPPA_HALF_QUARTER = {
    2.0: 1.0 / 6.0,
    1.0: 0.14384103622589046,
    0.0: 0.13081203594113696,
    0.5: 0.13629669484372685,
    -1.0: 0.125,
    3.0: 11.0 / 54.0,
    0.25: 0.13331583222365925,
}


def test_kappa_reference_values():
    for s, expected in KAPPA_HALF_QUARTER.items():
        assert kappa(s, 0.5, 0.25) == pytest.approx(expected, rel=1e-13)
    assert kappa(2.0, 0.75, 0.5) == pytest.approx(0.125, rel=1e-13)
    assert kappa(0.5, 0.1, 0.9) == pytest.approx(1.6, rel=1e-13)


def test_kappa_zero_iff_equal():
    for s in S_GRID:
        assert kappa(s, 0.3, 0.3) == 0.0
        assert kappa(s, 1e-9, 1e-9) == 0.0
        assert kappa(s, 0.3, 0.30001) > 0.0


def test_kappa_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(DomainError):
            kappa(2.0, bad, 0.5)
        with pytest.raises(DomainError):
            kappa(2.0, 0.5, bad)


def test_kappa_hc_closed_form():
    rng = np.random.default_rng(2718)
    u = rng.uniform(0.01, 0.99, size=200)
    v = rng.uniform(0.01, 0.99, size=200)
    expected = (u - v) ** 2 / (2.0 * v * (1.0 - v))
    np.testing.assert_allclose(kappa(2.0, u, v), expected, rtol=1e-12)


@given(u=dyadic01, v=dyadic01, s=st.sampled_from(S_GRID))
@settings(max_examples=200, deadline=None)
def test_kappa_symmetry_exact_on_dyadics(u, v, s):
    # complements of k/2^53 are exact, so the symmetry must hold bit-for-bit
    assert kappa(s, u, v) == kappa(s, 1.0 - u, 1.0 - v)


@given(
    u=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    v=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    s=st.sampled_from(S_GRID),
)
@settings(max_examples=200, deadline=None)
def test_kappa_symmetry_approx_generic(u, v, s):
    if abs(u - v) < 1e-3:
        return  # K -> 0 there; relative comparison is meaningless
    a = kappa(s, u, v)
    b = kappa(s, 1.0 - u, 1.0 - v)
    assert b == pytest.approx(a, rel=1e-9)


@given(
    u=st.floats(min_value=0.05, max_value=0.95),
    v1=st.floats(min_value=0.05, max_value=0.95),
    v2=st.floats(min_value=0.05, max_value=0.95),
    lam=st.floats(min_value=0.0, max_value=1.0),
    s=st.sampled_from(S_GRID),
)
@settings(max_examples=200, deadline=None)
def test_kappa_convex_in_v(u, v1, v2, lam, s):
    mid = lam * v1 + (1.0 - lam) * v2
    if not 0.0 < mid < 1.0:
        return
    lhs = kappa(s, u, mid)
    rhs = lam * kappa(s, u, v1) + (1.0 - lam) * kappa(s, u, v2)
    assert lhs <= rhs + 1e-12 * max(1.0, abs(rhs))


def test_kappa_continuous_in_s_at_limit_points():
    for u, v in [(0.3, 0.6), (0.9, 0.2), (0.01, 0.5)]:
        for s0 in (0.0, 1.0):
            base = kappa(s0, u, v)
            assert abs(kappa(s0 + 2e-8, u, v) - base) < 1e-6
            assert abs(kappa(s0 - 2e-8, u, v) - base) < 1e-6


#: Moderate (u, v) with |u - v| from 1e-7 to 0.7, each away from the p-value floor.
MODERATE_UV = [(0.5, 0.4999), (0.9, 0.9000001), (0.3, 0.6), (0.9, 0.2), (0.01, 0.5),
               (0.25, 0.2500003), (0.7, 0.69)]


def _mp_kappa(s: float, u: float, v: float):
    """K_s(u, v) in the textbook form at 50 digits, on the exact binary inputs."""
    with mpmath.workdps(50):
        s, u, v = mpmath.mpf(s), mpmath.mpf(u), mpmath.mpf(v)
        return (1 - u**s * v ** (1 - s) - (1 - u) ** s * (1 - v) ** (1 - s)) / (s * (1 - s))


def test_kappa_near_one_matches_50_digit_references():
    # For 1/2 < s < 2 the two terms u*expm1((s-1)L1) and (1-u)*expm1((s-1)L2) are
    # about (s-1)d and -(s-1)d, each good to a few ulps; divided by s(1-s) they err
    # by a few eps|d|/|s|, and K_s is about d^2/(2v(1-v)) >= 2d^2, so the relative
    # error is a few eps/(2|s||d|) < a few eps/|d|.  The form centred at s = 0 erred
    # 1/|1-s| times as much: 7e-6 and 4e-3 relative at the first two pairs for
    # s = 1 + 2e-8 and 1 + 1e-7.
    eps = 2.0**-52
    for s in (1.0 + 2e-8, 1.0 - 2e-8, 1.0 + 1e-7, 1.0 + 1e-6, 1.0 - 1e-6, 0.75, 1.5, 1.9):
        for u, v in MODERATE_UV:
            want = _mp_kappa(s, u, v)
            rel = abs((mpmath.mpf(kappa(s, u, v)) - want) / want)
            assert rel <= 4.0 * eps / abs(u - v), (s, u, v, float(rel))


def test_kappa_is_continuous_across_the_regime_tolerance():
    # d/ds log K_s is a weighted mean of log x over x between (1-u)/(1-v) and u/v
    # (the module docstring's integral), so |K_s / K_s0 - 1| <= |s - s0| max(|L1|, |L2|)
    # to first order, plus the forms' rounding, a few eps/|d| on each side.
    eps = 2.0**-52
    for u, v in MODERATE_UV:
        slope = max(abs(math.log(u / v)), abs(math.log((1.0 - u) / (1.0 - v))))
        for s0 in (0.0, 1.0):
            base = kappa(s0, u, v)
            for ds in (2e-8, 1.01 * S_REGIME_TOL, 0.99 * S_REGIME_TOL):
                for s in (s0 + ds, s0 - ds):
                    gap = abs(kappa(s, u, v) / base - 1.0)
                    assert gap <= 1.01 * ds * slope + 8.0 * eps / abs(u - v), (s, u, v, gap)


def test_kappa_taylor_agreement_with_s2_as_u_approaches_v():
    # K_s(v+d, v) / K_2(v+d, v) -> 1 as d -> 0, deviation shrinking with d.
    # v=0.5 is avoided: the leading (third-order) deviation term is
    # proportional to 1/v^2 - 1/(1-v)^2 and vanishes there, leaving nothing
    # measurable above roundoff at d=1e-7.
    for s in (-1.0, 0.0, 0.5, 1.0, 3.0):
        for v in (0.1, 0.3, 0.8):
            devs = []
            for d in (1e-3, 1e-5, 1e-7):
                ratio = kappa(s, v + d, v) / kappa(2.0, v + d, v)
                devs.append(abs(ratio - 1.0))
            assert devs[0] > devs[1] > devs[2]
            assert devs[2] < 1e-5


def test_kappa_small_gap_relative_accuracy():
    # the expm1/log1p form keeps full relative accuracy down to tiny jumps
    for d in (1e-10, 1e-13):
        got = kappa(2.0, 0.5 + d, 0.5)
        assert got == pytest.approx(d * d / (2.0 * 0.25), rel=1e-4)


# (u, v) at the edges of the double range: the p-value floor 1e-300 that
# to_pvalues clamps to, the largest double below 1, and near-equal pairs
EXTREME_UV = [
    (0.5, 1e-300),
    (0.25, 1e-300),
    (1e-300, 0.5),
    (0.75, 1.0 - 2.0**-53),
    (1.0 - 2.0**-53, 0.25),
    (2.0**-53, 0.9),
    (1e-3, 0.3),
    (0.3, 0.3 + 2.0**-40),
    (0.999, 0.998),
]


def _exact_half_chi2(u: Fraction, v: Fraction, w: Fraction) -> Fraction:
    return (u - v) ** 2 / (2 * w * (1 - w))


def _hellinger_50_digits(u: float, v: float) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 50
        du, dv = Decimal(u), Decimal(v)  # exact binary values
        one = Decimal(1)
        return 2 * ((du.sqrt() - dv.sqrt()) ** 2 + ((one - du).sqrt() - (one - dv).sqrt()) ** 2)


def test_closed_forms_match_exact_references_at_extremes():
    # s=2 and s=-1 against exact rationals, s=1/2 against 50-digit decimals
    for u, v in EXTREME_UV:
        fu, fv = Fraction(u), Fraction(v)
        for s, w in ((2.0, fv), (-1.0, fu)):
            want = _exact_half_chi2(fu, fv, w)
            got = kappa(s, u, v)
            assert math.isfinite(got), (s, u, v)
            assert abs(Fraction(got) - want) <= Fraction(2e-15) * want, (s, u, v)
        want = _hellinger_50_digits(u, v)
        got = Decimal(kappa(0.5, u, v))
        assert abs(got - want) <= Decimal(2e-15) * want, (u, v)


def test_higher_criticism_is_finite_at_the_pvalue_floor():
    # the expm1 form overflowed to inf here; the true value is about 1.25e299
    assert kappa(2.0, 0.5, 1e-300) == pytest.approx(1.25e299, rel=2e-15)
    values = [1e-300, 0.3, 0.6, 0.9]
    n = len(values)
    want = max(
        _exact_half_chi2(Fraction(i, n), Fraction(x), Fraction(x))
        for i in range(1, n)
        for x in (values[i - 1], values[i])
    )
    got = sup_statistic(SortedPValueSample(np.array(values)), 2.0)
    assert math.isfinite(got)
    assert abs(Fraction(got) - want) <= Fraction(2e-15) * want


def test_overflow_at_the_pvalue_floor_is_inf_and_silent_on_every_route():
    # K_3 at (1/4, 1e-300) is about 2.6e597: inf, with no overflow warning
    sample = SortedPValueSample(np.array([1e-300, 0.3, 0.6, 0.9]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [sup_statistic(sample, 3.0), sup_statistic_values(sample, [3.0])[0],
               scaled_statistics(sample, [3.0])[0]]
    assert got == [math.inf] * 3


def test_members_below_two_are_finite_at_the_pvalue_floor():
    # v*expm1(s*L1) overflowed here for s in (1, 2), though K_s is about
    # u^s v^(1-s) / (s(s-1)): 5e149 at s = 1.5 and 2e269 at s = 1.9 for u = 1/2
    sample = SortedPValueSample(np.array([1e-300, 0.3, 0.6, 0.9]))
    for s in (1.5, 1.9):
        for u in (1e-5, 0.25, 0.5, 1.0 - 1e-5):
            got = kappa(s, u, 1e-300)
            # log-space reference; the O(1) terms of K_s are below 1e-140 of it
            log_k = s * math.log(u) - (s - 1.0) * math.log(1e-300) - math.log(s * (s - 1.0))
            want = math.exp(log_k)
            assert math.isfinite(got) and got == pytest.approx(want, rel=1e-12), (s, u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sup_statistic(sample, s)
        assert got == kappa(s, 0.25, 1e-300)


def test_log_forms_are_finite_at_a_subnormal_pvalue():
    # d/v overflows at v = 5e-324, which made K_1 inf and K_0 -inf
    u, v = 0.02, 5e-324
    lr, l2 = math.log(u) - math.log(v), math.log1p(-u)  # log(u/v), log((1-u)/(1-v))
    want = {0.0: -v * lr - l2, 1.0: u * lr + (1.0 - u) * l2}
    for s in (1.0 - 1e-6, 1.0 + 1e-6):  # K_s = (u e^((s-1)lr) + (1-u) e^((s-1)l2) - 1)/(s(s-1))
        want[s] = (u * math.expm1((s - 1.0) * lr) + (1.0 - u) * math.expm1((s - 1.0) * l2)) / (
            s * (s - 1.0))
    for s, w in want.items():
        assert kappa(s, u, v) == pytest.approx(w, rel=1e-9), s
    assert want[1.0] == pytest.approx(14.79, abs=5e-3)
    assert want[0.0] == pytest.approx(0.0202, rel=1e-3)
    values = np.array([v, 0.3, 0.6])
    s_values = [*want, *SCREENED_S]
    got = sup_statistic_values(SortedPValueSample(values), s_values)
    assert got[0] == pytest.approx(math.log(1.5), rel=1e-15)  # K_0(1/3, v) = -log(2/3) + O(v)
    for s, g in zip(s_values, got):
        assert g == _full_candidate_reference(values, s), s
        assert math.isfinite(g) or s > 2.0 - 1e-8, s


# --------------------------------------------------------------------------
# sup statistic


def test_sup_worked_example_quarter_threequarter():
    sample = SortedPValueSample.from_values([0.25, 0.75])
    stat = sup_statistic(sample, 2.0)
    assert stat == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert 2 * stat == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_sup_positive_off_diagonal():
    # shifted grid keeps u != v everywhere, so the statistic is strictly positive
    n = 10
    vals = (np.arange(1, n + 1) - 0.3) / n
    sample = SortedPValueSample(vals)
    for s in S_GRID:
        assert sup_statistic(sample, s) > 0.0


def test_sup_needs_two_observations():
    single = SortedPValueSample(np.array([0.4]))
    with pytest.raises(DomainError):
        sup_statistic(single, 2.0)


def test_sample_validation():
    with pytest.raises(DomainError):
        SortedPValueSample(np.array([0.5, 0.25]))  # unsorted
    with pytest.raises(DomainError):
        SortedPValueSample(np.array([0.0, 0.5]))
    with pytest.raises(DomainError):
        SortedPValueSample(np.array([0.5, 1.0]))
    for bad in ([0.2, np.nan], [0.2, np.nan, 0.7], [-np.inf, 0.5], [0.5, np.inf]):
        with pytest.raises(DomainError):
            SortedPValueSample(np.array(bad))
    with pytest.raises(DomainError):
        SortedPValueSample(np.empty(0))
    sample = SortedPValueSample.from_values([0.7, 0.2, 0.4])
    assert sample.n == 3
    assert list(sample.values) == [0.2, 0.4, 0.7]
    with pytest.raises(ValueError):
        sample.values[0] = 0.5  # frozen storage


def test_sample_allows_ties():
    sample = SortedPValueSample(np.array([0.3, 0.3, 0.8]))
    for s in S_GRID:
        assert np.isfinite(sup_statistic(sample, s))


FIVE_S = (-1.0, 0.0, 0.5, 1.0, 2.0)


def test_tied_sample_statistic_is_positive_zero():
    # u == v at both candidates, where K_s evaluates to a signed zero; every
    # path must report +0.0 (s = 0 and s = 0.5 produce -0.0 in the kernel)
    sample = SortedPValueSample(np.array([0.5, 0.5]))
    for s in FIVE_S:
        for v in (sup_statistic(sample, s), scaled_statistic(sample, s),
                  sup_statistic_values(sample, [s])[0], scaled_statistics(sample, [s])[0]):
            assert v == 0.0 and math.copysign(1.0, v) == 1.0, (s, v)


def _kernel_bytes(n: int, rep: int) -> bytes:
    """sup_statistic, sup_statistic_values and kappa outputs at one n, as bytes."""
    sample = SortedPValueSample(np.sort(uniform_open(replicate_rng(99, rep), n)))
    parts = [sup_statistic_values(sample, FIVE_S).tobytes()]
    parts += [repr(sup_statistic(sample, s)).encode() for s in FIVE_S]
    parts.append(kappa(2.0, sample.values[:, None], sample.values[None, :5]).tobytes())
    return b"|".join(parts)


def _in_fresh_thread(fn, *args):
    # a new thread starts with an empty workspace slot
    box = []
    t = threading.Thread(target=lambda: box.append(fn(*args)))
    t.start()
    t.join(timeout=60)
    assert not t.is_alive()
    return box[0]


def test_workspace_reuse_across_n_and_threads():
    # n = 20000 and 16385 are long rows (n >= 2^14), which skip the sort
    calls = [(1000, 0), (2, 1), (20000, 5), (1000, 2), (16385, 6), (50, 3), (20000, 7),
             (2, 4), (1000, 0)]
    fresh = {c: _in_fresh_thread(_kernel_bytes, *c) for c in calls}
    for c in calls:  # interleaved n in one thread reuse and re-key its slots
        assert _kernel_bytes(*c) == fresh[c], c

    # more threads than a small box has CPUs: two share n=1000, two share a long n,
    # two have their own n
    per_thread = [[(n, rep) for rep in range(r0, r0 + reps)]
                  for n, r0, reps in ((1000, 0, 6), (1000, 6, 6), (50, 0, 6), (3, 0, 6),
                                      (20000, 0, 3), (20000, 3, 3))]
    serial = {c: _kernel_bytes(*c) for cs in per_thread for c in cs}
    got, lock = {}, threading.Lock()

    def work(cs):
        for c in cs:
            b = _kernel_bytes(*c)
            with lock:
                got[c] = b

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(cs,)) for cs in per_thread]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert got == serial


def _interleaved_rows() -> list:
    """Sorted, long, sorted, long and sorted rows in one thread: the kinds of the
    workspaces that this thread's slot holds after each call."""
    held = []
    for n in (1000, 20000, 50, 16385, 1000):
        sample = SortedPValueSample(np.sort(uniform_open(replicate_rng(8, n), n)))
        sup_statistic_values(sample, FIVE_S)
        held.append([type(w) for w in vars(divergence._thread_slot).values()
                     if isinstance(w, (divergence._Ws, divergence._Lw))])
    return held


def test_a_thread_holds_one_workspace_across_short_and_long_rows():
    ws, lw = divergence._Ws, divergence._Lw
    assert _in_fresh_thread(_interleaved_rows) == [[ws], [lw], [ws], [lw], [ws]]


def test_the_old_workspace_is_freed_before_the_next_is_built(monkeypatch):
    built, live_at_build = [], []

    def watched(build):
        def build_and_watch(*key):
            live_at_build.append(sum(ref() is not None for refs in built for ref in refs))
            ws = build(*key)
            built.append([weakref.ref(a) for a in ws])
            return ws
        return build_and_watch

    for name in ("_sorted_ws", "_long_ws"):
        monkeypatch.setattr(divergence, name, watched(getattr(divergence, name)))
    _in_fresh_thread(_interleaved_rows)
    assert live_at_build == [0] * 5


def test_sorted_samples_skip_the_sort_with_the_same_bits():
    rng = np.random.default_rng(77)
    for n in (2, 50, 1000, 10000):
        sample = SortedPValueSample(np.sort(uniform_open(replicate_rng(10, n), n)))
        shuffled = rng.permutation(sample.values)
        for s_values in (FIVE_S, (3.0,), (-1.5,)):
            want = _sup(shuffled[None], list(s_values))[:, 0]
            assert sup_statistic_values(sample, s_values).tobytes() == want.tobytes(), n
            assert [sup_statistic(sample, s) for s in s_values] == want.tolist(), n


def test_warm_kernel_allocates_less_than_one_candidate_array():
    n = 100_000
    sample = SortedPValueSample(np.sort(uniform_open(replicate_rng(5, 0), n)))
    for s_values in (FIVE_S, (2.0,), (3.0,)):  # the screen, s = 2 alone, a full pass
        sup_statistic_values(sample, s_values)  # warm this thread's workspace
        tracemalloc.start()
        try:
            sup_statistic_values(sample, s_values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * (n - 1) * 8, (s_values, peak)


def test_warm_monte_carlo_loop_allocates_less_than_one_and_a_half_rows():
    """A warm ``_mc_stats`` call at n = 1e5 holds its stack row and small arrays (the
    draw's integers come 64 KB at a time): no n-long array per replicate beyond the
    row, for the null tables' fill and for mixture draws with a few and many signals."""
    n = 100_000
    specs = [MixtureSpec(mixture_family(name, regime=regime), beta, r, n)
             for name, regime, beta, r in (("normal", "sparse", 0.6, 0.5),
                                           ("scale-exponential", "dense", 0.2, 0.2))]
    for draw in [_fill_uniform] + [partial(_sample_pvalues, spec) for spec in specs]:
        for s_values in ([2.0], list(FIVE_S)):
            _mc_stats(n, s_values, 7, range(3), draw)  # warm this thread's workspace
            tracemalloc.start()
            try:
                _mc_stats(n, s_values, 7, range(3), draw)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5 * n * 8, (draw, s_values, peak / (n * 8))


def test_multi_s_matches_single(rng=np.random.default_rng(515)):
    for n in (2, 5, 40, 300):
        sample = SortedPValueSample.from_values(rng.uniform(size=n))
        batch = sup_statistic_values(sample, S_GRID)
        singles = [sup_statistic(sample, s) for s in S_GRID]
        np.testing.assert_array_equal(batch, np.asarray(singles))


#: The Berk-Jones members, then the rest of the range (-1, 2) the screen serves;
#: 1 + 1e-6 is an expm1-form member next to s = 1, where the form centred at s = 1
#: keeps its rounding within the screens' constant margin (no widening).
SCREENED_S = (0.0, 5e-9, 1.0, 1.0 + 5e-9,
              -1.0 + 1e-9, -0.5, 0.25, 0.5, 0.75, 1.0 + 1e-6, 1.5, 2.0 - 1e-9)


def _screen_samples():
    """Uniform, tied, floor-clamped and normal-sparse samples, and near-tied
    pairs around 1/2 (where the log and expm1 forms' rounding exceeds the bound).
    Subnormal p-values (5e-324, below the floor) make K_2 and K_(2-1e-9) infinite."""
    for n in (2, 3, 50, 1000, 100_000):
        yield np.sort(uniform_open(replicate_rng(31, n), n))
        half = uniform_open(replicate_rng(32, n), (n + 1) // 2)
        yield np.sort(np.concatenate([half, half]))[:n]
        for low in (1e-300, 5e-324):
            floor = np.sort(uniform_open(replicate_rng(33, n), n))
            floor[: max(1, n // 20)] = low
            floor[-max(1, n // 20):] = 1.0 - 2.0**-53
            yield np.sort(floor)
        spec = MixtureSpec(mixture_family("normal"), 0.6, 0.5, n)
        yield to_pvalues(sample_mixture(spec, replicate_rng(34, n))[0], spec.noise).values
    rng = np.random.default_rng(35)
    for _ in range(200):
        delta = 10.0 ** rng.uniform(-14, -7)
        yield np.array([0.5 - delta, 0.5 + delta * (1.0 + 10.0 ** rng.uniform(-8, -2))])


def _full_candidate_reference(values: np.ndarray, s: float) -> float:
    """max(K_s, 0) over all 2(n-1) candidates through ``kappa``."""
    n = values.size
    k = kappa(s, np.tile(np.arange(1, n) / n, 2), np.concatenate([values[:-1], values[1:]]))
    return max(float(k.max()), 0.0) + 0.0


def test_screened_berk_jones_max_equals_the_full_candidate_max():
    for values in _screen_samples():
        n = values.size
        sample = SortedPValueSample(values)
        got = sup_statistic_values(sample, SCREENED_S)
        for s, g in zip(SCREENED_S, got):
            want = _full_candidate_reference(values, s)
            assert g == want, (n, s, values[:2])
            assert sup_statistic(sample, s) == want, (n, s, values[:2])


#: Rows whose largest K_2 is tied, to within rounding, by an order statistic outside
#: the u-groups the screen's t comes from (found by moving that value ulp by ulp
#: across the tie).  At s = 2 - 2^-52, K_s is within an ulp of K_2, so rounding lifts
#: the later group's K_s above both its bound and t: with no margin in ``_cut`` the
#: screen drops the group that holds the maximum.
NEAR_TIE_ROWS = [
    [0.0570035723497443, 0.24734349791359958, 0.3523503306310373, 0.47060131752177103],
    [0.08219276813444816, 0.5114114483703187, 0.7606804002750428, 0.8765573637087238],
    [0.047444155897015526, 0.4623884891489608, 0.6808411766955118, 0.8536478525739694,
     0.8563533886435986],
    [0.07710456210549724, 0.3298825021460882, 0.37675654265889, 0.6025818241389561,
     0.8494238237707251],
]


def test_screen_margin_keeps_a_group_that_rounding_lifts_above_its_bound():
    s_values = [2.0 - 2.0**-52, 2.0 - 1e-15]
    for row in NEAR_TIE_ROWS:
        values = np.array(row)
        got = sup_statistic_values(SortedPValueSample(values), s_values)
        for s, g in zip(s_values, got):
            assert g == _full_candidate_reference(values, s), (row, s)
    stack = np.array(NEAR_TIE_ROWS[:2])
    vals = _sup(stack, s_values)
    for j, row in enumerate(stack):
        for s, v in zip(s_values, vals[:, j]):
            assert v == _full_candidate_reference(row, s), (j, s)


def test_long_rows_in_any_order_equal_the_full_candidate_max(monkeypatch):
    # the long screen samples (n >= 2^14), and two rows whose K_-1 and K_2 peak
    # apart: sqrt(U) has u ~ v^2 (K_-1 is largest at small v, K_2 at v = 1/2),
    # U^2 has u ~ sqrt(v); shuffled, as one stack and in one-row calls.  The s in
    # [-1, 2] skip the sort; 3 and -1.5 sort a copy of the rows
    rows = [v for v in _screen_samples() if v.size >= divergence._LONG_N]
    assert len(rows) == 5  # uniform, tied, the 1e-300 and 5e-324 floors, normal-sparse
    u = np.sort(uniform_open(replicate_rng(38, 0), 100_000))
    rows += [np.sqrt(u), np.maximum(u * u, 1e-300)]
    rng = np.random.default_rng(37)
    stack = np.array([rng.permutation(v) for v in rows])
    given = stack.copy()
    bucketed = []
    real_bucketed = divergence._bucketed
    monkeypatch.setattr(divergence, "_bucketed",
                        lambda x, *a: bucketed.append(x.size) or real_bucketed(x, *a))
    for s_values in ([*SCREENED_S, 2.0, -1.0], [2.0], [-1.0], [3.0, -1.5]):
        bucketed.clear()
        with np.errstate(over="ignore"):  # as the public wrappers run it
            vals = _sup(stack, s_values)
            one = [_sup(row[None], s_values)[:, 0] for row in stack]
        assert len(bucketed) == (0 if 3.0 in s_values else 2 * len(rows)), s_values
        for j, row in enumerate(rows):
            assert np.array_equal(vals[:, j], one[j]), (j, s_values)
            for s, v in zip(s_values, vals[:, j]):
                assert v == _full_candidate_reference(row, s), (j, s)
    assert np.array_equal(stack, given)  # the rows are read, not sorted in place


def test_uniform_long_rows_make_one_member_pass(monkeypatch):
    # t from the top buckets leaves no other bucket in reach of a uniform row's maxima
    n = 100_000
    stack = np.array([uniform_open(replicate_rng(39, rep), n) for rep in range(20)])
    passes = []
    real_k_members = divergence._k_members
    monkeypatch.setattr(divergence, "_k_members",
                        lambda *a: passes.append(1) or real_k_members(*a))
    for s_values in (list(FIVE_S), [2.0]):
        passes.clear()
        _sup(stack, s_values)
        assert len(passes) == len(stack), s_values


def test_a_row_whose_maxima_need_the_second_member_pass(monkeypatch):
    # a strong dense signal row, replicate_rng(18, 0): the first of seeds 0..39 whose
    # maxima the top buckets miss for some s, so the second pass must find them
    n = 100_000
    spec = MixtureSpec(mixture_family("scale-exponential", regime="dense"), 0.1, 0.2, n)
    row = np.empty(n)
    _sample_pvalues(spec, replicate_rng(18, 0), row)
    stack = np.array([uniform_open(replicate_rng(40, 0), n), row])
    s_values = [*SCREENED_S, 2.0, -1.0]
    maxima = []
    real_k_members = divergence._k_members
    monkeypatch.setattr(divergence, "_k_members",
                        lambda *a: maxima.append(real_k_members(*a)) or maxima[-1])
    with np.errstate(over="ignore"):  # as the public wrappers run it
        one = _sup(row[None], s_values)[:, 0]
        assert len(maxima) == 2 and np.any(maxima[1] > maxima[0])
        both = _sup(stack, s_values)
        assert np.array_equal(both[:, 0], _sup(stack[:1], s_values)[:, 0])
    assert np.array_equal(both[:, 1], one)
    for s, v in zip(s_values, one):
        assert v == _full_candidate_reference(np.sort(row), s), s


def _stacks():
    """The screen samples stacked by n, in both orders, so a floor row (huge t)
    sits before and after a uniform row; the near-tied pairs as one stack."""
    by_n = {}
    for values in _screen_samples():
        by_n.setdefault(values.size, []).append(values)
    for n, rows in by_n.items():
        if n == 2:  # the near-tied pairs and the n=2 samples of each kind
            yield np.array(rows[5:])
            rows = rows[:5]
        yield np.array(rows)
        yield np.array(rows[::-1])


def test_stacked_kernel_equals_its_rows_and_the_full_candidate_max():
    s_values = [*SCREENED_S, 2.0, -1.0, 3.0, -1.5]
    for stack in _stacks():
        with np.errstate(over="ignore"):  # as the public wrappers run it
            vals = _sup(stack, s_values)
            rows = [_sup(row[None], s_values) for row in stack]
        assert vals.shape == (len(s_values), len(stack))
        for j, (row, one) in enumerate(zip(stack, rows)):
            assert np.array_equal(vals[:, j], one[:, 0]), (stack.shape, j)
            for s, v in zip(s_values, vals[:, j]):
                assert v == _full_candidate_reference(row, s), (stack.shape, j, s)


def _pair_max_edge_stacks():
    """Stacks at n in {2, 3, 4, 8} whose order statistics sit where the pair-max
    rule is tight: midway between u-steps, X_j = (2j-1)/(2n), where both
    candidates of X_j have the same |d|; on a u-step, X_j = j/n or (j-1)/n,
    where d = 0; and at the floors 1e-300 and 5e-324 and at 1 - 2^-53."""
    top = 1.0 - 2.0**-53
    for n in (2, 3, 4, 8):
        j = np.arange(1, n + 1)
        mid, on, under = (2 * j - 1) / (2 * n), np.minimum(j / n, top), (j - 1) / n
        under[0] = 1e-300
        rows = [mid, on, under, np.where(j % 2 == 1, mid, on), np.full(n, 0.5)]
        for low in (1e-300, 5e-324):
            for row in (mid, on):
                rows.append(np.concatenate(([low], row[1:-1], [top])))
        yield np.array(rows)


def test_pair_max_rule_at_its_edges():
    s_values = [*SCREENED_S, 2.0, -1.0, 3.0, -1.5]
    for stack in _pair_max_edge_stacks():
        with np.errstate(over="ignore"):  # as the public wrappers run it
            vals = _sup(stack, s_values)
            rows = [_sup(row[None], s_values) for row in stack]
        for j, (row, one) in enumerate(zip(stack, rows)):
            assert np.array_equal(vals[:, j], one[:, 0]), (row, j)
            for s, v in zip(s_values, vals[:, j]):
                assert v == _full_candidate_reference(row, s), (row, s)


def test_a_row_whose_threshold_is_not_finite_keeps_every_candidate(monkeypatch):
    # at a subnormal p-value K_2 and K_(2-1e-9) are infinite, so the screen's t is too
    n = 50
    uniform = np.sort(uniform_open(replicate_rng(36, 0), n))
    subnormal = uniform.copy()
    subnormal[:3] = 5e-324
    stack = np.array([uniform, subnormal, uniform])
    gathered = []
    real_k_groups = divergence._k_groups
    monkeypatch.setattr(divergence, "_k_groups", lambda groups, *args: gathered.append(
        groups.copy()) or real_k_groups(groups, *args))
    s_values = [2.0 - 1e-9, 2.0]
    with np.errstate(over="ignore"):
        vals = _sup(stack, s_values)
    kept = gathered[-1]  # u-group i of row k sits in slot k*n + i - 1
    assert set(range(n, 2 * n - 1)) <= set(kept.tolist())  # the subnormal row: all n-1 u-groups
    assert len(kept) < 3 * (n - 1)  # the uniform rows beside it still screen
    assert vals[0, 1] == math.inf
    for j, row in enumerate(stack):
        for i, s in enumerate(s_values):
            assert vals[i, j] == _full_candidate_reference(row, s), (j, s)


def _brute_force_sup(values: np.ndarray, s: float, points_per_interval: int = 4097) -> float:
    """Textbook-formula grid maximization, written as an independent oracle.

    Uses K_s = (1 - u^s v^(1-s) - (1-u)^s (1-v)^(1-s)) / (s(1-s)) for generic
    s and the direct log forms at s in {0, 1}; no shared code with the
    endpoint method beyond numpy.
    """
    n = values.size
    best = -np.inf
    for i in range(n - 1):
        u = (i + 1) / n
        grid = np.linspace(values[i], values[i + 1], points_per_interval)
        if s == 0.0:
            k = grid * np.log(grid / u) + (1.0 - grid) * np.log((1.0 - grid) / (1.0 - u))
        elif s == 1.0:
            k = u * np.log(u / grid) + (1.0 - u) * np.log((1.0 - u) / (1.0 - grid))
        else:
            ab = u**s * grid ** (1.0 - s) + (1.0 - u) ** s * (1.0 - grid) ** (1.0 - s)
            k = (1.0 - ab) / (s * (1.0 - s))
        best = max(best, float(np.max(k)))
    return best


def test_sup_matches_brute_force_small_samples():
    rng = np.random.default_rng(90210)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        sample = SortedPValueSample.from_values(rng.uniform(0.001, 0.999, size=n))
        for s in S_GRID:
            exact = sup_statistic(sample, s)
            brute = _brute_force_sup(sample.values, s)
            assert brute == pytest.approx(exact, rel=1e-6, abs=1e-12)


# --------------------------------------------------------------------------
# weighted empirical-process sup and the higher-criticism identity


def test_z_sup_single_jump_hand_value():
    sample = SortedPValueSample(np.array([0.5]))
    assert z_sup(sample, 0.1, 0.9) == pytest.approx(1.0, rel=1e-15)


def test_z_sup_domain():
    sample = SortedPValueSample(np.array([0.5]))
    with pytest.raises(DomainError):
        z_sup(sample, 0.9, 0.1)
    with pytest.raises(DomainError):
        z_sup(sample, 0.0, 0.9)


def test_z_sup_duplication_scales_by_sqrt2():
    rng = np.random.default_rng(77)
    vals = np.sort(rng.uniform(0.05, 0.95, size=20))
    s1 = SortedPValueSample(vals)
    s2 = SortedPValueSample(np.sort(np.concatenate([vals, vals])))
    z1 = z_sup(s1, 0.01, 0.99)
    z2 = z_sup(s2, 0.01, 0.99)
    assert z2 == pytest.approx(math.sqrt(2.0) * z1, rel=1e-14)


def test_higher_criticism_identity():
    # n*S_n(2) == z_sup(sample, X_(1), X_(n))^2 / 2 on the matched sup range
    rng = np.random.default_rng(424242)
    for _ in range(30):
        n = int(rng.integers(2, 101))
        sample = SortedPValueSample.from_values(rng.uniform(size=n))
        lhs = n * sup_statistic(sample, 2.0)
        z = z_sup(sample, float(sample.values[0]), float(sample.values[-1]))
        assert lhs == pytest.approx(0.5 * z * z, rel=1e-12)


def test_kernel_outputs_are_pinned():
    """Digest of sup_statistic values, sup_statistic_values and a kappa grid.

    Covers every regime, including s within S_REGIME_TOL of 0 and 1.  Re-pinned
    when s = 2, -1 and 1/2 moved to their algebraic closed forms (last-bit
    changes only; the s = 0 and s = 1 statistics stayed bit-identical), and
    when sup_statistic stopped reporting the argmax location: the values-only
    digest is the same on the code from before that change.
    """
    s_values = (-1.0, 0.0, 5e-9, 0.5, 1.0, 1.0 + 5e-9, 2.0, 3.0)
    h = hashlib.sha256()
    for n in (2, 3, 50, 500, 2000):
        for k in range(3):
            sample = SortedPValueSample.from_values(
                uniform_open(replicate_rng(4711, 10 * n + k), n)
            )
            for s in s_values:
                h.update(f"{sup_statistic(sample, s)!r};".encode())
            h.update(sup_statistic_values(sample, s_values).tobytes())
    g = np.arange(1, 100) / 100.0
    for s in s_values:
        h.update(kappa(s, g[:, None], g[None, :]).tobytes())
    assert h.hexdigest() == "a54c71d609b98f80237c41ddd300bab710c2e4d61a5f8a33fa1e294cf95f1d95"
