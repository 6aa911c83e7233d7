import math

import numpy as np
import pytest

from phidetect import (
    DomainError,
    MixtureSpec,
    Verdict,
    beta_sharp_expfam,
    beta_sharp_from_alpha,
    beta_sharp_from_gamma,
    classify,
    h_exponent,
    mixture_family,
    rho_dense,
    rho_normal_sparse,
)
from phidetect.boundary import BOUNDARY_KINDS


def test_sparse_normal_boundary_values():
    assert rho_normal_sparse(0.6) == pytest.approx(0.1, rel=1e-12)
    assert rho_normal_sparse(0.96) == pytest.approx(0.64, rel=1e-12)
    # the two branches agree at the break point
    assert rho_normal_sparse(0.75) == 0.25
    assert (1.0 - math.sqrt(1.0 - 0.75)) ** 2 == 0.25
    assert rho_normal_sparse(0.75 + 1e-12) == pytest.approx(0.25, abs=1e-6)


def test_sparse_normal_boundary_shape():
    betas = np.linspace(0.51, 0.99, 200)
    vals = np.array([rho_normal_sparse(b) for b in betas])
    assert np.all(np.diff(vals) > 0)  # strictly increasing
    assert np.all((vals > 0) & (vals < 1))
    for bad in (0.5, 1.0, 0.3, 1.2):
        with pytest.raises(DomainError):
            rho_normal_sparse(bad)


def test_dense_boundary():
    assert rho_dense(0.25) == 0.25
    assert rho_dense(0.49) == pytest.approx(0.01, rel=1e-12)
    assert rho_dense(0.1) == pytest.approx(0.4, rel=1e-12)
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(DomainError):
            rho_dense(bad)


def test_sparse_expfam_threshold():
    assert beta_sharp_expfam(0.5, 1.0) == 0.75
    assert beta_sharp_expfam(2.0, 1.0) == 1.0
    assert beta_sharp_expfam(0.25, 2.0) == 0.75
    assert beta_sharp_expfam(3.7, 2.0) == 1.0  # min clamp
    rs = np.linspace(0.05, 3.0, 50)
    vals = [beta_sharp_expfam(r, 1.0) for r in rs]
    assert vals == sorted(vals)
    assert beta_sharp_expfam(0.0, 1.0) == 0.5  # the r -> 0 limit
    for r, p in ((math.inf, 1.0), (math.nan, 1.0), (1.0, 0.0), (-1.0, 1.0), (0.0, math.inf)):
        with pytest.raises(DomainError):
            beta_sharp_expfam(r, p)


# --------------------------------------------------------------------------
# numeric thresholds from exponent functions


def test_gamma_route_degenerate_signal():
    assert beta_sharp_from_gamma(lambda t: np.zeros_like(t), 0.0) == 0.5


def test_gamma_route_step_exponent():
    """Step exponent rp*1{t >= rp}: maximum sits at the step, threshold
    (min(rp,1)+1)/2."""
    for rp in (0.5, 0.3, 0.9):
        gamma = lambda t, rp=rp: np.where(t >= rp, rp, -1e6)
        got = beta_sharp_from_gamma(gamma, 0.0, 10.0)
        assert got == pytest.approx(beta_sharp_expfam(rp, 1.0), abs=1e-3)


def test_gamma_route_capped_identity():
    gamma = lambda t: np.minimum(t, 1.0)
    assert beta_sharp_from_gamma(gamma, 0.0, 10.0) == pytest.approx(1.0, abs=1e-3)


def test_gamma_route_shift_covariance():
    gamma = lambda t: np.where(t >= 0.4, 0.4, -1e6)
    base = beta_sharp_from_gamma(gamma, 0.0)
    shifted = beta_sharp_from_gamma(lambda t: gamma(t) + 0.07, 0.0)
    assert shifted == pytest.approx(base + 0.07, rel=1e-12)


def test_gamma_route_validation():
    with pytest.raises(DomainError):
        beta_sharp_from_gamma(lambda t: np.zeros_like(t), 0.0, 10.0, grid_points=999)
    with pytest.raises(DomainError):
        beta_sharp_from_gamma(lambda t: np.where(t > 5.0, np.inf, 0.0), 0.0)
    with pytest.raises(DomainError):
        beta_sharp_from_gamma(lambda t: np.zeros_like(t), 3.0, 1.0)
    with pytest.raises(DomainError):
        beta_sharp_from_gamma(lambda t: 0.0, 0.0)  # not vectorised over the grid


def test_alpha_route_normal_exponent():
    # alpha(t) = 2 sqrt(r) t - r maximises to r for r <= 1/4, 2 sqrt(r) - r above
    for r, want in ((0.16, 0.66), (0.64, 0.96), (0.04, 0.54)):
        alpha = lambda t, r=r: 2.0 * math.sqrt(r) * t - r
        assert beta_sharp_from_alpha(alpha, 0.0, 10.0) == pytest.approx(want, abs=1e-3)
    # consistency: the r-boundary at the recovered beta is the r we started from
    assert rho_normal_sparse(0.66) == pytest.approx(0.16, rel=1e-12)
    assert rho_normal_sparse(0.96) == pytest.approx(0.64, rel=1e-12)


def test_alpha_route_degenerate():
    assert beta_sharp_from_alpha(lambda t: np.zeros_like(t), 0.0) == 0.5


def test_threshold_from_measured_exponents():
    """End-to-end: feed the measured exponent curve of a tilted mixture into
    the numeric threshold and compare with the closed form.

    The grid value sits below the limit by about (1 + log 2)/(2 log n) for
    r < 1 (and 1/log n past the clamp) because the finite-n exponent smooths
    the step over a 1/log n layer; the gap closes like 1/log n, so a 0.02
    band needs a very large evaluation scale.
    """
    fam = mixture_family("scale-exponential", regime="sparse")
    for r in (0.3, 0.7, 1.5):
        target = beta_sharp_expfam(r, 1.0)
        deficits = []
        for n in (10**8, 10**14, 10**22):
            spec = MixtureSpec(fam, 0.75, r, n)
            log_n = math.log(n)
            gamma = lambda t: h_exponent(spec, t) / log_n
            got = beta_sharp_from_gamma(gamma, math.log(2.0) / math.log(n), 10.0)
            deficits.append(target - got)
        assert all(d > 0 for d in deficits)
        assert deficits[0] > deficits[1] > deficits[2]
        assert deficits[2] <= 0.02


# --------------------------------------------------------------------------
# classification


def test_classify_normal_sparse():
    out = classify("normal-sparse", 0.6, 0.5)
    assert out.verdict is Verdict.DETECTABLE
    assert out.threshold_value == pytest.approx(0.1, rel=1e-12)
    assert out.margin == pytest.approx(0.4, rel=1e-12)
    assert classify("normal-sparse", 0.6, 0.1).verdict is Verdict.ON_BOUNDARY
    assert classify("normal-sparse", 0.6, 0.01).verdict is Verdict.UNDETECTABLE


def test_classify_dense():
    out = classify("expfam-dense", 0.25, 0.3)
    assert out.verdict is Verdict.UNDETECTABLE
    assert out.margin == pytest.approx(-0.05, rel=1e-10)
    assert classify("expfam-dense", 0.25, 0.2).verdict is Verdict.DETECTABLE
    assert classify("expfam-dense", 0.25, 0.25).verdict is Verdict.ON_BOUNDARY


def test_classify_sparse_expfam():
    out = classify("expfam-sparse", 0.8, 0.5, p=1.0)
    assert out.verdict is Verdict.UNDETECTABLE  # beta above beta^# = 0.75
    assert out.margin == pytest.approx(-0.05, rel=1e-10)
    assert classify("expfam-sparse", 0.7, 0.5, p=1.0).verdict is Verdict.DETECTABLE
    out = classify("expfam-sparse", 0.7, 0.0, p=1.0)  # r = 0, as MixtureSpec admits
    assert out.verdict is Verdict.UNDETECTABLE and out.threshold_value == 0.5
    with pytest.raises(DomainError):
        classify("expfam-sparse", 0.8, 0.5)  # p required
    with pytest.raises(DomainError):
        classify("expfam-sparse", 0.4, 0.5, p=1.0)


def test_classify_accepts_family_objects():
    out = classify(mixture_family("normal"), 0.6, 0.5)
    assert out.verdict is Verdict.DETECTABLE
    # tilted families carry their own tail exponent
    out = classify(mixture_family("scale-exponential", regime="sparse"), 0.7, 0.5)
    assert out.threshold_value == 0.75
    out = classify(mixture_family("scale-exponential", regime="dense"), 0.25, 0.2)
    assert out.verdict is Verdict.DETECTABLE


def test_classify_unknown_family():
    with pytest.raises(DomainError):
        classify("cauchy", 0.6, 0.5)
    with pytest.raises(DomainError):
        classify(mixture_family("heteroscedastic-normal", sigma0=2.0), 0.6, 0.5)
    assert set(BOUNDARY_KINDS) == {"normal-sparse", "expfam-sparse", "expfam-dense"}


def test_classify_margin_monotone_along_r():
    rs = np.linspace(0.0, 0.5, 21)
    margins = [classify("normal-sparse", 0.6, r).margin for r in rs]
    assert np.all(np.diff(margins) > 0)
    verdicts = [classify("normal-sparse", 0.6, r).verdict for r in rs]
    assert verdicts[0] is Verdict.UNDETECTABLE and verdicts[-1] is Verdict.DETECTABLE


def test_classify_tolerance_band():
    # rho(0.6) = 0.1: a margin within DEFAULT_TOLERANCE = 1e-9 is on the boundary
    assert classify("normal-sparse", 0.6, 0.1 + 1e-10).verdict is Verdict.ON_BOUNDARY
    assert classify("normal-sparse", 0.6, 0.1 - 1e-10).verdict is Verdict.ON_BOUNDARY
    assert classify("normal-sparse", 0.6, 0.1 + 1e-6).verdict is Verdict.DETECTABLE
    assert classify("normal-sparse", 0.6, 0.1 - 1e-6).verdict is Verdict.UNDETECTABLE


@pytest.mark.parametrize("kind, beta", [("normal-sparse", 0.6), ("expfam-dense", 0.2),
                                        ("expfam-sparse", 0.6)])
@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, -0.1])
def test_classify_rejects_an_r_that_is_not_finite_and_nonnegative(kind, beta, r):
    with pytest.raises(DomainError, match="finite and >= 0"):
        classify(kind, beta, r, p=1.0)
