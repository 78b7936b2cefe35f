"""Special functions against quadrature oracles and classical identities."""

import math

import numpy as np
import pytest
from scipy.special import sici

from oracles import (
    QuadSpec,
    cos_power_integral_lobes,
    cos_power_integral_mpmath,
    fresnel_c,
    oscillatory_quad,
)
from wigsolve import specfun
from wigsolve.errors import AccuracyError, DomainError, ParameterError
from wigsolve.specfun import cos_power_integral, cosine_integral

TIGHT = QuadSpec(abs_tol=1e-13, rel_tol=1e-13)


def ci_oracle(x: float) -> float:
    # Ci(x) = gamma + ln x + int_0^x (cos t - 1)/t dt; integrand is entire
    def g(t):
        t = np.asarray(t, float)
        small = np.abs(t) < 1e-8
        safe = np.where(small, 1.0, t)
        return np.where(small, -0.5 * t, (np.cos(safe) - 1.0) / safe)

    return float(np.euler_gamma) + math.log(x) + oscillatory_quad(g, 0.0, x, TIGHT)


# ----------------------------------------------------------------------
# oscillatory_quad itself
# ----------------------------------------------------------------------

def test_quad_elementary_sine():
    assert oscillatory_quad(np.sin, 0.0, np.pi) == pytest.approx(2.0, abs=1e-12)


def test_quad_integrable_endpoint_singularity():
    got = oscillatory_quad(lambda k: k**-0.5, 0.0, 1.0, singular_lo=True)
    assert got == pytest.approx(2.0, abs=1e-10)


def test_quad_orthogonality_of_sines():
    # distinct harmonics integrate to zero over the full period
    f = lambda k: np.sin(40 * k) * np.sin(41 * k)
    assert oscillatory_quad(f, 0.0, 2 * np.pi) == pytest.approx(0.0, abs=1e-10)
    g = lambda k: np.sin(40 * k) ** 2
    assert oscillatory_quad(g, 0.0, 2 * np.pi) == pytest.approx(np.pi, abs=1e-10)


def test_quad_budget_error_carries_estimate():
    from wigsolve.errors import AccuracyError

    spec = QuadSpec(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=8)
    with pytest.raises(AccuracyError) as err:
        oscillatory_quad(lambda k: np.sin(400.0 * k * k), 0.0, 7.0, spec)
    assert err.value.estimate is not None


# ----------------------------------------------------------------------
# cosine integral
# ----------------------------------------------------------------------

def test_ci_tiny_argument_series_limit():
    x = 1e-8
    assert cosine_integral(x) == pytest.approx(np.euler_gamma + math.log(x), abs=1e-15)


def test_ci_at_one_frozen_value():
    # frozen from the defining-integral oracle
    assert cosine_integral(1.0) == pytest.approx(0.3374039229009681, abs=1e-13)
    assert cosine_integral(1.0) == pytest.approx(ci_oracle(1.0), abs=1e-12)


def test_ci_large_argument():
    got = cosine_integral(1000.0)
    assert got == pytest.approx(ci_oracle(1000.0), abs=1e-12)
    assert abs(got) <= 1.1 / 1000.0


@pytest.mark.parametrize("x", [0.3, 3.0, 11.9, 12.1, 19.0, 25.0, 44.9, 45.1, 80.0, 400.0])
def test_ci_branches_match_scipy_and_oracle(x):
    got = cosine_integral(x)
    assert got == pytest.approx(float(sici(x)[1]), abs=1e-13)
    assert got == pytest.approx(ci_oracle(x), abs=5e-12)


def test_ci_vectorized_matches_scalar():
    xs = np.array([1e-6, 0.5, 12.0, 30.0, 60.0, 2000.0])
    got = cosine_integral(xs)
    np.testing.assert_allclose(got, [cosine_integral(float(x)) for x in xs], rtol=0, atol=0)


def test_ci_difference_identity_against_quadrature():
    rng = np.random.default_rng(5)
    for _ in range(6):
        x, y = np.sort(rng.uniform(0.05, 100.0, 2))
        if y - x < 1e-3:
            continue
        lhs = cosine_integral(x) - cosine_integral(y)
        rhs = -oscillatory_quad(lambda t: np.cos(t) / t, x, y, TIGHT)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_ci_domain_error():
    with pytest.raises(DomainError):
        cosine_integral(0.0)
    with pytest.raises(DomainError):
        cosine_integral(-2.0)


# ----------------------------------------------------------------------
# Fresnel cosine integral
# ----------------------------------------------------------------------

def fresnel_series(x: float) -> float:
    # Maclaurin sum of int_0^x cos(pi t^2/2) dt with rigorous alternation
    total = 0.0
    for n in range(80):
        term = (-1) ** n * (math.pi / 2) ** (2 * n) * x ** (4 * n + 1)
        term /= math.factorial(2 * n) * (4 * n + 1)
        total += term
        if abs(term) < 1e-18:
            break
    return total


def test_fresnel_basics():
    assert fresnel_c(0.0) == 0.0
    assert fresnel_c(1.0) == pytest.approx(0.7798934003768228, abs=1e-13)
    assert fresnel_c(1.0) == pytest.approx(fresnel_series(1.0), abs=1e-13)
    assert fresnel_c(2.2) == pytest.approx(fresnel_series(2.2), abs=1e-12)


def test_fresnel_odd_and_asymptotic_envelope():
    for x in (0.3, 1.7, 4.0):
        assert fresnel_c(-x) == -fresnel_c(x)
    assert abs(fresnel_c(50.0) - 0.5) <= 1.0 / (50.0 * math.pi)


# ----------------------------------------------------------------------
# cos-power integral
# ----------------------------------------------------------------------

def cpi_oracle(omega: float, alpha: float, L: float) -> float:
    spec = QuadSpec(abs_tol=1e-12, rel_tol=1e-12)
    return oscillatory_quad(
        lambda k: np.cos(omega * k) * k ** (-alpha), 0.0, L, spec, singular_lo=True
    )


def test_cpi_zero_frequency():
    for alpha, L in ((0.5, np.pi), (0.2, 2.0), (0.9, 5.0)):
        assert cos_power_integral(0.0, alpha, L) == pytest.approx(
            L ** (1 - alpha) / (1 - alpha), rel=1e-13
        )


def test_cpi_alpha_to_zero_limit():
    omega, L = 2.0, 3.0
    got = cos_power_integral(omega, 1e-8, L)
    assert got == pytest.approx(math.sin(omega * L) / omega, abs=1e-6)


def test_cpi_frozen_value_and_oracle():
    got = cos_power_integral(3.0, 0.5, np.pi)
    assert got == pytest.approx(cpi_oracle(3.0, 0.5, np.pi), abs=1e-10)
    assert got == pytest.approx(0.7332129427341444, abs=1e-10)  # frozen from oracle


@pytest.mark.parametrize("omega,alpha,L", [
    (0.7, 0.3, 2 * np.pi),
    (-4.0, 0.5, 2 * np.pi),
    (9.5, 0.8, np.pi),
    (60.0, 0.5, 2 * np.pi),
    (300.0, 0.25, 2 * np.pi),
])
def test_cpi_matches_oracle(omega, alpha, L):
    got = cos_power_integral(omega, alpha, L)
    assert got == pytest.approx(cpi_oracle(omega, alpha, L), abs=2e-10)
    assert got == cos_power_integral(-omega, alpha, L)  # even in omega


def test_cpi_fresnel_identity_at_half():
    # int_0^L cos(w k)/sqrt(k) dk = sqrt(2 pi / w) C(sqrt(2 w L / pi)), w > 0
    for w, L in ((2.0, 3.0), (17.0, 2 * np.pi)):
        lhs = cos_power_integral(w, 0.5, L)
        rhs = math.sqrt(2 * math.pi / w) * float(fresnel_c(math.sqrt(2 * w * L / math.pi)))
        assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("L", [np.pi, 2 * np.pi])
@pytest.mark.parametrize("u", [5.01, 5.5, 5.94, 6.01, 7.0, 8.0, 9.3, 10.0, 11.0, 11.9, 12.0])
def test_cpi_fresnel_identity_between_the_switch_and_twelve(u, L):
    # the continued fraction holds from the series switch at |omega| L = 5 up
    # to 12, where the series, used there before, lost two to three digits;
    # just below 6 it lost about one
    w = u / L
    rhs = math.sqrt(2 * math.pi / w) * float(fresnel_c(math.sqrt(2 * w * L / math.pi)))
    assert abs(cos_power_integral(w, 0.5, L) - rhs) <= 5e-15


def test_cpi_continued_fraction_that_stalls_raises_with_its_estimate(monkeypatch):
    monkeypatch.setattr(specfun, "_CPI_CF_TERMS", 2)
    with pytest.raises(AccuracyError) as err:
        cos_power_integral(np.array([1.0, 30.0]), 0.5, 2 * np.pi)
    assert err.value.estimate is not None and err.value.estimate.shape == (2,)
    assert err.value.error_estimate > specfun._CPI_CF_TOL


def test_cpi_branch_consistency_near_switch():
    # both branches hold near the series switch at |omega| L = 5, and near 12
    L = 2 * np.pi
    for u in (4.5, 4.99, 5.01, 5.5, 11.2, 11.6, 11.99, 12.01, 12.5, 13.0):
        omega = u / L
        series_side = cos_power_integral(omega, 0.4, L)
        assert series_side == pytest.approx(cpi_oracle(omega, 0.4, L), abs=1e-9)


def test_cpi_continued_fraction_settles_from_the_switch_up():
    # the switch is as low as the 32-step continued fraction allows: its last
    # step settles under the tolerance from there up for every alpha (at
    # most 5e-15 on [5, 6]; below 5 it reaches 2.6e-14 at alpha = 0.95)
    u = np.linspace(specfun._CPI_SERIES_MAX, 6.0, 201)
    for alpha in np.linspace(0.05, 0.95, 19):
        _, change = specfun._upper_gamma(1.0 - alpha, -1j * u)
        assert change.max() <= specfun._CPI_CF_TOL, alpha


def test_cpi_domain_and_parameter_errors():
    with pytest.raises(DomainError):
        cos_power_integral(1.0, 1.2, 1.0)
    with pytest.raises(DomainError):
        cos_power_integral(1.0, 0.0, 1.0)
    with pytest.raises(ParameterError):
        cos_power_integral(1.0, 0.5, -1.0)


def test_cpi_vectorized():
    om = np.array([0.0, 1.0, -1.0, 40.0, 250.0])
    got = cos_power_integral(om, 0.5, 2 * np.pi)
    ref = np.array([cos_power_integral(float(w), 0.5, 2 * np.pi) for w in om])
    np.testing.assert_allclose(got, ref, rtol=0, atol=0)


def test_cpi_repeated_and_negated_match_scalar_calls():
    # repeated and negated omega give the scalar call's bits, elementwise
    om = np.array([[3.0, -3.0, 57.5, 0.2], [-57.5, 3.0, -0.2, 57.5]])
    got = cos_power_integral(om, 0.4, np.pi)
    ref = np.array([[cos_power_integral(float(w), 0.4, np.pi) for w in row] for row in om])
    assert got.shape == om.shape
    np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("L", [np.pi, 2 * np.pi])
@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.7, 0.95])
def test_cpi_tail_matches_direct_lobe_sum(alpha, L):
    # the continued fraction reproduces the lobe-by-lobe quadrature to round-off
    rng = np.random.default_rng(17)
    omega = np.concatenate([np.linspace(2.0, 400.0, 2001), rng.uniform(2.0, 400.0, 500)])
    omega = omega[omega * L > 12.0]
    np.testing.assert_allclose(
        cos_power_integral(omega, alpha, L), cos_power_integral_lobes(omega, alpha, L),
        rtol=0, atol=1e-14,
    )


@pytest.mark.parametrize("L", [np.pi, 2 * np.pi])
@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.8])
def test_cpi_continued_fraction_between_six_and_twelve_matches_mpmath(alpha, L):
    # the lobe sum's 24-lobe tail is off by up to 1.4e-14 on |omega| L in
    # (6, 12], so the closed form at 40 digits is the reference there, for
    # every alpha, not only for alpha = 1/2 through the Fresnel identity
    rng = np.random.default_rng(29)
    u = np.concatenate([np.linspace(6.0, 12.0, 41)[1:], rng.uniform(6.0, 12.0, 20)])
    omega = u / L
    np.testing.assert_allclose(
        cos_power_integral(omega, alpha, L), cos_power_integral_mpmath(omega, alpha, L),
        rtol=0, atol=1e-14,
    )
