"""Scalar special functions used by the kernel coefficients.

The cosine integral is scipy's `sici`, behind a domain check.

The singular-oscillatory integral C(w) = int_0^L cos(w k) k^(-a) dk is an
alternating power series for |w| L <= 12.  Above that it is the analytic
half-line value Gamma(1-a) sin(pi a/2) |w|^(a-1) minus the tail
int_L^inf, and the tail is a 24-node Gauss-Legendre head piece on [L, z0]
plus half-period lobes from z0 = (m0 + 1/2) pi / w, m0 = ceil(w L/pi - 1/2),
summed by Cohen-Villegas-Zagier acceleration.  Each lobe takes a 16-node
Gauss-Legendre rule (nodes xi_i, weights g_i).  On lobe j the nodes are
t = (pi/w)(m + 1/2 + (xi + 1)/2) with m = m0 + j, so
w t = (m + 1/2) pi + (xi + 1) pi/2, cos(w t) = -(-1)^m sin((xi + 1) pi/2) and

    v_j = -(-1)^m (pi/w)^(1-a) U[m],
    U[m] = 1/2 sum_i g_i sin((xi_i + 1) pi/2) (m + 1/2 + (xi_i + 1)/2)^(-a) > 0.

U depends on the integer m alone, so one table of it serves every point of
a call, and a point costs only its head piece.  C is even in w, so a call
evaluates each distinct |w| once.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import sici

from .errors import AccuracyError, DomainError, ParameterError

__all__ = [
    "cosine_integral",
    "gamma_fn",
    "cos_power_integral",
]

_CPI_SERIES_MAX = 12.0  # in |omega|*L
_CPI_SERIES_TERMS = 48
_CPI_CVZ_TERMS = 24
_CPI_CHECK_TERMS = _CPI_CVZ_TERMS - 6
_CPI_TAIL_TOL = 1e-11  # largest accepted 24- vs 18-lobe tail difference


@functools.cache
def _gl(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


# ----------------------------------------------------------------------
# cosine integral
# ----------------------------------------------------------------------

def cosine_integral(x):
    """Ci(x) = -int_x^inf cos(t)/t dt for x > 0, to 1e-12 absolute."""
    arr = np.asarray(x, float)
    if arr.size and (np.any(~np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise DomainError("cosine_integral requires finite x > 0")
    out = sici(arr)[1]
    return float(out) if arr.ndim == 0 else out


def gamma_fn(alpha: float) -> float:
    """Gamma(alpha) for alpha in (0, 2)."""
    if not 0.0 < alpha < 2.0:
        raise DomainError(f"gamma_fn domain is (0, 2), got {alpha}")
    return math.gamma(alpha)


# ----------------------------------------------------------------------
# int_0^L cos(omega k) k^(-alpha) dk
# ----------------------------------------------------------------------

def _cvz_alternating(terms: np.ndarray) -> np.ndarray:
    """Cohen-Villegas-Zagier sum of sum_j (-1)^j terms[..., j]."""
    n = terms.shape[-1]
    d = (3.0 + math.sqrt(8.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    s = np.zeros(terms.shape[:-1])
    for j in range(n):
        c = b - c
        s = s + c * terms[..., j]
        b *= (j + n) * (j - n) / ((j + 0.5) * (j + 1.0))
    return s / d


def _cpi_series(u: np.ndarray, alpha: float, L: float) -> np.ndarray:
    # L^(1-a) * sum_n (-1)^n u^(2n) / ((2n)! (2n+1-a)), u = |omega| L
    y = -(u * u)
    acc = np.zeros_like(y)
    for n in range(_CPI_SERIES_TERMS, 0, -1):
        acc = (acc + 1.0 / (math.factorial(2 * n) * (2 * n + 1 - alpha))) * y
    return L ** (1.0 - alpha) * (acc + 1.0 / (1.0 - alpha))


def _lobe_table(m: np.ndarray, alpha: float) -> np.ndarray:
    """U[m] for the integers m; a sum along the node axis, so each value is
    the same whatever else is in m."""
    nodes, weights = _gl(16)
    s = 0.5 * (nodes + 1.0)
    terms = (0.5 * weights * np.sin(math.pi * s)) * (m[:, None] + 0.5 + s) ** (-alpha)
    return terms.sum(axis=1)


def _cpi_tail(omega: np.ndarray, alpha: float, L: float):
    """int_L^inf cos(omega k) k^(-alpha) dk for omega > 0 (vectorized), summed
    over 24 lobes, and the same sum over 18 lobes as its check."""
    m0 = np.ceil(omega * L / np.pi - 0.5)
    z0 = (m0 + 0.5) * np.pi / omega
    # head piece [L, z0], under half a period long
    nodes24, weights24 = _gl(24)
    t = 0.5 * (z0 - L)[:, None] * nodes24[None, :] + 0.5 * (L + z0)[:, None]
    head = np.sum(
        0.5 * (z0 - L)[:, None] * weights24[None, :] * np.cos(omega[:, None] * t) * t ** (-alpha),
        axis=1,
    )
    # lobe magnitudes |v_j| = (pi/w)^(1-a) U[m0 + j] from one table; the
    # integers m0..m0+23 are all in m, so they sit at consecutive positions
    lobes = np.arange(_CPI_CVZ_TERMS)
    m = np.unique(m0[:, None] + lobes)
    U = _lobe_table(m, alpha)
    scale = (np.pi / omega) ** (1.0 - alpha)
    magnitudes = scale[:, None] * U[np.searchsorted(m, m0)[:, None] + lobes]
    sign0 = np.where(m0 % 2 == 0, -1.0, 1.0)  # sign of v_0, -(-1)^m0
    tail = head + sign0 * _cvz_alternating(magnitudes)
    check = head + sign0 * _cvz_alternating(magnitudes[:, :_CPI_CHECK_TERMS])
    return tail, check


def cos_power_integral(omega, alpha: float, L: float):
    """int_0^L cos(omega k) k^(-alpha) dk, alpha in (0, 1); even in omega."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not L > 0.0:
        raise ParameterError(f"L must be positive, got {L}")
    arr = np.abs(np.asarray(omega, float))
    # one evaluation per distinct |omega|, scattered back by the inverse index
    w, inverse = np.unique(arr.ravel(), return_inverse=True)
    vals = np.empty_like(w)
    small = w * L <= _CPI_SERIES_MAX
    if small.any():
        vals[small] = _cpi_series(w[small] * L, alpha, L)
    if (~small).any():
        wt = w[~small]
        half_line = gamma_fn(1.0 - alpha) * math.sin(0.5 * math.pi * alpha) * wt ** (alpha - 1.0)
        tail, check = _cpi_tail(wt, alpha, L)
        err = float(np.max(np.abs(tail - check))) if tail.size else 0.0
        if err > _CPI_TAIL_TOL:
            raise AccuracyError(
                f"oscillatory tail stalled at error {err:.3e}",
                estimate=half_line - tail,
                error_estimate=err,
            )
        vals[~small] = half_line - tail
    out = vals[inverse].reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out
