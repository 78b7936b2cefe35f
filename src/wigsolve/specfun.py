"""Scalar special functions used by the kernel coefficients.

The cosine integral is scipy's `sici`, behind a domain check.

The singular-oscillatory integral C(w) = int_0^L cos(w k) k^(-alpha) dk is an
alternating power series for |w| L <= 5.  Above that it is the half-line
value Gamma(a) sin(pi alpha/2) |w|^(-a), a = 1 - alpha, minus the tail

    int_L^inf cos(w k) k^(-alpha) dk = Re[e^(i pi a/2) w^(-a) Gamma(a, -i w L)],

and the upper incomplete gamma function is Legendre's continued fraction
(DLMF 8.9.2).  C is even in w.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.special import sici

from .errors import AccuracyError, DomainError, ParameterError

__all__ = [
    "cosine_integral",
    "cos_power_integral",
]

_CPI_SERIES_MAX = 5.0  # in |omega|*L
_CPI_SERIES_TERMS = 48
_CPI_CF_TERMS = 32
_CPI_CF_TOL = 1e-14  # largest accepted change of the last continued-fraction step


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


# ----------------------------------------------------------------------
# int_0^L cos(omega k) k^(-alpha) dk
# ----------------------------------------------------------------------

def _cpi_series(u: np.ndarray, alpha: float, L: float) -> np.ndarray:
    # L^(1-a) * sum_n (-1)^n u^(2n) / ((2n)! (2n+1-a)), u = |omega| L
    y = -(u * u)
    acc = np.zeros_like(y)
    for n in range(_CPI_SERIES_TERMS, 0, -1):
        acc = (acc + 1.0 / (math.factorial(2 * n) * (2 * n + 1 - alpha))) * y
    return L ** (1.0 - alpha) * (acc + 1.0 / (1.0 - alpha))


def _upper_gamma(a: float, z: np.ndarray):
    """Gamma(a, z) by Legendre's continued fraction, evaluated with the
    modified Lentz method over `_CPI_CF_TERMS` steps, and the relative
    change |d c - 1| the last step made."""
    b = z + 1.0 - a
    c = np.full_like(b, 1e300)
    d = 1.0 / b
    h = d
    for n in range(1, _CPI_CF_TERMS + 1):
        an = -n * (n - a)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h = h * delta
    return np.exp(a * np.log(z) - z) * h, np.abs(delta - 1.0)


def cos_power_integral(omega, alpha: float, L: float):
    """int_0^L cos(omega k) k^(-alpha) dk, alpha in (0, 1); even in omega."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not L > 0.0:
        raise ParameterError(f"L must be positive, got {L}")
    arr = np.abs(np.asarray(omega, float))
    w = arr.ravel()
    vals = np.empty_like(w)
    small = w * L <= _CPI_SERIES_MAX
    if small.any():
        vals[small] = _cpi_series(w[small] * L, alpha, L)
    if (~small).any():
        wt = w[~small]
        a = 1.0 - alpha
        scale = wt ** (-a)
        half_line = math.gamma(a) * math.sin(0.5 * math.pi * alpha) * scale
        gamma, change = _upper_gamma(a, -1j * wt * L)
        tail = np.real(np.exp(0.5j * math.pi * a) * scale * gamma)
        err = float(change.max())
        if err > _CPI_CF_TOL:
            raise AccuracyError(
                f"continued fraction stalled at relative change {err:.3e}",
                estimate=half_line - tail,
                error_estimate=err,
            )
        vals[~small] = half_line - tail
    out = vals.reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out
