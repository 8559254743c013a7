"""Independent oracles shared by the test modules.

Everything here is deliberately implemented from first principles (dense
trapezoid quadrature, closed forms, naive recurrences, finite differences) so
the values it produces do not depend on the code paths under test.
"""

from __future__ import annotations

import math

import numpy as np


def norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def probabilist_hermite_unnormalized(k: int, y: np.ndarray) -> np.ndarray:
    """He_k by the plain recurrence He_{k+1} = y He_k - k He_{k-1}."""
    y = np.asarray(y, dtype=float)
    h_prev, h = np.zeros_like(y), np.ones_like(y)
    for j in range(k):
        h_prev, h = h, y * h - j * h_prev
    return h


def orthonormal_hermite(k: int, y: np.ndarray) -> np.ndarray:
    return probabilist_hermite_unnormalized(k, y) / math.sqrt(math.factorial(k))


def physicist_hermite(k: int, z: np.ndarray) -> np.ndarray:
    """H_k by the plain recurrence H_{k+1} = 2z H_k - 2k H_{k-1}."""
    z = np.asarray(z, dtype=float)
    h_prev, h = np.zeros_like(z), np.ones_like(z)
    for j in range(k):
        h_prev, h = h, 2.0 * z * h - 2.0 * j * h_prev
    return h


def hermite_triple_analytic(i: int, j: int, k: int) -> float:
    """Closed-form <h_i h_j, h_k> for orthonormal probabilist's Hermite polynomials.

    Nonzero only when i + j + k = 2s is even and the triangle inequality
    holds; then the value is sqrt(i! j! k!) / ((s-i)! (s-j)! (s-k)!).
    """
    total = i + j + k
    if total % 2:
        return 0.0
    s = total // 2
    if s < i or s < j or s < k:
        return 0.0
    log_value = 0.5 * (
        math.lgamma(i + 1) + math.lgamma(j + 1) + math.lgamma(k + 1)
    ) - (
        math.lgamma(s - i + 1) + math.lgamma(s - j + 1) + math.lgamma(s - k + 1)
    )
    return math.exp(log_value)


def trapezoid_normal_projection(g, k: int, radius: float = 12.0, n: int = 1_200_001) -> float:
    """Dense-trapezoid value of int g(y) h_k(y) dN(0,1)(y) over [-radius, radius]."""
    y = np.linspace(-radius, radius, n)
    density = np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)
    values = np.asarray(g(y), dtype=float) * orthonormal_hermite(k, y) * density
    return float(np.trapezoid(values, y))


def lognormal_factor_closed(sigma: float, n: int) -> float:
    """Closed form of E[exp(sigma Y) h_n(Y)] = exp(sigma^2 / 2) sigma^n / sqrt(n!)."""
    return math.exp(0.5 * sigma * sigma) * sigma**n / math.sqrt(math.factorial(n))


def central_diff(fn, x: float, step: float = 1e-5) -> float:
    return (fn(x + step) - fn(x - step)) / (2.0 * step)


def central_diff_vec(fn, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Componentwise central difference of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        forward = x.copy()
        backward = x.copy()
        forward[i] += step
        backward[i] -= step
        out[i] = (fn(forward) - fn(backward)) / (2.0 * step)
    return out


def second_diff(fn, x: float, step: float = 1e-4) -> float:
    return (fn(x + step) - 2.0 * fn(x) + fn(x - step)) / (step * step)


def star_discrepancy_1d(points: np.ndarray) -> float:
    """Exact star discrepancy of a point set in [0, 1]."""
    x = np.sort(np.asarray(points, dtype=float))
    n = x.size
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(np.abs(x - i / n), np.abs(x - (i - 1) / n))))


def dense_from_upper_band(band: np.ndarray) -> np.ndarray:
    """Symmetric dense matrix of LAPACK upper band storage, entry by entry.

    ``band[bw + i - j, j] = A[i, j]`` for ``j - bw <= i <= j``, where the band
    has ``bw + 1`` rows; every other upper entry is zero.
    """
    bandwidth = band.shape[0] - 1
    n = band.shape[1]
    dense = np.zeros((n, n))
    for j in range(n):
        for i in range(max(0, j - bandwidth), j + 1):
            dense[i, j] = dense[j, i] = band[bandwidth + i - j, j]
    return dense


class ExactCoefficientNet:
    """Duck-typed branch set with hard-wired coefficient functions.

    Stands in for a trained network in loss and metric computations, so exact
    solutions can be pushed through the same code paths.
    """

    def __init__(self, value, grad=None, lap=None, n_branches=None):
        self._value = value
        self._grad = grad
        self._lap = lap
        self._n_branches = n_branches

    @property
    def n_branches(self):
        if self._n_branches is not None:
            return self._n_branches
        probe = self._value(np.zeros((1, 1)))
        return probe.shape[1]

    def evaluate(self, x, order=2):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        record = type("Record", (), {})()
        record.value = self._value(x)
        record.grad = self._grad(x) if order >= 1 and self._grad is not None else None
        record.laplacian = self._lap(x) if order >= 2 and self._lap is not None else None
        record.n_points = x.shape[0]
        return record
