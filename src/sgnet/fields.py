"""Random-field models: spectral coefficients, gradients and pathwise samplers.

Three models are provided, selected by name:

``exp1``
    Constant diffusion on (0, 1) with the forcing ``|xi - 1|`` driven by a
    single standard normal variable; Hermite basis.
``exp2``
    Uniformly bounded diffusion on (0, 1)^2 built from a decaying series of
    smooth bumps driven by independent uniform variables on [-1, 1]; Legendre
    basis of degree one, which resolves the coefficient exactly.
``exp3``
    Log-normal diffusion on (0, 1): the exponential of a truncated
    Karhunen-Loeve expansion of a Gaussian field with squared-exponential
    covariance; Hermite basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .spectral import (
    OrderedBasis,
    PolyFamily,
    kink_split_normal_rule,
    univariate_table,
)

__all__ = [
    "KLEigenpair",
    "FieldModel",
    "SpectralField",
    "kl_eigenpair",
    "kl_sigma",
    "kl_sigma_grad",
    "exp1_forcing_coeffs",
    "exp2_diffusion_coeffs",
    "exp3_diffusion_coeff",
    "exp3_diffusion_grad",
    "field_model",
    "pathwise_sampler",
    "draw_samples",
]

# Decay ratio of the squared-exponential KL eigenvalues for unit length scale.
KL_RATIO = 2.0 / (3.0 + math.sqrt(5.0))
# Gaussian envelope and argument scaling of the KL eigenfunctions.
_KL_ENVELOPE = (math.sqrt(5.0) - 1.0) / 4.0
_KL_ARG_SCALE = math.sqrt(math.sqrt(5.0) / 2.0)
_KL_NORMALIZER = 5.0 ** 0.125
# Eigenvalues underflow meaningfully beyond this index.
KL_INDEX_CAP = 60

EXP2_DECAY_EXPONENT = 8.0 / 5.0
EXP2_MEAN_LEVEL = 3.0


def _normalized_physicist_hermite(k: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Physicist's Hermite H_k and H_{k-1}, both scaled by 1 / sqrt(2^k k!).

    The scaling is carried inside the recurrence so large degrees neither
    overflow nor lose the leading digits; the previous-degree value is
    returned with the same degree-k normalization for derivative use.
    """
    h_prev = np.zeros_like(z)
    h = np.ones_like(z)
    for j in range(k):
        h_prev, h = h, z * math.sqrt(2.0 / (j + 1)) * h - math.sqrt(j / (j + 1.0)) * h_prev
    return h, h_prev


@dataclass(frozen=True)
class KLEigenpair:
    """Eigenvalue and eigenfunction of the squared-exponential covariance operator."""

    index: int
    eigenvalue: float

    def phi(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = _KL_ARG_SCALE * x
        h, _ = _normalized_physicist_hermite(self.index, z)
        return _KL_NORMALIZER * np.exp(-_KL_ENVELOPE * x * x) * h

    def dphi(self, x) -> np.ndarray:
        # H_k' = 2k H_{k-1}; with the 1/sqrt(2^k k!) scaling this becomes
        # sqrt(2k) times the scaled H_{k-1}, plus the Gaussian-envelope term.
        x = np.asarray(x, dtype=float)
        z = _KL_ARG_SCALE * x
        h, h_prev = _normalized_physicist_hermite(self.index, z)
        envelope = np.exp(-_KL_ENVELOPE * x * x)
        d_h = math.sqrt(2.0 * self.index) * h_prev if self.index > 0 else np.zeros_like(z)
        return _KL_NORMALIZER * envelope * (-2.0 * _KL_ENVELOPE * x * h + _KL_ARG_SCALE * d_h)


def kl_eigenpair(k: int) -> KLEigenpair:
    """Analytic eigenpair number ``k`` of the squared-exponential kernel."""
    if k < 0:
        raise ValueError("eigenpair index must be non-negative")
    if k > KL_INDEX_CAP:
        raise ValueError(f"eigenpair index {k} exceeds the cap of {KL_INDEX_CAP}")
    return KLEigenpair(k, KL_RATIO ** (k + 0.5))


def kl_sigma(x: np.ndarray, n_terms: int) -> np.ndarray:
    """Per-mode amplitudes sqrt(lambda_i) phi_i(x); shape ``(len(x), n_terms)``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((x.size, n_terms))
    for i in range(n_terms):
        pair = kl_eigenpair(i)
        out[:, i] = math.sqrt(pair.eigenvalue) * pair.phi(x)
    return out


def kl_sigma_grad(x: np.ndarray, n_terms: int) -> np.ndarray:
    """Spatial derivative of :func:`kl_sigma`; shape ``(len(x), n_terms)``."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((x.size, n_terms))
    for i in range(n_terms):
        pair = kl_eigenpair(i)
        out[:, i] = math.sqrt(pair.eigenvalue) * pair.dphi(x)
    return out


def exp1_forcing_coeffs(max_degree: int) -> np.ndarray:
    """Hermite coefficients of ``|y - 1|``, computed with the kink-split rule."""
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    rule = kink_split_normal_rule(kinks=(1.0,))
    table = univariate_table(PolyFamily.HERMITE, max_degree, rule.nodes)
    integrand = np.abs(rule.nodes - 1.0) * rule.weights
    return integrand @ table


def _exp2_bumps(n_terms: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bump amplitudes c_m(x) = m^(-8/5) exp(-(x1-x2)^2 / m) and their gradients."""
    diff = x[:, 0] - x[:, 1]
    modes = np.arange(1, n_terms + 1, dtype=float)
    scale = modes ** -EXP2_DECAY_EXPONENT
    c = scale[None, :] * np.exp(-(diff * diff)[:, None] / modes[None, :])
    dc_ddiff = c * (-2.0 * diff[:, None] / modes[None, :])
    grads = np.stack([dc_ddiff, -dc_ddiff], axis=2)
    return c, grads


def exp2_diffusion_coeffs(n_terms: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal-Legendre coefficients of the exp2 diffusion field.

    Returns values of shape ``(n_points, n_terms + 1)`` and gradients of shape
    ``(n_points, n_terms + 1, 2)``, ordered like the degree-one graded-lex
    basis: entry 0 is the mean, entry k couples to the variable of dimension
    ``n_terms - (k - 1)``.  Because the random variables enter the field as
    ``Y_m`` while the orthonormal degree-one polynomial is ``sqrt(3) y``, the
    stored coefficients carry a factor ``1 / sqrt(3)`` and the ``(Y_m + 1)``
    mean shift is absorbed into entry 0, so that the reconstruction
    ``sum_k a_k(x) p_k(y)`` reproduces the field exactly.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != 2:
        raise ValueError("exp2 is a two-dimensional spatial model")
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("spatial points must lie in the closed unit square")
    c, dc = _exp2_bumps(n_terms, x)
    x1, x2 = x[:, 0], x[:, 1]
    bubble = x1 * x2 * (1.0 - x1) * (1.0 - x2)
    d_bubble = np.stack(
        [(1.0 - 2.0 * x1) * x2 * (1.0 - x2), (1.0 - 2.0 * x2) * x1 * (1.0 - x1)], axis=1
    )
    values = np.empty((x.shape[0], n_terms + 1))
    grads = np.empty((x.shape[0], n_terms + 1, 2))
    values[:, 0] = EXP2_MEAN_LEVEL - bubble - 0.5 * c.sum(axis=1)
    grads[:, 0, :] = -d_bubble - 0.5 * dc.sum(axis=1)
    # Graded-lex degree-one order puts the highest dimension first.
    order = np.arange(n_terms - 1, -1, -1)
    values[:, 1:] = -c[:, order] / (2.0 * math.sqrt(3.0))
    grads[:, 1:, :] = -dc[:, order, :] / (2.0 * math.sqrt(3.0))
    return values, grads


def _moment_factor(sigma: np.ndarray, degree: int) -> np.ndarray:
    """Closed form of int exp(sigma y) h_n(y) dN(0,1)(y) = exp(sigma^2/2) sigma^n / sqrt(n!)."""
    sigma = np.asarray(sigma, dtype=float)
    if degree > 20:
        scale = math.exp(-0.5 * math.lgamma(degree + 1))
    else:
        scale = 1.0 / math.sqrt(math.factorial(degree))
    return np.exp(0.5 * sigma * sigma) * sigma**degree * scale


def _moment_factor_dsigma(sigma: np.ndarray, degree: int) -> np.ndarray:
    """Derivative of :func:`_moment_factor` with respect to sigma."""
    sigma = np.asarray(sigma, dtype=float)
    if degree > 20:
        scale = math.exp(-0.5 * math.lgamma(degree + 1))
    else:
        scale = 1.0 / math.sqrt(math.factorial(degree))
    lower = degree * sigma ** (degree - 1) if degree > 0 else np.zeros_like(sigma)
    return np.exp(0.5 * sigma * sigma) * (sigma ** (degree + 1) + lower) * scale


def _exponential_factor_table(sigma: np.ndarray, max_degree: int, tilt: float = 0.0) -> np.ndarray:
    """Factors int exp(sigma y + tilt |y|) h_n(y) dN(0,1)(y) for n <= max_degree.

    Without a tilt every factor is the exact closed form of
    :func:`_moment_factor`.  The tilted integrand has no elementary closed
    form and is integrated with the normal rule split at the kink y = 0.
    ``sigma`` may be any shape; the result appends one axis of length
    ``max_degree + 1``.
    """
    sigma = np.asarray(sigma, dtype=float)
    if not np.all(np.isfinite(sigma)):
        raise ValueError("non-finite field amplitude")
    if tilt == 0.0:
        return np.stack([_moment_factor(sigma, n) for n in range(max_degree + 1)], axis=-1)
    rule = kink_split_normal_rule(kinks=(0.0,))
    table = univariate_table(PolyFamily.HERMITE, max_degree, rule.nodes)
    weighted = table * rule.weights[:, None]
    kernel = np.exp(sigma[..., None] * rule.nodes + tilt * np.abs(rule.nodes))
    return kernel @ weighted


def exp3_diffusion_coeff(nu: tuple[int, ...], x, n_terms: int) -> np.ndarray | float:
    """Hermite coefficient a_nu(x) of the log-normal diffusion field.

    The Gaussian measure factorizes, so the coefficient is the product over
    KL modes of univariate integrals int exp(sigma_i(x) y) h_{nu_i}(y) dmu(y),
    each taken in the closed form exp(sigma_i^2/2) sigma_i^nu_i / sqrt(nu_i!).
    """
    if len(nu) != n_terms:
        raise ValueError("multi-index length must equal the truncation dimension")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    sigma = kl_sigma(x_arr, n_terms)
    out = np.ones(x_arr.size)
    for i, degree in enumerate(nu):
        out *= _moment_factor(sigma[:, i], degree)
    return float(out[0]) if np.ndim(x) == 0 else out


def exp3_diffusion_grad(nu: tuple[int, ...], x, n_terms: int) -> np.ndarray | float:
    """Spatial derivative of a_nu(x) by the product rule over KL modes.

    Uses the closed form of each univariate factor and of its derivative with
    respect to the mode amplitude; the amplitude derivative is
    sqrt(lambda_i) phi_i'(x).
    """
    if len(nu) != n_terms:
        raise ValueError("multi-index length must equal the truncation dimension")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    sigma = kl_sigma(x_arr, n_terms)
    dsigma = kl_sigma_grad(x_arr, n_terms)
    values = np.stack([_moment_factor(sigma[:, i], nu[i]) for i in range(n_terms)], axis=1)
    derivs = np.stack(
        [_moment_factor_dsigma(sigma[:, i], nu[i]) * dsigma[:, i] for i in range(n_terms)], axis=1
    )
    out = np.zeros(x_arr.size)
    for i in range(n_terms):
        term = derivs[:, i].copy()
        for j in range(n_terms):
            if j != i:
                term *= values[:, j]
        out += term
    return float(out[0]) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class FieldModel:
    """A diffusion-coefficient / forcing-term pair driven by N random variables."""

    kind: str
    n_vars: int
    spatial_dim: int
    family: PolyFamily


def field_model(kind: str, n_vars: int) -> FieldModel:
    """Construct one of the named field models."""
    if kind == "exp1":
        if n_vars != 1:
            raise ValueError("exp1 is driven by a single normal variable")
        return FieldModel(kind, 1, 1, PolyFamily.HERMITE)
    if kind == "exp2":
        return FieldModel(kind, n_vars, 2, PolyFamily.LEGENDRE)
    if kind == "exp3":
        if n_vars > KL_INDEX_CAP + 1:
            raise ValueError(f"exp3 has KL modes 0 to {KL_INDEX_CAP}; N must be at most {KL_INDEX_CAP + 1}")
        return FieldModel(kind, n_vars, 1, PolyFamily.HERMITE)
    raise ValueError(f"unknown field model {kind!r}")


def draw_samples(family: PolyFamily, n_vars: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` i.i.d. samples of the driving variables, shape ``(n, n_vars)``."""
    if family is PolyFamily.HERMITE:
        return rng.standard_normal((n, n_vars))
    return rng.uniform(-1.0, 1.0, size=(n, n_vars))


def pathwise_sampler(model: FieldModel, x: np.ndarray) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Closed-form field values on fixed points ``x``, as a function of one sample ``y``.

    The factors of the field that depend on ``x`` alone (the exp2 level and
    bumps, the exp3 KL amplitudes) are computed here, once; the returned
    function forms ``(a(y, x), f(y, x))`` from them for each sample.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    ones = np.ones(x.shape[0])
    ones.flags.writeable = False  # shared by the values of every sample
    if model.kind == "exp2":
        c, _ = _exp2_bumps(model.n_vars, x)
        x1, x2 = x[:, 0], x[:, 1]
        level = EXP2_MEAN_LEVEL - x1 * x2 * (1.0 - x1) * (1.0 - x2)
    elif model.kind == "exp3":
        sigma = kl_sigma(x[:, 0], model.n_vars)

    def sample(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = np.asarray(y, dtype=float).ravel()
        if y.size != model.n_vars:
            raise ValueError(f"sample has {y.size} coordinates, model has {model.n_vars}")
        if model.kind == "exp1":
            return ones, abs(y[0] - 1.0) * ones
        if model.kind == "exp2":
            return level - 0.5 * (c @ (y + 1.0)), ones
        return np.exp(sigma @ y), ones

    return sample


@dataclass(frozen=True)
class SpectralField:
    """Spectral-coefficient evaluators of a field model bound to a basis.

    With ``weighting="a_min_inv"`` the diffusion and forcing coefficients are
    those of a / a_min and f / a_min, available for the log-normal model where
    a_min(y) factorizes over the driving variables.
    """

    model: FieldModel
    basis: OrderedBasis
    weighting: str = "none"

    def __post_init__(self) -> None:
        if self.weighting not in ("none", "a_min_inv"):
            raise ValueError(f"unknown weighting {self.weighting!r}")
        if self.weighting == "a_min_inv" and self.model.kind != "exp3":
            raise ValueError("the weighted expansion is only defined for the log-normal model")
        if self.model.kind == "exp2" and self.basis.max_degree != 1:
            raise ValueError("the exp2 coefficient is a degree-one expansion; use P = 1")
        if self.basis.n_dims != self.model.n_vars:
            raise ValueError("basis dimension does not match the field model")
        if self.basis.family is not self.model.family:
            raise ValueError("basis family does not match the field model")

    @property
    def size(self) -> int:
        return self.basis.size

    @property
    def spatial_dim(self) -> int:
        return self.model.spatial_dim

    def _weight_tilt(self) -> float:
        # 1 / a_min(y) = exp(c * ||y||_1) with c = sqrt(lambda_0) phi_0(0).
        pair = kl_eigenpair(0)
        return math.sqrt(pair.eigenvalue) * float(pair.phi(0.0))

    def coeff_values(self, x: np.ndarray) -> np.ndarray:
        """Diffusion coefficients, shape ``(n_points, M + 1)``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.model.kind == "exp1":
            values = np.zeros((x.shape[0], self.size))
            values[:, 0] = 1.0
            return values
        if self.model.kind == "exp2":
            values, _ = exp2_diffusion_coeffs(self.model.n_vars, x)
            return values
        return self._exp3_products(x[:, 0], tilt=self._weight_tilt() if self.weighting == "a_min_inv" else 0.0)

    def coeff_grads(self, x: np.ndarray) -> np.ndarray:
        """Diffusion-coefficient gradients, shape ``(n_points, M + 1, d)``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.model.kind == "exp1":
            return np.zeros((x.shape[0], self.size, 1))
        if self.model.kind == "exp2":
            _, grads = exp2_diffusion_coeffs(self.model.n_vars, x)
            return grads
        return self._exp3_product_grads(x[:, 0])[:, :, None]

    def forcing_values(self, x: np.ndarray) -> np.ndarray:
        """Forcing coefficients, shape ``(n_points, M + 1)``."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.broadcast_to(self._forcing_row, (x.shape[0], self.size)).copy()

    @cached_property
    def _forcing_row(self) -> np.ndarray:
        # All three models have spatially constant forcing coefficients.
        if self.model.kind == "exp1":
            row = exp1_forcing_coeffs(self.basis.max_degree)
        elif self.weighting == "none":
            row = np.zeros(self.size)
            row[0] = 1.0
        else:
            # f / a_min with f = 1: per-mode integrals of exp(c |y|) h_n(y).
            factors = _exponential_factor_table(
                np.zeros(self.model.n_vars), self.basis.max_degree, tilt=self._weight_tilt()
            )
            index_array = self.basis.index_array
            row = np.ones(self.size)
            for dim in range(self.model.n_vars):
                row *= factors[dim, index_array[:, dim]]
        return row

    def _exp3_products(self, x: np.ndarray, tilt: float) -> np.ndarray:
        sigma = kl_sigma(x, self.model.n_vars)
        factors = _exponential_factor_table(sigma, self.basis.max_degree, tilt=tilt)
        index_array = self.basis.index_array
        out = np.ones((x.size, self.size))
        for dim in range(self.model.n_vars):
            out *= factors[:, dim, index_array[:, dim]]
        return out

    def _exp3_product_grads(self, x: np.ndarray) -> np.ndarray:
        if self.weighting != "none":
            raise NotImplementedError("gradients of the weighted expansion are not provided")
        n_vars = self.model.n_vars
        sigma = kl_sigma(x, n_vars)
        dsigma = kl_sigma_grad(x, n_vars)
        max_degree = self.basis.max_degree
        values = _exponential_factor_table(sigma, max_degree)
        derivs = np.empty((x.size, n_vars, max_degree + 1))
        for degree in range(max_degree + 1):
            derivs[:, :, degree] = _moment_factor_dsigma(sigma, degree) * dsigma
        index_array = self.basis.index_array
        out = np.zeros((x.size, self.size))
        for i in range(n_vars):
            term = derivs[:, i, index_array[:, i]]
            for j in range(n_vars):
                if j != i:
                    term = term * values[:, j, index_array[:, j]]
            out += term
        return out
