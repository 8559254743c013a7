"""Independent oracles shared by the test modules.

Everything here is deliberately implemented from first principles (dense
trapezoid quadrature, closed forms, naive recurrences, finite differences) or
taken from an independent library (scipy's Sobol engine), so the values it
produces do not depend on the code paths under test.  :func:`python` runs a
script in a fresh interpreter.
"""

from __future__ import annotations

import copy
import functools
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np

import sgnet


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


def orthonormal_legendre(k: int, y: np.ndarray) -> np.ndarray:
    """sqrt(2k + 1) P_k(y) from numpy's Legendre series: orthonormal under U(-1, 1)."""
    return math.sqrt(2 * k + 1) * np.polynomial.legendre.legval(y, [0.0] * k + [1.0])


def eval_tensor_poly(basis, k: int, y) -> float:
    """Value of the k-th basis polynomial at one point, as a product of the univariate oracles."""
    if not 0 <= k < basis.size:
        raise IndexError(f"basis index {k} out of range [0, {basis.size})")
    y = np.asarray(y, dtype=float).ravel()
    if y.size != basis.n_dims:
        raise ValueError(f"point has {y.size} coordinates, basis has {basis.n_dims}")
    poly = orthonormal_hermite if basis.family.value == "hermite" else orthonormal_legendre
    value = 1.0
    for degree, coord in zip(basis.indices[k], y):
        value *= float(poly(degree, coord))
    return value


def spectral_sum(basis, samples: np.ndarray, values: np.ndarray, grads: np.ndarray):
    """sum_k p_k(y) U_k(x) and its gradient, accumulated one basis term at a time.

    ``values`` is (L, K) and ``grads`` (L, K, d); each p_k(y) comes from
    :func:`eval_tensor_poly`.  Returns arrays of shapes (m, L) and (m, L, d).
    """
    m, (n_points, size, dim) = samples.shape[0], grads.shape
    value, grad = np.zeros((m, n_points)), np.zeros((m, n_points, dim))
    for k in range(size):
        p_k = np.array([eval_tensor_poly(basis, k, y) for y in samples])
        value += p_k[:, None] * values[None, :, k]
        grad += p_k[:, None, None] * grads[None, :, k, :]
    return value, grad


def exp1_exact(xi: float, x) -> np.ndarray:
    """Solution 0.5 |xi - 1| (x - x^2) of -u'' = |xi - 1| on (0, 1) with zero boundary values."""
    x = np.asarray(x, dtype=float)
    return 0.5 * abs(xi - 1.0) * (x - x * x)


def graded_lex_less(nu1, nu2) -> bool:
    """Strict graded lexicographic order: total degree first, then the first differing entry."""
    if len(nu1) != len(nu2):
        raise ValueError(f"length mismatch: {len(nu1)} vs {len(nu2)}")
    d1, d2 = sum(nu1), sum(nu2)
    if d1 != d2:
        return d1 < d2
    return tuple(nu1) < tuple(nu2)


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


def legendre_triple_analytic(i: int, j: int, k: int) -> float:
    """Closed-form <p_i p_j, p_k> for Legendre polynomials orthonormal under U(-1, 1).

    Adams' formula: with i + j + k = 2s even, the triangle inequality holding
    and A(n) = C(2n, n) / 4^n, the classical integral over dx / 2 is
    A(s-i) A(s-j) A(s-k) / (A(s) (2s + 1)); each factor is scaled by sqrt(2n + 1).
    """
    total = i + j + k
    if total % 2:
        return 0.0
    s = total // 2
    if s < i or s < j or s < k:
        return 0.0

    def central(n: int) -> float:
        return math.comb(2 * n, n) / 4.0**n

    classical = central(s - i) * central(s - j) * central(s - k) / (central(s) * (2 * s + 1))
    return classical * math.sqrt((2 * i + 1) * (2 * j + 1) * (2 * k + 1))


def dense_triple_tensor(index_array: np.ndarray, family: str) -> np.ndarray:
    """Dense G_ijk = <p_i p_j p_k> of a multi-index basis from the closed forms.

    ``family`` is "hermite" or "legendre"; every entry is the product of the
    univariate closed forms over the dimensions.
    """
    triple = {"hermite": hermite_triple_analytic, "legendre": legendre_triple_analytic}[family]
    deg = np.asarray(index_array)
    top = int(deg.max()) + 1
    table = np.array(
        [[[triple(a, b, c) for c in range(top)] for b in range(top)] for a in range(top)]
    )
    dense = np.ones((deg.shape[0],) * 3)
    for d in range(deg.shape[1]):
        col = deg[:, d]
        dense *= table[col[:, None, None], col[None, :, None], col[None, None, :]]
    return dense


def candidate_filter_tensor(index_array: np.ndarray, max_degree: int, table: np.ndarray):
    """Stored arrays ``(pair_i, pair_j, indptr, k, g)`` of the triple-product tensor, by filtering candidates.

    For every (i, j) and every half-step t of total degree <= P / 2, in basis
    order, the candidate k has degrees |nu_i - nu_j| + 2 t; it is kept when
    that is at most nu_i + nu_j entrywise and of total degree at most P.  The
    candidates are filtered in blocks of rows i, so the entries come out
    sorted by (i, j, t).  ``table`` holds the univariate triple products; each
    entry multiplies its factors in dimension order, and k is ranked by a
    dictionary of the multi-indices.
    """
    deg = np.asarray(index_array).astype(np.int32)
    size = len(deg)
    double_steps = 2 * deg[deg.sum(axis=1) <= max_degree // 2]
    block = max(1, 2**20 // (size * double_steps.size))
    found = []
    for start in range(0, size, block):
        rows = deg[start : start + block, None, None, :]
        k_deg = np.abs(rows - deg[:, None, :]) + double_steps
        fits = np.all(k_deg <= rows + deg[:, None, :], axis=3) & (k_deg.sum(axis=3) <= max_degree)
        i, j, t = np.nonzero(fits)
        found.append((i + start, j, k_deg[i, j, t]))
    i, j, k_deg = (np.concatenate(column) for column in zip(*found))
    g = np.multiply.reduce(table[deg[i], deg[j], k_deg], axis=1)
    position = {tuple(nu): n for n, nu in enumerate(np.asarray(index_array).tolist())}
    k = np.array([position[nu] for nu in map(tuple, k_deg.tolist())], dtype=np.int64)
    code = i.astype(np.int64) * size + j
    starts = np.flatnonzero(np.diff(code, prepend=-1))
    pair_code = code[starts]
    return pair_code // size, pair_code % size, np.append(starts, code.size), k, g


def dense_contract(dense: np.ndarray, coeff: np.ndarray, u: np.ndarray) -> np.ndarray:
    """out[n, k] = sum_ij G_ijk coeff[n, i] u[n, j] by a plain einsum over the dense G."""
    return np.einsum("ijk,ni,nj->nk", dense, coeff, u)


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


@functools.lru_cache(maxsize=None)
def _scipy_sobol_engine(dim: int, skip: int):
    from scipy.stats import qmc

    engine = qmc.Sobol(d=dim, scramble=False)
    if skip:
        engine.fast_forward(skip)  # one step per skipped point: seconds at 2^30
    return engine


def scipy_sobol(dim: int, skip: int):
    """``draw(n)``: the next n points of scipy's unscrambled Sobol engine fast-forwarded by ``skip``.

    A draw that would pass the engine's 2^30 points raises ValueError.
    """
    engine = copy.deepcopy(_scipy_sobol_engine(dim, skip))

    def draw(n: int) -> np.ndarray:
        with warnings.catch_warnings():
            # Draws from the start of the sequence warn about balance properties.
            warnings.simplefilter("ignore", UserWarning)
            return engine.random(n)

    return draw


def python(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this checkout's sgnet and these oracles."""
    paths = [str(Path(sgnet.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], env=env, capture_output=True, text=True, timeout=300
    )


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


def dense_from_lower_band(band: np.ndarray) -> np.ndarray:
    """Symmetric dense matrix of LAPACK lower band storage, entry by entry.

    ``band[i - j, j] = A[i, j]`` for ``j <= i <= j + bw``, where the band has
    ``bw + 1`` rows; every other lower entry is zero.
    """
    bandwidth = band.shape[0] - 1
    n = band.shape[1]
    dense = np.zeros((n, n))
    for j in range(n):
        for i in range(j, min(n, j + bandwidth + 1)):
            dense[i, j] = dense[j, i] = band[i - j, j]
    return dense


def dense_q1_solve(n: int, a, f) -> np.ndarray:
    """Bilinear FEM solution of -div(a grad u) = f, u = 0 on the boundary of the unit square.

    The interior system of :func:`dense_q1_system` is solved densely.
    Returns nodal values u[ix, iy] at (ix h, iy h).
    """
    stiffness, load = dense_q1_system(n, a, f)
    solution = np.zeros((n + 1, n + 1))
    solution[1:-1, 1:-1] = np.linalg.solve(stiffness, load).reshape(n - 1, n - 1)
    return solution


def dense_q1_system(n: int, a, f) -> tuple[np.ndarray, np.ndarray]:
    """Dense interior stiffness and load of the bilinear FEM for -div(a grad u) = f on the unit square.

    The n x n grid's element matrices are formed one element at a time with
    numpy's own 2 x 2 Gauss-Legendre rule and the corner hat functions in
    physical coordinates, summed into the dense matrix of all (n + 1)^2
    nodes, and the block of the interior nodes, numbered row-major over
    (ix, iy), is returned with its load.  ``a`` and ``f`` map points of shape
    (m, 2) to values (m,).
    """
    h = 1.0 / n
    gauss, weights = np.polynomial.legendre.leggauss(2)
    local = 0.5 * (gauss + 1.0)
    nodes = (n + 1) ** 2
    stiffness = np.zeros((nodes, nodes))
    load = np.zeros(nodes)
    for ex in range(n):
        for ey in range(n):
            corners = [(ex + cx, ey + cy, cx, cy) for cx in (0, 1) for cy in (0, 1)]
            for xi, w_xi in zip(local, weights):
                for eta, w_eta in zip(local, weights):
                    point = np.array([[(ex + xi) * h, (ey + eta) * h]])
                    weight = 0.25 * w_xi * w_eta * h * h
                    a_q, f_q = float(a(point)[0]), float(f(point)[0])
                    hats, grads = [], []
                    for _, _, cx, cy in corners:
                        hx, hy = (xi if cx else 1.0 - xi), (eta if cy else 1.0 - eta)
                        sx, sy = (1.0 if cx else -1.0) / h, (1.0 if cy else -1.0) / h
                        hats.append(hx * hy)
                        grads.append(np.array([sx * hy, hx * sy]))
                    for p, (px, py, _, _) in enumerate(corners):
                        load[px * (n + 1) + py] += weight * f_q * hats[p]
                        for q, (qx, qy, _, _) in enumerate(corners):
                            stiffness[px * (n + 1) + py, qx * (n + 1) + qy] += weight * a_q * grads[p] @ grads[q]
    interior = [ix * (n + 1) + iy for ix in range(1, n) for iy in range(1, n)]
    return stiffness[np.ix_(interior, interior)], load[interior]


def nodal_interpolant(nodal: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P1 (1-D) or Q1 (2-D) interpolant of nodal values on a uniform mesh of [0, 1]^d, point by point.

    ``nodal`` has n + 1 entries per axis.  Each point takes the element whose
    closed interval holds it (the left one on a shared node) and sums the
    tensor-product hat functions of its corners, (x_right - x) / h and
    (x - x_left) / h per axis.  Returns values (L,) and gradients (L, d).
    """
    n = nodal.shape[0] - 1
    h = 1.0 / n
    d = points.shape[1]
    values = np.zeros(len(points))
    grads = np.zeros((len(points), d))
    for p, point in enumerate(points):
        cell = [min(max(math.ceil(c * n) - 1, 0), n - 1) for c in point]
        for corner in np.ndindex(*(2,) * d):
            node = tuple(c + o for c, o in zip(cell, corner))
            hats, slopes = [], []
            for axis in range(d):
                left = cell[axis] * h
                if corner[axis]:
                    hats.append((point[axis] - left) / h)
                    slopes.append(1.0 / h)
                else:
                    hats.append((left + h - point[axis]) / h)
                    slopes.append(-1.0 / h)
            values[p] += nodal[node] * math.prod(hats)
            for axis in range(d):
                others = math.prod(hats[:axis] + hats[axis + 1 :])
                grads[p, axis] += nodal[node] * slopes[axis] * others
    return values, grads


class AffineField:
    """Stand-in for a SpectralField with positive coefficients affine in x.

    a_k(x) = c_k + s_k . x and f_k(x) = e_k + t_k . x, with c and e drawn from
    [1, 2) and s and t from [0, 1), so every contraction of them with positive
    arrays is a sum of positive terms.
    """

    def __init__(self, size: int, spatial_dim: int, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.size = size
        self.spatial_dim = spatial_dim
        self._a = rng.uniform(1.0, 2.0, size), rng.uniform(0.0, 1.0, (spatial_dim, size))
        self._f = rng.uniform(1.0, 2.0, size), rng.uniform(0.0, 1.0, (spatial_dim, size))

    def coeff_values(self, x):
        return self._a[0] + np.atleast_2d(x) @ self._a[1]

    def coeff_grads(self, x):
        n = np.atleast_2d(x).shape[0]
        return np.broadcast_to(self._a[1].T, (n, self.size, self.spatial_dim)).copy()

    def forcing_values(self, x):
        return self._f[0] + np.atleast_2d(x) @ self._f[1]


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

    def evaluate_grid(self, x, order=1):
        record = self.evaluate(x, order)
        return record.value, record.grad, record.laplacian

    def release_tape(self):
        """There is no tape to free."""

    def param_grad(self, record, d_value=None, d_grad=None, d_lap=None):
        """Keep the cotangents a risk passes in ``cotangents``; there are no parameters."""
        self.cotangents = {"value": d_value, "grad": d_grad, "lap": d_lap}
        return np.zeros(0)


def scattered_coupled_band(mesh, field_, tensor) -> np.ndarray:
    """Upper band of the coupled stiffness matrix, filled by fancy-index scatters of every entry.

    The element integrals are those of ``assemble_coupled_system``; the band
    is written by one scatter of the upper triangles of the diagonal blocks
    and one of the coupling blocks, each entry to its band row
    2 (M + 1) - 1 + i - j, column (node, j).
    """
    size, h = field_.size, mesh.h
    qp, qw, _ = mesh._element_rule(3)
    a_vals = field_.coeff_values(qp.reshape(-1, 1)).reshape(*qp.shape, size)
    a_blocks = tensor.coupling_matrices(np.einsum("eqi,eq->ei", a_vals, qw))
    n_int = mesh.n_elem - 1
    inv_h2 = 1.0 / (h * h)
    band = np.zeros((n_int, size, 2 * size)).transpose(2, 0, 1)
    upper_i, upper_j = np.triu_indices(size)
    band[2 * size - 1 + upper_i - upper_j, :, upper_j] = (
        (a_blocks[:-1] + a_blocks[1:])[:, upper_i, upper_j] * inv_h2
    ).T
    all_i, all_j = np.indices((size, size)).reshape(2, -1)
    band[size - 1 + all_i - all_j, 1:, all_j] = (-a_blocks[1:-1][:, all_i, all_j] * inv_h2).T
    return band.reshape(2 * size, n_int * size)
