"""Reference solvers: analytic solution, pathwise FEM, and the coupled Galerkin FEM.

The pathwise solvers generate ground truth one realization at a time: linear
elements on a uniform mesh of (0, 1), bilinear elements on a uniform grid of
(0, 1)^2.  The coupled solver discretizes all spectral coefficients at once on
a 1-D mesh and solves the resulting banded block system, providing an oracle that
minimizes the same energy the Ritz-trained network minimizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, solve_banded, solveh_banded

from .fields import SpectralField
from .spectral import GalerkinTensor, PolyFamily, gauss_rule

__all__ = [
    "Mesh1D",
    "Mesh2D",
    "CoupledSolution",
    "FieldPositivityError",
    "exp1_exact",
    "exp1_exact_grad",
    "fem_pathwise",
    "assemble_coupled_system",
    "sga_fem_coupled",
]


class FieldPositivityError(ValueError):
    """The diffusion coefficient, or the operator assembled from it, is not positive."""


def exp1_exact(xi: float, x) -> np.ndarray:
    """Solution 0.5 |xi - 1| (x - x^2) of the constant-diffusion problem."""
    x = np.asarray(x, dtype=float)
    return 0.5 * abs(xi - 1.0) * (x - x * x)


def exp1_exact_grad(xi: float, x) -> np.ndarray:
    """Spatial derivative 0.5 |xi - 1| (1 - 2x)."""
    x = np.asarray(x, dtype=float)
    return 0.5 * abs(xi - 1.0) * (1.0 - 2.0 * x)


@dataclass(frozen=True)
class Mesh1D:
    """Uniform mesh of [0, 1] with ``n_elem`` linear elements."""

    n_elem: int

    def __post_init__(self) -> None:
        if self.n_elem < 2:
            raise ValueError("at least two elements are required")

    @property
    def h(self) -> float:
        return 1.0 / self.n_elem

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_elem + 1)

    @property
    def midpoints(self) -> np.ndarray:
        return (np.arange(self.n_elem) + 0.5) * self.h


@dataclass(frozen=True)
class Mesh2D:
    """Uniform n x n quadrilateral grid of [0, 1]^2 with bilinear elements."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("at least a 2 x 2 grid is required")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def nodes1d(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n + 1)

    @property
    def centers1d(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.h


# 2 x 2 Gauss points on the reference square, and the bilinear shape values /
# reference gradients there.  Weights are 1/4 each on the unit square.
_QP_1D = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])


def _q1_reference() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    pts = np.array([[a, b] for a in _QP_1D for b in _QP_1D])
    xi, eta = pts[:, 0], pts[:, 1]
    shapes = np.stack(
        [(1 - xi) * (1 - eta), xi * (1 - eta), xi * eta, (1 - xi) * eta], axis=1
    )
    grads = np.empty((4, 4, 2))
    grads[:, 0] = np.stack([-(1 - eta), -(1 - xi)], axis=1)
    grads[:, 1] = np.stack([(1 - eta), -xi], axis=1)
    grads[:, 2] = np.stack([eta, xi], axis=1)
    grads[:, 3] = np.stack([-eta, (1 - xi)], axis=1)
    weights = np.full(4, 0.25)
    return pts, shapes, grads, weights


def _solve_spd_banded(matrix: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
    """Banded Cholesky solve of a symmetric positive definite sparse system.

    The half-bandwidth is read off the stored upper triangle, so no entry is
    dropped; a matrix that is not positive definite raises
    ``FieldPositivityError``.
    """
    upper = sp.triu(matrix, format="coo")
    upper.sum_duplicates()
    offsets = upper.col - upper.row
    bandwidth = int(np.max(offsets, initial=0))
    banded = np.zeros((bandwidth + 1, matrix.shape[0]))
    banded[bandwidth - offsets, upper.col] = upper.data
    try:
        return solveh_banded(banded, rhs, overwrite_ab=True)
    except LinAlgError as exc:
        message = f"the discrete operator is not positive definite: {exc}"
        raise FieldPositivityError(message) from exc


def _fem_1d(mesh: Mesh1D, field_fn: Callable) -> np.ndarray:
    """Linear-element solve of -(a u')' = f with zero boundary values."""
    h = mesh.h
    rule = gauss_rule(PolyFamily.LEGENDRE, 2)
    # Element quadrature points and Lebesgue weights on each element.
    left = mesh.nodes[:-1]
    qp = left[:, None] + (0.5 * rule.nodes + 0.5)[None, :] * h
    qw = rule.weights[None, :] * h
    a_q, f_q = (np.asarray(v, dtype=float).reshape(qp.shape) for v in field_fn(qp.reshape(-1, 1)))
    if np.any(a_q <= 0.0):
        raise FieldPositivityError("diffusion coefficient is not positive on the mesh")
    a_int = (a_q * qw).sum(axis=1)  # integral of a over each element
    stiff = a_int / (h * h)
    # Hat-function values at the element quadrature points.
    t = (qp - left[:, None]) / h
    load_left = (f_q * (1.0 - t) * qw).sum(axis=1)
    load_right = (f_q * t * qw).sum(axis=1)

    n_int = mesh.n_elem - 1
    diag = stiff[:-1] + stiff[1:]
    rhs = load_right[:-1] + load_left[1:]
    banded = np.zeros((3, n_int))
    banded[0, 1:] = -stiff[1:-1]
    banded[1] = diag
    banded[2, :-1] = -stiff[1:-1]
    interior = solve_banded((1, 1), banded, rhs)
    solution = np.zeros(mesh.n_elem + 1)
    solution[1:-1] = interior
    return solution


def _fem_2d(mesh: Mesh2D, field_fn: Callable) -> np.ndarray:
    """Bilinear-element solve on the unit square; returns nodal values, shape (n+1, n+1)."""
    n = mesh.n
    h = mesh.h
    pts, shapes, grads, weights = _q1_reference()
    ex, ey = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    corners = np.stack([ex.ravel(), ey.ravel()], axis=1) * h  # lower-left corner of each element
    n_elem = corners.shape[0]
    # Physical quadrature points per element, flattened to (n_elem * 4, 2).
    qp = corners[:, None, :] + pts[None, :, :] * h
    a_q, f_q = (np.asarray(v, dtype=float).reshape(n_elem, 4) for v in field_fn(qp.reshape(-1, 2)))
    if np.any(a_q <= 0.0):
        raise FieldPositivityError("diffusion coefficient is not positive on the mesh")

    # Local stiffness: the h^2 Jacobian cancels the 1/h^2 of physical gradients.
    k_ref = np.einsum("q,qid,qjd->qij", weights, grads, grads)
    k_local = np.einsum("eq,qij->eij", a_q, k_ref)
    f_local = np.einsum("eq,qi,q->ei", f_q, shapes, weights) * (h * h)

    stride = n + 1
    base = ex.ravel() * stride + ey.ravel()
    local_nodes = np.stack([base, base + stride, base + stride + 1, base + 1], axis=1)

    rows = np.repeat(local_nodes, 4, axis=1).ravel()
    cols = np.tile(local_nodes, (1, 4)).ravel()
    matrix = sp.coo_matrix(
        (k_local.ravel(), (rows, cols)), shape=(stride**2, stride**2)
    ).tocsr()
    rhs = np.zeros(stride**2)
    np.add.at(rhs, local_nodes.ravel(), f_local.ravel())

    idx = np.arange(stride**2).reshape(stride, stride)
    interior = idx[1:-1, 1:-1].ravel()
    k_ii = matrix[interior][:, interior]
    solution = np.zeros(stride**2)
    solution[interior] = _solve_spd_banded(k_ii, rhs[interior])
    return solution.reshape(stride, stride)


def fem_pathwise(mesh: Mesh1D | Mesh2D, field_fn: Callable) -> np.ndarray:
    """Galerkin solution of -div(a grad u) = f with homogeneous Dirichlet data.

    ``field_fn(x)`` maps points of shape (n, d) to the values ``(a, f)``, each
    of shape (n,), as ``sample_pathwise`` returns them for one realization.
    """
    if isinstance(mesh, Mesh1D):
        return _fem_1d(mesh, field_fn)
    return _fem_2d(mesh, field_fn)


# -- coupled stochastic Galerkin FEM ------------------------------------------------


@dataclass(frozen=True)
class CoupledSolution:
    """Nodal spectral coefficients of the coupled weak-form system on a 1-D mesh."""

    mesh: Mesh1D
    coeffs: np.ndarray  # (M + 1, n_elem + 1) including the zero boundary values
    energy: float

    @property
    def size(self) -> int:
        return self.coeffs.shape[0]


def assemble_coupled_system(
    mesh: Mesh1D, field_: SpectralField, tensor: GalerkinTensor
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Block stiffness matrix and load vector of the coupled weak form.

    Degrees of freedom are node-major: dof = (node - 1) * (M + 1) + coefficient,
    so the matrix is block tridiagonal with half-bandwidth 2 (M + 1) - 1.
    """
    size = field_.size
    h = mesh.h
    rule = gauss_rule(PolyFamily.LEGENDRE, 3)
    left = mesh.nodes[:-1]
    qp = left[:, None] + (0.5 * rule.nodes + 0.5)[None, :] * h
    qw = rule.weights[None, :] * h

    a_vals = field_.coeff_values(qp.reshape(-1, 1)).reshape(mesh.n_elem, rule.nodes.size, size)
    f_vals = field_.forcing_values(qp.reshape(-1, 1)).reshape(mesh.n_elem, rule.nodes.size, size)
    # Element integrals of A_ij and of f_k against the two hat functions.
    a_blocks = (np.einsum("eqi,eq->ei", a_vals, qw) @ tensor.values.reshape(size, -1)).reshape(
        -1, size, size
    )
    t = (qp - left[:, None]) / h
    f_left = np.einsum("eqk,eq,eq->ek", f_vals, 1.0 - t, qw)
    f_right = np.einsum("eqk,eq,eq->ek", f_vals, t, qw)

    n_int = mesh.n_elem - 1
    n_dof = n_int * size
    inv_h2 = 1.0 / (h * h)

    blocks_diag = (a_blocks[:-1] + a_blocks[1:]) * inv_h2  # per interior node
    blocks_off = -a_blocks[1:-1] * inv_h2  # between consecutive interior nodes

    data: list[np.ndarray] = []
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    block_i, block_j = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    for node in range(n_int):
        offset = node * size
        data.append(blocks_diag[node].ravel())
        rows.append((offset + block_i).ravel())
        cols.append((offset + block_j).ravel())
    for node in range(n_int - 1):
        offset = node * size
        block = blocks_off[node]
        data.extend([block.ravel(), block.T.ravel()])
        rows.extend([(offset + block_i).ravel(), (offset + size + block_i).ravel()])
        cols.extend([(offset + size + block_j).ravel(), (offset + block_j).ravel()])
    matrix = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n_dof, n_dof),
    ).tocsr()
    load = (f_right[:-1] + f_left[1:]).reshape(n_dof)
    return matrix, load


def sga_fem_coupled(mesh: Mesh1D, field_: SpectralField, tensor: GalerkinTensor) -> CoupledSolution:
    """Solve the coupled weak form directly by banded Cholesky factorization."""
    size = field_.size
    matrix, load = assemble_coupled_system(mesh, field_, tensor)
    u = _solve_spd_banded(matrix, load)
    energy = 0.5 * float(u @ (matrix @ u)) - float(load @ u)
    coeffs = np.zeros((size, mesh.n_elem + 1))
    coeffs[:, 1:-1] = u.reshape(mesh.n_elem - 1, size).T
    return CoupledSolution(mesh, coeffs, energy)
