"""Reference solvers: pathwise FEM and the coupled Galerkin FEM.

The pathwise solvers generate ground truth one realization at a time: linear
elements on a uniform mesh of (0, 1), bilinear elements on a uniform grid of
(0, 1)^2.  The coupled solver discretizes all spectral coefficients at once on
a 1-D mesh and solves the resulting banded block system, providing an oracle that
minimizes the same energy the Ritz-trained network minimizes.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cython_lapack

from .fields import SpectralField
from .spectral import GalerkinTensor, PolyFamily, gauss_rule

__all__ = [
    "Mesh1D",
    "Mesh2D",
    "CoupledSolution",
    "FieldPositivityError",
    "fem_pathwise",
    "assemble_coupled_system",
    "sga_fem_coupled",
]


class FieldPositivityError(ValueError):
    """The diffusion coefficient, or the operator assembled from it, is not positive."""


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

    def _element_rule(self, n_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``n_points`` Gauss points per element, their Lebesgue weights and the hat value t there.

        Shapes (n_elem, n_points), (1, n_points) and (n_elem, n_points); ``t``
        is the right hat function of the element, ``1 - t`` the left one.
        """
        rule = gauss_rule(PolyFamily.LEGENDRE, n_points)
        left = self.nodes[:-1]
        qp = left[:, None] + (0.5 * rule.nodes + 0.5)[None, :] * self.h
        qw = rule.weights[None, :] * self.h
        return qp, qw, (qp - left[:, None]) / self.h

    @cached_property
    def _quadrature(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The two-point element rule of every pathwise solve, built once per mesh."""
        return self._element_rule(2)

    @cached_property
    def quad_points(self) -> np.ndarray:
        """Element quadrature points, shape (2 n_elem, 1), where :func:`fem_pathwise` takes the field."""
        return _read_only(self._quadrature[0].reshape(-1, 1))


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
    def centers1d(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.h

    @cached_property
    def quad_points(self) -> np.ndarray:
        """2 x 2 Gauss points of every element, shape (4 n^2, 2), where :func:`fem_pathwise` takes the field."""
        corners = np.indices((self.n, self.n)).reshape(2, -1).T * self.h  # row-major over (ex, ey)
        return _read_only((corners[:, None, :] + _Q1_POINTS[None, :, :] * self.h).reshape(-1, 2))

    @cached_property
    def _scatter(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat (element, i, j) entries of the element matrices that enter the upper band, their
        slots in the column-major (n + 1, n_dof) band, and the global node of every (element, i).

        Interior nodes are numbered row-major, so the interior stiffness has half-bandwidth n.
        """
        n, stride = self.n, self.n + 1
        ex, ey = np.indices((n, n)).reshape(2, -1)
        base = ex * stride + ey
        local_nodes = np.stack([base, base + stride, base + stride + 1, base + 1], axis=1)
        n_dof = (n - 1) ** 2
        node_dof = np.full((stride, stride), -1)
        node_dof[1:-1, 1:-1] = np.arange(n_dof).reshape(n - 1, n - 1)
        dofs = node_dof.ravel()[local_nodes]
        rows, cols = dofs[:, :, None], dofs[:, None, :]
        keep = (rows >= 0) & (rows <= cols)  # boundary dofs are -1
        slots = (cols * (n + 1) + n + rows - cols)[keep]
        return np.flatnonzero(keep), slots, local_nodes.ravel()


# 2 x 2 Gauss points on the reference square (weights 1/4 each), the bilinear
# shape values there, and the per-point reference stiffness w_q grad_i . grad_j.
_QP_1D = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_Q1_POINTS = np.array([[a, b] for a in _QP_1D for b in _QP_1D])
_XI, _ETA = _Q1_POINTS[:, 0], _Q1_POINTS[:, 1]
_Q1_LOAD = 0.25 * np.stack(
    [(1 - _XI) * (1 - _ETA), _XI * (1 - _ETA), _XI * _ETA, (1 - _XI) * _ETA], axis=1
)
_Q1_GRADS = np.stack(
    [
        np.stack([-(1 - _ETA), -(1 - _XI)], axis=1),
        np.stack([(1 - _ETA), -_XI], axis=1),
        np.stack([_ETA, _XI], axis=1),
        np.stack([-_ETA, (1 - _XI)], axis=1),
    ],
    axis=1,
)
_Q1_STIFFNESS = 0.25 * np.einsum("qid,qjd->qij", _Q1_GRADS, _Q1_GRADS)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# LAPACK's banded Cholesky solvers, called through the pointers scipy exports
# for Cython.  A ctypes foreign function releases the interpreter lock for the
# call, which scipy's own f2py wrappers hold throughout.
_DOUBLE = "__pyx_t_5scipy_6linalg_13cython_lapack_d *"
_ARGUMENT_TYPES = {"char *": ctypes.c_char_p, "int *": ctypes.POINTER(ctypes.c_int), _DOUBLE: ctypes.c_void_p}
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _lapack(name: str, *arguments: str) -> ctypes._CFuncPtr:
    """scipy's pointer to LAPACK routine ``name``, refused unless it takes ``arguments`` (LP64 ints)."""
    capsule = cython_lapack.__pyx_capi__[name]
    signature = f"void ({', '.join(arguments)})"
    found = _capsule_name(capsule)
    if found != signature.encode():
        raise ImportError(f"scipy's LAPACK {name} has the signature {found!r}, not the LP64 {signature!r}")
    return ctypes.CFUNCTYPE(None, *(_ARGUMENT_TYPES[a] for a in arguments))(_capsule_pointer(capsule, found))


# dpbsv(uplo, n, kd, nrhs, ab, ldab, b, ldb, info) and dptsv(n, nrhs, d, e, b, ldb, info)
_dpbsv = _lapack("dpbsv", "char *", "int *", "int *", "int *", _DOUBLE, "int *", _DOUBLE, "int *", "int *")
_dptsv = _lapack("dptsv", "int *", "int *", _DOUBLE, _DOUBLE, _DOUBLE, "int *", "int *")


def _solve_spd_banded(band: np.ndarray, rhs: np.ndarray, check_finite: bool = True) -> np.ndarray:
    """Cholesky solve of a symmetric positive definite system in upper band storage.

    ``band[bw + i - j, j] = A[i, j]`` for ``i <= j``, with ``bw + 1`` rows, in
    column-major order (the LAPACK layout, so LAPACK reads it in place); the
    band may be overwritten.  Two rows go to LAPACK's tridiagonal ``dptsv``
    and any other number to ``dpbsv``, as ``scipy.linalg.solveh_banded``
    routes them, and neither holds the interpreter lock.  A matrix that is
    not positive definite raises ``FieldPositivityError``.
    ``check_finite=False`` skips the scan of band and load, for callers that
    checked their inputs.
    """
    rows, n = band.shape
    if band.dtype != np.float64 or not band.flags.f_contiguous or n < 1 or np.shape(rhs) != (n,):
        raise ValueError(f"need a column-major float64 band of 1 or more columns and a load of {n} values")
    if check_finite and not (np.isfinite(band).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    solution = np.array(rhs, dtype=np.float64)
    size, one, info = ctypes.c_int(n), ctypes.c_int(1), ctypes.c_int(0)
    # An n x n matrix has no offsets of n or more, so only the last n rows count.
    kept = min(rows, n)
    if kept == 2:
        diagonal, off_diagonal = band[-1].copy(), band[-2, 1:].copy()
        _dptsv(size, one, diagonal.ctypes.data, off_diagonal.ctypes.data, solution.ctypes.data, size, info)
    else:
        top = band.ctypes.data + (rows - kept) * band.itemsize
        _dpbsv(b"U", size, ctypes.c_int(kept - 1), one, top, ctypes.c_int(rows), solution.ctypes.data, size, info)
    if info.value > 0:  # the checks above leave LAPACK no illegal argument to report
        message = f"the discrete operator is not positive definite: {info.value}th leading minor not positive definite"
        raise FieldPositivityError(message)
    return solution


def _fem_1d(mesh: Mesh1D, a_q: np.ndarray, f_q: np.ndarray) -> np.ndarray:
    """Linear-element solve of -(a u')' = f with zero boundary values."""
    h = mesh.h
    _, qw, t = mesh._quadrature
    a_int = (a_q * qw).sum(axis=1)  # integral of a over each element
    stiff = a_int / (h * h)
    load_left = (f_q * (1.0 - t) * qw).sum(axis=1)
    load_right = (f_q * t * qw).sum(axis=1)

    band = np.zeros((2, mesh.n_elem - 1), order="F")
    band[0, 1:] = -stiff[1:-1]
    band[1] = stiff[:-1] + stiff[1:]
    solution = np.zeros(mesh.n_elem + 1)
    solution[1:-1] = _solve_spd_banded(band, load_right[:-1] + load_left[1:], check_finite=False)
    return solution


def _fem_2d(mesh: Mesh2D, a_q: np.ndarray, f_q: np.ndarray) -> np.ndarray:
    """Bilinear-element solve on the unit square; returns nodal values, shape (n+1, n+1).

    Element matrices are summed straight into the band of the interior stiffness.
    """
    n, h, stride = mesh.n, mesh.h, mesh.n + 1
    kept, slots, nodes = mesh._scatter
    # Local stiffness: the h^2 Jacobian cancels the 1/h^2 of physical gradients.
    k_local = np.einsum("eq,qij->eij", a_q, _Q1_STIFFNESS)
    f_local = f_q @ _Q1_LOAD * (h * h)
    n_dof = (n - 1) ** 2
    band = np.bincount(slots, weights=k_local.reshape(-1)[kept], minlength=(n + 1) * n_dof).reshape(n_dof, n + 1).T
    rhs = np.bincount(nodes, weights=f_local.ravel(), minlength=stride**2)

    solution = np.zeros((stride, stride))
    solution[1:-1, 1:-1] = _solve_spd_banded(
        band, rhs.reshape(stride, stride)[1:-1, 1:-1].ravel(), check_finite=False
    ).reshape(n - 1, n - 1)
    return solution


def fem_pathwise(mesh: Mesh1D | Mesh2D, a_q: np.ndarray, f_q: np.ndarray) -> np.ndarray:
    """Galerkin solution of -div(a grad u) = f with homogeneous Dirichlet data.

    ``a_q`` and ``f_q`` hold one realization's diffusion and forcing at the
    points ``mesh.quad_points``, one value per point, as
    :func:`~sgnet.fields.pathwise_sampler` forms them.  Everything that depends
    on the mesh alone is set up on the mesh's first solve and reused.  Both
    inputs are checked here, so the banded solve skips its finiteness scan.
    """
    per_element = (mesh.n_elem, 2) if isinstance(mesh, Mesh1D) else (mesh.n**2, 4)
    a_q, f_q = (np.asarray(v, dtype=float).reshape(per_element) for v in (a_q, f_q))
    if not np.all((a_q > 0.0) & np.isfinite(a_q)):
        raise FieldPositivityError("diffusion coefficient is not positive and finite on the mesh")
    if not np.all(np.isfinite(f_q)):
        raise ValueError("forcing is not finite on the mesh")
    if isinstance(mesh, Mesh1D):
        return _fem_1d(mesh, a_q, f_q)
    return _fem_2d(mesh, a_q, f_q)


# -- coupled stochastic Galerkin FEM ------------------------------------------------


@dataclass(frozen=True)
class CoupledSolution:
    """Nodal spectral coefficients of the coupled weak-form system on a 1-D mesh."""

    mesh: Mesh1D
    coeffs: np.ndarray  # (M + 1, n_elem + 1) including the zero boundary values
    energy: float


def assemble_coupled_system(
    mesh: Mesh1D, field_: SpectralField, tensor: GalerkinTensor
) -> tuple[np.ndarray, np.ndarray]:
    """Block stiffness matrix, in upper band storage, and load vector of the coupled weak form.

    Degrees of freedom are node-major: dof = (node - 1) * (M + 1) + coefficient,
    so the matrix is block tridiagonal with half-bandwidth 2 (M + 1) - 1 and the
    band ``band[2 (M + 1) - 1 + i - j, j] = A[i, j]`` has 2 (M + 1) rows.
    """
    size = field_.size
    h = mesh.h
    qp, qw, t = mesh._element_rule(3)

    a_vals = field_.coeff_values(qp.reshape(-1, 1)).reshape(*qp.shape, size)
    f_vals = field_.forcing_values(qp.reshape(-1, 1)).reshape(*qp.shape, size)
    # Element integrals of A_jk = sum_i a_i G_ijk and of f_k against the two hat functions.
    a_blocks = tensor.coupling_matrices(np.einsum("eqi,eq->ei", a_vals, qw))
    f_left = np.einsum("eqk,eq,eq->ek", f_vals, 1.0 - t, qw)
    f_right = np.einsum("eqk,eq,eq->ek", f_vals, t, qw)

    n_int = mesh.n_elem - 1
    inv_h2 = 1.0 / (h * h)
    diagonal = (a_blocks[:-1] + a_blocks[1:]) * inv_h2
    coupling = -a_blocks[1:-1] * inv_h2
    # Band column (node, j) holds column j of the node's diagonal block in rows
    # 2 size - 1 + i - j (i <= j) and column j of the block coupling it to the
    # previous node in rows size - 1 + i - j (all i).
    band = np.zeros((n_int, size, 2 * size)).transpose(2, 0, 1)  # column-major once flattened
    for j in range(size):
        band[2 * size - 1 - j :, :, j] = diagonal[:, : j + 1, j].T
        band[size - 1 - j : 2 * size - 1 - j, 1:, j] = coupling[:, :, j].T
    load = (f_right[:-1] + f_left[1:]).reshape(n_int * size)
    return band.reshape(2 * size, n_int * size), load


def sga_fem_coupled(mesh: Mesh1D, field_: SpectralField, tensor: GalerkinTensor) -> CoupledSolution:
    """Solve the coupled weak form directly by banded Cholesky factorization."""
    size = field_.size
    band, load = assemble_coupled_system(mesh, field_, tensor)
    u = _solve_spd_banded(band, load)
    # At the solution A u = load, so the energy u.A u / 2 - load.u is -load.u / 2.
    energy = -0.5 * float(load @ u)
    coeffs = np.zeros((size, mesh.n_elem + 1))
    coeffs[:, 1:-1] = u.reshape(mesh.n_elem - 1, size).T
    return CoupledSolution(mesh, coeffs, energy)
