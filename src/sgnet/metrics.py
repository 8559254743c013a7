"""Relative L2(Omega; H1) distance between a reference and surrogate solutions.

Spatial integrals use a composite trapezoid rule on a fixed grid, stochastic
integrals a fixed-seed Monte Carlo average.  All solutions are supplied as
batch evaluators mapping realizations to values and gradients on the grid, so
the same machinery compares networks against analytic, pathwise-FEM and
coupled-FEM references.  One Monte Carlo pass evaluates the reference once
per sample for every surrogate.

The pass shares its chunks of samples among the workers of
:mod:`sgnet.workers`, so an evaluator may be called from two threads at
once: it must not change shared state while it evaluates.  A worker
evaluates each of its chunks in consecutive calls of at most ``_CALL_BYTES``
per (realizations x grid) array, so the pass's memory does not grow with the
chunk or the grid.  An evaluator may start a pass of its own, which runs on
the workers when the metric's pass has one chunk and inline in a chunk's
thread otherwise.  The evaluators built here do all their set-up before they
return.  Inside the pass they take their result arrays from the worker's
arena, which the next call reuses, so such a result lasts until its call
ends.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import workers
from .fields import FieldModel, draw_samples, pathwise_sampler
from .net import MultiBranchNet
from .reference import CoupledSolution, Mesh1D, Mesh2D, fem_pathwise
from .spectral import OrderedBasis, basis_matrix

__all__ = [
    "SpatialGrid",
    "ErrorReport",
    "uniform_grid_1d",
    "midpoint_grid",
    "rel_h1_error",
    "exact_exp1_evaluator",
    "net_evaluator",
    "coupled_evaluator",
    "fem_evaluator",
]

PathwiseEvaluator = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class SpatialGrid:
    """Evaluation points with trapezoid quadrature weights."""

    points: np.ndarray  # (L, d)
    weights: np.ndarray  # (L,)

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _trapezoid_weights(axis: np.ndarray) -> np.ndarray:
    w = np.zeros_like(axis)
    gaps = np.diff(axis)
    w[:-1] += 0.5 * gaps
    w[1:] += 0.5 * gaps
    return w


def uniform_grid_1d(n_points: int = 257) -> SpatialGrid:
    axis = np.linspace(0.0, 1.0, n_points)
    return SpatialGrid(axis[:, None], _trapezoid_weights(axis))


def midpoint_grid(mesh: Mesh1D | Mesh2D) -> SpatialGrid:
    """Element midpoints of a mesh, where FEM gradients are single-valued."""
    if isinstance(mesh, Mesh1D):
        axis = mesh.midpoints
        return SpatialGrid(axis[:, None], _trapezoid_weights(axis))
    axis = mesh.centers1d
    w = _trapezoid_weights(axis)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    points = np.stack([xx.ravel(), yy.ravel()], axis=1)
    return SpatialGrid(points, np.outer(w, w).ravel())


@dataclass(frozen=True)
class ErrorReport:
    """Relative H1 error with its Monte Carlo ingredients.

    ``mc_standard_error`` is the delta-method standard error of ``rel_error``.
    """

    rel_error: float
    numerator: float
    denominator: float
    mc_standard_error: float


# Realizations per chunk, the unit of work the workers share.  A pass of at
# most 512 realizations (exp2's 200) is one chunk, so its pathwise FEM solves
# take every worker.
_CHUNK = 512

# Bytes of the largest (realizations x grid) array of one evaluator call: the
# gradients, of shape (m, L, d).  A chunk of exp2's 4,096-point 2-D grid takes
# calls of 32 realizations; the chunks of 1-D grids of up to 512 points fit in one.
_CALL_BYTES = 2 << 20


class _Arena:
    """The arrays one evaluator call of a worker's Monte Carlo pass asks for, in order, reused by its next call.

    Freed after every call, these arrays of up to ``_CALL_BYTES`` would be
    handed back to the system by malloc and faulted in again by the next one.
    """

    def __init__(self) -> None:
        self.buffers: list[np.ndarray] = []
        self.used = 0

    def empty(self, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        if self.used == len(self.buffers):
            self.buffers.append(np.empty(size))
        elif self.buffers[self.used].size < size:
            self.buffers[self.used] = np.empty(size)
        self.used += 1
        return self.buffers[self.used - 1][:size].reshape(shape)


# Evaluators take the samples alone, so the pass hands its arena to them through the thread.
_local = threading.local()


def _empty(shape: tuple[int, ...]) -> np.ndarray:
    """An array for an evaluator's result; from the thread's arena while a Monte Carlo pass runs on it."""
    arena = getattr(_local, "arena", None)
    return np.empty(shape) if arena is None else arena.empty(shape)


def _h1_terms(value: np.ndarray, grad: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Squared H1 norm of each realization, by the trapezoid rule on the grid."""
    total = np.multiply(value, value, out=_empty(value.shape))
    square = _empty(value.shape)
    for d in range(grad.shape[2]):
        g = grad[:, :, d]
        total += np.multiply(g, g, out=square)
    return total @ w


def _report(numerator_terms: np.ndarray, denominator_terms: np.ndarray) -> ErrorReport:
    n_mc = numerator_terms.size
    numerator = float(np.mean(numerator_terms))
    denominator = float(np.mean(denominator_terms))
    rel = float(np.sqrt(numerator / denominator))
    std_err = 0.0
    if n_mc > 1 and rel > 0.0:
        # Linearization of sqrt(mean N / mean D) about the sample means.
        z = (numerator_terms - rel * rel * denominator_terms) / (2.0 * rel * denominator)
        std_err = float(np.std(z, ddof=1) / np.sqrt(n_mc))
    return ErrorReport(rel, numerator, denominator, std_err)


def rel_h1_error(
    reference: PathwiseEvaluator,
    surrogates: Mapping[str, PathwiseEvaluator],
    grid: SpatialGrid,
    model: FieldModel,
    n_mc: int = 10_000,
    seed: int = 0,
) -> dict[str, ErrorReport]:
    """Monte Carlo estimate of ||u - v|| / ||u|| in the L2(Omega; H1) norm, per surrogate.

    Per realization, the squared H1 distance of every surrogate v and the
    squared H1 norm of the reference u are integrated on the grid by the
    trapezoid rule; both are then averaged over realizations and the ratio of
    square roots is reported.  Each chunk of realizations reaches the
    reference once, whatever the number of surrogates.

    Worker w measures the chunks of ``_CHUNK`` realizations
    ``starts[w::n_workers]``, each in calls of ``per_call`` realizations, and
    writes only their rows; the means are formed after the pass, so the
    report depends on neither the worker count nor the call size, up to
    roundoff in the per-realization terms.
    """
    if n_mc < 1:
        raise ValueError(f"n_mc must be at least 1, got {n_mc}")
    rng = np.random.default_rng(seed)
    samples = draw_samples(model.family, model.n_vars, n_mc, rng)
    numerator_terms = {name: np.empty(n_mc) for name in surrogates}
    denominator_terms = np.empty(n_mc)
    w = grid.weights
    starts = range(0, n_mc, _CHUNK)
    n_workers = max(1, min(workers.count(), len(starts)))
    per_call = max(1, _CALL_BYTES // (8 * grid.points.size))

    def measure(worker: int) -> None:
        _local.arena = arena = _Arena()
        try:
            for start in starts[worker::n_workers]:
                stop = min(start + _CHUNK, n_mc)
                for first in range(start, stop, per_call):
                    rows = slice(first, min(first + per_call, stop))
                    block = samples[rows]
                    arena.used = 0
                    u, du = reference(block)
                    kept = arena.used  # every surrogate reuses the arrays after the reference's
                    denominator_terms[rows] = _h1_terms(u, du, w)
                    for name, surrogate in surrogates.items():
                        arena.used = kept
                        v, dv = surrogate(block)
                        v = np.subtract(u, v, out=_empty(u.shape))
                        dv = np.subtract(du, dv, out=_empty(du.shape))
                        numerator_terms[name][rows] = _h1_terms(v, dv, w)
        finally:
            del _local.arena

    workers.run(measure, n_workers)
    if np.mean(denominator_terms) <= 0.0:
        raise ValueError("degenerate reference: zero H1 norm")
    return {name: _report(terms, denominator_terms) for name, terms in numerator_terms.items()}


# -- evaluators ---------------------------------------------------------------------


def exact_exp1_evaluator(grid: SpatialGrid) -> PathwiseEvaluator:
    """Closed-form solution of the constant-diffusion problem on the grid."""
    x = grid.points[:, 0]
    shape = (x - x * x)[None, :]
    slope = (1.0 - 2.0 * x)[None, :]

    def evaluate(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        amp = 0.5 * np.abs(samples[:, 0] - 1.0)[:, None]
        m, L = len(samples), len(x)
        return np.multiply(amp, shape, out=_empty((m, L))), np.multiply(amp, slope, out=_empty((m, L)))[:, :, None]

    return evaluate


def _spectral_reconstruction(
    basis: OrderedBasis, values: np.ndarray, grads: np.ndarray
) -> PathwiseEvaluator:
    """Evaluator of sum_k U_k(x) p_k(y) from branch values (L, K) and gradients (L, K, d).

    The gradient coefficients are laid out once as one contiguous (K, L)
    matrix per direction, so each call makes one BLAS product per direction;
    the gradients are returned as an (m, L, d) view of the (d, m, L) products.
    """
    by_direction = np.ascontiguousarray(grads.transpose(2, 1, 0))

    def evaluate(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p = basis_matrix(basis, samples)
        m, L = len(samples), len(values)
        value = np.matmul(p, values.T, out=_empty((m, L)))
        return value, np.matmul(p, by_direction, out=_empty((len(by_direction), m, L))).transpose(1, 2, 0)

    return evaluate


def net_evaluator(net: MultiBranchNet, basis: OrderedBasis, grid: SpatialGrid) -> PathwiseEvaluator:
    """Reconstruction sum_k U_k(x) p_k(y) of a trained network on the grid.

    Only the coefficients on the grid outlive the call: the net's tape is freed.
    """
    values, grads, _ = net.evaluate_grid(grid.points, order=1)
    net.release_tape()
    return _spectral_reconstruction(basis, values, grads)


def coupled_evaluator(
    solution: CoupledSolution, basis: OrderedBasis, grid: SpatialGrid
) -> PathwiseEvaluator:
    """Reconstruction of a coupled-FEM solution, linear in space on each element."""
    values, grads = _interpolant(solution.mesh, grid.points)(solution.coeffs)
    return _spectral_reconstruction(basis, values.T, grads.transpose(1, 0, 2))


def _interpolant(
    mesh: Mesh1D | Mesh2D, points: np.ndarray
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """P1 (1-D) or Q1 (2-D) interpolation of nodal values at fixed points.

    The cell and local coordinates of every point are found here, once.  The
    returned function maps nodal values (along the last axis in 1-D, of
    shape (n + 1, n + 1) in 2-D) to the interpolant and its gradient, of
    shapes (..., L) and (..., L, d).
    """
    h = mesh.h
    if isinstance(mesh, Mesh1D):
        x = points[:, 0]
        elem = np.clip((x / h).astype(int), 0, mesh.n_elem - 1)
        t = (x - mesh.nodes[elem]) / h

        def interpolate_1d(nodal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            left, right = nodal[..., elem], nodal[..., elem + 1]
            return (1.0 - t) * left + t * right, ((right - left) / h)[..., None]

        return interpolate_1d

    ix = np.clip((points[:, 0] / h).astype(int), 0, mesh.n - 1)
    iy = np.clip((points[:, 1] / h).astype(int), 0, mesh.n - 1)
    tx = points[:, 0] / h - ix
    ty = points[:, 1] / h - iy
    sx, sy = 1 - tx, 1 - ty
    stride = mesh.n + 1
    corner = ix * stride + iy  # flat index of each point's lower-left node

    def interpolate_2d(nodal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        flat = nodal.ravel()
        c00 = flat[corner]
        c10 = flat[corner + stride]
        c11 = flat[corner + stride + 1]
        c01 = flat[corner + 1]
        value = c00 * sx * sy + c10 * tx * sy + c11 * tx * ty + c01 * sx * ty
        gx = ((c10 - c00) * sy + (c11 - c01) * ty) / h
        gy = ((c01 - c00) * sx + (c11 - c10) * tx) / h
        return value, np.stack([gx, gy], axis=1)

    return interpolate_2d


def fem_evaluator(
    model: FieldModel, mesh: Mesh1D | Mesh2D, grid: SpatialGrid
) -> PathwiseEvaluator:
    """Pathwise FEM reference on the grid; one solve per realization.

    The part that no realization changes is set up here, once: the field's
    factors at the mesh's quadrature points, the grid's interpolation cells
    and the mesh's own solve set-up (its quadrature in 1-D, its dof map and
    band scatter slots in 2-D), so that no two workers race to build it.
    Each realization then forms its field, assembles and solves it, and is
    interpolated onto the grid; worker w takes realizations w, w + n, ... of
    a call and writes only their rows.
    """
    field_values = pathwise_sampler(model, mesh.quad_points)
    interpolate = _interpolant(mesh, grid.points)
    _ = mesh._quadrature if isinstance(mesh, Mesh1D) else mesh._scatter  # cached on the mesh

    def evaluate(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m = samples.shape[0]
        values = _empty((m, grid.points.shape[0]))
        grads = _empty((m, grid.points.shape[0], grid.dim))
        n_workers = max(1, min(workers.count(), m))

        def solve(worker: int) -> None:
            for i in range(worker, m, n_workers):
                values[i], grads[i] = interpolate(fem_pathwise(mesh, *field_values(samples[i])))

        workers.run(solve, n_workers)
        return values, grads

    return evaluate
