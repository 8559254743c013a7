"""Analytic exp1 solution, pathwise FEM solvers and the coupled Galerkin FEM oracle."""

from __future__ import annotations

import math
import threading
import time

import numpy as np
import pytest
import scipy.sparse.linalg
from oracles import (
    AffineField,
    dense_from_upper_band,
    dense_q1_solve,
    dense_triple_tensor,
    exp1_exact,
    scattered_coupled_band,
)
from scipy.linalg import solveh_banded

from sgnet.fields import (
    SpectralField,
    draw_samples,
    exp1_forcing_coeffs,
    field_model,
    pathwise_sampler,
)
from sgnet import reference as reference_module
from sgnet.metrics import exact_exp1_evaluator, uniform_grid_1d
from sgnet.reference import (
    FieldPositivityError,
    Mesh1D,
    Mesh2D,
    _solve_spd_banded,
    assemble_coupled_system,
    fem_pathwise,
    sga_fem_coupled,
)
from sgnet.spectral import PolyFamily, galerkin_tensor, total_degree_basis


class TestExactSolution:
    """``exact_exp1_evaluator``: the closed form 0.5 |xi - 1| (x - x^2) on a grid."""

    def test_degenerate_sample(self):
        value, grad = exact_exp1_evaluator(uniform_grid_1d(7))(np.array([[1.0]]))
        np.testing.assert_array_equal(value, 0.0)
        np.testing.assert_array_equal(grad, 0.0)

    def test_point_value(self):
        value, _ = exact_exp1_evaluator(uniform_grid_1d(3))(np.array([[3.0], [-1.0]]))
        np.testing.assert_allclose(value[:, 1], [0.25, 0.25], atol=1e-15)

    def test_boundary_values(self):
        value, _ = exact_exp1_evaluator(uniform_grid_1d(5))(np.array([[2.7]]))
        assert value[0, 0] == 0.0
        assert value[0, -1] == 0.0

    def test_gradient_consistency(self):
        grid = uniform_grid_1d(11)
        x = grid.points[:, 0]
        samples = np.array([[2.0], [-0.5]])
        _, grad = exact_exp1_evaluator(grid)(samples)
        step = 1e-6
        for m, xi in enumerate(samples[:, 0]):
            fd = (exp1_exact(xi, x + step) - exp1_exact(xi, x - step)) / (2 * step)
            np.testing.assert_allclose(grad[m, :, 0], fd, atol=1e-9)
            np.testing.assert_allclose(
                exact_exp1_evaluator(grid)(samples[m : m + 1])[0][0], exp1_exact(xi, x), rtol=1e-15
            )


def random_spd_band(rows: int, n: int, seed: int) -> np.ndarray:
    """Column-major upper band of a random diagonally dominant, so positive definite, matrix."""
    rng = np.random.default_rng(seed)
    band = rng.uniform(-1.0, 1.0, size=(rows, n))
    band[-1] = 2.0 * rows + rng.uniform(size=n)
    return np.asfortranarray(band)


class TestBandedSolve:
    """The banded Cholesky solve that runs LAPACK without holding the interpreter lock."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 65])
    def test_matches_scipy_bit_for_bit(self, rows):
        # Oracle: scipy's own banded solver, which routes two rows to dptsv
        # and every other band to dpbsv, on a row-major copy of the band.
        band = random_spd_band(rows, 200, seed=rows)
        rhs = np.random.default_rng(rows + 1).normal(size=200)
        expected = solveh_banded(np.ascontiguousarray(band), rhs)
        np.testing.assert_array_equal(_solve_spd_banded(band.copy(order="F"), rhs), expected)

    @pytest.mark.parametrize("rows, n", [(2, 1), (3, 1), (3, 2), (65, 10)])
    def test_band_with_more_rows_than_unknowns(self, rows, n):
        # Offsets of n or more do not exist in an n x n matrix; only the last
        # n rows are read, as scipy reads a band trimmed to them.
        band = random_spd_band(rows, n, seed=n)
        band[: rows - n] = np.nan
        rhs = np.random.default_rng(n).normal(size=n)
        got = _solve_spd_banded(band.copy(order="F"), rhs, check_finite=False)
        np.testing.assert_array_equal(got, solveh_banded(np.ascontiguousarray(band[-n:]), rhs))
        dense = dense_from_upper_band(np.nan_to_num(band[-n:]))
        np.testing.assert_allclose(got, np.linalg.solve(dense, rhs), rtol=1e-12, atol=0.0)

    def test_load_is_left_unchanged(self):
        band, rhs = random_spd_band(3, 20, seed=0), np.ones(20)
        _solve_spd_banded(band, rhs)
        np.testing.assert_array_equal(rhs, 1.0)

    @pytest.mark.parametrize("rows", [2, 3])
    def test_indefinite_band_is_refused(self, rows):
        band = random_spd_band(rows, 30, seed=rows)
        band[-1, 11] = -1.0
        with pytest.raises(FieldPositivityError, match="12th leading minor not positive definite"):
            _solve_spd_banded(band, np.ones(30))

    @pytest.mark.parametrize("where", ["band", "load"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_is_refused(self, where, bad):
        band, rhs = random_spd_band(3, 12, seed=1), np.ones(12)
        (band[1] if where == "band" else rhs)[4] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            _solve_spd_banded(band, rhs)

    def test_row_major_band_and_wrong_load_are_refused(self):
        band = random_spd_band(3, 12, seed=2)
        with pytest.raises(ValueError, match="column-major"):
            _solve_spd_banded(np.ascontiguousarray(band), np.ones(12))
        with pytest.raises(ValueError, match="load of 12 values"):
            _solve_spd_banded(band, np.ones(11))

    def test_a_lapack_pointer_of_another_signature_is_refused(self):
        # scipy built with 64-bit LAPACK integers would export other signatures.
        with pytest.raises(ImportError, match="dpbsv has the signature"):
            reference_module._lapack("dpbsv", "int64_t *")

    def test_another_thread_runs_during_the_solve(self):
        # A thread that wakes every millisecond keeps waking while the solve
        # is inside LAPACK; were the interpreter lock held, it would stall
        # for the whole factorization.
        band, rhs = random_spd_band(201, 30_000, seed=3), np.ones(30_000)
        stamps, stop = [], threading.Event()

        def tick():
            while not stop.is_set():
                stamps.append(time.perf_counter())
                time.sleep(0.001)

        ticker = threading.Thread(target=tick)
        ticker.start()
        try:
            time.sleep(0.05)
            start = time.perf_counter()
            _solve_spd_banded(band, rhs, check_finite=False)
            end = time.perf_counter()
        finally:
            stop.set()
            ticker.join(timeout=10)
        assert not ticker.is_alive()
        during = [start] + [t for t in stamps if start < t < end] + [end]
        longest_gap = max(np.diff(during))
        assert end - start > 0.02, "the solve was too short to show a stall"
        assert longest_gap < 0.25 * (end - start), (longest_gap, end - start)


class TestFem1D:
    def test_nodal_exactness_for_constant_data(self):
        # Linear elements are nodally exact for -u'' = 1.
        mesh = Mesh1D(64)
        x = mesh.quad_points
        solution = fem_pathwise(mesh, np.ones_like(x), np.ones_like(x))
        exact = mesh.nodes * (1 - mesh.nodes) / 2
        assert np.max(np.abs(solution - exact)) < 1e-12

    def test_two_element_mesh_has_one_unknown(self):
        # The smallest mesh: u(1/2) = 1/8 for -u'' = 1.
        x = Mesh1D(2).quad_points
        solution = fem_pathwise(Mesh1D(2), np.ones_like(x), np.ones_like(x))
        np.testing.assert_allclose(solution, [0.0, 0.125, 0.0], rtol=0.0, atol=1e-15)

    def test_manufactured_variable_coefficient_is_nodally_exact(self):
        # a(x) = 1 + x and u = x (1 - x) gives f = -( (1+x) u' )' = 1 + 4x;
        # with exact element integrals the 1-D solve is nodally exact.
        mesh = Mesh1D(32)
        x = mesh.quad_points
        sol = fem_pathwise(mesh, 1 + x, 1 + 4 * x)
        assert np.max(np.abs(sol - mesh.nodes * (1 - mesh.nodes))) < 1e-12

    def test_manufactured_solution_l2_convergence(self):
        # a(x) = exp(x), u = x (1 - x), f = exp(x) (1 + 2x): the interpolated
        # solution converges at second order in the mesh width.
        u_exact = lambda x: x * (1 - x)
        errors = []
        for n in (16, 32, 64):
            mesh = Mesh1D(n)
            x = mesh.quad_points
            sol = fem_pathwise(mesh, np.exp(x), np.exp(x) * (1 + 2 * x))
            mid = mesh.midpoints
            interp = 0.5 * (sol[:-1] + sol[1:])
            errors.append(math.sqrt(float(np.mean((interp - u_exact(mid)) ** 2))))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.2)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.2)

    def test_positivity_guard(self):
        mesh = Mesh1D(16)
        with pytest.raises(FieldPositivityError):
            x = mesh.quad_points
            fem_pathwise(mesh, x - 0.5, np.ones_like(x))


@pytest.mark.parametrize("mesh", [Mesh1D(4), Mesh2D(3)], ids=["1d", "2d"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_diffusion_is_rejected(mesh, bad):
    # A NaN or infinite coefficient is refused before it reaches the solver.
    a_q = np.ones(len(mesh.quad_points))
    a_q[1] = bad
    with pytest.raises(FieldPositivityError, match="finite"):
        fem_pathwise(mesh, a_q, np.ones_like(a_q))


@pytest.mark.parametrize("mesh", [Mesh1D(4), Mesh2D(3)], ids=["1d", "2d"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_forcing_is_rejected(mesh, bad):
    # The pathwise solve skips the banded solver's finiteness scan, so the forcing is checked first.
    f_q = np.ones(len(mesh.quad_points))
    f_q[2] = bad
    with pytest.raises(ValueError, match="forcing is not finite"):
        fem_pathwise(mesh, np.ones_like(f_q), f_q)


class TestFem2D:
    def test_manufactured_sine_convergence(self):
        # -lap u = 2 pi^2 sin(pi x) sin(pi y): L2 error drops ~4x per refinement.
        u = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
        f = lambda p: 2 * np.pi**2 * u(p)
        errors = []
        for n in (8, 16, 32):
            mesh = Mesh2D(n)
            p = mesh.quad_points
            sol = fem_pathwise(mesh, np.ones(p.shape[0]), f(p))
            nodes = np.linspace(0.0, 1.0, n + 1)
            xx, yy = np.meshgrid(nodes, nodes, indexing="ij")
            pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
            diff = sol.ravel() - u(pts)
            errors.append(math.sqrt(float(np.mean(diff**2))))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.25)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.25)

    def test_h1_convergence_order(self):
        # Broken H1 seminorm error, sampled at the 2 x 2 Gauss points of every
        # element, drops ~2x per refinement.  (Element centers are excluded:
        # the bilinear gradient superconverges there.)
        u = lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])
        f = lambda p: 2 * np.pi**2 * u(p)
        gauss = np.array([0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)])
        errors = []
        for n in (8, 16, 32):
            mesh = Mesh2D(n)
            p = mesh.quad_points
            sol = fem_pathwise(mesh, np.ones(p.shape[0]), f(p))
            h = mesh.h
            c00 = sol[:-1, :-1]
            c10 = sol[1:, :-1]
            c11 = sol[1:, 1:]
            c01 = sol[:-1, 1:]
            sq_err = 0.0
            for xi in gauss:
                for eta in gauss:
                    gx = ((c10 - c00) * (1 - eta) + (c11 - c01) * eta) / h
                    gy = ((c01 - c00) * (1 - xi) + (c11 - c10) * xi) / h
                    px = (np.arange(n)[:, None] + xi) * h
                    py = (np.arange(n)[None, :] + eta) * h
                    gx_true = np.pi * np.cos(np.pi * px) * np.sin(np.pi * py)
                    gy_true = np.pi * np.sin(np.pi * px) * np.cos(np.pi * py)
                    sq_err += 0.25 * np.sum((gx - gx_true) ** 2 + (gy - gy_true) ** 2) * h * h
            errors.append(math.sqrt(float(sq_err)))
        assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.25)
        assert errors[1] / errors[2] == pytest.approx(2.0, rel=0.25)

    def test_variable_coefficient_matches_dense_element_assembly(self):
        # Independent oracle for the band scatter: a dense element-by-element
        # Q1 assembly over all nodes, solved by numpy.
        a = lambda p: 1.0 + p[:, 0] + 2.0 * p[:, 1] ** 2 + 0.5 * np.sin(7.0 * p[:, 0] * p[:, 1])
        f = lambda p: 1.0 + np.cos(3.0 * p[:, 0]) * p[:, 1]
        mesh = Mesh2D(5)
        p = mesh.quad_points
        solution = fem_pathwise(mesh, a(p), f(p))
        expected = dense_q1_solve(5, a, f)
        np.testing.assert_allclose(solution, expected, rtol=0.0, atol=1e-12 * np.max(np.abs(expected)))

    def test_exp2_sample_solves(self):
        model = field_model("exp2", 2)
        rng = np.random.default_rng(0)
        y = rng.uniform(-1, 1, 2)
        mesh = Mesh2D(16)
        sol = fem_pathwise(mesh, *pathwise_sampler(model, mesh.quad_points)(y))
        assert sol.shape == (17, 17)
        interior = sol[1:-1, 1:-1]
        assert np.all(interior > 0.0)
        assert np.max(sol) < 0.1  # a >= 0.65 pushes the solution below x(1-x)/2 / 0.65


class TestCoupledSolver:
    def test_exp1_blocks_are_decoupled_poisson_solves(self):
        max_degree = 4
        basis = total_degree_basis(1, max_degree, PolyFamily.HERMITE)
        model = field_model("exp1", 1)
        field = SpectralField(model, basis)
        tensor = galerkin_tensor(basis)
        mesh = Mesh1D(64)
        solution = sga_fem_coupled(mesh, field, tensor)
        forcing = exp1_forcing_coeffs(max_degree)
        for k in range(basis.size):
            exact = 0.5 * forcing[k] * mesh.nodes * (1 - mesh.nodes)
            assert np.max(np.abs(solution.coeffs[k] - exact)) < 1e-10

    def test_single_block_reduces_to_pathwise_fem(self):
        basis = total_degree_basis(2, 0, PolyFamily.HERMITE)
        model = field_model("exp3", 2)
        field = SpectralField(model, basis)
        tensor = galerkin_tensor(basis)
        mesh = Mesh1D(32)
        coupled = sga_fem_coupled(mesh, field, tensor)
        x = mesh.quad_points
        direct = fem_pathwise(mesh, field.coeff_values(x)[:, 0], field.forcing_values(x)[:, 0])
        np.testing.assert_allclose(coupled.coeffs[0], direct, atol=1e-11)

    def test_galerkin_orthogonality(self):
        basis = total_degree_basis(2, 2, PolyFamily.HERMITE)
        model = field_model("exp3", 2)
        field = SpectralField(model, basis)
        tensor = galerkin_tensor(basis)
        mesh = Mesh1D(48)
        band, load = assemble_coupled_system(mesh, field, tensor)
        solution = sga_fem_coupled(mesh, field, tensor)
        u = solution.coeffs[:, 1:-1].T.ravel()
        residual = dense_from_upper_band(band) @ u - load
        assert np.max(np.abs(residual)) < 1e-10

    def test_direct_solve_matches_sparse_lu(self):
        # Independent oracle: SuperLU on the assembled system expanded from its band.
        basis = total_degree_basis(2, 2, PolyFamily.HERMITE)
        field = SpectralField(field_model("exp3", 2), basis)
        tensor = galerkin_tensor(basis)
        mesh = Mesh1D(48)
        band, load = assemble_coupled_system(mesh, field, tensor)
        matrix = scipy.sparse.csc_matrix(dense_from_upper_band(band))
        expected = scipy.sparse.linalg.spsolve(matrix, load)
        u = sga_fem_coupled(mesh, field, tensor).coeffs[:, 1:-1].T.ravel()
        assert np.linalg.norm(u - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize(
        "n_dims, degree, family",
        [
            pytest.param(2, 2, PolyFamily.HERMITE, id="exp3-N2-P2"),
            pytest.param(2, 3, PolyFamily.HERMITE, id="hermite-N2-P3"),
            pytest.param(3, 2, PolyFamily.LEGENDRE, id="legendre-N3-P2"),
        ],
    )
    def test_band_matches_naive_element_assembly(self, n_dims, degree, family):
        # Independent oracle: dense element-by-element accumulation of
        # int a_k G_kij phi_p' phi_q' over each element, with numpy's own
        # 3-point Gauss-Legendre rule, the hat-function slopes -1/h, 1/h and
        # G from the closed forms.  The Hermite N=2, P=2 case is the exp3 field;
        # the others use positive affine coefficients on every basis index.
        basis = total_degree_basis(n_dims, degree, family)
        if (n_dims, degree) == (2, 2):
            field = SpectralField(field_model("exp3", 2), basis)
        else:
            field = AffineField(basis.size, 1, seed=degree)
        tensor = galerkin_tensor(basis)
        dense_g = dense_triple_tensor(basis.index_array, family.value)
        mesh = Mesh1D(12)
        size = basis.size
        n_dof = (mesh.n_elem - 1) * size
        gauss_nodes, gauss_weights = np.polynomial.legendre.leggauss(3)
        expected = np.zeros((n_dof, n_dof))
        for element in range(mesh.n_elem):
            x = mesh.nodes[element] + 0.5 * (gauss_nodes + 1.0) * mesh.h
            a_int = 0.5 * mesh.h * gauss_weights @ field.coeff_values(x[:, None])
            slopes = {element: -1.0 / mesh.h, element + 1: 1.0 / mesh.h}
            for p, slope_p in slopes.items():
                for q, slope_q in slopes.items():
                    if min(p, q) == 0 or max(p, q) == mesh.n_elem:
                        continue
                    for i in range(size):
                        for j in range(size):
                            a_ij = sum(a_int[k] * dense_g[k, i, j] for k in range(size))
                            expected[(p - 1) * size + i, (q - 1) * size + j] += (
                                a_ij * slope_p * slope_q
                            )
        band, _ = assemble_coupled_system(mesh, field, tensor)
        assert band.shape == (2 * size, n_dof)
        np.testing.assert_allclose(dense_from_upper_band(band), expected, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize(
        "n_dims, degree, family, n_elem",
        [
            pytest.param(2, 2, PolyFamily.HERMITE, 48, id="exp3-N2-P2"),
            pytest.param(3, 2, PolyFamily.LEGENDRE, 12, id="legendre-N3-P2"),
            pytest.param(6, 4, PolyFamily.HERMITE, 64, id="exp3-N6-P4"),
            pytest.param(1, 0, PolyFamily.HERMITE, 8, id="one-coefficient"),
        ],
    )
    def test_band_matches_the_scattered_band_bitwise(self, n_dims, degree, family, n_elem):
        # The band is written column by column of each block; the oracle
        # scatters every entry by fancy indexing from the same element integrals.
        basis = total_degree_basis(n_dims, degree, family)
        if family is PolyFamily.HERMITE:
            field = SpectralField(field_model("exp3", n_dims), basis)
        else:
            field = AffineField(basis.size, 1, seed=degree)
        tensor = galerkin_tensor(basis)
        mesh = Mesh1D(n_elem)
        band, _ = assemble_coupled_system(mesh, field, tensor)
        expected = scattered_coupled_band(mesh, field, tensor)
        assert band.shape == expected.shape
        np.testing.assert_array_equal(band, expected)

    def test_negative_mean_coefficient_is_rejected(self):
        basis = total_degree_basis(2, 1, PolyFamily.HERMITE)
        tensor = galerkin_tensor(basis)

        class NegativeMeanField:
            size = basis.size

            def coeff_values(self, x):
                values = np.zeros((x.shape[0], self.size))
                values[:, 0] = -1.0
                return values

            def forcing_values(self, x):
                return -self.coeff_values(x)

        with pytest.raises(FieldPositivityError, match="not positive definite"):
            sga_fem_coupled(Mesh1D(16), NegativeMeanField(), tensor)

    def test_block_matrix_is_symmetric_positive_definite(self):
        basis = total_degree_basis(2, 2, PolyFamily.HERMITE)
        model = field_model("exp3", 2)
        field = SpectralField(model, basis)
        tensor = galerkin_tensor(basis)
        band, _ = assemble_coupled_system(Mesh1D(32), field, tensor)
        smallest = np.linalg.eigvalsh(dense_from_upper_band(band))[0]
        assert smallest > 0.0

    def test_energy_is_minimal_under_perturbations(self):
        basis = total_degree_basis(2, 2, PolyFamily.HERMITE)
        model = field_model("exp3", 2)
        field = SpectralField(model, basis)
        tensor = galerkin_tensor(basis)
        mesh = Mesh1D(48)
        band, load = assemble_coupled_system(mesh, field, tensor)
        matrix = dense_from_upper_band(band)
        solution = sga_fem_coupled(mesh, field, tensor)

        def energy(nodal):
            u = nodal[:, 1:-1].T.ravel()
            return 0.5 * float(u @ (matrix @ u)) - float(load @ u)

        base = energy(solution.coeffs)
        assert base == pytest.approx(solution.energy, rel=1e-12)
        bump = np.sin(np.pi * mesh.nodes)
        rng = np.random.default_rng(5)
        for _ in range(6):
            block = rng.integers(0, basis.size)
            eps = rng.uniform(-0.1, 0.1)
            perturbed = solution.coeffs.copy()
            perturbed[block] += eps * bump
            assert energy(perturbed) >= base - 1e-12

    def test_energy_is_negative(self):
        basis = total_degree_basis(2, 2, PolyFamily.HERMITE)
        model = field_model("exp3", 2)
        field = SpectralField(model, basis)
        tensor = galerkin_tensor(basis)
        solution = sga_fem_coupled(Mesh1D(48), field, tensor)
        assert solution.energy < 0.0


class TestPathwiseReference:
    def test_exp1_samples_are_nodally_exact(self):
        model = field_model("exp1", 1)
        mesh = Mesh1D(32)
        samples = draw_samples(model.family, model.n_vars, 5, np.random.default_rng(3))
        for y in samples:
            nodal = fem_pathwise(mesh, *pathwise_sampler(model, mesh.quad_points)(y))
            exact = exp1_exact(float(y[0]), mesh.nodes)
            assert np.max(np.abs(nodal - exact)) < 1e-12
