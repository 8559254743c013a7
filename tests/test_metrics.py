"""Relative H1 error: oracle agreement, determinism, Monte Carlo behavior."""

from __future__ import annotations

import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sgnet import fields as fields_module
from sgnet import metrics as metrics_module
from sgnet import workers
from sgnet.fields import (
    SpectralField,
    draw_samples,
    exp1_forcing_coeffs,
    field_model,
    pathwise_sampler,
)
from sgnet.metrics import (
    _h1_terms,
    _report,
    _spectral_reconstruction,
    coupled_evaluator,
    exact_exp1_evaluator,
    fem_evaluator,
    midpoint_grid,
    net_evaluator,
    rel_h1_error,
    uniform_grid_1d,
)
from sgnet.reference import Mesh1D, Mesh2D, fem_pathwise, sga_fem_coupled
from sgnet.spectral import PolyFamily, galerkin_tensor, total_degree_basis

from oracles import ExactCoefficientNet, nodal_interpolant, spectral_sum

FROZEN = Path(__file__).parent / "data" / "fem_evaluator_frozen.npz"


def truncated_exact_net(max_degree):
    forcing = exp1_forcing_coeffs(max_degree)
    half = 0.5 * forcing
    return ExactCoefficientNet(
        value=lambda x: half[None, :] * (x[:, :1] - x[:, :1] ** 2),
        grad=lambda x: (half[None, :] * (1.0 - 2.0 * x[:, :1]))[:, :, None],
        lap=lambda x: np.broadcast_to(-forcing, (x.shape[0], forcing.size)).copy(),
    )


def product_evaluator(grid, scale):
    """u = (1 + scale y_1) sin(pi x) sin(pi y) on a 2-D grid: cheap, in new arrays on every call."""
    x, y = grid.points[:, 0], grid.points[:, 1]
    shape = np.sin(np.pi * x) * np.sin(np.pi * y)
    slope = np.pi * np.stack([np.cos(np.pi * x) * np.sin(np.pi * y), np.sin(np.pi * x) * np.cos(np.pi * y)], axis=1)

    def evaluate(samples):
        amp = 1.0 + scale * samples[:, :1]
        return amp * shape, amp[:, :, None] * slope

    return evaluate


class TestRelH1Error:
    def test_identical_arguments_give_zero(self):
        model = field_model("exp1", 1)
        grid = uniform_grid_1d(129)
        reference = exact_exp1_evaluator(grid)
        report = rel_h1_error(reference, {"u": reference}, grid, model, n_mc=200, seed=0)["u"]
        assert report.rel_error <= 1e-14

    def test_truncation_error_matches_parseval_tail(self):
        # With exact truncated coefficients, the relative error against the
        # full analytic solution is the forcing tail fraction: the spatial
        # profile x - x^2 is shared by every branch and cancels in the ratio.
        # The stochastic average is a kink-split quadrature here, which pins
        # the identity far below the closed-form tolerance; the Monte Carlo
        # metric itself is checked at its own (heavy-tailed) resolution.
        from sgnet.spectral import kink_split_normal_rule

        max_degree = 20
        model = field_model("exp1", 1)
        basis = total_degree_basis(1, max_degree, PolyFamily.HERMITE)
        grid = uniform_grid_1d(257)
        net = truncated_exact_net(max_degree)
        reference = exact_exp1_evaluator(grid)
        surrogate = net_evaluator(net, basis, grid)

        forcing = exp1_forcing_coeffs(max_degree)
        tail = 2.0 - float(np.sum(forcing**2))
        expected = math.sqrt(tail / 2.0)

        rule = kink_split_normal_rule(kinks=(1.0,))
        samples = rule.nodes[:, None]
        u, du = reference(samples)
        v, dv = surrogate(samples)
        num = (((u - v) ** 2 + ((du - dv) ** 2)[:, :, 0]) @ grid.weights) @ rule.weights
        den = ((u**2 + (du**2)[:, :, 0]) @ grid.weights) @ rule.weights
        assert math.sqrt(num / den) == pytest.approx(expected, rel=1e-6)

        report = rel_h1_error(reference, {"v": surrogate}, grid, model, n_mc=200_000, seed=1)["v"]
        assert report.rel_error == pytest.approx(expected, rel=0.05)

    def test_reflection_symmetry(self):
        # Replacing v by 2u - v preserves |u - v| pathwise, hence the error.
        model = field_model("exp1", 1)
        basis = total_degree_basis(1, 6, PolyFamily.HERMITE)
        grid = uniform_grid_1d(129)
        reference = exact_exp1_evaluator(grid)
        net = truncated_exact_net(6)
        surrogate = net_evaluator(net, basis, grid)

        def reflected(samples):
            u, du = reference(samples)
            v, dv = surrogate(samples)
            return 2 * u - v, 2 * du - dv

        reports = rel_h1_error(
            reference, {"a": surrogate, "b": reflected}, grid, model, n_mc=500, seed=3
        )
        a, b = reports["a"], reports["b"]
        assert a.rel_error == pytest.approx(b.rel_error, rel=1e-12)

    def test_bitwise_determinism(self):
        model = field_model("exp1", 1)
        basis = total_degree_basis(1, 4, PolyFamily.HERMITE)
        grid = uniform_grid_1d(65)
        net = truncated_exact_net(4)
        reports = [
            rel_h1_error(
                exact_exp1_evaluator(grid),
                {"net": net_evaluator(net, basis, grid)},
                grid,
                model,
                n_mc=300,
                seed=5,
            )
            for _ in range(2)
        ]
        assert reports[0] == reports[1]

    def test_standard_error_shrinks_like_root_n(self):
        model = field_model("exp1", 1)
        grid = uniform_grid_1d(65)
        reference = exact_exp1_evaluator(grid)
        surrogate = net_evaluator(
            truncated_exact_net(2), total_degree_basis(1, 2, PolyFamily.HERMITE), grid
        )

        sizes = (100, 1_000, 10_000)
        reports = [
            rel_h1_error(reference, {"v": surrogate}, grid, model, n_mc=n, seed=8)["v"]
            for n in sizes
        ]
        errors = [r.mc_standard_error for r in reports]
        slope = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)

    def test_standard_error_matches_spread_over_seeds(self):
        # Oracle: the empirical standard deviation of rel_error over S
        # independent Monte Carlo seeds.  For near-normal estimates the sample
        # SD of S draws has relative standard deviation 1 / sqrt(2 (S - 1)),
        # 0.050 at S = 200, so the mean reported SE must agree with it within
        # three of those (the spread of the mean reported SE is far smaller).
        # The degree-2 truncation keeps the per-sample terms light-tailed, so
        # the estimates are near normal at n_mc = 4000.
        seeds = 200
        model = field_model("exp1", 1)
        grid = uniform_grid_1d(65)
        reference = exact_exp1_evaluator(grid)
        surrogate = net_evaluator(
            truncated_exact_net(2), total_degree_basis(1, 2, PolyFamily.HERMITE), grid
        )
        reports = [
            rel_h1_error(reference, {"v": surrogate}, grid, model, n_mc=4_000, seed=seed)["v"]
            for seed in range(seeds)
        ]
        empirical = np.std([r.rel_error for r in reports], ddof=1)
        reported = np.mean([r.mc_standard_error for r in reports])
        assert reported == pytest.approx(empirical, rel=3.0 / math.sqrt(2 * (seeds - 1)))

    def test_exact_surrogate_has_zero_standard_error(self):
        model = field_model("exp1", 1)
        grid = uniform_grid_1d(33)
        reference = exact_exp1_evaluator(grid)
        report = rel_h1_error(reference, {"u": reference}, grid, model, n_mc=50, seed=0)["u"]
        assert report.rel_error == 0.0 and report.mc_standard_error == 0.0

    def test_proportional_surrogate_has_zero_standard_error(self):
        # v = c u has the ratio (1 - c)^2 on every realization, so rel_error is
        # |1 - c| for every seed and its standard error vanishes; an SE that
        # ignores the covariance of numerator and denominator would not.
        model = field_model("exp1", 1)
        grid = uniform_grid_1d(65)
        reference = exact_exp1_evaluator(grid)

        def scaled(samples):
            u, du = reference(samples)
            return 0.3 * u, 0.3 * du

        report = rel_h1_error(reference, {"v": scaled}, grid, model, n_mc=500, seed=2)["v"]
        assert report.rel_error == pytest.approx(0.7, rel=1e-14)
        assert report.mc_standard_error <= 1e-12

    def test_one_pass_matches_separate_passes(self, monkeypatch):
        # Every surrogate of one pass gets the report a pass of its own gives,
        # bitwise, while each sample reaches the reference once.
        model = field_model("exp1", 1)
        grid = uniform_grid_1d(65)
        reference = exact_exp1_evaluator(grid)
        surrogates = {
            f"P{degree}": net_evaluator(
                truncated_exact_net(degree), total_degree_basis(1, degree, PolyFamily.HERMITE), grid
            )
            for degree in (2, 4)
        }
        seen = []

        def counting(samples):
            seen.append(samples.shape[0])
            return reference(samples)

        monkeypatch.setattr(metrics_module, "_CHUNK", 256)
        joint = rel_h1_error(counting, surrogates, grid, model, n_mc=700, seed=9)
        assert sorted(seen) == [188, 256, 256]  # the chunks may reach the reference in any order
        for name, surrogate in surrogates.items():
            alone = rel_h1_error(reference, {name: surrogate}, grid, model, n_mc=700, seed=9)
            assert joint[name] == alone[name]

    def test_chunks_reuse_the_evaluators_result_arrays(self, monkeypatch):
        # Inside the pass the built-in evaluators write into the worker's
        # arena, so every chunk after the first reuses the first one's arrays
        # instead of asking malloc for new ones; outside it they return new
        # arrays.
        model = field_model("exp1", 1)
        grid = uniform_grid_1d(65)
        reference = exact_exp1_evaluator(grid)
        surrogate = net_evaluator(truncated_exact_net(2), total_degree_basis(1, 2, PolyFamily.HERMITE), grid)
        addresses = {"u": set(), "v": set()}

        def recording(name, evaluate):
            def wrapped(samples):
                value, grad = evaluate(samples)
                addresses[name].add((value.ctypes.data, grad.ctypes.data))
                return value, grad

            return wrapped

        monkeypatch.setattr(workers, "count", lambda: 1)
        monkeypatch.setattr(metrics_module, "_CHUNK", 64)
        rel_h1_error(recording("u", reference), {"v": recording("v", surrogate)}, grid, model, n_mc=640, seed=5)
        assert len(addresses["u"]) == len(addresses["v"]) == 1
        samples = np.zeros((4, 1))
        assert not np.shares_memory(reference(samples)[0], reference(samples)[0])

    def test_calls_bound_the_pass_memory(self):
        # exp2's grid of 4,096 midpoints: at the 200 realizations of its one
        # chunk, every evaluator result would hold 20 MB; calls of 32
        # realizations hold 3 MiB each.
        grid = midpoint_grid(Mesh2D(64))
        model = field_model("exp2", 8)
        reference, surrogate = product_evaluator(grid, 0.3), product_evaluator(grid, 0.2)
        tracemalloc.start()
        try:
            rel_h1_error(reference, {"v": surrogate}, grid, model, n_mc=200, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (2 << 20)

    @pytest.mark.parametrize("rows", [1, 7, 32])
    def test_call_size_changes_only_roundoff(self, monkeypatch, rows):
        # The per-realization terms of calls of 1, 7 or 32 (the default)
        # realizations agree with those of one call per chunk.
        grid = midpoint_grid(Mesh2D(32))
        model = field_model("exp2", 8)
        basis = total_degree_basis(8, 1, model.family)
        rng = np.random.default_rng(1)
        surrogates = {
            "net": _spectral_reconstruction(basis, rng.normal(size=(1024, 9)), rng.normal(size=(1024, 9, 2))),
            "close": product_evaluator(grid, 0.2),
        }
        args = (product_evaluator(grid, 0.3), surrogates, grid, model)
        monkeypatch.setattr(metrics_module, "_CALL_BYTES", 8 * grid.points.size * 100)
        whole = rel_h1_error(*args, n_mc=100, seed=2)
        monkeypatch.setattr(metrics_module, "_CALL_BYTES", 8 * grid.points.size * rows)
        for name, report in rel_h1_error(*args, n_mc=100, seed=2).items():
            for field in ("rel_error", "numerator", "denominator", "mc_standard_error"):
                assert getattr(report, field) == pytest.approx(getattr(whole[name], field), rel=1e-12, abs=0)

    def test_a_chunk_that_fits_one_call_is_evaluated_whole(self):
        # exp1's grid of 257 points: a 512-realization chunk is one call, so
        # the report is bit for bit that of evaluating the chunk at once.
        model = field_model("exp1", 1)
        grid = uniform_grid_1d(257)
        reference = exact_exp1_evaluator(grid)
        surrogate = net_evaluator(truncated_exact_net(4), total_degree_basis(1, 4, PolyFamily.HERMITE), grid)
        sizes = []

        def counting(samples):
            sizes.append(samples.shape[0])
            return reference(samples)

        report = rel_h1_error(counting, {"v": surrogate}, grid, model, n_mc=512, seed=3)["v"]
        assert sizes == [512]
        samples = draw_samples(model.family, 1, 512, np.random.default_rng(3))
        u, du = reference(samples)
        v, dv = surrogate(samples)
        assert report == _report(_h1_terms(u - v, du - dv, grid.weights), _h1_terms(u, du, grid.weights))

    def test_more_workers_than_cpus_fill_every_row(self, monkeypatch):
        # Workers write the rows of their own chunks into shared arrays: with
        # more workers than CPUs, switching threads every microsecond, the
        # report is still the one-worker report, bit for bit.
        model = field_model("exp1", 1)
        grid = uniform_grid_1d(33)
        surrogate = net_evaluator(truncated_exact_net(2), total_degree_basis(1, 2, PolyFamily.HERMITE), grid)
        args = (exact_exp1_evaluator(grid), {"v": surrogate}, grid, model)
        n_workers = workers.count() + 3
        monkeypatch.setattr(workers, "count", lambda: n_workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        monkeypatch.setattr(metrics_module, "_CHUNK", 7)
        try:
            parallel = rel_h1_error(*args, n_mc=997, seed=4)
        finally:
            sys.setswitchinterval(interval)
        # The one-worker pass runs second, so a row left unwritten above cannot
        # reuse memory that already holds its value.
        monkeypatch.setattr(workers, "count", lambda: 1)
        assert parallel == rel_h1_error(*args, n_mc=997, seed=4)

    def test_grid_refinement_stability(self):
        model = field_model("exp1", 1)
        basis = total_degree_basis(1, 8, PolyFamily.HERMITE)
        net = truncated_exact_net(8)
        values = []
        for n_points in (129, 257):
            grid = uniform_grid_1d(n_points)
            report = rel_h1_error(
                exact_exp1_evaluator(grid),
                {"net": net_evaluator(net, basis, grid)},
                grid,
                model,
                n_mc=2_000,
                seed=2,
            )["net"]
            values.append(report.rel_error)
        assert abs(values[1] - values[0]) / values[0] < 1e-3

    def test_shared_spatial_profile_makes_error_grid_independent(self):
        # Every branch of the truncated solution shares the profile x - x^2,
        # so the relative error is the same on different grids to quadrature
        # accuracy.
        model = field_model("exp1", 1)
        basis = total_degree_basis(1, 5, PolyFamily.HERMITE)
        net = truncated_exact_net(5)
        values = []
        for grid in (uniform_grid_1d(101), midpoint_grid(Mesh1D(173))):
            report = rel_h1_error(
                exact_exp1_evaluator(grid),
                {"net": net_evaluator(net, basis, grid)},
                grid,
                model,
                n_mc=400,
                seed=4,
            )["net"]
            values.append(report.rel_error)
        assert values[0] == pytest.approx(values[1], abs=1e-6)

    def test_zero_reference_rejected(self):
        model = field_model("exp1", 1)
        grid = uniform_grid_1d(33)

        def zero(samples):
            m = samples.shape[0]
            return np.zeros((m, 33)), np.zeros((m, 33, 1))

        with pytest.raises(ValueError):
            rel_h1_error(zero, {"zero": zero}, grid, model, n_mc=50, seed=0)

    def test_empty_sample_rejected(self):
        # No realization gives no mean: a loud error, not a NaN report.
        model = field_model("exp1", 1)
        grid = uniform_grid_1d(33)
        reference = exact_exp1_evaluator(grid)
        with pytest.raises(ValueError, match="n_mc"):
            rel_h1_error(reference, {"self": reference}, grid, model, n_mc=0, seed=0)


class TestEvaluators:
    def test_fem_reference_agrees_with_analytic(self):
        model = field_model("exp1", 1)
        mesh = Mesh1D(256)
        grid = midpoint_grid(mesh)
        report = rel_h1_error(
            exact_exp1_evaluator(grid),
            {"fem": fem_evaluator(model, mesh, grid)},
            grid,
            model,
            n_mc=40,
            seed=6,
        )["fem"]
        assert report.rel_error < 5e-3

    def test_coupled_evaluator_matches_truncated_exact(self):
        max_degree = 5
        model = field_model("exp1", 1)
        basis = total_degree_basis(1, max_degree, PolyFamily.HERMITE)
        field = SpectralField(model, basis)
        tensor = galerkin_tensor(basis)
        mesh = Mesh1D(512)
        solution = sga_fem_coupled(mesh, field, tensor)
        grid = midpoint_grid(mesh)
        net = truncated_exact_net(max_degree)
        report = rel_h1_error(
            net_evaluator(net, basis, grid),
            {"coupled": coupled_evaluator(solution, basis, grid)},
            grid,
            model,
            n_mc=100,
            seed=7,
        )["coupled"]
        assert report.rel_error < 2e-3


class TestSpectralReconstruction:
    """The BLAS reconstruction against a term-by-term sum over the basis."""

    # (experiment, N, P, grid): exp3-shaped in 1-D (K=28), exp2-shaped in 2-D (K=9).
    CASES = [
        ("exp3", 6, 2, uniform_grid_1d(65)),
        ("exp2", 8, 1, midpoint_grid(Mesh2D(8))),
    ]

    @pytest.mark.parametrize("experiment, n_vars, degree, grid", CASES, ids=["exp3-1d", "exp2-2d"])
    def test_matches_term_by_term_sum(self, experiment, n_vars, degree, grid):
        model = field_model(experiment, n_vars)
        basis = total_degree_basis(n_vars, degree, model.family)
        rng = np.random.default_rng(3)
        n_points = grid.points.shape[0]
        values = rng.normal(size=(n_points, basis.size))
        grads = rng.normal(size=(n_points, basis.size, grid.dim))
        samples = draw_samples(model.family, n_vars, 17, rng)
        value, grad = _spectral_reconstruction(basis, values, grads)(samples)
        expected_value, expected_grad = spectral_sum(basis, samples, values, grads)
        assert value.shape == expected_value.shape and grad.shape == expected_grad.shape
        for got, want in ((value, expected_value), (grad, expected_grad)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_h1_terms_match_summed_squares(self, dim):
        rng = np.random.default_rng(dim)
        value = rng.normal(size=(7, 40))
        grad = rng.normal(size=(7, 40, dim))
        w = rng.uniform(size=40)
        expected = ((value**2) + (grad**2).sum(-1)) @ w
        np.testing.assert_allclose(_h1_terms(value, grad, w), expected, rtol=1e-14)
        # The reconstruction returns its gradients as a view with the direction outermost.
        strided = np.ascontiguousarray(grad.transpose(2, 0, 1)).transpose(1, 2, 0)
        np.testing.assert_array_equal(_h1_terms(value, strided, w), _h1_terms(value, grad, w))


class TestFemEvaluator:
    """The pathwise reference sets up each mesh once and solves each realization alone."""

    CASES = [
        pytest.param("exp2", 8, Mesh2D(8), id="exp2-mesh8"),
        pytest.param("exp3", 6, Mesh1D(32), id="exp3-mesh32"),
    ]

    @pytest.mark.parametrize("kind, n_vars, mesh", CASES)
    def test_matches_per_sample_solves(self, kind, n_vars, mesh):
        # Oracle: the field of each sample on its own, one solve, and a
        # point-by-point interpolant of the nodal values.
        model = field_model(kind, n_vars)
        grid = midpoint_grid(mesh)
        samples = draw_samples(model.family, n_vars, 5, np.random.default_rng(12))
        values, grads = fem_evaluator(model, mesh, grid)(samples)
        for i, y in enumerate(samples):
            nodal = fem_pathwise(mesh, *pathwise_sampler(model, mesh.quad_points)(y))
            expected, expected_grad = nodal_interpolant(nodal, grid.points)
            np.testing.assert_allclose(values[i], expected, rtol=1e-13, atol=0.0)
            scale = np.max(np.abs(expected_grad))
            np.testing.assert_allclose(grads[i], expected_grad, rtol=0.0, atol=1e-13 * scale)

    @pytest.mark.parametrize("kind, n_vars, mesh", CASES)
    def test_matches_frozen_result(self, kind, n_vars, mesh):
        # Values and gradients computed when the field and the mesh set-up
        # were still redone for every sample; hoisting them changes no bit.
        with np.load(FROZEN) as frozen:
            samples = frozen[f"{kind}_samples"]
            expected = frozen[f"{kind}_values"], frozen[f"{kind}_grads"]
        model = field_model(kind, n_vars)
        values, grads = fem_evaluator(model, mesh, midpoint_grid(mesh))(samples)
        np.testing.assert_array_equal(values, expected[0])
        np.testing.assert_array_equal(grads, expected[1])

    @pytest.mark.parametrize("kind, n_vars, mesh", CASES)
    def test_two_workers_share_the_samples(self, monkeypatch, kind, n_vars, mesh):
        # Each sample is solved once, on one of two threads, into its own
        # rows: the result is the frozen one-worker result bit for bit.
        monkeypatch.setattr(workers, "count", lambda: 2)
        solves = []
        solve = metrics_module.fem_pathwise

        def recorded(mesh_, a_q, f_q):
            solves.append((threading.get_ident(), a_q.tobytes()))
            return solve(mesh_, a_q, f_q)

        monkeypatch.setattr(metrics_module, "fem_pathwise", recorded)
        with np.load(FROZEN) as frozen:
            samples = frozen[f"{kind}_samples"]
            expected = frozen[f"{kind}_values"], frozen[f"{kind}_grads"]
        model = field_model(kind, n_vars)
        values, grads = fem_evaluator(model, mesh, midpoint_grid(mesh))(samples)
        np.testing.assert_array_equal(values, expected[0])
        np.testing.assert_array_equal(grads, expected[1])
        fields = pathwise_sampler(model, mesh.quad_points)
        assert sorted(a for _, a in solves) == sorted(fields(y)[0].tobytes() for y in samples)
        assert len({thread for thread, _ in solves}) == 2

    def test_more_workers_than_cores_under_frequent_switches(self, monkeypatch):
        # Four workers on one pool, switching threads every 10 microseconds,
        # still write every sample's rows exactly as one worker does.
        model, mesh = field_model("exp2", 3), Mesh2D(6)
        grid = midpoint_grid(mesh)
        samples = draw_samples(model.family, 3, 13, np.random.default_rng(7))
        monkeypatch.setattr(workers, "count", lambda: 1)
        expected = fem_evaluator(model, mesh, grid)(samples)
        monkeypatch.setattr(workers, "count", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = fem_evaluator(model, mesh, grid)(samples)
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(got, expected):
            np.testing.assert_array_equal(a, b)

    def test_solves_inside_a_multi_chunk_pass_run_inline(self, monkeypatch):
        # With two chunks or more, the chunks take the workers and each
        # chunk's reference solves its samples on the chunk's own thread;
        # the reports are those of one worker, bit for bit.
        model, mesh = field_model("exp2", 3), Mesh2D(8)
        grid = midpoint_grid(mesh)
        in_reference = threading.local()
        solves = []
        solve = metrics_module.fem_pathwise

        def recorded(*args):
            solves.append((threading.get_ident(), getattr(in_reference, "active", False)))
            return solve(*args)

        def surrogate(samples):
            return np.full((len(samples), len(grid.points)), 0.01), np.zeros((len(samples), *grid.points.shape))

        monkeypatch.setattr(metrics_module, "fem_pathwise", recorded)
        monkeypatch.setattr(metrics_module, "_CHUNK", 8)
        reports = {}
        for n_workers in (1, 2):
            monkeypatch.setattr(workers, "count", lambda: n_workers)
            evaluate = fem_evaluator(model, mesh, grid)

            def reference(samples):
                in_reference.active = True
                try:
                    return evaluate(samples)
                finally:
                    in_reference.active = False

            solves.clear()
            reports[n_workers] = rel_h1_error(reference, {"v": surrogate}, grid, model, n_mc=24, seed=3)
        assert len(solves) == 24 and all(inline for _, inline in solves)
        assert len({thread for thread, _ in solves}) == 2
        assert reports[1] == reports[2]

    @pytest.mark.parametrize(
        "kind, n_vars, mesh, setup",
        [
            pytest.param("exp2", 3, Mesh2D(8), "_scatter", id="exp2-mesh8"),
            pytest.param("exp3", 3, Mesh1D(32), "_quadrature", id="exp3-mesh32"),
        ],
    )
    def test_mesh_is_set_up_before_the_workers_start(self, monkeypatch, kind, n_vars, mesh, setup):
        # The evaluator builds the mesh's solve set-up itself, so two workers'
        # first solves never race to build it: the pass only reads it.
        model = field_model(kind, n_vars)
        grid = midpoint_grid(mesh)
        reference = fem_evaluator(model, mesh, grid)
        built = mesh.__dict__[setup]
        monkeypatch.setattr(workers, "count", lambda: 2)
        monkeypatch.setattr(metrics_module, "_CHUNK", 3)
        report = rel_h1_error(reference, {"self": reference}, grid, model, n_mc=6, seed=0)["self"]
        assert report.rel_error == 0.0
        assert mesh.__dict__[setup] is built

    @pytest.mark.parametrize(
        "kind, n_vars, mesh, factor",
        [
            pytest.param("exp2", 3, Mesh2D(8), "_exp2_bumps", id="exp2"),
            pytest.param("exp3", 3, Mesh1D(32), "kl_sigma", id="exp3"),
        ],
    )
    def test_sample_independent_factors_are_computed_once(self, monkeypatch, kind, n_vars, mesh, factor):
        calls = []
        original = getattr(fields_module, factor)

        def counted(*args, **kwargs):
            calls.append(factor)
            return original(*args, **kwargs)

        monkeypatch.setattr(fields_module, factor, counted)
        model = field_model(kind, n_vars)
        grid = midpoint_grid(mesh)

        def zero(samples):
            return np.zeros((len(samples), len(grid.points))), np.zeros((len(samples), *grid.points.shape))

        monkeypatch.setattr(metrics_module, "_CHUNK", 3)
        report = rel_h1_error(fem_evaluator(model, mesh, grid), {"zero": zero}, grid, model, n_mc=6, seed=0)["zero"]
        assert report.rel_error == 1.0
        assert len(calls) == 1
