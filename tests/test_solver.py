"""Losses, Sobol stream, ADAM and the training loop."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from sgnet import solver as solver_module
from sgnet.fields import SpectralField, exp1_forcing_coeffs, field_model
from sgnet.net import BranchSpec, MultiBranchNet
from sgnet.solver import (
    AdamState,
    SobolStream,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    default_validation_grid,
    ritz_risk,
    sobol_batch,
    strong_risk,
    train,
    validation_error,
)
from sgnet.spectral import PolyFamily, basis_matrix, galerkin_tensor, total_degree_basis

from oracles import (
    AffineField,
    ExactCoefficientNet,
    dense_contract,
    dense_triple_tensor,
    python,
    scipy_sobol,
    star_discrepancy_1d,
)


def exp1_setup(max_degree):
    basis = total_degree_basis(1, max_degree, PolyFamily.HERMITE)
    model = field_model("exp1", 1)
    field = SpectralField(model, basis)
    tensor = galerkin_tensor(basis)
    return basis, model, field, tensor


# Sparse-contraction cases: (N, P, family, spatial dimension) of an exp3-like
# Hermite tensor and an exp2-like Legendre tensor on the unit square.
SPARSE_CASES = {
    "hermite-N2-P3": (2, 3, PolyFamily.HERMITE, 1),
    "legendre-N3-P2-d2": (3, 2, PolyFamily.LEGENDRE, 2),
}


@pytest.fixture(params=sorted(SPARSE_CASES))
def sparse_case(request):
    n_dims, degree, family, dim = SPARSE_CASES[request.param]
    basis = total_degree_basis(n_dims, degree, family)
    return galerkin_tensor(basis), dense_triple_tensor(basis.index_array, family.value), dim


def risk_setup(case):
    """Field, tensor and spatial dimension of a gradient-check case."""
    if case == "exp1":
        _, _, field, tensor = exp1_setup(2)
        return field, tensor, 1
    if case == "exp3":
        basis = total_degree_basis(2, 3, PolyFamily.HERMITE)
        return SpectralField(field_model("exp3", 2), basis), galerkin_tensor(basis), 1
    basis = total_degree_basis(3, 2, PolyFamily.LEGENDRE)
    return AffineField(basis.size, 2, seed=4), galerkin_tensor(basis), 2


def exp1_exact_net(forcing):
    """Branch set hard-wired to the exact coefficients 0.5 f_k (x - x^2)."""
    half = 0.5 * np.asarray(forcing)
    return ExactCoefficientNet(
        value=lambda x: half[None, :] * (x[:, :1] - x[:, :1] ** 2),
        grad=lambda x: (half[None, :] * (1.0 - 2.0 * x[:, :1]))[:, :, None],
        lap=lambda x: np.broadcast_to(-2.0 * half, (x.shape[0], half.size)).copy(),
    )


class TestStrongRisk:
    def test_exact_solution_has_zero_risk(self):
        basis, _, field, tensor = exp1_setup(6)
        forcing = exp1_forcing_coeffs(6)
        net = exp1_exact_net(forcing)
        x = np.linspace(0.05, 0.95, 40)[:, None]
        risk, _ = strong_risk(x, net, field, tensor)
        assert risk < 1e-20

    def test_zero_net_risk_is_mean_squared_forcing(self):
        basis, _, field, tensor = exp1_setup(5)
        forcing = exp1_forcing_coeffs(5)
        spec = BranchSpec(1, (4,), ("swish", "linear"))
        net = MultiBranchNet(spec, n_branches=basis.size, seed=0)
        net.set_params_flat(np.zeros(net.n_params))
        x = np.linspace(0.1, 0.9, 16)[:, None]
        risk, _ = strong_risk(x, net, field, tensor)
        assert risk == pytest.approx(float(np.mean(forcing**2)), rel=1e-13)

    @pytest.mark.parametrize(
        "loss, case",
        [
            pytest.param(loss, case, id=loss if case == "exp1" else f"{loss}-{case}")
            for case in ("exp1", "exp3", "exp2")
            for loss in ("strong", "ritz")
        ],
    )
    def test_risk_gradient_matches_parameter_fd(self, loss, case):
        field, tensor, dim = risk_setup(case)
        spec = BranchSpec(dim, (5, 4), ("swish", "sigmoid", "linear"))
        net = MultiBranchNet(spec, n_branches=tensor.dim, seed=2)
        fn = strong_risk if loss == "strong" else ritz_risk
        x = np.random.default_rng(0).uniform(0.1, 0.9, size=(9, dim))
        theta0 = net.params_flat()
        _, grad = fn(x, net, field, tensor)
        rng = np.random.default_rng(1)
        for idx in rng.choice(net.n_params, 15, replace=False):
            for step in (1e-6,):
                tp, tm = theta0.copy(), theta0.copy()
                tp[idx] += step
                tm[idx] -= step
                net.set_params_flat(tp)
                rp, _ = fn(x, net, field, tensor)
                net.set_params_flat(tm)
                rm, _ = fn(x, net, field, tensor)
                net.set_params_flat(theta0)
                fd = (rp - rm) / (2 * step)
                assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_branch_count_mismatch_rejected(self):
        basis, _, field, tensor = exp1_setup(3)
        spec = BranchSpec(1, (4,), ("swish", "linear"))
        net = MultiBranchNet(spec, n_branches=2, seed=0)
        with pytest.raises(ValueError):
            strong_risk(np.array([[0.5]]), net, field, tensor)

    def test_contraction_is_self_adjoint(self, sparse_case):
        # <C(a, u), v> = <u, C(a, v)> at every point, since G is symmetric.
        tensor, _, _ = sparse_case
        rng = np.random.default_rng(3)
        a, u, v = rng.normal(size=(3, 11, tensor.dim))
        lhs = np.sum(tensor.contract(a, u) * v, axis=1)
        rhs = np.sum(u * tensor.contract(a, v), axis=1)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_residual_and_cotangents_match_dense_oracle(self, sparse_case):
        # Positive inputs make every oracle sum a sum of positive terms, so the
        # comparison is relative without an absolute floor.
        tensor, dense, dim = sparse_case
        n, size = 13, tensor.dim
        rng = np.random.default_rng(5)
        field = AffineField(size, dim, seed=6)
        lap = rng.uniform(0.1, 1.0, (n, size))
        grad = rng.uniform(0.1, 1.0, (n, size, dim))
        net = ExactCoefficientNet(
            value=lambda x: np.zeros((n, size)), grad=lambda x: grad, lap=lambda x: lap, n_branches=size
        )
        x = rng.uniform(0.0, 1.0, (n, dim))
        risk, _ = strong_risk(x, net, field, tensor)
        a, a_grads = field.coeff_values(x), field.coeff_grads(x)
        residual = dense_contract(dense, a, lap) + field.forcing_values(x)
        for d in range(dim):
            residual += dense_contract(dense, a_grads[:, :, d], grad[:, :, d])
        assert risk == pytest.approx(float(np.mean(residual**2)), rel=1e-13)
        r_bar = residual * (2.0 / (n * size))
        np.testing.assert_allclose(net.cotangents["lap"], dense_contract(dense, a, r_bar), rtol=1e-13)
        for d in range(dim):
            np.testing.assert_allclose(
                net.cotangents["grad"][:, :, d], dense_contract(dense, a_grads[:, :, d], r_bar), rtol=1e-13
            )

    def test_permutation_leaves_risk_essentially_unchanged(self):
        # Mathematical invariance; floating point reductions see the batch in
        # a different order, so equality holds to roundoff only.
        basis, _, field, tensor = exp1_setup(4)
        spec = BranchSpec(1, (6,), ("swish", "linear"))
        net = MultiBranchNet(spec, n_branches=basis.size, seed=5)
        rng = np.random.default_rng(4)
        x = rng.uniform(0.05, 0.95, size=(64, 1))
        perm = rng.permutation(64)
        r1, _ = strong_risk(x, net, field, tensor)
        r2, _ = strong_risk(x[perm], net, field, tensor)
        assert r1 == pytest.approx(r2, rel=1e-13)


class TestRitzRisk:
    def test_flux_matches_dense_oracle(self, sparse_case):
        # Negative values keep both energy terms positive: no cancellation.
        tensor, dense, dim = sparse_case
        n, size = 13, tensor.dim
        rng = np.random.default_rng(7)
        field = AffineField(size, dim, seed=8)
        value = -rng.uniform(0.1, 1.0, (n, size))
        grad = rng.uniform(0.1, 1.0, (n, size, dim))
        net = ExactCoefficientNet(value=lambda x: value, grad=lambda x: grad, n_branches=size)
        x = rng.uniform(0.0, 1.0, (n, dim))
        risk, _ = ritz_risk(x, net, field, tensor)
        a, forcing = field.coeff_values(x), field.forcing_values(x)
        flux = np.stack([dense_contract(dense, a, grad[:, :, d]) for d in range(dim)], axis=2)
        energy = 0.5 * np.sum(grad * flux, axis=(1, 2)) - np.sum(forcing * value, axis=1)
        assert risk == pytest.approx(float(np.mean(energy)), rel=1e-13)
        np.testing.assert_allclose(net.cotangents["grad"], flux / n, rtol=1e-13)
        np.testing.assert_allclose(net.cotangents["value"], -forcing / n, rtol=1e-15)

    def test_zero_net_has_zero_energy(self):
        basis, _, field, tensor = exp1_setup(4)
        spec = BranchSpec(1, (4,), ("swish", "linear"))
        net = MultiBranchNet(spec, n_branches=basis.size, seed=1)
        net.set_params_flat(np.zeros(net.n_params))
        risk, _ = ritz_risk(np.array([[0.3], [0.7]]), net, field, tensor)
        assert risk == 0.0

    def test_exact_solution_attains_minimum_energy(self):
        # Energy of the minimizer is -(1/24) sum f_k^2 for the decoupled
        # constant-diffusion problem; a dense quasi-random batch integrates it.
        max_degree = 8
        basis, _, field, tensor = exp1_setup(max_degree)
        forcing = exp1_forcing_coeffs(max_degree)
        net = exp1_exact_net(forcing)
        stream = SobolStream(1, skip=1)
        x = stream.next(10_000)
        risk, _ = ritz_risk(x, net, field, tensor)
        expected = -float(np.sum(forcing**2)) / 24.0
        assert risk == pytest.approx(expected, rel=2e-4)

    def test_quadratic_structure(self):
        # risk(u) = q(u) - l(u) with q quadratic and l linear, so risk(2u)
        # recovers from risk(u) and risk(-u): q = (r+ + r-)/2, l = (r- - r+)/2.
        basis, _, field, tensor = exp1_setup(3)
        spec = BranchSpec(1, (5,), ("sigmoid", "linear"))
        net = MultiBranchNet(spec, n_branches=basis.size, seed=9)
        x = np.random.default_rng(2).uniform(0.1, 0.9, size=(33, 1))
        record = net.evaluate(x, order=1)

        scaled = {}
        for factor in (1.0, -1.0, 2.0):
            scaled[factor] = ExactCoefficientNet(
                value=lambda x_, f=factor: f * record.value,
                grad=lambda x_, f=factor: f * record.grad,
                lap=None,
                n_branches=basis.size,
            )
        r_plus, _ = ritz_risk(x, scaled[1.0], field, tensor)
        r_minus, _ = ritz_risk(x, scaled[-1.0], field, tensor)
        r_double, _ = ritz_risk(x, scaled[2.0], field, tensor)
        quad = 0.5 * (r_plus + r_minus)
        lin = 0.5 * (r_minus - r_plus)
        assert r_double == pytest.approx(4.0 * quad - 2.0 * lin, rel=1e-11, abs=1e-13)

    def test_full_batch_gradient_descent_is_monotone(self):
        # The energy is a convex quadratic in function space; on a frozen
        # batch, plain gradient descent with a small step never increases it.
        basis, _, field, tensor = exp1_setup(3)
        spec = BranchSpec(1, (6, 5), ("swish", "sigmoid", "linear"))
        net = MultiBranchNet(spec, n_branches=basis.size, seed=3)
        x = SobolStream(1, skip=1).next(256)
        theta = net.params_flat()
        previous = np.inf
        for _ in range(100):
            risk, grad = ritz_risk(x, net, field, tensor)
            assert risk <= previous + 1e-14
            previous = risk
            theta = theta - 2e-3 * grad
            net.set_params_flat(theta)


class TestValidationError:
    def test_exact_coefficients_give_zero_residual(self):
        max_degree = 6
        basis, _, field, tensor = exp1_setup(max_degree)
        forcing = exp1_forcing_coeffs(max_degree)
        net = exp1_exact_net(forcing)
        value = validation_error(net, field, n_samples=500, seed=0)
        assert value <= 1e-18

    def test_zero_net_matches_parseval(self):
        max_degree = 8
        basis, _, field, tensor = exp1_setup(max_degree)
        forcing = exp1_forcing_coeffs(max_degree)
        spec = BranchSpec(1, (4,), ("swish", "linear"))
        net = MultiBranchNet(spec, n_branches=basis.size, seed=0)
        net.set_params_flat(np.zeros(net.n_params))
        n_samples = 20_000
        value = validation_error(net, field, n_samples=n_samples, seed=7)
        # The residual of the zero net is fbar(y)^2 whose mean is sum f_k^2;
        # bound the deviation by three standard errors of the sample mean.
        rng = np.random.default_rng(7)
        y = rng.standard_normal((n_samples, 1))
        fbar_sq = (basis_matrix(basis, y) @ forcing) ** 2
        se = float(fbar_sq.std(ddof=1) / math.sqrt(n_samples))
        assert value == pytest.approx(float(np.sum(forcing**2)), abs=3 * se)

    def test_deterministic_given_seed(self):
        basis, _, field, tensor = exp1_setup(3)
        spec = BranchSpec(1, (5,), ("swish", "linear"))
        net = MultiBranchNet(spec, n_branches=basis.size, seed=4)
        a = validation_error(net, field, n_samples=300, seed=11)
        b = validation_error(net, field, n_samples=300, seed=11)
        assert a == b

    @pytest.mark.parametrize("rows", [1, 7, 256])
    def test_block_size_changes_only_roundoff(self, monkeypatch, rows):
        # exp2's shape: blocks of 1, 7 or 256 (the default) realizations on
        # the grid of 1,024 points agree with one block.
        model = field_model("exp2", 8)
        field = SpectralField(model, total_degree_basis(8, 1, model.family))
        net = MultiBranchNet(BranchSpec(2, (6, 6), ("swish", "swish", "linear")), n_branches=9, seed=2)
        monkeypatch.setattr(solver_module, "_VALIDATION_BYTES", 8 * 1024 * 300)
        whole = validation_error(net, field, n_samples=300, seed=3)
        monkeypatch.setattr(solver_module, "_VALIDATION_BYTES", 8 * 1024 * rows)
        assert validation_error(net, field, n_samples=300, seed=3) == pytest.approx(whole, rel=1e-12, abs=0)

    @pytest.mark.parametrize(
        "experiment, n_vars, spatial_dim, n_samples, blocks",
        [("exp1", 1, 1, 2_000, [2_000]), ("exp2", 8, 2, 1_000, [256, 256, 256, 232])],
    )
    def test_blocks_hold_at_most_two_mib(self, monkeypatch, experiment, n_vars, spatial_dim, n_samples, blocks):
        # 2 MiB of residuals: the 1-D grid of 128 points keeps its one block.
        model = field_model(experiment, n_vars)
        basis = total_degree_basis(n_vars, 1, model.family)
        field = SpectralField(model, basis)
        net = MultiBranchNet(BranchSpec(spatial_dim, (4,), ("swish", "linear")), n_branches=basis.size, seed=0)
        sizes = []

        def counting(basis, samples):
            sizes.append(samples.shape[0])
            return basis_matrix(basis, samples)

        monkeypatch.setattr(solver_module, "basis_matrix", counting)
        validation_error(net, field, n_samples=n_samples, seed=0)
        assert sizes == blocks

    def test_weighted_field_rejected(self):
        n_vars = 2
        basis = total_degree_basis(n_vars, 1, PolyFamily.HERMITE)
        model = field_model("exp3", n_vars)
        weighted = SpectralField(model, basis, "a_min_inv")
        spec = BranchSpec(1, (4,), ("swish", "linear"))
        net = MultiBranchNet(spec, n_branches=basis.size, seed=0)
        with pytest.raises(ValueError):
            validation_error(net, weighted, n_samples=10)

    def test_empty_sample_rejected(self):
        basis, _, field, _ = exp1_setup(2)
        net = MultiBranchNet(BranchSpec(1, (4,), ("swish", "linear")), n_branches=basis.size, seed=0)
        with pytest.raises(ValueError, match="n_samples"):
            validation_error(net, field, n_samples=0)


class TestSobol:
    def test_second_element_is_one_half(self):
        stream = SobolStream(1, skip=1)
        assert stream.next(1)[0, 0] == 0.5

    def test_low_indices_match_published_values(self):
        stream = SobolStream(2, skip=0)
        pts = stream.next(4)
        np.testing.assert_array_equal(
            pts, [[0.0, 0.0], [0.5, 0.5], [0.75, 0.25], [0.25, 0.75]]
        )

    def test_beats_uniform_star_discrepancy(self):
        stream = SobolStream(1, skip=1)
        sobol_disc = star_discrepancy_1d(stream.next(1024)[:, 0])
        wins = 0
        for seed in range(10):
            uniform = np.random.default_rng(seed).uniform(size=1024)
            if sobol_disc < star_discrepancy_1d(uniform):
                wins += 1
        assert wins >= 9

    def test_points_stay_inside_open_box(self):
        stream = SobolStream(2, skip=1)
        pts = sobol_batch(stream, 4096)
        assert np.all(pts > 0.0) and np.all(pts < 1.0)

    def test_cursor_advances(self):
        stream = SobolStream(1, skip=1)
        first = stream.next(8)
        second = stream.next(8)
        fresh = SobolStream(1, skip=1)
        np.testing.assert_array_equal(fresh.next(16), np.concatenate([first, second]))

    def test_training_seed_zero_rejected(self):
        # The seed is the stream's skip, and the origin point is never drawn.
        with pytest.raises(ValueError):
            TrainConfig(seed_sobol=0)


class TestSobolStreamAgainstScipy:
    """sgnet's own Sobol stream gives scipy's unscrambled points, bit for bit, and refuses what scipy cannot draw."""

    SKIPS = [0, 1, 2, 3, 1_000, 2**20 + 1, 2**30 - 300]

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("skip", SKIPS)
    @pytest.mark.parametrize("n", [1, 7, 256, 1024])
    def test_one_batch_matches_scipy(self, dim, skip, n):
        if skip + n > 2**30:
            with pytest.raises(ValueError):
                scipy_sobol(dim, skip)(n)
            with pytest.raises(ValueError, match="2\\*\\*30"):
                SobolStream(dim, skip).next(n)
            return
        expected, points = scipy_sobol(dim, skip)(n), SobolStream(dim, skip).next(n)
        assert points.dtype == expected.dtype and points.shape == expected.shape == (n, dim)
        assert points.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("skip", SKIPS)
    def test_consecutive_draws_match_scipy_to_the_last_point(self, dim, skip):
        draw, stream = scipy_sobol(dim, skip), SobolStream(dim, skip)
        position = skip
        for n in (1, 7, 256, 1024, 3):
            if position + n > 2**30:
                # Both refuse the draw and keep their place.
                with pytest.raises(ValueError):
                    draw(n)
                with pytest.raises(ValueError):
                    stream.next(n)
                continue
            assert stream.next(n).tobytes() == draw(n).tobytes()
            position += n
        if 2**30 - position <= 1024:
            rest = 2**30 - position
            assert stream.next(rest).tobytes() == draw(rest).tobytes()
            with pytest.raises(ValueError):
                stream.next(1)

    def test_a_large_skip_builds_no_array_of_its_length(self):
        tracemalloc.start()
        try:
            points = SobolStream(2, skip=2**30 - 300).next(256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert points.shape == (256, 2)
        assert peak < 64 * 1024

    @pytest.mark.parametrize("dim", [0, 3, True, 1.0, "1"])
    def test_other_dimensions_are_refused(self, dim):
        with pytest.raises(ValueError, match="dimension"):
            SobolStream(dim)

    @pytest.mark.parametrize("skip", [-1, True, 1.0, 2**30 + 1])
    def test_bad_skips_are_refused(self, skip):
        with pytest.raises(ValueError, match="skip"):
            SobolStream(1, skip)

    @pytest.mark.parametrize("n", [0, -1, True, 2.0])
    def test_bad_batch_sizes_are_refused(self, n):
        stream = SobolStream(1, skip=1)
        with pytest.raises(ValueError, match="batch size"):
            stream.next(n)
        assert stream.next(1)[0, 0] == 0.5

    def test_importing_sgnet_leaves_scipy_stats_out(self):
        # scipy.stats pulls in scipy's optimize, integrate, interpolate and
        # spatial packages: tens of MB and about half a second per process.
        done = python(
            """
            import sys
            import sgnet, sgnet.cli
            print(sorted(m for m in sys.modules if m == "scipy.stats" or m.startswith("scipy.stats.")))
            """
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        state = AdamState.zeros(5)
        theta = np.linspace(0, 1, 5)
        new = adam_step(theta, np.zeros(5), state, lr=0.1)
        np.testing.assert_array_equal(new, theta)
        assert state.t == 1

    def test_first_step_is_signed_learning_rate(self):
        state = AdamState.zeros(3)
        theta = np.zeros(3)
        grad = np.array([1e-3, -2.0, 40.0])
        new = adam_step(theta, grad, state, lr=0.01)
        np.testing.assert_allclose(new, -0.01 * np.sign(grad), rtol=1e-4)

    def test_bitwise_deterministic(self):
        rng = np.random.default_rng(0)
        theta = rng.normal(size=20)
        grads = rng.normal(size=(7, 20))
        results = []
        for _ in range(2):
            state = AdamState.zeros(20)
            current = theta.copy()
            for g in grads:
                current = adam_step(current, g, state, lr=1e-2)
            results.append(current)
        np.testing.assert_array_equal(results[0], results[1])

    def test_non_finite_gradient_aborts(self):
        state = AdamState.zeros(2)
        with pytest.raises(TrainingDivergedError):
            adam_step(np.zeros(2), np.array([1.0, np.nan]), state, lr=0.1)

    def test_ranged_update_is_bitwise_the_whole_array_update(self):
        # The textbook whole-array update, kept here as the oracle: the update
        # over cache-sized ranges must give the same iterate and moments bit
        # for bit, over a size that leaves a partial last range.
        def whole_array_step(theta, grad, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
            state.t += 1
            state.m *= beta1
            state.m += (1.0 - beta1) * grad
            state.v *= beta2
            state.v += (1.0 - beta2) * grad * grad
            m_hat = state.m / (1.0 - beta1**state.t)
            v_hat = state.v / (1.0 - beta2**state.t)
            return theta - lr * m_hat / (np.sqrt(v_hat) + eps)

        rng = np.random.default_rng(4)
        n = 100_003
        theta = rng.normal(size=n)
        ranged, whole = AdamState.zeros(n), AdamState.zeros(n)
        current, expected = theta.copy(), theta.copy()
        for step in range(5):
            grad = rng.normal(size=n) * 10.0 ** rng.integers(-6, 3, size=n)
            lr = 1e-3 * 0.97**step
            current = adam_step(current, grad, ranged, lr)
            expected = whole_array_step(expected, grad, whole, lr)
            np.testing.assert_array_equal(current, expected)
        np.testing.assert_array_equal(ranged.m, whole.m)
        np.testing.assert_array_equal(ranged.v, whole.v)
        assert ranged.t == whole.t == 5

    def test_update_leaves_the_iterate_untouched(self):
        state = AdamState.zeros(40_000)
        theta = np.linspace(-1.0, 1.0, 40_000)
        kept = theta.copy()
        new = adam_step(theta, np.ones_like(theta), state, lr=0.1)
        np.testing.assert_array_equal(theta, kept)
        assert not np.shares_memory(new, theta)


class TestTraining:
    def small_config(self, **kwargs):
        defaults = dict(
            batch_size=32,
            steps_per_epoch=5,
            max_epochs=5,
            lr0=1e-3,
            patience=50,
            risk_threshold=None,
            validation_samples=50,
            validation_interval=2,
        )
        defaults.update(kwargs)
        return TrainConfig(**defaults)

    def make_net(self, basis, seed=0):
        spec = BranchSpec(1, (6,), ("swish", "linear"))
        return MultiBranchNet(spec, n_branches=basis.size, seed=seed)

    def test_single_branch_poisson_reaches_threshold(self):
        # Regression bound from a pilot run: the single-branch problem trains
        # to a strong risk below 1e-6 well within 2000 epochs.
        basis, _, field, tensor = exp1_setup(0)
        spec = BranchSpec(1, (16, 16), ("swish", "sigmoid", "linear"))
        net = MultiBranchNet(spec, n_branches=1, seed=0)
        config = TrainConfig(
            batch_size=64,
            steps_per_epoch=20,
            max_epochs=2000,
            lr0=3e-3,
            lr_decay=0.97,
            lr_decay_steps=100,
            patience=2000,
            risk_threshold=1e-6,
        )
        result = train(net, "strong", field, tensor, config)
        assert result.stop_reason == "risk_threshold"
        assert result.final_risk < 1e-6
        assert result.epochs <= 2000

    def test_zero_patience_stops_after_first_epoch(self):
        basis, _, field, tensor = exp1_setup(1)
        net = self.make_net(basis)
        result = train(net, "strong", field, tensor, self.small_config(patience=0))
        assert result.epochs == 1
        result = train(self.make_net(basis), "ritz", field, tensor, self.small_config(patience=0))
        assert result.epochs == 1

    def test_history_is_deterministic_across_runs(self):
        basis, _, field, tensor = exp1_setup(1)
        histories = []
        for _ in range(2):
            net = self.make_net(basis, seed=6)
            result = train(net, "ritz", field, tensor, self.small_config())
            histories.append(result.history)
        for row_a, row_b in zip(*histories):
            assert row_a["risk"] == row_b["risk"]
            assert row_a["lr"] == row_b["lr"]
            assert (np.isnan(row_a["validation"]) and np.isnan(row_b["validation"])) or (
                row_a["validation"] == row_b["validation"]
            )

    def test_history_csv_is_streamed(self, tmp_path):
        basis, _, field, tensor = exp1_setup(1)
        net = self.make_net(basis)
        path = tmp_path / "history.csv"
        result = train(net, "strong", field, tensor, self.small_config(), history_path=path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,risk,lr,validation,seconds"
        assert len(lines) == result.epochs + 1

    def test_checkpoints_written(self, tmp_path):
        basis, _, field, tensor = exp1_setup(1)
        net = self.make_net(basis)
        config = self.small_config(max_epochs=4, checkpoint_interval=2)
        train(net, "strong", field, tensor, config, checkpoint_dir=tmp_path)
        assert (tmp_path / "epoch_000002.npz").exists()
        assert (tmp_path / "epoch_000004.npz").exists()

    def test_weighted_ritz_run_validates_on_the_unweighted_field(self):
        # The weighted expansion trains the Ritz energy, but the validation
        # residual is that of the original equation: the unweighted field.
        model = field_model("exp3", 1)
        basis = total_degree_basis(1, 2, PolyFamily.HERMITE)
        weighted = SpectralField(model, basis, "a_min_inv")
        net = self.make_net(basis, seed=3)
        config = self.small_config(steps_per_epoch=1, max_epochs=1, validation_interval=1, seed_validation=4)
        result = train(net, "ritz", weighted, galerkin_tensor(basis), config)
        plain = SpectralField(model, basis)
        expected = validation_error(net, plain, n_samples=config.validation_samples, seed=4)
        assert np.isfinite(expected)
        assert result.history[0]["validation"] == expected

    def test_unknown_loss_kind(self):
        basis, _, field, tensor = exp1_setup(1)
        with pytest.raises(ValueError):
            train(self.make_net(basis), "weak", field, tensor, self.small_config())

    def test_validation_grid_defaults(self):
        assert default_validation_grid(1).shape == (128, 1)
        assert default_validation_grid(2).shape == (1024, 2)
