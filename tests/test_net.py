"""Multi-branch network: derivatives, parameter gradients, persistence."""

from __future__ import annotations

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from sgnet import net as net_module
from sgnet import workers
from sgnet.fields import field_model, make_spectral_field
from sgnet.metrics import midpoint_grid, net_evaluator
from sgnet.net import (
    BranchSpec,
    MultiBranchNet,
    _activation,
    box_enforcer,
    tape_nbytes,
)
from sgnet.reference import Mesh1D, Mesh2D
from sgnet.solver import TrainConfig, strong_risk, train, validation_error
from sgnet.spectral import PolyFamily, galerkin_tensor, total_degree_basis

DATA = Path(__file__).parent / "data"


def small_net(seed=0, d=1, widths=(6, 5), acts=("swish", "sigmoid", "linear"), branches=3):
    spec = BranchSpec(d, tuple(widths), tuple(acts))
    return MultiBranchNet(spec, n_branches=branches, seed=seed)


def activation(kind, z, n_derivs):
    """Activation value and its first ``n_derivs`` derivatives at ``z``."""
    value = np.empty_like(z)
    derivs = [np.empty_like(z) for _ in range(n_derivs)]
    _activation(kind, z.copy(), value, derivs, [np.empty_like(z) for _ in range(3)])
    return value, *derivs


def cotangents(record, seed, with_lap=True):
    """Random cotangents for every output the record carries."""
    rng = np.random.default_rng(seed)
    out = {"d_value": rng.normal(size=record.value.shape)}
    if record.order >= 1:
        out["d_grad"] = rng.normal(size=record.grad.shape)
    if record.order >= 2 and with_lap:
        out["d_lap"] = rng.normal(size=record.laplacian.shape)
    return out


class TestSpecValidation:
    def test_parameter_count(self):
        spec = BranchSpec(1, (45, 45, 45, 45), ("swish", "sigmoid", "sigmoid", "sigmoid", "linear"))
        assert spec.n_params == 6346

    def test_activation_length(self):
        with pytest.raises(ValueError):
            BranchSpec(1, (5,), ("swish",))

    def test_output_must_be_linear(self):
        with pytest.raises(ValueError):
            BranchSpec(1, (5,), ("swish", "sigmoid"))

    def test_unknown_activation(self):
        with pytest.raises(ValueError):
            BranchSpec(1, (5,), ("relu", "linear"))

    def test_zero_width(self):
        with pytest.raises(ValueError):
            BranchSpec(1, (0,), ("swish", "linear"))


class TestInitialization:
    def test_same_seed_is_bitwise_identical(self):
        n1 = small_net(seed=11)
        n2 = small_net(seed=11)
        np.testing.assert_array_equal(n1.params_flat(), n2.params_flat())

    def test_different_seeds_differ(self):
        assert not np.array_equal(small_net(seed=1).params_flat(), small_net(seed=2).params_flat())

    def test_biases_start_at_zero(self):
        net = small_net()
        for b in net.biases:
            np.testing.assert_array_equal(b, 0.0)

    def test_depth_zero_is_enforced_affine_map(self):
        spec = BranchSpec(1, (), ("linear",))
        net = MultiBranchNet(spec, n_branches=2, seed=3)
        x = np.array([[0.3], [0.7]])
        record = net.evaluate(x, order=2)
        w = net.weights[0][:, 0, 0]
        b = net.biases[0][:, 0]
        e = x[:, 0] * (1 - x[:, 0])
        expected = e[:, None] * (w[None, :] * x + b[None, :])
        np.testing.assert_allclose(record.value, expected, rtol=1e-14)


class TestBoundaryExactness:
    def test_interval_endpoints_are_exact_zeros(self):
        net = small_net(d=1)
        record = net.evaluate(np.array([[0.0], [1.0]]), order=0)
        assert np.all(record.value == 0.0)

    def test_square_boundary_is_exact_zero(self):
        net = small_net(d=2, widths=(7, 6), acts=("swish", "swish", "linear"))
        rng = np.random.default_rng(0)
        t = rng.uniform(0, 1, size=250)
        sides = np.concatenate(
            [
                np.stack([np.zeros(250), t], axis=1),
                np.stack([np.ones(250), t], axis=1),
                np.stack([t, np.zeros(250)], axis=1),
                np.stack([t, np.ones(250)], axis=1),
            ]
        )
        record = net.evaluate(sides, order=0)
        assert np.max(np.abs(record.value)) == 0.0


class TestInputDerivatives:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("acts", [("swish", "sigmoid", "linear"), ("sigmoid", "swish", "linear")])
    def test_gradient_matches_fd(self, d, acts):
        net = small_net(seed=5, d=d, widths=(6, 5), acts=acts)
        rng = np.random.default_rng(1)
        points = rng.uniform(0.1, 0.9, size=(50, d))
        record = net.evaluate(points, order=1)
        step = 1e-5
        for axis in range(d):
            forward = points.copy()
            backward = points.copy()
            forward[:, axis] += step
            backward[:, axis] -= step
            fd = (net.evaluate(forward, 0).value - net.evaluate(backward, 0).value) / (2 * step)
            scale = np.maximum(np.abs(fd), 1e-6)
            assert np.max(np.abs(record.grad[:, :, axis] - fd) / scale) < 1e-6

    @pytest.mark.parametrize("d", [1, 2])
    def test_laplacian_matches_fd(self, d):
        acts = ("swish", "sigmoid", "linear")
        net = small_net(seed=7, d=d, widths=(6, 5), acts=acts)
        rng = np.random.default_rng(2)
        points = rng.uniform(0.2, 0.8, size=(50, d))
        record = net.evaluate(points, order=2)
        step = 1e-4
        fd = np.zeros_like(record.value)
        center = net.evaluate(points, 0).value
        for axis in range(d):
            forward = points.copy()
            backward = points.copy()
            forward[:, axis] += step
            backward[:, axis] -= step
            fd += (
                net.evaluate(forward, 0).value - 2 * center + net.evaluate(backward, 0).value
            ) / step**2
        scale = np.maximum(np.abs(fd), 1e-4)
        assert np.max(np.abs(record.laplacian - fd) / scale) < 1e-4


class TestParameterGradient:
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_parameter_fd(self, d):
        net = small_net(seed=9, d=d, widths=(5, 4), acts=("swish", "sigmoid", "linear"))
        rng = np.random.default_rng(3)
        x = rng.uniform(0.1, 0.9, size=(7, d))
        w_v = rng.normal(size=(7, net.n_branches))
        w_g = rng.normal(size=(7, net.n_branches, d))
        w_l = rng.normal(size=(7, net.n_branches))

        def scalar(theta):
            net.set_params_flat(theta)
            r = net.evaluate(x, order=2)
            return float(np.sum(w_v * r.value) + np.sum(w_g * r.grad) + np.sum(w_l * r.laplacian))

        theta0 = net.params_flat()
        record = net.evaluate(x, order=2)
        grad = net.param_grad(record, d_value=w_v, d_grad=w_g, d_lap=w_l)
        step = 1e-6
        picks = rng.choice(net.n_params, size=20, replace=False)
        for idx in picks:
            tp = theta0.copy()
            tm = theta0.copy()
            tp[idx] += step
            tm[idx] -= step
            fd = (scalar(tp) - scalar(tm)) / (2 * step)
            net.set_params_flat(theta0)
            assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("d", [1, 2])
    def test_omitted_cotangents_count_as_zero(self, d):
        # The same scalar of value and gradient pulled back through an order-2
        # record, whose Laplacian cotangent is omitted, and an order-1 record.
        net = small_net(seed=6, d=d)
        x = np.random.default_rng(5).uniform(0.1, 0.9, size=(9, d))
        for _ in range(2):  # the second pass reuses the tape of the first
            high = net.evaluate(x, order=2)
            grad_high = net.param_grad(high, **cotangents(high, 8, with_lap=False))
            low = net.evaluate(x, order=1)
            grad_low = net.param_grad(low, **cotangents(low, 8))
            np.testing.assert_allclose(grad_high, grad_low, rtol=1e-12, atol=1e-15)

    def test_quadratic_loss_at_zero_weights_has_zero_gradient(self):
        # With all parameters zero every branch output vanishes, so the
        # gradient of sum_k U_k^2 is exactly zero; finite differences agree.
        net = small_net(seed=0, widths=(5, 4), acts=("swish", "swish", "linear"))
        net.set_params_flat(np.zeros(net.n_params))
        x = np.array([[0.4], [0.6]])
        record = net.evaluate(x, order=0)
        grad = net.param_grad(record, d_value=2.0 * record.value)
        np.testing.assert_array_equal(grad, 0.0)

    def test_linear_loss_at_zero_weights_touches_only_last_bias(self):
        # For swish-activated hidden layers the hidden signal is identically
        # zero at zero parameters, so only the output bias feels a linear loss.
        net = small_net(seed=0, widths=(5, 4), acts=("swish", "swish", "linear"))
        net.set_params_flat(np.zeros(net.n_params))
        x = np.array([[0.4], [0.6]])
        record = net.evaluate(x, order=0)
        grad = net.param_grad(record, d_value=np.ones_like(record.value))
        # Gradient with respect to the output bias equals sum of e(x).
        e_sum = float(np.sum(x[:, 0] * (1 - x[:, 0])))
        layout = []
        offset = 0
        for w, b in zip(net.weights, net.biases):
            layout.append(("w", offset, offset + w.size))
            offset += w.size
            layout.append(("b", offset, offset + b.size))
            offset += b.size
        *head, (kind, lo, hi) = layout
        assert kind == "b"
        np.testing.assert_allclose(grad[lo:hi], e_sum, rtol=1e-14)
        for _, a, b_ in head:
            np.testing.assert_array_equal(grad[a:b_], 0.0)

    def test_branch_independence_is_bitwise(self):
        net = small_net(seed=13, branches=4)
        x = np.linspace(0.1, 0.9, 9)[:, None]
        base = net.evaluate(x, order=2)
        theta = net.params_flat()
        per_branch = net.spec.n_params
        # Perturb every parameter of branch 2; parameters are stored stacked
        # per layer, so locate branch 2's slices layer by layer.
        offset = 0
        for w, b in zip(net.weights, net.biases):
            w[2] += 0.25
            offset += w.size + b.size
            b[2] -= 0.125
        bumped = net.evaluate(x, order=2)
        for k in range(4):
            if k == 2:
                assert not np.array_equal(bumped.value[:, k], base.value[:, k])
            else:
                np.testing.assert_array_equal(bumped.value[:, k], base.value[:, k])
                np.testing.assert_array_equal(bumped.grad[:, k], base.grad[:, k])
                np.testing.assert_array_equal(bumped.laplacian[:, k], base.laplacian[:, k])
        assert per_branch * 4 == theta.size

    def test_record_from_other_net_rejected(self):
        net_a = small_net(seed=1)
        net_b = small_net(seed=1)
        record = net_a.evaluate(np.array([[0.5]]), order=0)
        with pytest.raises(ValueError):
            net_b.param_grad(record, d_value=np.ones((1, 3)))

    def test_lap_cotangent_needs_order_two(self):
        net = small_net()
        record = net.evaluate(np.array([[0.5]]), order=1)
        with pytest.raises(ValueError):
            net.param_grad(record, d_lap=np.ones((1, 3)))


class TestActivationIdentities:
    def test_swish_first_derivative_identity(self):
        z = np.linspace(-6, 6, 301)
        _, d1 = activation("swish", z, 1)
        s = expit(z)
        np.testing.assert_allclose(d1, s * (1 + z * (1 - s)), rtol=1e-13)
        step = 1e-6
        vp, *_ = activation("swish", z + step, 1)
        vm, *_ = activation("swish", z - step, 1)
        np.testing.assert_allclose(d1, (vp - vm) / (2 * step), atol=1e-8)

    def test_sigmoid_derivative_identity(self):
        z = np.linspace(-6, 6, 301)
        _, d1 = activation("sigmoid", z, 1)
        s = expit(z)
        np.testing.assert_allclose(d1, s * (1 - s), rtol=1e-13)
        step = 1e-6
        np.testing.assert_allclose(
            d1, (expit(z + step) - expit(z - step)) / (2 * step), atol=1e-8
        )

    def test_second_and_third_derivatives_match_fd(self):
        z = np.linspace(-4, 4, 81)
        for kind in ("swish", "sigmoid"):
            _, d1, d2, d3 = activation(kind, z, 3)
            step = 1e-5
            _, d1p, d2p = activation(kind, z + step, 2)
            _, d1m, d2m = activation(kind, z - step, 2)
            np.testing.assert_allclose(d2, (d1p - d1m) / (2 * step), atol=1e-8)
            np.testing.assert_allclose(d3, (d2p - d2m) / (2 * step), atol=1e-8)

    @pytest.mark.parametrize("kind", ["swish", "sigmoid"])
    def test_derivatives_do_not_depend_on_their_count(self, kind):
        # Order-0 records keep only d1 and order-2 records d1..d3; the values
        # they share are bitwise equal.
        z = np.linspace(-4, 4, 81)
        full = activation(kind, z, 3)
        for count in (1, 2):
            for a, b in zip(activation(kind, z, count), full):
                np.testing.assert_array_equal(a, b)


class TestTapeReuse:
    """One tape per net is reused across calls; none of it may show in the results."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("acts", [("swish", "sigmoid", "linear"), ("sigmoid", "swish", "linear")])
    def test_reuse_is_invisible(self, d, acts):
        rng = np.random.default_rng(d)
        points = {n: rng.uniform(0.1, 0.9, size=(n, d)) for n in (5, 7)}
        other = {n: rng.uniform(0.1, 0.9, size=(n, d)) for n in (5, 7)}
        net = small_net(seed=3, d=d, acts=acts)
        for n in (7, 5, 7):
            for order in (0, 1, 2):
                for with_lap in (True, False):
                    # A pull-back at other points leaves a stale tape of this shape.
                    warm = net.evaluate(other[n], order)
                    net.param_grad(warm, **cotangents(warm, 1))
                    record = net.evaluate(points[n], order)
                    # Order-0 evaluations between an evaluation and its pull-back.
                    net.evaluate(points[12 - n], 0)
                    net.evaluate(points[n], 0)
                    grad = net.param_grad(record, **cotangents(record, 2, with_lap))

                    fresh = small_net(seed=3, d=d, acts=acts)
                    expected = fresh.evaluate(points[n], order)
                    expected_grad = fresh.param_grad(expected, **cotangents(expected, 2, with_lap))
                    for name in ("value", "grad", "laplacian"):
                        np.testing.assert_array_equal(getattr(record, name), getattr(expected, name))
                    np.testing.assert_array_equal(grad, expected_grad)

    def test_pull_back_happens_once(self):
        net = small_net()
        record = net.evaluate(np.array([[0.3], [0.6]]), order=2)
        net.param_grad(record, **cotangents(record, 0))
        with pytest.raises(ValueError):
            net.param_grad(record, **cotangents(record, 0))

    def test_rejected_calls_leave_the_record_usable(self):
        x = np.array([[0.3], [0.6]])
        net, other = small_net(seed=1), small_net(seed=1)
        record = net.evaluate(x, order=1)
        cot = cotangents(record, 4)
        with pytest.raises(ValueError):
            other.param_grad(record, **cot)
        with pytest.raises(ValueError):
            net.param_grad(record, d_lap=np.ones((2, 3)))
        with pytest.raises(ValueError):
            net.param_grad(record, d_value=np.ones((3, 3)))
        grad = net.param_grad(record, **cot)
        expected = other.evaluate(x, order=1)
        np.testing.assert_array_equal(grad, other.param_grad(expected, **cot))

    def test_steady_step_allocates_no_tape(self):
        basis = total_degree_basis(1, 3, PolyFamily.HERMITE)
        field = make_spectral_field(field_model("exp1", 1), basis)
        tensor = galerkin_tensor(basis)
        width, n = 16, 256
        net = small_net(widths=(width, width), branches=basis.size)
        x = np.linspace(0.01, 0.99, n)[:, None]
        first = strong_risk(x, net, field, tensor)
        tracemalloc.start()
        try:
            second = strong_risk(x, net, field, tensor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One layer array of an order-2 tape: (K, 3 n rows, width) float64.
        layer = 8 * basis.size * 3 * n * width
        assert peak < layer
        assert first[0] == second[0]
        np.testing.assert_array_equal(first[1], second[1])


class TestTapeAcrossShapes:
    """An evaluation of another shape lays its tape out in the spare's buffer when it fits."""

    def test_smaller_shape_reuses_the_buffer(self):
        x = np.random.default_rng(0).uniform(0.1, 0.9, size=(40, 2))
        net = small_net(seed=2, d=2)
        record = net.evaluate(x, 2)
        buffer = record._tape.buf
        net.param_grad(record, **cotangents(record, 1))
        smaller = net.evaluate(x[:10], 1)
        assert smaller._tape.buf is buffer
        grad = net.param_grad(smaller, **cotangents(smaller, 2))
        fresh = small_net(seed=2, d=2)
        expected = fresh.evaluate(x[:10], 1)
        for name in ("value", "grad"):
            np.testing.assert_array_equal(getattr(smaller, name), getattr(expected, name))
        np.testing.assert_array_equal(grad, fresh.param_grad(expected, **cotangents(expected, 2)))

    def test_too_small_spare_is_freed_before_the_new_buffer(self):
        x = np.random.default_rng(1).uniform(0.1, 0.9, size=(400, 1))
        net = small_net(widths=(16, 16))
        small = tape_nbytes(net.spec, 3, 100, 2)
        big = tape_nbytes(net.spec, 3, 400, 2)
        tracemalloc.start()
        try:
            record = net.evaluate(x[:100], 2)
            net.param_grad(record, **cotangents(record, 0))
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            net.evaluate(x, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The spare (held) is gone before the big tape exists: the peak stays
        # below the big tape on top of everything held.
        assert peak - held < big - small // 2

    def test_grid_evaluation_keeps_a_spare_and_the_metric_frees_it(self):
        x = np.random.default_rng(3).uniform(0.1, 0.9, size=(30, 1))
        net = small_net(seed=1, branches=4)
        record = net.evaluate(x, 2)
        net.param_grad(record, **cotangents(record, 0))
        buffer = net._spare.buf
        net.evaluate_grid(x[:10], order=1)
        assert net._spare.buf is buffer
        basis = total_degree_basis(1, 3, PolyFamily.HERMITE)
        net_evaluator(net, basis, midpoint_grid(Mesh1D(8)))
        assert net._spare is None

    def test_ritz_training_with_validation_allocates_at_most_two_buffers(self, monkeypatch):
        # 50 Ritz steps on exp1, validated (order 2, on the validation grid)
        # after every epoch of 5 order-1 steps: 20 tapes in at most 2 buffers.
        buffers = []
        build = net_module._Tape.__init__

        def recording(tape, *args, **kwargs):
            build(tape, *args, **kwargs)
            buffers.append(tape.buf)

        monkeypatch.setattr(net_module._Tape, "__init__", recording)
        basis = total_degree_basis(1, 3, PolyFamily.HERMITE)
        field = make_spectral_field(field_model("exp1", 1), basis)
        config = TrainConfig(
            batch_size=64,
            steps_per_epoch=5,
            max_epochs=10,
            patience=10,
            risk_threshold=None,
            validation_interval=1,
            validation_samples=100,
        )
        net = small_net(branches=basis.size)
        result = train(net, "ritz", field, galerkin_tensor(basis), config)
        assert result.epochs == 10
        assert len(buffers) == 20
        assert len({id(buffer) for buffer in buffers}) <= 2


class TestBranchBlocks:
    """Running the layer stack block of branches by block, on one or two workers, changes no result."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_blocks_are_invisible(self, monkeypatch, d, order):
        n, K = 6, 5
        x = np.random.default_rng(order).uniform(0.1, 0.9, size=(n, d))
        spec = small_net(d=d).spec
        # One-branch blocks, blocks of two (5 = 2 + 2 + 1) and one whole-net block.
        budgets = {1: 1, 2: tape_nbytes(spec, 2, n, order), K: 1 << 40}
        results = {}
        for n_workers in (1, 2):
            monkeypatch.setattr(workers, "count", lambda: n_workers)
            for block, budget in budgets.items():
                monkeypatch.setattr(net_module, "_BLOCK_BYTES", budget)
                for with_lap in (True, False) if order == 2 else (True,):
                    net = small_net(seed=4, d=d, branches=K)
                    record = net.evaluate(x, order)
                    tape = record._tape
                    assert len(tape.scratch) == min(n_workers, -(-K // block))
                    assert tape.scratch[-1][0][0].shape[0] == block
                    assert tape.S[0].base.nbytes == tape_nbytes(spec, K, n, order)
                    grad = net.param_grad(record, **cotangents(record, 3, with_lap))
                    results[n_workers, block, with_lap] = record, grad
        for (n_workers, block, with_lap), (record, grad) in results.items():
            whole, whole_grad = results[1, K, with_lap]
            for name in ("value", "grad", "laplacian"):
                np.testing.assert_array_equal(getattr(record, name), getattr(whole, name))
            np.testing.assert_array_equal(grad, whole_grad)


class TestEvaluateGrid:
    """Chunked evaluation of a point set: the results of one call, on a chunk-sized tape."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_chunks_are_invisible(self, monkeypatch, d, order):
        x = np.random.default_rng(d).uniform(0.05, 0.95, size=(11, d))
        net = small_net(seed=2, d=d)
        expected = net.evaluate(x, order)
        monkeypatch.setattr(net_module, "_GRID_CHUNK", 4)
        chunked = net.evaluate_grid(x, order)
        for name, array in zip(("value", "grad", "laplacian"), chunked):
            if getattr(expected, name) is None:
                assert array is None
            else:
                np.testing.assert_array_equal(array, getattr(expected, name))

    def test_validation_residual_does_not_depend_on_chunks(self, monkeypatch):
        basis = total_degree_basis(2, 1, PolyFamily.LEGENDRE)
        field = make_spectral_field(field_model("exp2", 2), basis)
        net = small_net(seed=5, d=2, branches=basis.size)
        expected = validation_error(net, field, basis, n_samples=50, seed=1)
        monkeypatch.setattr(net_module, "_GRID_CHUNK", 100)
        assert validation_error(net, field, basis, n_samples=50, seed=1) == expected

    def test_metric_grid_needs_no_full_grid_tape(self):
        spec = BranchSpec(2, (35,) * 5, ("swish",) * 5 + ("linear",))
        net = MultiBranchNet(spec, n_branches=9, seed=1)
        points = midpoint_grid(Mesh2D(64)).points
        tracemalloc.start()
        try:
            value, grad, _ = net.evaluate_grid(points, order=1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert value.shape == (4096, 9) and grad.shape == (4096, 9, 2)
        assert peak < tape_nbytes(spec, 9, 4096, order=1)
        # The chunk tape is freed with the call, as a record's tape is.
        assert held - value.nbytes - grad.nbytes < tape_nbytes(spec, 9, net_module._GRID_CHUNK, order=1)


class TestPersistence:
    def test_round_trip_is_bitwise(self, tmp_path):
        net = small_net(seed=21, d=2, widths=(6, 5), acts=("swish", "swish", "linear"))
        path = tmp_path / "ckpt.npz"
        net.save(path)
        clone = MultiBranchNet.load(path)
        np.testing.assert_array_equal(clone.params_flat(), net.params_flat())
        assert clone.spec == net.spec
        x = np.random.default_rng(0).uniform(0.1, 0.9, size=(5, 2))
        np.testing.assert_array_equal(
            clone.evaluate(x, 2).laplacian, net.evaluate(x, 2).laplacian
        )

    @pytest.mark.parametrize("d", [1, 2])
    def test_frozen_version_1_checkpoint_evaluates_bitwise(self, d):
        # Files saved, and evaluated at order 2, by an earlier version of this
        # module: they still load, and every output bit is the same.
        net = MultiBranchNet.load(DATA / f"checkpoint_v1_d{d}.npz")
        with np.load(DATA / "checkpoint_v1_expected.npz") as expected:
            record = net.evaluate(expected[f"x{d}"], 2)
            for name in ("value", "grad", "laplacian"):
                np.testing.assert_array_equal(getattr(record, name), expected[f"{name}{d}"])


class TestEnforcers:
    def test_interval_enforcer_derivatives(self):
        x = np.linspace(0, 1, 11)[:, None]
        value, grad, lap = box_enforcer(x)
        np.testing.assert_allclose(value, x[:, 0] * (1 - x[:, 0]))
        np.testing.assert_allclose(grad[:, 0], 1 - 2 * x[:, 0])
        np.testing.assert_allclose(lap, -2.0)

    def test_square_enforcer_positive_inside(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0.01, 0.99, size=(200, 2))
        value, grad, lap = box_enforcer(pts)
        assert np.all(value > 0.0)
        # Closed forms of e = x1 x2 (1 - x1)(1 - x2), by central differences.
        step = 1e-5
        for d in range(2):
            shift = np.zeros(2)
            shift[d] = step
            fd = (box_enforcer(pts + shift)[0] - box_enforcer(pts - shift)[0]) / (2 * step)
            np.testing.assert_allclose(grad[:, d], fd, atol=1e-9)
        b = pts * (1 - pts)
        np.testing.assert_allclose(lap, -2.0 * (b[:, 0] + b[:, 1]), rtol=1e-14)
        edges = np.array([[0.0, 0.3], [1.0, 0.6], [0.2, 0.0], [0.7, 1.0]])
        np.testing.assert_array_equal(box_enforcer(edges)[0], 0.0)

    def test_dimension_dispatch(self, tmp_path):
        # Checkpoints name the enforcer of their input dimension; a file whose
        # name disagrees with its dimension is refused.
        names = []
        for d in (1, 2):
            net = small_net(d=d)
            net.save(tmp_path / f"d{d}.npz")
            with np.load(tmp_path / f"d{d}.npz") as data:
                meta = json.loads(bytes(data["meta"]).decode())
                arrays = {k: data[k] for k in data.files if k != "meta"}
            names.append(meta["enforcer"])
            meta["enforcer"] = "square" if d == 1 else "interval"
            np.savez(tmp_path / "bad.npz", meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
            with pytest.raises(ValueError, match="enforcer"):
                MultiBranchNet.load(tmp_path / "bad.npz")
        assert names == ["interval", "square"]
