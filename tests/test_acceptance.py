"""Acceptance suite: every shipped guarantee, one test per criterion.

Each criterion prints one line with the measured quantities (run with ``-s``
to see them).  The desk-scale training criteria train real networks and
dominate the runtime of the module.

Criterion 4's literal bound (2% against the full analytic solution at P = 10)
sits below the polynomial chaos truncation floor of 3.95% and is therefore
marked as a strict expected failure; the attainable decomposition of the same
criterion (training quality against the truncated system, per-branch bounds)
is asserted in the companion test.  The analysis lives in the test bodies.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
import yaml

from sgnet.fields import SpectralField, exp1_forcing_coeffs, field_model
from sgnet.metrics import exact_exp1_evaluator, net_evaluator, rel_h1_error, uniform_grid_1d
from sgnet.net import BranchSpec, MultiBranchNet
from sgnet.solver import SobolStream, TrainConfig, ritz_risk, train, validation_error
from sgnet.spectral import (
    PolyFamily,
    basis_dim,
    basis_matrix,
    enumerate_indices,
    galerkin_tensor,
    tensor_gauss_rule,
    total_degree_basis,
)

from oracles import ExactCoefficientNet, hermite_triple_analytic, lognormal_factor_closed


def report(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {detail}")


# -- criterion 1: basis correctness ------------------------------------------------


class TestCriterion1Basis:
    def test_basis_correctness(self):
        t0 = time.perf_counter()
        worst = 0.0
        for family in (PolyFamily.HERMITE, PolyFamily.LEGENDRE):
            for n_dims, max_degree in ((1, 10), (2, 7), (3, 10)):
                basis = total_degree_basis(n_dims, max_degree, family)
                points, weights = tensor_gauss_rule(basis, max_degree + 2)
                matrix = basis_matrix(basis, points)
                gram = (matrix * weights[:, None]).T @ matrix
                worst = max(worst, float(np.max(np.abs(gram - np.eye(basis.size)))))
        assert worst < 1e-10
        assert enumerate_indices(2, 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
        assert basis_dim(3, 7) == 120
        elapsed = time.perf_counter() - t0
        report("1 (basis)", f"worst Gram deviation {worst:.2e}, ordering exact, dim(3,7)=120, {elapsed:.2f}s")
        assert elapsed < 1.0


# -- criterion 2: Galerkin tensor ----------------------------------------------------


class TestCriterion2Tensor:
    def test_tensor_against_linearization_oracle(self):
        t0 = time.perf_counter()
        basis = total_degree_basis(1, 15, PolyFamily.HERMITE)
        tensor = galerkin_tensor(basis)
        worst_rel = 0.0
        for i in range(basis.size):
            for j in range(basis.size):
                for k in range(basis.size):
                    oracle = hermite_triple_analytic(i, j, k)
                    error = abs(tensor.values[i, j, k] - oracle)
                    worst_rel = max(worst_rel, error / max(abs(oracle), 1e-2))
        assert worst_rel < 1e-9
        for perm in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
            np.testing.assert_array_equal(tensor.values, np.transpose(tensor.values, perm))
        np.testing.assert_array_equal(tensor.values[0], np.eye(basis.size))
        elapsed = time.perf_counter() - t0
        report("2 (tensor)", f"worst relative deviation {worst_rel:.2e}, symmetry bitwise, zero slice exact, {elapsed:.2f}s")
        assert elapsed < 5.0


# -- criterion 3: automatic differentiation -------------------------------------------


class TestCriterion3Autodiff:
    def test_fifty_random_nets_and_points(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst_grad = worst_lap = worst_param = 0.0
        for trial in range(10):
            d = int(rng.integers(1, 3))
            depth = int(rng.integers(1, 4))
            widths = tuple(int(rng.integers(3, 9)) for _ in range(depth))
            acts = tuple(rng.choice(["swish", "sigmoid"]) for _ in range(depth)) + ("linear",)
            branches = int(rng.integers(1, 4))
            net = MultiBranchNet(BranchSpec(d, widths, acts), n_branches=branches, seed=trial)
            x = rng.uniform(0.15, 0.85, size=(5, d))
            record = net.evaluate(x, order=2)
            step = 1e-5
            for axis in range(d):
                xf, xb = x.copy(), x.copy()
                xf[:, axis] += step
                xb[:, axis] -= step
                fd = (net.evaluate(xf, 0).value - net.evaluate(xb, 0).value) / (2 * step)
                rel = np.abs(record.grad[:, :, axis] - fd) / np.maximum(np.abs(fd), 1e-6)
                worst_grad = max(worst_grad, float(rel.max()))
            step = 1e-4
            fd_lap = np.zeros_like(record.value)
            center = net.evaluate(x, 0).value
            for axis in range(d):
                xf, xb = x.copy(), x.copy()
                xf[:, axis] += step
                xb[:, axis] -= step
                fd_lap += (net.evaluate(xf, 0).value - 2 * center + net.evaluate(xb, 0).value) / step**2
            rel = np.abs(record.laplacian - fd_lap) / np.maximum(np.abs(fd_lap), 1e-4)
            worst_lap = max(worst_lap, float(rel.max()))

            w_v = rng.normal(size=record.value.shape)
            w_g = rng.normal(size=record.grad.shape)
            w_l = rng.normal(size=record.laplacian.shape)
            grad = net.param_grad(record, d_value=w_v, d_grad=w_g, d_lap=w_l)
            theta0 = net.params_flat()

            def scalar(theta):
                net.set_params_flat(theta)
                r = net.evaluate(x, order=2)
                out = float(np.sum(w_v * r.value) + np.sum(w_g * r.grad) + np.sum(w_l * r.laplacian))
                return out

            step = 1e-6
            for idx in rng.choice(net.n_params, size=4, replace=False):
                tp, tm = theta0.copy(), theta0.copy()
                tp[idx] += step
                tm[idx] -= step
                fd = (scalar(tp) - scalar(tm)) / (2 * step)
                net.set_params_flat(theta0)
                rel = abs(grad[idx] - fd) / max(abs(fd), 1e-7)
                worst_param = max(worst_param, rel)
        assert worst_grad < 1e-6
        assert worst_lap < 1e-4
        assert worst_param < 1e-5
        elapsed = time.perf_counter() - t0
        report(
            "3 (autodiff)",
            f"worst rel: gradient {worst_grad:.2e}, laplacian {worst_lap:.2e}, "
            f"parameter {worst_param:.2e}, {elapsed:.1f}s",
        )
        assert elapsed < 30.0


# -- criteria 4 and 7: constant-diffusion desk run --------------------------------------

EXP1_DEGREE = 10
EXP1_SPEC = BranchSpec(1, (30, 30, 30), ("swish", "sigmoid", "sigmoid", "linear"))
EXP1_TRAIN = TrainConfig(
    batch_size=128,
    steps_per_epoch=50,
    max_epochs=500,
    lr0=2e-3,
    lr_decay=0.97,
    lr_decay_steps=200,
    patience=500,
    risk_threshold=1e-11,
    validation_samples=2000,
    validation_interval=25,
    seed_sobol=1,
)


@pytest.fixture(scope="module")
def exp1_problem():
    basis = total_degree_basis(1, EXP1_DEGREE, PolyFamily.HERMITE)
    model = field_model("exp1", 1)
    field = SpectralField(model, basis)
    tensor = galerkin_tensor(basis)
    forcing = exp1_forcing_coeffs(EXP1_DEGREE)
    return basis, model, field, tensor, forcing


@pytest.fixture(scope="module")
def exp1_trained(exp1_problem):
    basis, model, field, tensor, forcing = exp1_problem
    trained = {}
    for kind in ("strong", "ritz"):
        net = MultiBranchNet(EXP1_SPEC, n_branches=basis.size, seed=1)
        t0 = time.perf_counter()
        result = train(net, kind, field, tensor, EXP1_TRAIN)
        trained[kind] = (net, result, time.perf_counter() - t0)
    return trained


class TestCriterion4Exp1:
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "spec defect: the truncation floor sqrt(sum_{k>10} f_k^2 / 2) = 3.95% of the "
            "P=10 chaos space exceeds the stated 2% bound against the full analytic "
            "solution; no element of the span can pass"
        ),
    )
    def test_literal_bound_against_analytic_solution(self, exp1_problem, exp1_trained):
        basis, model, _, _, forcing = exp1_problem
        grid = uniform_grid_1d(257)
        reference = exact_exp1_evaluator(grid)
        errors = {}
        for kind in ("strong", "ritz"):
            net, _, _ = exp1_trained[kind]
            rep = rel_h1_error(
                reference, {kind: net_evaluator(net, basis, grid)}, grid, model, n_mc=20_000, seed=3
            )[kind]
            errors[kind] = rep.rel_error
        floor = math.sqrt((2.0 - float(np.sum(forcing**2))) / 2.0)
        report(
            "4 (literal, expected failure)",
            f"rel error vs analytic: strong {errors['strong']:.4f}, ritz {errors['ritz']:.4f}; "
            f"truncation floor {floor:.4f} > stated bound 0.02",
        )
        assert errors["strong"] <= 0.02 and errors["ritz"] <= 0.02

    def test_training_quality_and_per_branch_bounds(self, exp1_problem, exp1_trained):
        basis, model, _, _, forcing = exp1_problem
        grid_points = np.linspace(0.0, 1.0, 257)[:, None]
        exact = 0.5 * forcing[None, :] * (grid_points - grid_points**2)
        exact_grad = 0.5 * forcing[None, :] * (1.0 - 2.0 * grid_points)
        sup_exact = np.max(np.abs(exact), axis=0)
        # Branches whose exact coefficient vanishes (f_4 = 0 analytically) get
        # an absolute bound at the scale of the largest branch.
        tolerance = 0.02 * np.where(sup_exact > 1e-10 * sup_exact.max(), sup_exact, sup_exact.max())

        grid = uniform_grid_1d(257)
        reference = exact_exp1_evaluator(grid)
        trapezoid = grid.weights
        lines = []
        for kind in ("strong", "ritz"):
            net, result, seconds = exp1_trained[kind]
            record = net.evaluate(grid_points, order=1)
            sup_err = np.max(np.abs(record.value - exact), axis=0)
            assert np.all(sup_err <= tolerance), f"{kind}: branch sup errors {sup_err / tolerance}"
            # Error against the exact solution of the truncated system.
            num = float(
                (((record.value - exact) ** 2 + (record.grad[:, :, 0] - exact_grad) ** 2)
                 * trapezoid[:, None]).sum()
            )
            den = float(((exact**2 + exact_grad**2) * trapezoid[:, None]).sum())
            training_error = math.sqrt(num / den)
            assert training_error <= 0.02
            # Total error vs the analytic solution decomposes orthogonally.
            rep = rel_h1_error(
                reference, {kind: net_evaluator(net, basis, grid)}, grid, model, n_mc=20_000, seed=3
            )[kind]
            floor = math.sqrt((2.0 - float(np.sum(forcing**2))) / 2.0)
            predicted = math.sqrt(floor**2 + training_error**2)
            assert rep.rel_error == pytest.approx(predicted, rel=0.06)
            assert seconds < 600.0
            lines.append(
                f"{kind}: training error {training_error:.4f} (<=0.02), worst branch "
                f"{float(np.max(sup_err / tolerance)):.2f} of bound, total vs analytic "
                f"{rep.rel_error:.4f} = sqrt(floor^2 + training^2) pm 6%, {seconds:.0f}s"
            )
        report("4 (attainable)", "; ".join(lines))


class TestCriterion7RitzMinimization:
    def test_frozen_batch_descent_is_monotone(self, exp1_problem):
        basis, _, field, tensor, _ = exp1_problem
        spec = BranchSpec(1, (10, 8), ("swish", "sigmoid", "linear"))
        net = MultiBranchNet(spec, n_branches=basis.size, seed=4)
        x = SobolStream(1, skip=1).next(512)
        theta = net.params_flat()
        previous = np.inf
        for step in range(100):
            risk, grad = ritz_risk(x, net, field, tensor)
            assert risk <= previous + 1e-14, f"increase at step {step}"
            previous = risk
            theta = theta - 1e-3 * grad
            net.set_params_flat(theta)
        report("7a (descent)", f"100 full-batch steps non-increasing, final energy {previous:.6f}")

    def test_trained_energy_is_negative(self, exp1_problem, exp1_trained):
        basis, _, field, tensor, _ = exp1_problem
        net, _, _ = exp1_trained["ritz"]
        x = SobolStream(1, skip=1).next(20_000)
        risk, _ = ritz_risk(x, net, field, tensor)
        assert risk <= 0.0
        report("7b (negative energy)", f"trained Ritz energy {risk:.6f} <= 0")

    def test_exact_solution_attains_minimum(self, exp1_problem):
        basis, _, field, tensor, forcing = exp1_problem
        half = 0.5 * forcing
        net = ExactCoefficientNet(
            value=lambda x: half[None, :] * (x[:, :1] - x[:, :1] ** 2),
            grad=lambda x: (half[None, :] * (1.0 - 2.0 * x[:, :1]))[:, :, None],
        )
        x = SobolStream(1, skip=1).next(10_000)
        risk, _ = ritz_risk(x, net, field, tensor)
        expected = -float(np.sum(forcing**2)) / 24.0
        assert risk == pytest.approx(expected, rel=0.01)
        report("7c (minimum value)", f"exact coefficients give {risk:.6f} vs -sum f^2/24 = {expected:.6f}")


class TestCriterion8Validation:
    def test_exact_coefficients_and_zero_net(self, exp1_problem):
        basis, _, field, tensor, forcing = exp1_problem
        half = 0.5 * forcing
        exact_net = ExactCoefficientNet(
            value=lambda x: half[None, :] * (x[:, :1] - x[:, :1] ** 2),
            grad=lambda x: (half[None, :] * (1.0 - 2.0 * x[:, :1]))[:, :, None],
            lap=lambda x: np.broadcast_to(-forcing, (x.shape[0], forcing.size)).copy(),
        )
        exact_value = validation_error(exact_net, field, n_samples=2_000, seed=5)
        assert exact_value <= 1e-12

        zero_net = MultiBranchNet(EXP1_SPEC, n_branches=basis.size, seed=0)
        zero_net.set_params_flat(np.zeros(zero_net.n_params))
        n_samples = 20_000
        zero_value = validation_error(zero_net, field, n_samples=n_samples, seed=5)
        rng = np.random.default_rng(5)
        y = rng.standard_normal((n_samples, 1))
        fbar_sq = (basis_matrix(basis, y) @ forcing) ** 2
        se = float(fbar_sq.std(ddof=1) / math.sqrt(n_samples))
        target = float(np.sum(forcing**2))
        assert abs(zero_value - target) <= 3 * se
        report(
            "8 (validation)",
            f"exact coefficients {exact_value:.2e} <= 1e-12; zero net {zero_value:.5f} "
            f"vs sum f^2 = {target:.5f} within 3 SE ({3 * se:.1e})",
        )


class TestCriterion9LognormalCoefficients:
    def test_factors_and_gradients(self):
        from sgnet.fields import _exponential_factor_table, exp3_diffusion_coeff, exp3_diffusion_grad

        worst = 0.0
        for sigma in np.linspace(0.1, 3.0, 12):
            table = _exponential_factor_table(np.array([sigma]), 10)
            for degree in range(11):
                closed = lognormal_factor_closed(float(sigma), degree)
                worst = max(worst, abs(table[0, degree] - closed) / abs(closed))
        assert worst < 1e-10

        worst_grad = 0.0
        step = 1e-5
        for nu in ((0, 0), (1, 2), (3, 0), (2, 2)):
            for x in (0.2, 0.55, 0.9):
                grad = exp3_diffusion_grad(nu, x, 2)
                fd = (
                    float(exp3_diffusion_coeff(nu, x + step, 2))
                    - float(exp3_diffusion_coeff(nu, x - step, 2))
                ) / (2 * step)
                worst_grad = max(worst_grad, abs(grad - fd) / max(abs(fd), 1e-9))
        assert worst_grad < 1e-6
        report(
            "9 (log-normal)",
            f"factor deviation {worst:.2e} (<=1e-10), gradient FD deviation {worst_grad:.2e} (<=1e-6)",
        )


class TestCriterion10Determinism:
    def test_two_full_runs_are_identical(self, tmp_path):
        from sgnet.cli import load_config, run

        results = []
        for attempt in range(2):
            out_dir = tmp_path / f"run{attempt}"
            config_path = tmp_path / f"config{attempt}.yaml"
            config_path.write_text(
                yaml.safe_dump(
                    {
                        "experiment": "exp1",
                        "method": "both",
                        "N": 1,
                        "P": [0, 2],
                        "net": {"widths": [8, 8], "activations": ["swish", "sigmoid"]},
                        "train": {
                            "batch_size": 32,
                            "steps_per_epoch": 5,
                            "max_epochs": 3,
                            "patience": 10,
                            "risk_threshold": None,
                            "validation_samples": 100,
                            "validation_interval": 1,
                        },
                        "metric": {"n_mc": 100, "grid_points": 65},
                        "seeds": {"weights": 7, "sobol": 3, "mc": 11},
                        "out_dir": str(out_dir),
                    }
                )
            )
            assert run(load_config(config_path), echo=lambda *_: None) == 0
            results.append((out_dir / "results.csv").read_text().splitlines())
        mismatches = []
        for line_a, line_b in zip(*results):
            cells_a, cells_b = line_a.split(","), line_b.split(",")
            for name, a, b in zip(
                ("experiment", "method", "N", "P", "M_plus_1", "rel_error", "numerator",
                 "denominator", "train_seconds", "epochs", "final_risk", "final_validation",
                 "seed_weights", "seed_sobol", "seed_mc"),
                cells_a,
                cells_b,
            ):
                if name == "train_seconds":
                    continue  # wall clock cannot repeat bitwise
                if a != b:
                    mismatches.append(name)
        assert not mismatches
        report("10 (determinism)", "two full runs identical in every numeric field except wall-clock time")
