"""Random-field models: coefficients, gradients, samplers and the KL eigensystem."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sgnet.fields import (
    KL_RATIO,
    SpectralField,
    exp1_forcing_coeffs,
    exp2_diffusion_coeffs,
    exp3_diffusion_coeff,
    exp3_diffusion_grad,
    draw_samples,
    field_model,
    kl_eigenpair,
    kl_sigma,
    pathwise_sampler,
)
from sgnet.spectral import PolyFamily, basis_matrix, total_degree_basis

from oracles import (
    central_diff,
    lognormal_factor_closed,
    norm_cdf,
    norm_pdf,
    physicist_hermite,
    trapezoid_normal_projection,
)


class TestKLEigensystem:
    def test_leading_eigenvalue_and_eigenfunction(self):
        pair = kl_eigenpair(0)
        assert pair.eigenvalue == pytest.approx(0.618034, abs=1e-6)
        assert pair.eigenvalue == pytest.approx(math.sqrt(2.0 / (3.0 + math.sqrt(5.0))), rel=1e-15)
        assert float(pair.phi(0.0)) == pytest.approx(5.0**0.125, rel=1e-14)
        assert float(pair.phi(0.0)) == pytest.approx(1.222845, abs=1e-6)

    def test_second_eigenvalue(self):
        assert kl_eigenpair(1).eigenvalue == pytest.approx(0.236068, abs=1e-6)

    def test_geometric_decay(self):
        for k in range(0, 12):
            ratio = kl_eigenpair(k + 1).eigenvalue / kl_eigenpair(k).eigenvalue
            assert ratio == pytest.approx(KL_RATIO, rel=1e-13)
        assert KL_RATIO == pytest.approx(0.381966, abs=1e-6)

    def test_index_cap(self):
        kl_eigenpair(60)
        with pytest.raises(ValueError):
            kl_eigenpair(61)
        with pytest.raises(ValueError):
            kl_eigenpair(-1)

    @pytest.mark.parametrize("k", [0, 1, 2, 5, 9])
    def test_eigenfunction_matches_direct_formula(self, k):
        # Direct evaluation with explicit 2^k k! normalization and the naive
        # physicist's Hermite recurrence.
        x = np.linspace(0.0, 1.0, 11)
        z = math.sqrt(math.sqrt(5.0) / 2.0) * x
        direct = (
            5.0**0.125
            / math.sqrt(2.0**k * math.factorial(k))
            * np.exp(-(math.sqrt(5.0) - 1.0) / 4.0 * x * x)
            * physicist_hermite(k, z)
        )
        np.testing.assert_allclose(kl_eigenpair(k).phi(x), direct, rtol=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 3, 8])
    def test_eigenfunction_derivative_matches_fd(self, k):
        pair = kl_eigenpair(k)
        for x in (0.12, 0.5, 0.83):
            fd = central_diff(lambda t: float(pair.phi(t)), x)
            assert float(pair.dphi(x)) == pytest.approx(fd, rel=1e-8, abs=1e-10)

    def test_large_index_does_not_overflow(self):
        pair = kl_eigenpair(60)
        values = pair.phi(np.linspace(0, 1, 5))
        assert np.all(np.isfinite(values))


class TestExp1Forcing:
    def test_leading_coefficients_closed_form(self):
        f = exp1_forcing_coeffs(1)
        assert f[0] == pytest.approx(2 * norm_pdf(1.0) + 2 * norm_cdf(1.0) - 1.0, abs=1e-12)
        assert f[1] == pytest.approx(2 * norm_cdf(-1.0) - 1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5, 10])
    def test_matches_trapezoid_oracle(self, k):
        f = exp1_forcing_coeffs(10)
        oracle = trapezoid_normal_projection(lambda y: np.abs(y - 1.0), k)
        assert f[k] == pytest.approx(oracle, abs=2e-9)

    def test_parseval_partial_sums(self):
        # sum f_k^2 <= E|Y - 1|^2 = 2, monotone in the truncation degree.
        f = exp1_forcing_coeffs(40)
        partial = np.cumsum(f * f)
        assert np.all(np.diff(partial) >= 0.0)
        assert partial[-1] <= 2.0
        assert partial[-1] == pytest.approx(2.0, abs=5e-4)

    def test_tail_envelope(self):
        f = exp1_forcing_coeffs(30)
        assert np.all(np.abs(f[6:]) < abs(f[2]))


class TestExp2Coefficients:
    def test_mean_coefficient_at_center(self):
        values, _ = exp2_diffusion_coeffs(1, np.array([[0.5, 0.5]]))
        assert values[0, 0] == pytest.approx(3.0 - 0.0625 - 0.5, abs=1e-14)

    def test_reconstruction_is_exact(self):
        # Degree-one fields are fully resolved at P = 1, so the spectral
        # reconstruction must reproduce the closed form pointwise.
        rng = np.random.default_rng(3)
        for n_vars in (1, 2, 4):
            model = field_model("exp2", n_vars)
            basis = total_degree_basis(n_vars, 1, PolyFamily.LEGENDRE)
            x = rng.uniform(0, 1, size=(100, 2))
            y = rng.uniform(-1, 1, size=(100, n_vars))
            values, _ = exp2_diffusion_coeffs(n_vars, x)
            p = basis_matrix(basis, y)
            recon = np.einsum("mk,mk->m", p, values)
            direct = np.array(
                [pathwise_sampler(model, x[m : m + 1])(y[m])[0][0] for m in range(100)]
            )
            np.testing.assert_allclose(recon, direct, rtol=1e-12, atol=1e-12)

    def test_monte_carlo_projection_oracle(self):
        # <a(., x), p_k> estimated by plain Monte Carlo matches the stored
        # coefficients within three standard errors.
        n_vars = 3
        model = field_model("exp2", n_vars)
        basis = total_degree_basis(n_vars, 1, PolyFamily.LEGENDRE)
        rng = np.random.default_rng(11)
        n_mc = 100_000
        y = rng.uniform(-1, 1, size=(n_mc, n_vars))
        p = basis_matrix(basis, y)
        for x in (np.array([0.3, 0.7]), np.array([0.5, 0.5])):
            values, _ = exp2_diffusion_coeffs(n_vars, x[None, :])
            a = sample_pathwise_batch(model, y, x)
            estimates = (p * a[:, None]).mean(axis=0)
            errors = (p * a[:, None]).std(axis=0, ddof=1) / math.sqrt(n_mc)
            assert np.all(np.abs(estimates - values[0]) < 3.0 * errors + 1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        model = field_model("exp2", 6)
        y = rng.uniform(-1, 1, size=(100_000, 6))
        x = rng.uniform(0, 1, size=(100_000, 2))
        a = np.empty(100_000)
        for start in range(0, 100_000, 10_000):
            sl = slice(start, start + 10_000)
            # evaluate one point per sample
            diag = np.array(
                [
                    pathwise_sampler(model, x[m : m + 1])(y[m])[0][0]
                    for m in range(start, start + 10_000)
                ]
            )
            a[sl] = diag
        assert a.min() >= 0.65 - 1e-12
        assert a.max() <= 3.0 + 1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        n_vars = 3
        step = 1e-5
        for _ in range(5):
            x = rng.uniform(0.05, 0.95, size=2)
            _, grads = exp2_diffusion_coeffs(n_vars, x[None, :])
            for axis in range(2):
                forward = x.copy()
                backward = x.copy()
                forward[axis] += step
                backward[axis] -= step
                vf, _ = exp2_diffusion_coeffs(n_vars, forward[None, :])
                vb, _ = exp2_diffusion_coeffs(n_vars, backward[None, :])
                fd = (vf[0] - vb[0]) / (2 * step)
                scale = np.maximum(np.abs(fd), 1e-8)
                assert np.all(np.abs(grads[0, :, axis] - fd) / scale < 1e-6)

    def test_domain_check(self):
        with pytest.raises(ValueError):
            exp2_diffusion_coeffs(2, np.array([[1.2, 0.5]]))


def sample_pathwise_batch(model, samples, x_point):
    """Pathwise field values at one spatial point for a batch of realizations."""
    sampler = pathwise_sampler(model, x_point[None, :])
    out = np.empty(samples.shape[0])
    for m in range(samples.shape[0]):
        out[m] = sampler(samples[m])[0][0]
    return out


class TestExp3Coefficients:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 10])
    @pytest.mark.parametrize("sigma", [0.1, 0.9, 1.7, 3.0])
    def test_factor_matches_closed_form(self, sigma, n):
        # Factor against E[e^{sigma Y} h_n(Y)] = e^{sigma^2/2} sigma^n / sqrt(n!), to a pure
        # relative bound: the small-sigma, high-degree factors are far below approx's default abs.
        from sgnet.fields import _exponential_factor_table

        table = _exponential_factor_table(np.array([sigma]), n)
        assert table[0, n] == pytest.approx(lognormal_factor_closed(sigma, n), rel=1e-10, abs=0)

    def test_zero_amplitude_gives_unit_mass(self):
        from sgnet.fields import _exponential_factor_table

        table = _exponential_factor_table(np.array([0.0]), 3)
        assert table[0, 0] == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(table[0, 1:], 0.0, atol=1e-14)

    def test_zero_index_coefficient(self):
        # a_0(x) = prod_i exp(sigma_i(x)^2 / 2) for the all-zero multi-index.
        n_vars = 2
        x = np.array([0.3, 0.6])
        sigma = kl_sigma(x, n_vars)
        expected = np.exp(0.5 * (sigma * sigma).sum(axis=1))
        values = exp3_diffusion_coeff((0, 0), x, n_vars)
        np.testing.assert_allclose(values, expected, rtol=1e-10)

    @pytest.mark.parametrize("nu", [(0, 0), (1, 0), (2, 1), (0, 3)])
    def test_gradient_matches_finite_differences(self, nu):
        n_vars = 2
        for x in (0.21, 0.47, 0.88):
            grad = exp3_diffusion_grad(nu, x, n_vars)
            fd = central_diff(lambda t: float(exp3_diffusion_coeff(nu, t, n_vars)), x)
            assert grad == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_monte_carlo_projection_oracle(self):
        n_vars = 2
        model = field_model("exp3", n_vars)
        basis = total_degree_basis(n_vars, 2, PolyFamily.HERMITE)
        field = SpectralField(model, basis)
        rng = np.random.default_rng(17)
        n_mc = 200_000
        y = rng.standard_normal((n_mc, n_vars))
        p = basis_matrix(basis, y)
        for x in (np.array([0.25]), np.array([0.75])):
            coeffs = field.coeff_values(x[None, :])[0]
            a = np.exp(kl_sigma(x, n_vars)[0] @ y.T)
            estimates = (p * a[:, None]).mean(axis=0)
            errors = (p * a[:, None]).std(axis=0, ddof=1) / math.sqrt(n_mc)
            assert np.all(np.abs(estimates - coeffs) < 3.0 * errors + 1e-12)

    def test_positivity_of_paths(self):
        model = field_model("exp3", 3)
        rng = np.random.default_rng(23)
        y = rng.standard_normal((1000, 3)) * 3.0
        x = rng.uniform(0, 1, size=(50, 1))
        for m in range(0, 1000, 100):
            a, _ = pathwise_sampler(model, x)(y[m])
            assert np.all(a > 0.0)


class TestWeightedExpansion:
    def test_weighted_forcing_monte_carlo(self):
        # f / a_min = exp(c ||y||_1); its Hermite coefficients factorize and
        # must match a Monte Carlo projection.
        n_vars = 2
        model = field_model("exp3", n_vars)
        basis = total_degree_basis(n_vars, 2, PolyFamily.HERMITE)
        field = SpectralField(model, basis, "a_min_inv")
        pair = kl_eigenpair(0)
        c = math.sqrt(pair.eigenvalue) * float(pair.phi(0.0))
        rng = np.random.default_rng(29)
        n_mc = 400_000
        y = rng.standard_normal((n_mc, n_vars))
        p = basis_matrix(basis, y)
        weight = np.exp(c * np.abs(y).sum(axis=1))
        estimates = (p * weight[:, None]).mean(axis=0)
        errors = (p * weight[:, None]).std(axis=0, ddof=1) / math.sqrt(n_mc)
        stored = field.forcing_values(np.array([[0.4]]))[0]
        assert np.all(np.abs(estimates - stored) < 3.0 * errors + 1e-10)

    def test_weighted_diffusion_against_trapezoid_oracle(self):
        # The Monte Carlo projection of exp(sigma y + c |y|) h_n is too
        # heavy-tailed for tight sample bounds, so each univariate factor and
        # the assembled products are checked against a dense trapezoid rule.
        n_vars = 2
        model = field_model("exp3", n_vars)
        basis = total_degree_basis(n_vars, 2, PolyFamily.HERMITE)
        field = SpectralField(model, basis, "a_min_inv")
        pair = kl_eigenpair(0)
        c = math.sqrt(pair.eigenvalue) * float(pair.phi(0.0))
        x = np.array([0.6])
        sigma = kl_sigma(x, n_vars)[0]

        def factor_oracle(s, n):
            y = np.linspace(-14.0, 14.0, 2_000_001)
            density = np.exp(-0.5 * y * y) / math.sqrt(2 * math.pi)
            from oracles import orthonormal_hermite

            f = np.exp(s * y + c * np.abs(y)) * orthonormal_hermite(n, y) * density
            return float(np.trapezoid(f, y))

        tables = {
            (i, n): factor_oracle(sigma[i], n) for i in range(n_vars) for n in range(3)
        }
        stored = field.coeff_values(x[None, :])[0]
        for k, nu in enumerate(basis.indices):
            oracle = tables[(0, nu[0])] * tables[(1, nu[1])]
            assert stored[k] == pytest.approx(oracle, rel=1e-10)

    def test_weighting_requires_lognormal_model(self):
        model = field_model("exp2", 2)
        basis = total_degree_basis(2, 1, PolyFamily.LEGENDRE)
        with pytest.raises(ValueError):
            SpectralField(model, basis, "a_min_inv")


class TestPathwiseSampler:
    def test_exp1_trivials(self):
        model = field_model("exp1", 1)
        x = np.array([[0.3]])
        a, f = pathwise_sampler(model, x)(np.array([1.0]))
        assert a[0] == 1.0 and f[0] == 0.0

    def test_exp2_random_series_vanishes_at_minus_one(self):
        model = field_model("exp2", 4)
        x = np.array([[0.2, 0.9]])
        a, f = pathwise_sampler(model, x)(-np.ones(4))
        bubble = 0.2 * 0.9 * 0.8 * 0.1
        assert a[0] == pytest.approx(3.0 - bubble, abs=1e-14)
        assert f[0] == 1.0

    def test_exp3_zero_sample(self):
        model = field_model("exp3", 3)
        x = np.array([[0.5]])
        a, f = pathwise_sampler(model, x)(np.zeros(3))
        assert a[0] == 1.0 and f[0] == 1.0

    def test_measure_sampler_shapes_and_prefix(self):
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        full = draw_samples(PolyFamily.HERMITE, 2, 100, rng1)
        half = draw_samples(PolyFamily.HERMITE, 2, 50, rng2)
        np.testing.assert_array_equal(full[:50], half)
        uniform = draw_samples(PolyFamily.LEGENDRE, 3, 10, np.random.default_rng(0))
        assert uniform.shape == (10, 3)
        assert np.all((uniform >= -1) & (uniform <= 1))


class TestModelValidation:
    def test_exp1_requires_one_variable(self):
        with pytest.raises(ValueError):
            field_model("exp1", 2)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            field_model("exp9", 1)

    def test_exp2_requires_degree_one(self):
        model = field_model("exp2", 2)
        basis = total_degree_basis(2, 2, PolyFamily.LEGENDRE)
        with pytest.raises(ValueError):
            SpectralField(model, basis)

    def test_family_mismatch(self):
        model = field_model("exp3", 2)
        basis = total_degree_basis(2, 2, PolyFamily.LEGENDRE)
        with pytest.raises(ValueError):
            SpectralField(model, basis)

    def test_equal_fields_stay_equal_after_forcing_evaluation(self):
        # The forcing row is cached on first use; the cache is no field, so it
        # leaves equality and hashing as they were.
        model = field_model("exp3", 2)
        basis = total_degree_basis(2, 2, PolyFamily.HERMITE)
        field, other = SpectralField(model, basis), SpectralField(model, basis)
        before = hash(field)
        np.testing.assert_array_equal(field.forcing_values(np.array([[0.5]])), other.forcing_values(np.array([[0.2]])))
        assert field == other
        assert hash(field) == hash(other) == before


class TestSpectralFieldGradients:
    @pytest.mark.parametrize("kind, n_vars, degree", [("exp2", 4, 1), ("exp3", 3, 3)])
    def test_coeff_grads_match_finite_differences(self, kind, n_vars, degree):
        # The strong loss trains on these gradients; each is checked against
        # central differences of the coefficients themselves.
        model = field_model(kind, n_vars)
        field = SpectralField(model, total_degree_basis(n_vars, degree, model.family))
        x = np.random.default_rng(4).uniform(0.05, 0.95, size=(20, model.spatial_dim))
        step = 1e-5
        fd = np.stack(
            [
                (field.coeff_values(x + step * e) - field.coeff_values(x - step * e)) / (2 * step)
                for e in np.eye(model.spatial_dim)
            ],
            axis=-1,
        )
        grads = field.coeff_grads(x)
        assert grads.shape == fd.shape == (20, field.size, model.spatial_dim)
        assert np.abs(grads - fd).max() < 1e-8
