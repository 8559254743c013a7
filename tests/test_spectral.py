"""Basis construction, quadrature and triple-product tensor."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgnet import spectral, workers
from sgnet.spectral import (
    GalerkinTensor,
    PolyFamily,
    _univariate_triple_table,
    basis_dim,
    basis_matrix,
    enumerate_indices,
    galerkin_nbytes,
    galerkin_tensor,
    gauss_rule,
    kink_split_normal_rule,
    load_tensor,
    save_tensor,
    tensor_gauss_rule,
    total_degree_basis,
    univariate_table,
)

from oracles import (
    candidate_filter_tensor,
    eval_tensor_poly,
    graded_lex_less,
    hermite_triple_analytic,
    norm_cdf,
    norm_pdf,
    orthonormal_hermite,
    trapezoid_normal_projection,
)


class TestUnivariate:
    def test_degree_zero_is_one(self):
        assert univariate_table(PolyFamily.HERMITE, 0, 3.7)[0, 0] == 1.0
        assert univariate_table(PolyFamily.LEGENDRE, 0, -0.2)[0, 0] == 1.0

    def test_hermite_degree_two(self):
        # h_2(y) = (y^2 - 1) / sqrt(2), unrolled from the recurrence.
        assert univariate_table(PolyFamily.HERMITE, 2, 0.0)[0, 2] == pytest.approx(
            -1.0 / math.sqrt(2.0), abs=1e-15
        )
        y = np.linspace(-3, 3, 11)
        np.testing.assert_allclose(
            univariate_table(PolyFamily.HERMITE, 2, y)[:, 2], (y**2 - 1) / math.sqrt(2), atol=1e-14
        )

    def test_hermite_matches_monomial_expansion(self):
        y = np.linspace(-4.0, 4.0, 41)
        table = univariate_table(PolyFamily.HERMITE, 11, y)
        for k in range(12):
            np.testing.assert_allclose(
                table[:, k],
                orthonormal_hermite(k, y),
                rtol=1e-12,
                atol=1e-12,
            )

    def test_legendre_degree_one(self):
        assert univariate_table(PolyFamily.LEGENDRE, 1, 0.5)[0, 1] == pytest.approx(
            math.sqrt(3.0) * 0.5, abs=1e-15
        )

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            univariate_table(PolyFamily.HERMITE, -1, 0.0)


class TestIndices:
    def test_two_two_ordering(self):
        assert enumerate_indices(2, 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    def test_single_dimension_is_degree_order(self):
        assert enumerate_indices(1, 3) == [(0,), (1,), (2,), (3,)]

    def test_three_seven_has_120_entries(self):
        assert len(enumerate_indices(3, 7)) == 120

    def test_dimension_formula(self):
        for n in range(1, 7):
            for p in range(0, 11):
                assert len(enumerate_indices(n, p)) == basis_dim(n, p)

    def test_oversized_basis_rejected(self):
        with pytest.raises(ValueError):
            enumerate_indices(30, 30)
        with pytest.raises(ValueError):
            enumerate_indices(0, 3)

    def test_enumeration_is_sorted_and_unique(self):
        indices = enumerate_indices(3, 5)
        assert len(set(indices)) == len(indices)
        for a, b in zip(indices[:-1], indices[1:]):
            assert graded_lex_less(a, b)


class TestGradedLexOrder:
    def test_examples(self):
        assert graded_lex_less((0, 1), (1, 0))
        assert not graded_lex_less((1, 1), (1, 1))
        assert graded_lex_less((0, 2), (1, 1))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            graded_lex_less((0, 1), (0, 1, 2))

    @given(
        st.lists(st.tuples(*[st.integers(0, 6)] * 3), min_size=2, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_strict_total_order(self, indices):
        a, b = indices[0], indices[1]
        c = indices[-1]
        # Totality and antisymmetry on distinct elements.
        if a != b:
            assert graded_lex_less(a, b) != graded_lex_less(b, a)
        else:
            assert not graded_lex_less(a, b)
        # Transitivity.
        if graded_lex_less(a, b) and graded_lex_less(b, c):
            assert graded_lex_less(a, c)


class TestTensorPoly:
    def test_constant_polynomial(self):
        basis = total_degree_basis(2, 2, PolyFamily.HERMITE)
        assert eval_tensor_poly(basis, 0, (1.3, -0.2)) == 1.0

    def test_mixed_degree_one(self):
        basis = total_degree_basis(2, 2, PolyFamily.HERMITE)
        # Index 4 is (1, 1) and h_1(y) = y.
        assert basis.indices[4] == (1, 1)
        assert eval_tensor_poly(basis, 4, (1.0, 1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_legendre_degree_two(self):
        basis = total_degree_basis(1, 2, PolyFamily.LEGENDRE)
        assert eval_tensor_poly(basis, 2, (0.0,)) == pytest.approx(
            -math.sqrt(5.0) / 2.0, abs=1e-14
        )

    def test_out_of_range_index(self):
        basis = total_degree_basis(1, 2, PolyFamily.LEGENDRE)
        with pytest.raises(IndexError):
            eval_tensor_poly(basis, 3, (0.0,))

    def test_basis_matrix_agrees_pointwise(self):
        basis = total_degree_basis(2, 3, PolyFamily.LEGENDRE)
        rng = np.random.default_rng(7)
        samples = rng.uniform(-1, 1, size=(20, 2))
        matrix = basis_matrix(basis, samples)
        for m in range(5):
            for k in range(basis.size):
                assert matrix[m, k] == pytest.approx(
                    eval_tensor_poly(basis, k, samples[m]), rel=1e-13, abs=1e-13
                )

    @pytest.mark.parametrize("family, n_dims", [(PolyFamily.LEGENDRE, 6), (PolyFamily.HERMITE, 1)])
    def test_basis_matrix_is_the_product_of_univariate_tables(self, family, n_dims):
        # The values are bit for bit the product of the gathered univariate
        # tables, starting from ones and multiplied in dimension order.
        basis = total_degree_basis(n_dims, 4, family)
        samples = np.random.default_rng(n_dims).uniform(-1, 1, size=(33, n_dims))
        expected = np.ones((33, basis.size))
        for dim in range(n_dims):
            expected *= univariate_table(family, 4, samples[:, dim])[:, basis.index_array[:, dim]]
        np.testing.assert_array_equal(basis_matrix(basis, samples), expected)


class TestGaussRule:
    def test_single_node_is_the_mean(self):
        rule = gauss_rule(PolyFamily.HERMITE, 1)
        assert rule.nodes[0] == 0.0 and rule.weights[0] == 1.0

    def test_two_point_legendre(self):
        rule = gauss_rule(PolyFamily.LEGENDRE, 2)
        np.testing.assert_allclose(np.sort(rule.nodes), [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
        np.testing.assert_allclose(rule.weights, [0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 20])
    def test_second_moment(self, n):
        rule = gauss_rule(PolyFamily.HERMITE, n)
        assert rule.integrate(rule.nodes**2) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("family", [PolyFamily.HERMITE, PolyFamily.LEGENDRE])
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_weights_sum_to_one(self, family, n):
        rule = gauss_rule(family, n)
        assert abs(rule.weights.sum() - 1.0) < 1e-14

    @pytest.mark.parametrize("family", [PolyFamily.HERMITE, PolyFamily.LEGENDRE])
    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_orthonormality_within_exactness_degree(self, family, n):
        rule = gauss_rule(family, n)
        table = univariate_table(family, 2 * n - 1, rule.nodes)
        for a in range(2 * n):
            for b in range(a, 2 * n):
                if a + b > 2 * n - 1:
                    continue
                value = rule.integrate(table[:, a] * table[:, b])
                assert value == pytest.approx(1.0 if a == b else 0.0, abs=1e-12)

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            gauss_rule(PolyFamily.HERMITE, 0)


class TestGramIdentity:
    @pytest.mark.parametrize("family", [PolyFamily.HERMITE, PolyFamily.LEGENDRE])
    @pytest.mark.parametrize("n_dims,max_degree", [(1, 10), (2, 6), (3, 10)])
    def test_gram_matrix_is_identity(self, family, n_dims, max_degree):
        basis = total_degree_basis(n_dims, max_degree, family)
        points, weights = tensor_gauss_rule(basis, max_degree + 2)
        matrix = basis_matrix(basis, points)
        gram = (matrix * weights[:, None]).T @ matrix
        np.testing.assert_allclose(gram, np.eye(basis.size), atol=1e-10)


class TestGalerkinTensor:
    def test_zero_slice_is_identity(self):
        basis = total_degree_basis(1, 5, PolyFamily.HERMITE)
        tensor = galerkin_tensor(basis)
        np.testing.assert_array_equal(tensor.values[0], np.eye(6))
        assert tensor.values[0, 3, 3] == 1.0

    def test_hermite_examples(self):
        basis = total_degree_basis(1, 3, PolyFamily.HERMITE)
        tensor = galerkin_tensor(basis)
        assert tensor.values[1, 1, 2] == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert tensor.values[1, 1, 1] == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("max_degree", [5, 10, 15])
    def test_matches_analytic_linearization(self, max_degree):
        basis = total_degree_basis(1, max_degree, PolyFamily.HERMITE)
        tensor = galerkin_tensor(basis)
        oracle = np.empty_like(tensor.values)
        for i in range(basis.size):
            for j in range(basis.size):
                for k in range(basis.size):
                    oracle[i, j, k] = hermite_triple_analytic(i, j, k)
        # Exact-zero entries need an absolute floor for the comparison.
        np.testing.assert_allclose(tensor.values, oracle, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize(
        "family,n_dims,max_degree",
        [(PolyFamily.HERMITE, 2, 3), (PolyFamily.LEGENDRE, 2, 2), (PolyFamily.HERMITE, 3, 2)],
    )
    def test_permutation_symmetry_is_bitwise(self, family, n_dims, max_degree):
        tensor = galerkin_tensor(total_degree_basis(n_dims, max_degree, family))
        v = tensor.values
        for perm in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
            np.testing.assert_array_equal(v, np.transpose(v, perm))

    def test_multidimensional_factorization(self):
        # For the tensor basis, entries factorize over dimensions; check a few
        # against explicit quadrature over the product measure.
        basis = total_degree_basis(2, 2, PolyFamily.HERMITE)
        tensor = galerkin_tensor(basis)
        points, weights = tensor_gauss_rule(basis, 8)
        matrix = basis_matrix(basis, points)
        rng = np.random.default_rng(0)
        for _ in range(10):
            i, j, k = rng.integers(0, basis.size, size=3)
            direct = float(np.sum(weights * matrix[:, i] * matrix[:, j] * matrix[:, k]))
            assert tensor.values[i, j, k] == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("family", [PolyFamily.HERMITE, PolyFamily.LEGENDRE])
    def test_triangle_violating_factors_are_exact_zeros(self, family):
        table = _univariate_triple_table(family, 10)
        for a, b, c in itertools.product(range(11), repeat=3):
            if (a + b + c) % 2 == 0 and not abs(a - b) <= c <= a + b:
                assert table[a, b, c] == 0.0, (a, b, c)

    @pytest.mark.parametrize(
        "families, max_degree",
        [
            ((PolyFamily.HERMITE,), 10),
            ((PolyFamily.LEGENDRE,) * 3, 3),
            ((PolyFamily.LEGENDRE,) * 2, 4),
            ((PolyFamily.HERMITE,) * 6, 4),
        ],
    )
    def test_entries_are_dimension_ordered_products(self, families, max_degree):
        # Every entry, zero or not, equals bitwise the product of the univariate
        # factors taken in dimension order, so the stored nonzeros are exactly
        # the structural ones (30,562 at N=6, P=4).
        basis = total_degree_basis(len(families), max_degree, families[0])
        expected = np.ones((basis.size,) * 3)
        for dim, family in enumerate(families):
            table = _univariate_triple_table(family, max_degree)
            deg = basis.index_array[:, dim]
            expected *= table[deg[:, None, None], deg[None, :, None], deg[None, None, :]]
        tensor = galerkin_tensor(basis)
        np.testing.assert_array_equal(tensor.values, expected)
        assert tensor.g.size == np.count_nonzero(expected)

    def test_high_dimensional_build_stores_only_nonzeros(self):
        # N=10, P=4 (K=1001): the dense cube would need 8 GB.
        basis = total_degree_basis(10, 4, PolyFamily.HERMITE)
        tensor = galerkin_tensor(basis)
        deg = basis.index_array
        size = basis.size

        def analytic(i, j, k):
            return math.prod(hermite_triple_analytic(*map(int, t)) for t in zip(deg[i], deg[j], deg[k]))

        i, j, k, g = tensor.triples()
        rng = np.random.default_rng(0)
        for n in rng.choice(g.size, 200, replace=False):
            assert g[n] == pytest.approx(analytic(i[n], j[n], k[n]), rel=1e-12)
        stored = set(((i.astype(np.int64) * size + j) * size + k).tolist())
        zeros = 0
        while zeros < 200:
            a, b, c = (int(v) for v in rng.integers(0, size, 3))
            if analytic(a, b, c) == 0.0:
                assert (a * size + b) * size + c not in stored
                zeros += 1
        stored_bytes = sum(v.nbytes for v in (tensor.pair_i, tensor.pair_j, tensor.indptr, tensor.k, tensor.g))
        assert stored_bytes < 32e6

    @pytest.mark.parametrize(
        "n_dims,max_degree", [(1, 0), (1, 10), (2, 6), (3, 7), (5, 2), (6, 4), (8, 1), (10, 4), (6, 6), (4, 8)]
    )
    def test_stored_bytes_are_counted_without_building(self, n_dims, max_degree):
        tensor = galerkin_tensor(total_degree_basis(n_dims, max_degree, PolyFamily.HERMITE))
        stored = sum(v.nbytes for v in (tensor.pair_i, tensor.pair_j, tensor.indptr, tensor.k, tensor.g))
        assert galerkin_nbytes(n_dims, max_degree, 64)[0] == stored

    @pytest.mark.parametrize(
        "n_dims,max_degree,family",
        [
            (1, 10, PolyFamily.HERMITE),
            (8, 1, PolyFamily.LEGENDRE),
            (2, 5, PolyFamily.LEGENDRE),
            (3, 7, PolyFamily.HERMITE),
            (6, 4, PolyFamily.HERMITE),
            (4, 8, PolyFamily.LEGENDRE),
            (70, 1, PolyFamily.LEGENDRE),
        ],
    )
    def test_stored_layout_matches_candidate_filter(self, n_dims, max_degree, family):
        # The dense view cannot see the order of the entries within a pair,
        # which the CSR row sums of coupling_matrices follow; compare the
        # stored arrays themselves, dtypes included.  At N=70, P=1 a
        # mixed-radix int64 key of the multi-indices would overflow.
        basis = total_degree_basis(n_dims, max_degree, family)
        tensor = galerkin_tensor(basis)
        oracle = candidate_filter_tensor(basis.index_array, max_degree, _univariate_triple_table(family, max_degree))
        for name, expected in zip(("pair_i", "pair_j", "indptr", "k", "g"), oracle):
            stored = getattr(tensor, name)
            assert stored.dtype == expected.dtype, name
            assert stored.shape == expected.shape, name
            assert stored.tobytes() == expected.tobytes(), name

    def test_build_memory_is_bounded(self):
        # N=10, P=4 (K=1001) and N=4, P=8 (K=495): 12.6 and 13.9 MB of stored
        # arrays.  All (i, j, t, dim) candidates at once would take 2.6 GB at
        # N=10, P=4; the builder's blocks of rows, cut into runs of pairs by
        # their candidate counts, keep its transients (measured 2.6x and 3.0x
        # the stored bytes; 9.4x at N=4, P=8 with blocks of rows alone) inside 4x.
        for n_dims, max_degree, stored_mb in ((10, 4, 12.6), (4, 8, 13.9)):
            basis = total_degree_basis(n_dims, max_degree, PolyFamily.HERMITE)
            tracemalloc.start()
            try:
                tensor = galerkin_tensor(basis)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            stored = sum(v.nbytes for v in (tensor.pair_i, tensor.pair_j, tensor.indptr, tensor.k, tensor.g))
            assert abs(stored / 1e6 - stored_mb) < 0.1
            assert peak < 4 * stored

    def test_unsorted_triples_are_refused(self):
        # Shuffled triples would split pairs into repeated rows, and
        # coupling_matrices would keep only the last of them.
        i, j, k, g = galerkin_tensor(total_degree_basis(2, 2, PolyFamily.HERMITE)).triples()
        order = np.random.default_rng(0).permutation(g.size)
        with pytest.raises(ValueError, match="sorted"):
            GalerkinTensor.from_triples(6, i[order], j[order], k[order], g[order])
        rebuilt = GalerkinTensor.from_triples(6, i, j, k, g)
        assert rebuilt.pair_i.size == 30

    def test_dense_view_is_refused_beyond_physical_memory(self):
        tensor = GalerkinTensor.from_triples(2**20, [0], [0], [0], [1.0])
        assert tensor.contract(np.ones((1, 2**20)), np.ones((1, 2**20)))[0, 0] == 1.0
        with pytest.raises(ValueError, match="physical memory"):
            tensor.values

    def test_round_trip_dump(self, tmp_path):
        basis = total_degree_basis(2, 2, PolyFamily.LEGENDRE)
        tensor = galerkin_tensor(basis)
        path = tmp_path / "g.bin"
        save_tensor(tensor, PolyFamily.LEGENDRE, path)
        loaded, family = load_tensor(path)
        assert family is PolyFamily.LEGENDRE
        np.testing.assert_array_equal(loaded.values, tensor.values)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(ValueError):
            load_tensor(path)


class TestContraction:
    """The contraction by point ranges, on one or two workers: the one-pass sum, bit for bit."""

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("range_points", [1, 5, 37])
    def test_ranges_are_invisible(self, monkeypatch, n_workers, range_points):
        tensor = galerkin_tensor(total_degree_basis(3, 3, PolyFamily.HERMITE))
        rng = np.random.default_rng(range_points)
        coeff, u = rng.normal(size=(2, 37, tensor.dim))
        products = np.ascontiguousarray(coeff.T)[tensor.pair_i] * np.ascontiguousarray(u.T)[tensor.pair_j]
        one_pass = (tensor._by_pair.T @ products).T
        monkeypatch.setattr(workers, "count", lambda: n_workers)
        monkeypatch.setattr(spectral, "_RANGE_BYTES", 8 * tensor.pair_i.size * range_points)
        np.testing.assert_array_equal(tensor.contract(coeff, u), one_pass)
        dense = np.einsum("ijk,ni,nj->nk", tensor.values, coeff, u)
        np.testing.assert_allclose(tensor.contract(coeff, u), dense, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_product_buffers_are_counted(self, monkeypatch, n_workers):
        # N=6, P=4 at 256 points: 20,650 pairs, in ranges of 50 points.
        monkeypatch.setattr(workers, "count", lambda: n_workers)
        tensor = galerkin_tensor(total_degree_basis(6, 4, PolyFamily.HERMITE))
        coeff, u = np.random.default_rng(0).normal(size=(2, 256, tensor.dim))
        products = galerkin_nbytes(6, 4, 256)[1]
        width = spectral._range_points(tensor.pair_i.size, 256)
        assert products == 8 * 2 * n_workers * tensor.pair_i.size * width
        tracemalloc.start()
        try:
            out = tensor.contract(coeff, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Beside the buffers: the two transposed inputs, the output and one range's sparse product per worker.
        assert products < peak <= products + 3 * out.nbytes + n_workers * 8 * tensor.dim * width + 65536


class TestProjection:
    """Spectral coefficients <g, h_k> integrated by a rule, with the oracle's Hermite values."""

    @staticmethod
    def project(g, k, rule):
        return rule.integrate(g(rule.nodes) * orthonormal_hermite(k, rule.nodes))

    def test_projects_linear_function_exactly(self):
        rule = gauss_rule(PolyFamily.HERMITE, 8)
        assert self.project(lambda y: y, 1, rule) == pytest.approx(1.0, abs=1e-14)

    def test_kink_integrand_against_closed_forms(self):
        rule = kink_split_normal_rule(kinks=(1.0,))
        f0 = self.project(lambda y: np.abs(y - 1.0), 0, rule)
        f1 = self.project(lambda y: np.abs(y - 1.0), 1, rule)
        assert f0 == pytest.approx(2.0 * norm_pdf(1.0) + 2.0 * norm_cdf(1.0) - 1.0, abs=1e-12)
        assert f0 == pytest.approx(1.16663, abs=5e-6)
        assert f1 == pytest.approx(2.0 * norm_cdf(-1.0) - 1.0, abs=1e-12)
        assert f1 == pytest.approx(-0.68269, abs=5e-6)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 7])
    def test_kink_integrand_against_trapezoid_oracle(self, k):
        rule = kink_split_normal_rule(kinks=(1.0,))
        value = self.project(lambda y: np.abs(y - 1.0), k, rule)
        oracle = trapezoid_normal_projection(lambda y: np.abs(y - 1.0), k)
        assert value == pytest.approx(oracle, abs=2e-9)
