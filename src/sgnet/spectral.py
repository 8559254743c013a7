"""Orthonormal polynomial families, multi-index bases, Gauss rules and triple products.

Two univariate families are supported: probabilist's Hermite polynomials,
orthonormal with respect to the standard normal distribution, and Legendre
polynomials rescaled to be orthonormal with respect to the uniform
distribution on [-1, 1].  Multivariate bases are tensor products indexed by
multi-indices of bounded total degree in graded lexicographic order.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import csr_array

from . import workers

__all__ = [
    "PolyFamily",
    "QuadratureRule",
    "OrderedBasis",
    "GalerkinTensor",
    "basis_dim",
    "enumerate_indices",
    "univariate_table",
    "basis_matrix",
    "total_degree_basis",
    "gauss_rule",
    "tensor_gauss_rule",
    "kink_split_normal_rule",
    "galerkin_tensor",
    "galerkin_nbytes",
    "require_dense_fits",
    "save_tensor",
    "load_tensor",
]

# Hard cap on the number of basis polynomials a single basis may hold, which
# bounds the Python list of multi-indices.  The triple-product tensor stores
# only its structural nonzeros; the dense view of it is guarded separately by
# ``require_dense_fits``.
MAX_BASIS_SIZE = 200_000


class PolyFamily(Enum):
    """Univariate orthonormal family together with its probability measure."""

    HERMITE = "hermite"
    LEGENDRE = "legendre"


def basis_dim(n_dims: int, max_degree: int) -> int:
    """Number of multi-indices of length ``n_dims`` with total degree <= ``max_degree``."""
    if n_dims < 1 or max_degree < 0:
        raise ValueError(f"invalid basis shape: N={n_dims}, P={max_degree}")
    return math.comb(n_dims + max_degree, max_degree)


def enumerate_indices(n_dims: int, max_degree: int) -> list[tuple[int, ...]]:
    """All multi-indices with total degree <= ``max_degree`` in graded lex order."""
    size = basis_dim(n_dims, max_degree)
    if size > MAX_BASIS_SIZE:
        raise ValueError(
            f"basis with N={n_dims}, P={max_degree} has {size} elements, "
            f"exceeding the cap of {MAX_BASIS_SIZE}"
        )

    def compositions(total: int, slots: int) -> Iterable[tuple[int, ...]]:
        if slots == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in compositions(total - head, slots - 1):
                yield (head,) + tail

    out: list[tuple[int, ...]] = []
    for degree in range(max_degree + 1):
        out.extend(sorted(compositions(degree, n_dims)))
    return out


def _hermite_table(max_degree: int, y: np.ndarray) -> np.ndarray:
    """Orthonormal probabilist's Hermite values h_0..h_P at points ``y``."""
    table = np.empty((y.size, max_degree + 1))
    table[:, 0] = 1.0
    if max_degree >= 1:
        table[:, 1] = y
    for k in range(1, max_degree):
        table[:, k + 1] = (y * table[:, k] - math.sqrt(k) * table[:, k - 1]) / math.sqrt(k + 1)
    return table


def _legendre_table(max_degree: int, y: np.ndarray) -> np.ndarray:
    """Orthonormal Legendre values p_0..p_P at points ``y`` (uniform on [-1, 1])."""
    mono = np.empty((y.size, max_degree + 1))
    mono[:, 0] = 1.0
    if max_degree >= 1:
        mono[:, 1] = y
    for k in range(1, max_degree):
        mono[:, k + 1] = ((2 * k + 1) * y * mono[:, k] - k * mono[:, k - 1]) / (k + 1)
    return mono * np.sqrt(2.0 * np.arange(max_degree + 1) + 1.0)


def univariate_table(family: PolyFamily, max_degree: int, y: np.ndarray) -> np.ndarray:
    """Table of orthonormal polynomial values, shape ``(len(y), max_degree + 1)``."""
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if family is PolyFamily.HERMITE:
        return _hermite_table(max_degree, y)
    return _legendre_table(max_degree, y)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of a quadrature rule against a probability measure."""

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float:
        return float(self.weights @ values)


def gauss_rule(family: PolyFamily, n: int) -> QuadratureRule:
    """Gauss rule with ``n`` nodes for the family's probability measure.

    Built by the Golub-Welsch eigen-decomposition of the Jacobi matrix of the
    three-term recurrence; exact for polynomials of degree <= 2n - 1, with
    weights summing to one.
    """
    if n < 1:
        raise ValueError("node count must be positive")
    if n == 1:
        return QuadratureRule(np.zeros(1), np.ones(1))
    k = np.arange(1, n, dtype=float)
    if family is PolyFamily.HERMITE:
        offdiag = np.sqrt(k)
    else:
        offdiag = k / np.sqrt(4.0 * k * k - 1.0)
    try:
        nodes, vectors = eigh_tridiagonal(np.zeros(n), offdiag)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numerical breakdown
        raise RuntimeError(f"Jacobi eigen-solve failed for n={n}") from exc
    weights = vectors[0] ** 2
    return QuadratureRule(nodes, weights)


def _gauss_legendre_unit(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Plain Gauss-Legendre nodes on [-1, 1] with Lebesgue weights (sum 2)."""
    rule = gauss_rule(PolyFamily.LEGENDRE, n)
    return rule.nodes, 2.0 * rule.weights


# Truncation radius, panel width and Gauss nodes per panel of the kink-split normal rule.
_KINK_RADIUS = 12.0
_PANEL_WIDTH = 0.25
_PANEL_NODES = 24


def kink_split_normal_rule(kinks: Sequence[float] = ()) -> QuadratureRule:
    """Composite Gauss rule against the standard normal measure on [-12, 12].

    The interval is split at the given kink locations so that integrands that
    are only piecewise smooth (e.g. with an absolute value) are integrated
    panel by panel where they are analytic.  The normal tail beyond the
    truncation radius carries mass below 1e-30.
    """
    breaks = sorted({-_KINK_RADIUS, _KINK_RADIUS, *(float(c) for c in kinks if abs(c) < _KINK_RADIUS)})
    base_nodes, base_weights = _gauss_legendre_unit(_PANEL_NODES)
    nodes: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        n_panels = max(1, int(math.ceil((hi - lo) / _PANEL_WIDTH)))
        edges = np.linspace(lo, hi, n_panels + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            half = 0.5 * (b - a)
            nodes.append(half * base_nodes + 0.5 * (a + b))
            weights.append(half * base_weights)
    x = np.concatenate(nodes)
    w = np.concatenate(weights) * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return QuadratureRule(x, w)


@dataclass(frozen=True)
class OrderedBasis:
    """Truncated tensor-product basis of one family in graded lexicographic order.

    ``indices[k]`` is the multi-index of the k-th basis polynomial; the basis
    holds all (N + P)! / (N! P!) multi-indices of total degree at most P.
    """

    n_dims: int
    max_degree: int
    family: PolyFamily
    indices: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.indices) != basis_dim(self.n_dims, self.max_degree):
            raise ValueError("index list does not match the dimension formula")

    @property
    def size(self) -> int:
        """Number of basis polynomials, M + 1."""
        return len(self.indices)

    @cached_property
    def index_array(self) -> np.ndarray:
        """The multi-indices as a read-only (M + 1, N) int64 array, built once per basis."""
        array = np.asarray(self.indices, dtype=np.int64)
        array.flags.writeable = False
        return array


def total_degree_basis(n_dims: int, max_degree: int, family: PolyFamily) -> OrderedBasis:
    """Total-degree basis with the same family in every dimension."""
    return OrderedBasis(n_dims, max_degree, family, tuple(enumerate_indices(n_dims, max_degree)))


def basis_matrix(basis: OrderedBasis, samples: np.ndarray) -> np.ndarray:
    """Matrix of basis values, shape ``(n_samples, M + 1)``."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    if samples.shape[1] != basis.n_dims:
        raise ValueError(f"samples have {samples.shape[1]} coordinates, basis has {basis.n_dims}")
    index_array = basis.index_array
    out = np.ones((samples.shape[0], basis.size))
    gathered = np.empty_like(out)
    for dim in range(basis.n_dims):
        table = univariate_table(basis.family, basis.max_degree, samples[:, dim])
        # mode="clip" gathers straight into ``gathered``; the default mode buffers it.
        out *= np.take(table, index_array[:, dim], axis=1, out=gathered, mode="clip")
    return out


def tensor_gauss_rule(basis: OrderedBasis, nodes_per_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product Gauss rule over Gamma; returns points ``(n, N)`` and weights."""
    rule = gauss_rule(basis.family, nodes_per_dim)
    node_grids = np.meshgrid(*[rule.nodes] * basis.n_dims, indexing="ij")
    weights = np.ones(nodes_per_dim**basis.n_dims)
    for grid in np.meshgrid(*[rule.weights] * basis.n_dims, indexing="ij"):
        weights = weights * grid.ravel()
    return np.stack([g.ravel() for g in node_grids], axis=1), weights


# Bytes of one product buffer of :meth:`GalerkinTensor.contract`.  On a 2 MB-L2
# Xeon with two workers, 256 points at N=6, P=4 (20,650 pairs) took 9.8 ms with
# 8 MB (ranges of 50 points), 10.0 and 10.6 ms with 4 and 16 MB, 13.7 ms with
# 1 MB, and 25-29 ms with 32 and 64 MB, one range per worker (BENCH_12.json).
_RANGE_BYTES = 8 << 20


def _range_points(pairs: int, n_points: int) -> int:
    """Points per range of a contraction: as many as fit ``_RANGE_BYTES`` of products, and at least one."""
    return max(1, min(n_points, _RANGE_BYTES // (8 * pairs)))


def _tensor_counts(n_dims: int, max_degree: int) -> tuple[int, int]:
    """Stored pairs and nonzeros of :func:`galerkin_tensor` of a total-degree basis, in closed form.

    An admissible univariate degree triple (a, b, c) is (y + z, x + z, x + y)
    for exactly one x, y, z >= 0.  So the nonzeros are the triples of
    N-vectors (x, y, z) with |y| + |z|, |x| + |z| and |x| + |y| at most P,
    where c[m] = C(m + N - 1, N - 1) vectors have |.| = m.  A stored pair
    (i, j) is such a triple with k = |i - j| entrywise, that is with x and y
    of disjoint supports; inclusion-exclusion over the t entries where both
    are positive counts those.
    """
    P, N = max_degree, n_dims
    c = [math.comb(m + N - 1, N - 1) for m in range(P + 1)]
    S = list(itertools.accumulate(c))  # S[r]: vectors with |.| <= r

    def triples(Q: int, R: int) -> int:
        # Sum of c[x] c[y] S[R - max(x, y)] over x + y <= Q, grouped by m = max(x, y).
        return sum(
            S[R - m] * c[m] * (2 * (S[min(m - 1, Q - m)] if m > 0 else 0) + (c[m] if 2 * m <= Q else 0))
            for m in range(Q + 1)
        )

    pairs = sum((-1) ** t * math.comb(N, t) * triples(P - 2 * t, P - t) for t in range(min(N, P // 2) + 1))
    return pairs, triples(P, P)


def galerkin_nbytes(n_dims: int, max_degree: int, n_points: int) -> tuple[int, int]:
    """Bytes of the stored tensor of a total-degree basis, and of the product buffers of one contraction.

    The tensor stores three index words per pair (``pair_i``, ``pair_j``,
    ``indptr``) and two per nonzero (``k``, ``g``); a contraction of
    ``n_points`` points gives each of its workers two buffers of one range's
    products.  Both are counted without building the tensor.
    """
    pairs, nnz = _tensor_counts(n_dims, max_degree)
    width = _range_points(pairs, n_points)
    n_workers = len(workers.shares(n_points, width))
    return 8 * (3 * pairs + 1 + 2 * nnz), 8 * n_workers * 2 * pairs * width


def physical_memory() -> int:
    """Bytes of physical memory of the host."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_dense_fits(size: int) -> None:
    """Refuse a dense ``size**3`` float64 array that would exceed physical memory."""
    needed = 8 * size**3
    physical = physical_memory()
    if needed > physical:
        raise ValueError(
            f"a dense {size}^3 triple-product tensor needs {needed / 1e9:.3g} GB, "
            f"more than the {physical / 1e9:.3g} GB of physical memory"
        )


@dataclass(frozen=True)
class GalerkinTensor:
    """Structural nonzeros of the symmetric triple-product tensor G_ijk = <p_i p_j p_k>.

    ``pair_i[p], pair_j[p]`` are the index pairs (i, j) with a nonzero entry,
    in increasing order, and row p of the CSR arrays ``indptr``, ``k``, ``g``
    lists their entries G[pair_i[p], pair_j[p], k] = g.  Every ordered triple
    is stored, so the symmetry of G is in the data.
    """

    dim: int
    pair_i: np.ndarray
    pair_j: np.ndarray
    indptr: np.ndarray
    k: np.ndarray
    g: np.ndarray

    @classmethod
    def from_triples(cls, dim: int, i, j, k, g) -> "GalerkinTensor":
        """Tensor with the entries G[i, j, k] = g, each ordered triple given once.

        The triples must be sorted by (i, j), as ``np.nonzero`` lists them;
        unsorted triples are refused.
        """
        code = np.asarray(i, dtype=np.int64) * dim + j
        step = np.diff(code, prepend=-1)
        if (step < 0).any():
            raise ValueError("triples are not sorted by (i, j)")
        starts = np.flatnonzero(step)
        pair_code = code[starts]
        indptr = np.append(starts, code.size)
        return cls(dim, pair_code // dim, pair_code % dim, indptr, np.asarray(k), np.asarray(g, dtype=float))

    @cached_property
    def _by_pair(self) -> csr_array:
        # Built on first use; it shares the arrays above.
        return csr_array((self.g, self.k, self.indptr), shape=(self.pair_i.size, self.dim))

    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Coordinate form ``(i, j, k, g)`` of the stored entries, sorted by (i, j)."""
        counts = np.diff(self.indptr)
        return np.repeat(self.pair_i, counts), np.repeat(self.pair_j, counts), self.k, self.g

    def contract(self, coeff: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``out[n, k] = sum_ij G_ijk coeff[n, i] u[n, j]`` for arrays of shape (n, dim).

        Each worker (:mod:`sgnet.workers`) takes an even share of the points,
        in ranges of at most ``_RANGE_BYTES`` of products.  In each range the
        products coeff_i u_j are formed once per stored pair, in buffers of
        its worker, and summed into every k by one sparse matrix product,
        which sums each point's column on its own; so every entry is computed
        as in one pass over all points.
        """
        n, pairs = coeff.shape[0], self.pair_i.size
        width = _range_points(pairs, n)
        shares = workers.shares(n, width)
        coeff_t, u_t, by_pair_t = np.ascontiguousarray(coeff.T), np.ascontiguousarray(u.T), self._by_pair.T
        out = np.empty((self.dim, n))

        def products(worker: int) -> None:
            buffers = np.empty((2, pairs * width))
            for points in shares[worker]:
                a, b = (buf[: pairs * (points.stop - points.start)].reshape(pairs, -1) for buf in buffers)
                np.take(coeff_t[:, points], self.pair_i, axis=0, out=a, mode="clip")
                np.multiply(a, np.take(u_t[:, points], self.pair_j, axis=0, out=b, mode="clip"), out=a)
                out[:, points] = by_pair_t @ a

        workers.run(products, len(shares))
        return out.T

    def coupling_matrices(self, coeff: np.ndarray) -> np.ndarray:
        """``out[n, j, k] = sum_i coeff[n, i] G_ijk``, shape (n, dim, dim), from the nonzeros.

        G is symmetric, so the stored pair (j, k) with column i gives G_ijk.
        """
        out = np.zeros((coeff.shape[0], self.dim, self.dim))
        out[:, self.pair_i, self.pair_j] = (self._by_pair @ coeff.T).T
        return out

    @property
    def values(self) -> np.ndarray:
        """Dense (dim, dim, dim) copy, built on every access.

        Refused when it would exceed physical memory.
        """
        require_dense_fits(self.dim)
        i, j, k, g = self.triples()
        dense = np.zeros((self.dim,) * 3)
        dense[i, j, k] = g
        return dense


def _univariate_triple_table(family: PolyFamily, max_degree: int) -> np.ndarray:
    """Symmetric table of univariate triple products for degrees <= max_degree.

    The quadrature order is exact for the degree-3P integrand with margin.
    Entries are computed once per sorted degree triple 1 <= a <= b <= c and
    mirrored, so equality under argument permutation holds bitwise.  Entries
    that vanish identically are exact zeros, never computed: both measures
    are symmetric, so triples of odd total degree integrate to zero by
    parity, and for c > a + b, p_c is orthogonal to the degree-(a + b)
    product p_a p_b.  Because p_0 is the constant one, the zero-degree slices
    are the Kronecker delta, and below degree 2 there is nothing else.
    """
    g = np.zeros((max_degree + 1,) * 3)
    degrees = np.arange(max_degree + 1)
    g[0, degrees, degrees] = g[degrees, 0, degrees] = g[degrees, degrees, 0] = 1.0
    if max_degree < 2:
        return g
    n_nodes = math.ceil((3 * max_degree + 1) / 2) + 2
    rule = gauss_rule(family, n_nodes)
    table = univariate_table(family, max_degree, rule.nodes)
    weighted = table * rule.weights[:, None]
    for a in range(1, max_degree + 1):
        for b in range(a, max_degree + 1):
            pair = table[:, a] * table[:, b]
            for c in range(b + a % 2, min(a + b, max_degree) + 1, 2):
                value = float(pair @ weighted[:, c])
                g[a, b, c] = g[a, c, b] = g[b, a, c] = value
                g[b, c, a] = g[c, a, b] = g[c, b, a] = value
    return g


def _rank_weights(n_dims: int, max_degree: int) -> np.ndarray:
    """Flat table w with rank(nu) = sum_r w[r (P + 1) + s_r] in the graded lexicographic basis order.

    s_r = nu_{N-1-r} + ... + nu_{N-1} sums the last r + 1 entries, so s_{N-1}
    is the total degree.  Counting the multi-indices that precede nu gives
    rank(nu) = C(|nu| + N, N) - 1 - sum_{r < N-1} C(s_r + r, r + 1).  No term
    exceeds the basis size, so the integer sum is exact for every basis.
    """
    width = max_degree + 1
    return np.array(
        [-math.comb(s + r, r + 1) for r in range(n_dims - 1) for s in range(width)]
        + [math.comb(s + n_dims, n_dims) - 1 for s in range(width)]
    )


def galerkin_tensor(basis: OrderedBasis) -> GalerkinTensor:
    """Triple products <p_i p_j, p_k> of all basis-polynomial pairs, nonzeros only.

    A univariate factor <p_a p_b p_c> vanishes unless c = |a - b| + 2 t for
    some 0 <= t <= min(a, b).  So the pair (i, j) holds the k of degrees
    |nu_i - nu_j| + 2 t for the half-steps t <= min(nu_i, nu_j) entrywise with
    |nu_i - nu_j|_1 + 2 |t| <= P, and holds any exactly when
    |nu_i - nu_j|_1 <= P.  The half-steps of total degree <= (P - d) / 2 are
    the leading basis elements.  So, for blocks of rows i, the pairs within
    distance d <= P are listed, each pair is joined with those leading
    half-steps, and the ones not below min(nu_i, nu_j) are dropped; no size^3
    array is formed.  The entries come out ordered by (i, j) and, within a
    pair, by the basis order of t.  k is ranked in closed form by
    :func:`_rank_weights`, and every entry is the product of its univariate
    factors, multiplied in dimension order.
    """
    deg = np.array(basis.indices, dtype=np.int32).T.copy()  # one row per dimension
    n_dims, size = deg.shape
    P, width = basis.max_degree, basis.max_degree + 1
    flat_table = _univariate_triple_table(basis.family, P).ravel()
    steps = np.array([basis_dim(n_dims, (P - d) // 2) for d in range(width)])
    half_steps = deg[:, : steps[0]]
    weight = _rank_weights(n_dims, P)
    offsets = np.arange(0, n_dims * width, width, dtype=np.int32)[:, None]
    # Rows i are taken in blocks whose (dim, i, j) distance array stays near
    # 2^20 entries, and their pairs in runs whose (dim, i, j, t) candidate
    # arrays do too, by each pair's candidate count before the join.
    block, run = max(1, 2**20 // (size * n_dims)), max(1, 2**20 // n_dims)
    parts = []
    for start in range(0, size, block):
        gaps = deg[:, start : start + block, None] - deg[:, None, :]
        dist = np.abs(gaps, out=gaps).sum(axis=0, dtype=np.int32)
        near = dist <= P
        rows, cols = np.nonzero(near)
        rows += start
        # Each pair's candidates: the pair with its leading steps[dist] half-steps t.
        pair_counts = steps[dist[near]]
        del gaps, dist, near
        ends = np.cumsum(pair_counts)
        first = 0
        while first < rows.size:
            last = max(first + 1, int(np.searchsorted(ends, ends[first] - pair_counts[first] + run, "right")))
            i, j, counts = rows[first:last], cols[first:last], pair_counts[first:last]
            first = last
            owner = np.repeat(np.arange(i.size), counts)
            t = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)
            deg_i, deg_j = np.take(deg, i, axis=1), np.take(deg, j, axis=1)
            low = np.repeat(np.minimum(deg_i, deg_j), counts, axis=1)
            keep = (np.take(half_steps, t, axis=1) <= low).all(axis=0)
            owner, t = owner[keep], t[keep]
            k_deg = np.take(np.abs(deg_i - deg_j), owner, axis=1) + 2 * np.take(half_steps, t, axis=1)
            # Flat table indices (a (P + 1) + b) (P + 1) + c, in int64: they pass 2^31 beyond P = 1289.
            cell = np.take((deg_i * width + deg_j) * np.int64(width), owner, axis=1) + k_deg
            # A reduction along the first axis multiplies in order: dimension 0 first.
            g = np.multiply.reduce(np.take(flat_table, cell), axis=0)
            # Row r of the cumulative sum from the last dimension is the s_r of _rank_weights.
            k = np.take(weight, np.cumsum(k_deg[::-1], axis=0, dtype=np.int32) + offsets).sum(axis=0)
            parts.append((i, j, np.bincount(owner, minlength=i.size), k, g))
    pair_i, pair_j, counts, k, g = (np.concatenate(column) for column in zip(*parts))
    indptr = np.zeros(pair_i.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return GalerkinTensor(size, pair_i, pair_j, indptr, k, g)


_TENSOR_MAGIC = b"SGGT"
_FAMILY_CODES = {PolyFamily.HERMITE: 0, PolyFamily.LEGENDRE: 1}
_FAMILY_FROM_CODE = {code: fam for fam, code in _FAMILY_CODES.items()}


def save_tensor(tensor: GalerkinTensor, family: PolyFamily, path) -> None:
    """Binary dump: magic, u32 dimension, u8 family code, little-endian f64 entries.

    The dump is dense, so it is refused when the cube would not fit in memory.
    """
    values = tensor.values
    with open(path, "wb") as handle:
        handle.write(_TENSOR_MAGIC)
        handle.write(struct.pack("<IB", tensor.dim, _FAMILY_CODES[family]))
        handle.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def load_tensor(path) -> tuple[GalerkinTensor, PolyFamily]:
    """Read a tensor written by :func:`save_tensor`; its nonzeros are kept."""
    with open(path, "rb") as handle:
        magic = handle.read(4)
        if magic != _TENSOR_MAGIC:
            raise ValueError(f"not a Galerkin tensor file: bad magic {magic!r}")
        dim, code = struct.unpack("<IB", handle.read(5))
        require_dense_fits(dim)
        data = np.frombuffer(handle.read(8 * dim**3), dtype="<f8")
    if data.size != dim**3:
        raise ValueError("truncated tensor file")
    if code not in _FAMILY_FROM_CODE:
        raise ValueError(f"unknown family code {code}")
    dense = data.reshape(dim, dim, dim)
    i, j, k = np.nonzero(dense)
    return GalerkinTensor.from_triples(dim, i, j, k, dense[i, j, k]), _FAMILY_FROM_CODE[code]
