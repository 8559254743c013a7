"""Built-in self checks runnable from the command line.

Each check re-derives its expected values locally (closed forms, finite
differences, naive recurrences), so a passing run certifies the installed
package against independent arithmetic rather than against itself.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .fields import (
    KL_RATIO,
    exp2_diffusion_coeffs,
    field_model,
    kl_eigenpair,
    pathwise_sampler,
)
from .net import BranchSpec, MultiBranchNet
from .reference import Mesh1D, fem_pathwise
from .solver import AdamState, SobolStream, adam_step
from .spectral import (
    PolyFamily,
    basis_matrix,
    enumerate_indices,
    galerkin_tensor,
    gauss_rule,
    tensor_gauss_rule,
    total_degree_basis,
)

__all__ = ["run_all", "CHECKS"]


def _check_gram_identity() -> str:
    for family in (PolyFamily.HERMITE, PolyFamily.LEGENDRE):
        basis = total_degree_basis(2, 5, family)
        points, weights = tensor_gauss_rule(basis, 7)
        matrix = basis_matrix(basis, points)
        gram = (matrix * weights[:, None]).T @ matrix
        deviation = np.max(np.abs(gram - np.eye(basis.size)))
        if deviation > 1e-10:
            raise AssertionError(f"{family.value}: Gram deviation {deviation:.2e}")
    return "Gram matrices equal identity within 1e-10"


def _check_index_ordering() -> str:
    expected = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    got = enumerate_indices(2, 2)
    if got != expected:
        raise AssertionError(f"ordering {got}")
    if len(enumerate_indices(3, 7)) != 120:
        raise AssertionError("dimension formula violated for N=3, P=7")
    return "graded lexicographic enumeration matches the reference ordering"


def _check_gauss_moments() -> str:
    for n in (2, 5, 9):
        rule = gauss_rule(PolyFamily.HERMITE, n)
        if abs(rule.weights.sum() - 1.0) > 1e-14:
            raise AssertionError("weights do not sum to one")
        if abs(rule.integrate(rule.nodes**2) - 1.0) > 1e-12:
            raise AssertionError("second moment of N(0,1) missed")
    return "Gauss rules are probability-normalized and moment-exact"


def _check_hermite_tensor() -> str:
    basis = total_degree_basis(1, 8, PolyFamily.HERMITE)
    tensor = galerkin_tensor(basis).values

    def closed(i: int, j: int, k: int) -> float:
        total = i + j + k
        if total % 2:
            return 0.0
        s = total // 2
        if s < max(i, j, k):
            return 0.0
        return math.sqrt(
            math.factorial(i) * math.factorial(j) * math.factorial(k)
        ) / (
            math.factorial(s - i) * math.factorial(s - j) * math.factorial(s - k)
        )

    for i in range(9):
        for j in range(9):
            for k in range(9):
                expected = closed(i, j, k)
                scale = max(1.0, abs(expected))
                if abs(tensor[i, j, k] - expected) > 1e-9 * scale:
                    raise AssertionError(f"entry ({i},{j},{k}) off: {tensor[i, j, k]}")
    return "Hermite triple products match the linearization closed form"


def _check_exp2_reconstruction() -> str:
    n_vars = 3
    model = field_model("exp2", n_vars)
    basis = total_degree_basis(n_vars, 1, PolyFamily.LEGENDRE)
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, size=(50, 2))
    y = rng.uniform(-1, 1, size=(50, n_vars))
    values, _ = exp2_diffusion_coeffs(n_vars, x)
    recon = np.einsum("mk,mk->m", basis_matrix(basis, y), values)
    direct = np.array([pathwise_sampler(model, x[m : m + 1])(y[m])[0][0] for m in range(50)])
    deviation = np.max(np.abs(recon - direct))
    if deviation > 1e-12:
        raise AssertionError(f"reconstruction deviates by {deviation:.2e}")
    return "degree-one diffusion coefficients reconstruct the field exactly"


def _check_lognormal_factors() -> str:
    from .fields import _exponential_factor_table

    sigmas = np.linspace(0.1, 3.0, 12)
    table = _exponential_factor_table(sigmas, 10)
    for sigma, row in zip(sigmas, table):
        for n in range(11):
            closed = math.exp(0.5 * sigma * sigma) * sigma**n / math.sqrt(math.factorial(n))
            if abs(row[n] - closed) > 1e-10 * abs(closed):
                raise AssertionError(f"factor s={sigma:.3f} n={n} off by {row[n] - closed:.2e}")
    return "log-normal factors match exp(s^2/2) s^n / sqrt(n!) for s in [0.1, 3], n <= 10"


def _check_network_derivatives() -> str:
    spec = BranchSpec(1, (8, 6), ("swish", "sigmoid", "linear"))
    net = MultiBranchNet(spec, n_branches=2, seed=0)
    x = np.linspace(0.2, 0.8, 7)[:, None]
    record = net.evaluate(x, order=2)
    step = 1e-5
    fd_grad = (net.evaluate(x + step, 0).value - net.evaluate(x - step, 0).value) / (2 * step)
    if np.max(np.abs(record.grad[:, :, 0] - fd_grad)) > 1e-6:
        raise AssertionError("gradient disagrees with finite differences")
    step = 1e-4
    fd_lap = (
        net.evaluate(x + step, 0).value
        - 2 * net.evaluate(x, 0).value
        + net.evaluate(x - step, 0).value
    ) / step**2
    if np.max(np.abs(record.laplacian - fd_lap)) > 1e-3:
        raise AssertionError("laplacian disagrees with finite differences")
    return "network derivatives agree with finite differences"


def _check_optimizer_and_stream() -> str:
    state = AdamState.zeros(4)
    theta = adam_step(np.zeros(4), np.array([1.0, -1.0, 10.0, -0.01]), state, lr=0.05)
    if np.max(np.abs(theta + 0.05 * np.sign([1.0, -1.0, 10.0, -0.01]))) > 1e-4:
        raise AssertionError("first ADAM step is not a signed learning rate")
    stream = SobolStream(1, skip=1)
    if stream.next(1)[0, 0] != 0.5:
        raise AssertionError("Sobol stream does not start at 1/2 after the skip")
    return "ADAM update and Sobol stream behave canonically"


def _check_fem_nodal_exactness() -> str:
    mesh = Mesh1D(64)
    ones = np.ones(len(mesh.quad_points))
    solution = fem_pathwise(mesh, ones, ones)
    deviation = np.max(np.abs(solution - mesh.nodes * (1 - mesh.nodes) / 2))
    if deviation > 1e-12:
        raise AssertionError(f"nodal deviation {deviation:.2e}")
    return "linear elements are nodally exact for -u'' = 1"


def _check_kl_decay() -> str:
    if abs(kl_eigenpair(0).eigenvalue - math.sqrt(KL_RATIO)) > 1e-14:
        raise AssertionError("leading eigenvalue off")
    ratio = kl_eigenpair(5).eigenvalue / kl_eigenpair(4).eigenvalue
    if abs(ratio - KL_RATIO) > 1e-13:
        raise AssertionError("eigenvalue decay ratio off")
    return "KL eigenvalues decay geometrically at the analytic rate"


CHECKS: list[tuple[str, Callable[[], str]]] = [
    ("gram_identity", _check_gram_identity),
    ("index_ordering", _check_index_ordering),
    ("gauss_moments", _check_gauss_moments),
    ("hermite_tensor", _check_hermite_tensor),
    ("exp2_reconstruction", _check_exp2_reconstruction),
    ("lognormal_factors", _check_lognormal_factors),
    ("network_derivatives", _check_network_derivatives),
    ("optimizer_and_stream", _check_optimizer_and_stream),
    ("fem_nodal_exactness", _check_fem_nodal_exactness),
    ("kl_decay", _check_kl_decay),
]


def run_all(printer: Callable[[str], None] = print) -> bool:
    """Run every check; report one line each; return overall success."""
    ok = True
    for name, check in CHECKS:
        try:
            detail = check()
            printer(f"PASS {name}: {detail}")
        except Exception as exc:  # noqa: BLE001 - report and continue
            ok = False
            printer(f"FAIL {name}: {exc}")
    return ok
