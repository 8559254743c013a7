"""Tests of the benchmark's own machinery: the output check and the computed counts."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from check import RTOL, check_run, load_expected
from instrument import layer_metrics, tensor_nnz
from workloads import N_VARIANTS, WORKLOADS

from sgnet.spectral import PolyFamily, galerkin_tensor, total_degree_basis

METHODS = ("galerkin", "ritz")


def _rows(expected: dict, epochs: int) -> list[dict[str, str]]:
    return [
        {
            "method": method,
            "rel_error": repr(expected[method]["rel_error"]),
            "final_risk": repr(expected[method]["final_risk"]),
            "epochs": str(epochs),
        }
        for method in METHODS
    ]


@pytest.fixture(params=sorted(WORKLOADS))
def pinned(request):
    workload = WORKLOADS[request.param]
    expected = load_expected(workload.name, 0)
    assert expected is not None, f"{workload.name} has no pinned outputs"
    return workload, expected


def test_every_variant_is_pinned():
    for name in WORKLOADS:
        for variant in range(N_VARIANTS):
            assert load_expected(name, variant) is not None, (name, variant)


def test_pinned_result_passes(pinned):
    workload, expected = pinned
    problems = check_run(0, _rows(expected, workload.epochs), METHODS, workload.epochs, expected)
    assert not any(problems.values())


@pytest.mark.parametrize("key", ["rel_error", "final_risk"])
def test_perturbed_result_is_flagged(pinned, key):
    workload, expected = pinned
    rows = _rows(expected, workload.epochs)
    rows[1][key] = repr(float(rows[1][key]) * (1.0 + 100 * RTOL))
    problems = check_run(0, rows, METHODS, workload.epochs, expected)
    assert not problems["galerkin"]
    assert problems["ritz"] and key in problems["ritz"][0]


def test_roundoff_is_tolerated(pinned):
    workload, expected = pinned
    rows = _rows(expected, workload.epochs)
    for row in rows:
        row["rel_error"] = repr(float(row["rel_error"]) * (1.0 + RTOL / 100))
    problems = check_run(0, rows, METHODS, workload.epochs, expected)
    assert not any(problems.values())


def test_non_finite_and_budget_and_exit_code_are_flagged(pinned):
    workload, expected = pinned
    rows = _rows(expected, workload.epochs)
    rows[0]["final_risk"] = "nan"
    rows[1]["epochs"] = str(workload.epochs + 1)
    problems = check_run(0, rows, METHODS, workload.epochs, expected)
    assert any("not finite" in p for p in problems["galerkin"])
    assert any("budget" in p for p in problems["ritz"])
    crashed = check_run(3, _rows(expected, workload.epochs), METHODS, workload.epochs, expected)
    assert all(crashed.values())
    missing = check_run(0, [], METHODS, workload.epochs, expected)
    assert all(missing.values())


@pytest.mark.parametrize(
    "n_dims, degree, family",
    [(1, 6, PolyFamily.HERMITE), (3, 3, PolyFamily.HERMITE), (4, 1, PolyFamily.LEGENDRE), (2, 4, PolyFamily.LEGENDRE)],
)
def test_tensor_nnz_matches_the_computed_tensor(n_dims, degree, family):
    basis = total_degree_basis(n_dims, degree, family)
    values = galerkin_tensor(basis).values
    assert tensor_nnz(basis.index_array) == np.count_nonzero(np.abs(values) > 1e-12)


def test_benchmark_json_matches_the_workloads_and_derivations():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert {"setup_s", "rel_error.galerkin", "rel_error.ritz"} <= {m["name"] for m in spec["end_to_end"]}
    names = [m["name"] for m in spec["per_layer"]]
    values = layer_metrics([], names, distinct_samples=0, overhead_s=0.0)
    assert set(values) == set(names) and all(math.isfinite(v) for v in values.values())
