"""Output check: which operations of one ``cli.run`` produced a wrong result.

An operation is one method's training plus its error metric.  It fails when
the run exits with a non-zero code, when ``rel_error`` or ``final_risk`` is
not finite, when ``epochs`` differs from the fixed budget, or when either
value is further than ``RTOL`` (relative) from the value pinned for the
workload and seed in ``expected.json``.

Why ``RTOL = 1e-9``: at a fixed seed both values repeat bitwise on one
machine, and the suite holds single evaluations of the same quantities to
roundoff under reordered arithmetic (``rel=1e-13`` for the strong risk under
a batch permutation in ``tests/test_solver.py``, ``rel=1e-12`` for
``rel_h1_error`` in ``tests/test_metrics.py``).  A random relative
perturbation of 1e-13 in the initial weights moved both values by at most
1.4e-12 relative after the fixed training budget of every workload, so 1e-9
leaves more than two orders of magnitude for changes that only reorder
floating-point sums, and still catches any change to what is computed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 1e-9

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected(workload: str, variant: int) -> dict[str, dict[str, float]] | None:
    """Pinned ``{method: {"rel_error": x, "final_risk": y}}``, or None if not pinned."""
    if not EXPECTED_PATH.exists():
        return None
    table = json.loads(EXPECTED_PATH.read_text())
    return table.get(workload, {}).get(str(variant))


def check_run(
    exit_code: int,
    rows: list[dict[str, str]],
    methods: tuple[str, ...],
    epochs: int,
    expected: dict[str, dict[str, float]] | None,
) -> dict[str, list[str]]:
    """Problems per method; a method with any problem is one failed operation."""
    problems: dict[str, list[str]] = {m: [] for m in methods}
    by_method = {row.get("method"): row for row in rows}
    for method in methods:
        found = problems[method]
        if exit_code != 0:
            found.append(f"cli.run exited with code {exit_code}")
            continue
        row = by_method.get(method)
        if row is None:
            found.append("no results.csv row")
            continue
        try:
            values = {key: float(row[key]) for key in ("rel_error", "final_risk")}
            row_epochs = int(row["epochs"])
        except (KeyError, ValueError) as exc:
            found.append(f"unreadable results row: {exc}")
            continue
        for key, value in values.items():
            if not math.isfinite(value):
                found.append(f"{key} is not finite: {value}")
        if row_epochs != epochs:
            found.append(f"epochs {row_epochs} differs from the fixed budget {epochs}")
        if expected is None:  # pinning: only the structural checks apply
            continue
        for key, value in values.items():
            want = expected[method][key]
            if not abs(value - want) <= RTOL * abs(want):
                found.append(f"{key} {value!r} differs from pinned {want!r} by more than {RTOL:g} relative")
    return problems
