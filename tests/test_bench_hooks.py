"""The names the benchmark wraps: a refactor that drops one fails here, not in a bench run."""

from __future__ import annotations

import importlib
from pathlib import Path

import sgnet.cli

# Layer targets with no counterpart in the program: the risks contract the
# sparse tensor directly, so their per-layer metrics read zero.
KNOWN_MISSING = {
    f"sgnet.solver.{name}" for name in ("assemble_A", "assemble_B", "strong_residual_matrix", "ritz_density")
}


def test_every_wrapped_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    instrument = importlib.import_module("instrument")
    train = sgnet.cli.train
    # Entering raises if a stage target is missing; a missing layer target is listed.
    with instrument.Instrumented(instrument.Recorder(), trace=True) as hooks:
        assert sgnet.cli.train is not train
        assert set(hooks.missing) <= KNOWN_MISSING
    assert sgnet.cli.train is train
