"""Spans around the calls ``sgnet.cli.run`` makes, and around each layer when tracing.

Every function is wrapped at the name its caller resolves, so the program is
measured unchanged: ``sgnet.cli.train`` is the name ``cli.run`` calls,
``sgnet.solver.assemble_A`` the name ``strong_risk`` calls, and
``MultiBranchNet.evaluate`` the method every caller looks up on the class.

The stage targets (a handful of calls per run, plus the evaluator calls
inside the metric) are always installed: the end-to-end stage times are
derived from them.  The layer targets are installed only for the traced run.
Spans are kept in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class SetupDone(Exception):
    """Raised at the first post-setup call when only set-up is being timed."""


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self.stop_after_setup = False
        self.samples_seen: set[bytes] = set()
        self._stack: list[int] = []
        self._next_id = 0

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span = Span(span_id, name, start, end, parent, self.run)
            self.spans.append(span)
        return result, span


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # "function" or "Class.method"
    name: str | Callable[[tuple, dict], str]
    stage: str | None = None  # "reference" or "train" ends set-up
    work: Callable[[tuple, dict, object], dict] | None = None
    wrap_result: str | None = None  # span name for the returned evaluator closure


# -- computed work counts ----------------------------------------------------------


def _rows(n: int, d: int, order: int) -> int:
    return n * (1 + (d if order >= 1 else 0) + (d if order >= 2 else 0))


def _evaluate_name(args: tuple, kwargs: dict) -> str:
    order = kwargs.get("order", args[2] if len(args) > 2 else 2)
    return f"net.evaluate.o{order}"


def _evaluate_flop(args: tuple, kwargs: dict, record) -> dict:
    net = args[0]
    dims = net.spec.layer_dims
    rows = _rows(record.n_points, net.input_dim, record.order)
    flop = sum(2 * net.n_branches * rows * dims[i] * dims[i + 1] for i in range(len(dims) - 1))
    return {"matmul_flop": flop}


def _param_grad_flop(args: tuple, kwargs: dict, result) -> dict:
    net, record = args[0], args[1]
    dims = net.spec.layer_dims
    rows = _rows(record.n_points, net.input_dim, record.order)
    per_layer = [2 * net.n_branches * rows * dims[i] * dims[i + 1] for i in range(len(dims) - 1)]
    # Weight gradients for every layer, input cotangents for all but the first.
    return {"matmul_flop": sum(per_layer) + sum(per_layer[1:])}


def _contraction_flop(kind: str):
    """Dense-G multiply-adds of one risk evaluation, from n, K and d alone."""

    def work(args: tuple, kwargs: dict, result) -> dict:
        x = np.atleast_2d(args[0])
        n, d = x.shape
        k = args[1].n_branches
        with_grad = kwargs.get("with_grad", args[5] if len(args) > 5 else True)
        if kind == "strong":
            # A and B from G, residual, and (with the gradient) its two pull-backs.
            flop = 2 * n * k**3 * (1 + d) + 2 * n * k**2 * (1 + d) * (2 if with_grad else 1)
        else:
            # A from G, the flux A grad u, and (with the gradient) its pull-back.
            flop = 2 * n * k**3 + 2 * n * k**2 * d * (2 if with_grad else 1)
        return {"contraction_flop": flop}

    return work


def tensor_nnz(index_array: np.ndarray) -> int:
    """Number of structurally nonzero triple products of a total-degree basis.

    For both the Hermite and the Legendre family the univariate product
    <p_a p_b p_c> is nonzero exactly when a + b + c is even and the degrees
    satisfy the triangle inequality; a multivariate entry is the product of
    its univariate factors.
    """
    deg = np.asarray(index_array)
    nnz = 0
    for i in range(deg.shape[0]):
        ok = np.ones((deg.shape[0], deg.shape[0]), dtype=bool)
        for dim in range(deg.shape[1]):
            a = deg[i, dim]
            b = deg[:, dim][:, None]
            c = deg[:, dim][None, :]
            ok &= ((a + b + c) % 2 == 0) & (np.abs(a - b) <= c) & (c <= a + b)
        nnz += int(ok.sum())
    return nnz


def _tensor_work(args: tuple, kwargs: dict, tensor) -> dict:
    # The density is counted from the degrees after the run, outside the timed spans.
    stored = sum(v.nbytes for v in vars(tensor).values() if isinstance(v, np.ndarray))
    return {"tensor_bytes": stored, "degrees": np.asarray(args[0].index_array).tolist()}


def _train_attrs(args: tuple, kwargs: dict, result) -> dict:
    return {"kind": args[1] if len(args) > 1 else kwargs["loss_kind"]}


# -- targets -----------------------------------------------------------------------

REFERENCE_BUILDERS = (
    "metrics.exact_exp1_evaluator",
    "metrics.fem_evaluator",
    "metrics.coupled_evaluator",
    "reference.sga_fem_coupled",
)

STAGE_TARGETS = (
    Target("sgnet.cli", "galerkin_tensor", "spectral.galerkin_tensor", work=_tensor_work),
    Target(
        "sgnet.cli", "exact_exp1_evaluator", "metrics.exact_exp1_evaluator",
        stage="reference", wrap_result="metrics.reference_eval",
    ),
    Target(
        "sgnet.cli", "fem_evaluator", "metrics.fem_evaluator",
        stage="reference", wrap_result="metrics.reference_eval",
    ),
    Target("sgnet.cli", "sga_fem_coupled", "reference.sga_fem_coupled", stage="reference"),
    Target(
        "sgnet.cli", "coupled_evaluator", "metrics.coupled_evaluator",
        stage="reference", wrap_result="metrics.reference_eval",
    ),
    Target("sgnet.cli", "train", "solver.train", stage="train", work=_train_attrs),
    Target("sgnet.cli", "net_evaluator", "metrics.net_evaluator", wrap_result="metrics.surrogate_eval"),
    Target("sgnet.cli", "rel_h1_error", "metrics.rel_h1_error"),
)

LAYER_TARGETS = (
    Target("sgnet.net", "MultiBranchNet.evaluate", _evaluate_name, work=_evaluate_flop),
    Target("sgnet.net", "MultiBranchNet.param_grad", "net.param_grad", work=_param_grad_flop),
    Target("sgnet.solver", "strong_risk", "solver.strong_risk", work=_contraction_flop("strong")),
    Target("sgnet.solver", "ritz_risk", "solver.ritz_risk", work=_contraction_flop("ritz")),
    Target("sgnet.solver", "assemble_A", "solver.assemble_A"),
    Target("sgnet.solver", "assemble_B", "solver.assemble_B"),
    Target("sgnet.solver", "strong_residual_matrix", "solver.strong_residual_matrix"),
    Target("sgnet.solver", "ritz_density", "solver.ritz_density"),
    Target("sgnet.solver", "adam_step", "solver.adam_step"),
    Target("sgnet.solver", "sobol_batch", "solver.sobol_batch"),
    Target("sgnet.solver", "validation_error", "solver.validation_error"),
    Target("sgnet.solver", "basis_matrix", "spectral.basis_matrix"),
    Target("sgnet.metrics", "basis_matrix", "spectral.basis_matrix"),
    Target("sgnet.fields", "SpectralField.coeff_values", "fields.coeff_values"),
    Target("sgnet.fields", "SpectralField.coeff_grads", "fields.coeff_grads"),
    Target("sgnet.fields", "SpectralField.forcing_values", "fields.forcing_values"),
    Target("sgnet.reference", "assemble_coupled_system", "reference.assemble_coupled_system"),
    Target("sgnet.metrics", "fem_pathwise", "reference.fem_pathwise"),
)


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Instrumented:
    """Context manager that installs wrappers on entry and restores the originals on exit.

    A stage target that cannot be found is an error: the end-to-end stages
    would be misattributed.  A layer target that cannot be found is reported
    in ``missing`` and its metrics read zero.
    """

    def __init__(self, recorder: Recorder, trace: bool) -> None:
        self.recorder = recorder
        self.trace = trace
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Instrumented":
        try:
            for target in STAGE_TARGETS:
                self._install(target, required=True)
            if self.trace:
                for target in LAYER_TARGETS:
                    self._install(target, required=False)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def _install(self, target: Target, required: bool) -> None:
        try:
            owner, leaf = _resolve(target)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        except (AttributeError, KeyError, ImportError):
            if required:
                raise RuntimeError(f"stage target {target.module}.{target.attr} not found")
            self.missing.append(f"{target.module}.{target.attr}")
            return
        self._saved.append((owner, leaf, original))
        setattr(owner, leaf, self._wrapper(target, original))

    def _wrapper(self, target: Target, original: Callable) -> Callable:
        recorder = self.recorder
        trace = self.trace

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if target.stage and recorder.stop_after_setup:
                raise SetupDone
            name = target.name(args, kwargs) if callable(target.name) else target.name
            result, span = recorder.call(name, original, args, kwargs)
            if target.work is not None:
                span.attrs.update(target.work(args, kwargs, result))
            if target.wrap_result is not None:
                result = _wrap_evaluator(recorder, target.wrap_result, result, trace)
            return result

        return wrapper


def _wrap_evaluator(recorder: Recorder, name: str, evaluate: Callable, trace: bool) -> Callable:
    track_samples = trace and name == "metrics.reference_eval"

    def wrapped(samples):
        if track_samples:
            recorder.samples_seen.update(row.tobytes() for row in np.asarray(samples))
        return recorder.call(name, evaluate, (samples,), {})[0]

    return wrapped


# -- derived metrics -----------------------------------------------------------------


def stage_metrics(spans: list[Span], run_span: Span, steps: int) -> dict[str, float]:
    """End-to-end stage times of one ``cli.run`` from its stage spans."""
    reference = [s for s in spans if s.name in REFERENCE_BUILDERS]
    trains = [s for s in spans if s.name == "solver.train"]
    if not reference or len(trains) != 2:
        raise RuntimeError("cli.run did not call the reference builder and train once per method")
    first = min(s.start for s in reference + trains)
    by_kind = {s.attrs["kind"]: s for s in trains}
    return {
        "run_s": run_span.seconds,
        "setup_s": first - run_span.start,
        "reference_s": sum(
            s.seconds for s in spans if s.name in REFERENCE_BUILDERS or s.name == "metrics.reference_eval"
        ),
        "galerkin_steps_per_s": steps / by_kind["strong"].seconds,
        "ritz_steps_per_s": steps / by_kind["ritz"].seconds,
        "metric_s": sum(
            s.seconds for s in spans if s.name in ("metrics.net_evaluator", "metrics.rel_h1_error")
        ),
    }


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Total seconds, self seconds and call count per span name."""
    child_seconds: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_seconds[s.parent] = child_seconds.get(s.parent, 0.0) + s.seconds
    table: dict[str, dict[str, float]] = {}
    for s in spans:
        row = table.setdefault(s.name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        row["s"] += s.seconds
        row["self_s"] += s.seconds - child_seconds.get(s.id, 0.0)
        row["calls"] += 1
    return table


def layer_metrics(spans: list[Span], names: list[str], distinct_samples: int, overhead_s: float) -> dict:
    """Per-layer metrics named in BENCHMARK.json, from the spans of one traced run."""
    table = layer_table(spans)

    def attr_sum(key: str) -> float:
        return float(sum(s.attrs.get(key, 0) for s in spans))

    def calls(prefix: str) -> int:
        return sum(row["calls"] for name, row in table.items() if name.startswith(prefix))

    tensor = next((s for s in spans if s.name == "spectral.galerkin_tensor"), None)
    solves = calls("reference.fem_pathwise")
    computed = {
        "net.evaluate.calls": calls("net.evaluate."),
        "net.matmul_gflop": attr_sum("matmul_flop") / 1e9,
        "solver.contraction_gflop": attr_sum("contraction_flop") / 1e9,
        "solver.steps": calls("solver.adam_step"),
        "spectral.tensor_mb": tensor.attrs["tensor_bytes"] / 1e6 if tensor else 0.0,
        "spectral.tensor_density": (
            tensor_nnz(np.array(tensor.attrs["degrees"])) / len(tensor.attrs["degrees"]) ** 3
            if tensor
            else 0.0
        ),
        "fields.calls": calls("fields."),
        "reference.pathwise_reuse": distinct_samples / solves if solves else 0.0,
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name in names:
        if name in computed:
            out[name] = computed[name]
            continue
        prefix, _, kind = name.rpartition(".")
        if kind not in ("s", "self_s", "calls"):
            raise KeyError(f"no rule derives per-layer metric {name!r}")
        out[name] = table.get(prefix, {}).get(kind, 0.0)
    return out
