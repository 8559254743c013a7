"""Declarative experiment runner and plotting command line.

A single YAML file describes one experiment sweep: which field model, which
basis sizes, which training method, all schedule parameters and every seed.
Running it trains the requested networks, measures their error against the
configured reference in one Monte Carlo pass per (N, P) and appends one row
per run to ``results.csv``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Sequence

import yaml

from . import diagnostics
from .fields import FieldModel, SpectralField, field_model
from .metrics import (
    PathwiseEvaluator,
    SpatialGrid,
    coupled_evaluator,
    exact_exp1_evaluator,
    fem_evaluator,
    midpoint_grid,
    net_evaluator,
    rel_h1_error,
    uniform_grid_1d,
)
from .net import BranchSpec, MultiBranchNet, scratch_nbytes, tape_nbytes
from .reference import FieldPositivityError, Mesh1D, Mesh2D, sga_fem_coupled
from .solver import TrainConfig, TrainingDivergedError, train
from .spectral import (
    PolyFamily,
    basis_dim,
    galerkin_nbytes,
    galerkin_tensor,
    physical_memory,
    require_dense_fits,
    save_tensor,
    total_degree_basis,
)
from .svgplot import line_plot

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "run", "plot", "main"]

EXIT_CONFIG = 2
EXIT_TRAINING = 3
EXIT_IO = 4

RESULT_COLUMNS = (
    "experiment",
    "method",
    "N",
    "P",
    "M_plus_1",
    "rel_error",
    "numerator",
    "denominator",
    "train_seconds",
    "epochs",
    "final_risk",
    "final_validation",
    "seed_weights",
    "seed_sobol",
    "seed_mc",
    "rel_error_se",
)

# Branch architectures used when the config does not specify one.
_NET_PRESETS = {
    "exp1": ((45, 45, 45, 45), ("swish", "sigmoid", "sigmoid", "sigmoid", "linear")),
    "exp2": ((35, 35, 35, 35, 35), ("swish",) * 5 + ("linear",)),
    "exp3": ((45, 45, 45, 45, 45), ("swish",) * 5 + ("linear",)),
}

_DEFAULT_REFERENCE = {"exp1": "analytic", "exp2": "fem", "exp3": "fem"}


class ConfigError(ValueError):
    """Invalid or unreadable experiment configuration."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class MetricConfig:
    n_mc: int = 10_000
    grid_points: int | None = None
    reference: str | None = None
    mesh: int | None = None

    def __post_init__(self) -> None:
        if not _is_int(self.n_mc) or self.n_mc < 1:
            raise ConfigError("metric.n_mc must be a positive integer")
        for name in ("grid_points", "mesh"):
            value = getattr(self, name)
            if value is not None and (not _is_int(value) or value < 2):
                raise ConfigError(f"metric.{name} must be an integer of at least 2")
        if self.reference is not None and self.reference not in ("analytic", "fem", "coupled"):
            raise ConfigError(f"unknown metric.reference {self.reference!r}")


@dataclass
class ExperimentConfig:
    experiment: str
    method: str = "both"
    n_values: tuple[int, ...] = (1,)
    p_values: tuple[int, ...] = (1,)
    # Hidden widths and activations (output layer included); None takes the experiment's preset.
    net: tuple[tuple[int, ...], tuple[str, ...]] | None = None
    train: TrainConfig = dc_field(default_factory=TrainConfig)
    metric: MetricConfig = dc_field(default_factory=MetricConfig)
    weighting: str = "none"
    seed_weights: int = 1
    seed_mc: int = 1
    out_dir: Path = Path("results")

    def __post_init__(self) -> None:
        self.out_dir = Path(self.out_dir)
        if self.experiment not in ("exp1", "exp2", "exp3"):
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.method not in ("galerkin", "ritz", "both"):
            raise ConfigError(f"unknown method {self.method!r}")
        if not self.n_values or not self.p_values:
            raise ConfigError("sweep ranges must be non-empty")
        if any(n < 1 for n in self.n_values) or any(p < 0 for p in self.p_values):
            raise ConfigError("N must be positive and P non-negative")
        for n_vars in self.n_values:  # the field model owns its rules on N
            try:
                field_model(self.experiment, n_vars)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if self.experiment == "exp2" and self.p_values != (1,):
            raise ConfigError("exp2 resolves the coefficient at degree one; P must be 1")
        if self.weighting not in ("none", "a_min_inv"):
            raise ConfigError(f"unknown weighting {self.weighting!r}")
        if self.weighting != "none" and self.experiment != "exp3":
            raise ConfigError("the weighted expansion is only available for exp3")
        if self.weighting != "none" and self.method != "ritz":
            raise ConfigError("the weighted expansion trains the ritz loss only")
        if self.reference == "analytic" and self.experiment != "exp1":
            raise ConfigError("the analytic reference exists only for exp1")
        if self.reference == "coupled" and self.experiment == "exp2":
            raise ConfigError("the coupled reference is only assembled on 1-D meshes; exp2 is 2-D")
        # Each reference reads one of the two grid settings; the other would be ignored.
        if self.reference == "analytic" and self.metric.mesh is not None:
            raise ConfigError("metric.mesh is for the fem and coupled references; analytic takes metric.grid_points")
        if self.reference != "analytic" and self.metric.grid_points is not None:
            raise ConfigError(f"metric.grid_points is for the analytic reference; {self.reference} takes metric.mesh")

    @property
    def reference(self) -> str:
        return self.metric.reference or _DEFAULT_REFERENCE[self.experiment]

    @property
    def methods(self) -> tuple[str, ...]:
        return ("galerkin", "ritz") if self.method == "both" else (self.method,)

    def branch_spec(self, spatial_dim: int) -> BranchSpec:
        return BranchSpec(spatial_dim, *(self.net or _NET_PRESETS[self.experiment]))


def _as_int_tuple(value, name: str) -> tuple[int, ...]:
    if _is_int(value):
        return (value,)
    if isinstance(value, (list, tuple)) and value and all(_is_int(v) for v in value):
        return tuple(value)
    raise ConfigError(f"{name} must be an integer or list of integers")


def _section(value, name: str, keys) -> dict:
    """A config mapping that may hold only ``keys``; an absent section is empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a mapping")
    unknown = set(value) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown, key=str)}")
    return value


_TOP_KEYS = ("experiment", "method", "N", "P", "net", "train", "metric", "weighting", "seeds", "out_dir")
_SEED_KEYS = ("weights", "sobol", "mc", "validation")
# The Sobol and validation seeds are set under ``seeds`` only.
_TRAIN_KEYS = tuple(f.name for f in dataclasses.fields(TrainConfig) if not f.name.startswith("seed_"))
_METRIC_KEYS = tuple(f.name for f in dataclasses.fields(MetricConfig))


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a YAML experiment description."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"invalid YAML{where}: {exc}") from exc
    raw = _section(raw, "config", _TOP_KEYS)
    if "experiment" not in raw:
        raise ConfigError("missing required key 'experiment'")
    net = _section(raw.get("net"), "net", ("widths", "activations"))
    layers = None
    if len(net) == 1:
        raise ConfigError("net takes widths and activations together or not at all")
    if net:
        acts = net["activations"]
        if not isinstance(acts, list) or not all(isinstance(a, str) for a in acts):
            raise ConfigError("net.activations must be a list of names")
        widths = _as_int_tuple(net["widths"], "net.widths")
        if len(acts) != len(widths):
            raise ConfigError("net.activations must name one activation per hidden width")
        layers = (widths, tuple(acts) + ("linear",))  # the output layer is linear
    seeds = _section(raw.get("seeds"), "seeds", _SEED_KEYS)
    for key, value in seeds.items():
        if not _is_int(value) or value < 0:
            raise ConfigError(f"seeds.{key} must be a non-negative integer")
    seeds = {f"seed_{key}": value for key, value in seeds.items()}
    train_seeds = {key: seeds.pop(key) for key in ("seed_sobol", "seed_validation") if key in seeds}
    try:
        config = ExperimentConfig(
            n_values=_as_int_tuple(raw.get("N", 1), "N"),
            p_values=_as_int_tuple(raw.get("P", 1), "P"),
            net=layers,
            train=TrainConfig(**_section(raw.get("train"), "train", _TRAIN_KEYS), **train_seeds),
            metric=MetricConfig(**_section(raw.get("metric"), "metric", _METRIC_KEYS)),
            **seeds,
            **{key: raw[key] for key in ("experiment", "method", "weighting", "out_dir") if key in raw},
        )
        spec = config.branch_spec(field_model(config.experiment, 1).spatial_dim)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    _require_step_fits(config, spec)
    return config


def _require_step_fits(config: ExperimentConfig, spec: BranchSpec) -> None:
    """Refuse a sweep with a training step that needs more than physical memory.

    A step holds the network tape with its per-worker scratch (order 2 for
    the strong step, 1 for the Ritz step), the stored nonzeros of G and the
    contraction's product buffers; G is counted only when the tape fits.
    """
    batch, order = config.train.batch_size, 2 if "galerkin" in config.methods else 1
    physical = physical_memory()
    for n_dims, degree in itertools.product(config.n_values, config.p_values):
        size = basis_dim(n_dims, degree)
        needed = tape_nbytes(spec, size, batch, order)
        scratch = scratch_nbytes(spec, size, batch, order)
        terms = [f"a network tape of {needed / 1e9:.3g} GB ({scratch / 1e9:.3g} GB of it per-worker scratch)"]
        if needed <= physical:
            stored, products = galerkin_nbytes(n_dims, degree, batch)
            needed += stored + products
            terms += [f"{stored / 1e9:.3g} GB of stored nonzeros of G", f"{products / 1e9:.3g} GB of contraction products"]
        if needed > physical:
            raise ConfigError(
                f"one training step at batch {batch} with N={n_dims}, P={degree} ({size} branches) "
                f"needs {needed / 1e9:.3g} GB, more than the {physical / 1e9:.3g} GB of physical memory: "
                + ", ".join(terms)
            )


def _reference(
    config: ExperimentConfig, model: FieldModel, basis, tensor, train_field
) -> tuple[SpatialGrid, PathwiseEvaluator]:
    """Metric grid and reference evaluator; FEM references are compared at mesh midpoints."""
    reference = config.reference
    if reference == "analytic":
        grid = uniform_grid_1d(config.metric.grid_points or 257)
        return grid, exact_exp1_evaluator(grid)
    mesh_size = config.metric.mesh or (512 if model.spatial_dim == 1 else 64)
    if reference == "fem":
        mesh = Mesh1D(mesh_size) if model.spatial_dim == 1 else Mesh2D(mesh_size)
        grid = midpoint_grid(mesh)
        return grid, fem_evaluator(model, mesh, grid)
    mesh = Mesh1D(mesh_size)
    grid = midpoint_grid(mesh)
    return grid, coupled_evaluator(sga_fem_coupled(mesh, train_field, tensor), basis, grid)


def run(config: ExperimentConfig, echo=print) -> int:
    """Execute the sweep; append one results row per (N, P, method) entry."""
    out_dir = config.out_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        results_path = out_dir / "results.csv"
        fresh = not results_path.exists()
        handle = open(results_path, "a", newline="")
    except OSError as exc:
        echo(f"cannot prepare output directory: {exc}")
        return EXIT_IO
    with handle:
        writer = csv.writer(handle)
        if fresh:
            writer.writerow(RESULT_COLUMNS)

        try:
            for n_vars in config.n_values:
                for degree in config.p_values:
                    model = field_model(config.experiment, n_vars)
                    basis = total_degree_basis(n_vars, degree, model.family)
                    tensor = galerkin_tensor(basis)
                    train_field = SpectralField(model, basis, config.weighting)
                    grid, ref_eval = _reference(config, model, basis, tensor, train_field)
                    trained, surrogates = {}, {}
                    diverged = None
                    for method in config.methods:
                        tag = f"{config.experiment}_{method}_N{n_vars}_P{degree}"
                        echo(f"[{tag}] training {basis.size} branches")
                        spec = config.branch_spec(model.spatial_dim)
                        net = MultiBranchNet(spec, n_branches=basis.size, seed=config.seed_weights)
                        try:
                            result = train(
                                net,
                                "strong" if method == "galerkin" else "ritz",
                                train_field,
                                tensor,
                                config.train,
                                history_path=out_dir / f"history_{tag}.csv",
                                checkpoint_dir=(
                                    out_dir / f"checkpoints_{tag}"
                                    if config.train.checkpoint_interval
                                    else None
                                ),
                            )
                        except TrainingDivergedError as exc:
                            # The methods trained so far are still evaluated and recorded.
                            diverged = exc
                            break
                        net.save(out_dir / f"net_{tag}.npz")
                        trained[method] = (tag, result)
                        # Only the trained coefficients on the metric grid outlive the network.
                        surrogates[method] = net_evaluator(net, basis, grid)
                    if trained:
                        reports = rel_h1_error(
                            ref_eval,
                            surrogates,
                            grid,
                            model,
                            n_mc=config.metric.n_mc,
                            seed=config.seed_mc,
                        )
                        for method, (tag, result) in trained.items():
                            report = reports[method]
                            echo(
                                f"[{tag}] rel_error={report.rel_error:.4%} "
                                f"epochs={result.epochs} seconds={result.train_seconds:.1f}"
                            )
                            writer.writerow(
                                [
                                    config.experiment,
                                    method,
                                    n_vars,
                                    degree,
                                    basis.size,
                                    repr(report.rel_error),
                                    repr(report.numerator),
                                    repr(report.denominator),
                                    repr(result.train_seconds),
                                    result.epochs,
                                    repr(result.final_risk),
                                    repr(result.final_validation),
                                    config.seed_weights,
                                    config.train.seed_sobol,
                                    config.seed_mc,
                                    repr(report.mc_standard_error),
                                ]
                            )
                    handle.flush()
                    if diverged is not None:
                        raise diverged
        except TrainingDivergedError as exc:
            echo(f"training aborted: {exc}")
            return EXIT_TRAINING
        except FieldPositivityError as exc:
            echo(f"reference failed: {exc}")
            return EXIT_CONFIG
        except OSError as exc:
            echo(f"input/output failure: {exc}")
            return EXIT_IO
    return 0


# Plot kind -> (results column, y label, title, log y axis).
_PLOTS = {
    "error_vs_dim": ("rel_error", "relative H1 error", "Approximation error vs system dimension", True),
    "time_vs_dim": ("train_seconds", "training time [s]", "Training time vs system dimension", False),
}


def plot(results_csv: str | Path, kind: str, out_path: str | Path, echo=print) -> int:
    """Render a results table as an SVG convergence or timing figure."""
    if kind not in _PLOTS:
        echo(f"unknown plot kind {kind!r}")
        return EXIT_CONFIG
    try:
        with open(results_csv, newline="") as handle:
            rows = list(csv.DictReader(handle))
    except OSError as exc:
        echo(f"cannot read results: {exc}")
        return EXIT_IO
    if not rows:
        echo("results file has no data rows")
        return EXIT_CONFIG
    y_column, y_label, title, y_log = _PLOTS[kind]
    required = {"method", "M_plus_1", y_column}
    if not required.issubset(rows[0]):
        echo(f"results file is missing columns: {sorted(required - set(rows[0]))}")
        return EXIT_CONFIG

    series: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        series.setdefault(row["method"], []).append(
            (float(row["M_plus_1"]), float(row[y_column]))
        )
    plotted = [
        (method, [p[0] for p in sorted(points)], [p[1] for p in sorted(points)])
        for method, points in sorted(series.items())
    ]
    svg = line_plot(plotted, "system dimension M + 1", y_label, title, y_log=y_log)
    try:
        Path(out_path).write_text(svg)
    except OSError as exc:
        echo(f"cannot write figure: {exc}")
        return EXIT_IO
    return 0


def tensor_dump(n_vars: int, degree: int, family_name: str, out_path: str | Path, echo=print) -> int:
    """Precompute a triple-product tensor and write the dense binary dump.

    A dump whose cube would not fit in physical memory is refused before
    anything is built.
    """
    try:
        family = PolyFamily(family_name)
    except ValueError:
        echo(f"unknown family {family_name!r}; use 'hermite' or 'legendre'")
        return EXIT_CONFIG
    try:
        require_dense_fits(basis_dim(n_vars, degree))
        basis = total_degree_basis(n_vars, degree, family)
    except ValueError as exc:
        echo(f"invalid tensor request: {exc}")
        return EXIT_CONFIG
    tensor = galerkin_tensor(basis)
    try:
        save_tensor(tensor, family, out_path)
    except OSError as exc:
        echo(f"cannot write tensor: {exc}")
        return EXIT_IO
    echo(f"wrote {tensor.dim}^3 tensor to {out_path}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sgnet",
        description="Stochastic Galerkin solver with neural spectral-coefficient surrogates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="train and evaluate an experiment sweep")
    run_parser.add_argument("config", help="YAML experiment description")

    plot_parser = sub.add_parser("plot", help="render a results.csv as SVG")
    plot_parser.add_argument("results", help="results.csv produced by 'run'")
    plot_parser.add_argument("--kind", default="error_vs_dim", help=" or ".join(_PLOTS))
    plot_parser.add_argument("--out", required=True, help="output SVG path")

    tensor_parser = sub.add_parser("tensor", help="precompute a triple-product tensor")
    tensor_parser.add_argument("N", type=int)
    tensor_parser.add_argument("P", type=int)
    tensor_parser.add_argument("family", help="hermite or legendre")
    tensor_parser.add_argument("--out", required=True)

    sub.add_parser("validate", help="run the built-in self checks")

    args = parser.parse_args(argv)
    if args.command == "run":
        try:
            config = load_config(args.config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        return run(config)
    if args.command == "plot":
        return plot(args.results, args.kind, args.out)
    if args.command == "tensor":
        return tensor_dump(args.N, args.P, args.family, args.out)
    ok = diagnostics.run_all()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
