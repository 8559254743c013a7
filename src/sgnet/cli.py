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
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Sequence

import yaml

from . import diagnostics
from .fields import FieldModel, field_model, make_spectral_field
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
from .net import BranchSpec, MultiBranchNet, tape_nbytes
from .reference import FieldPositivityError, Mesh1D, Mesh2D, sga_fem_coupled
from .solver import TrainConfig, TrainingDivergedError, train
from .spectral import (
    PolyFamily,
    basis_dim,
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
    net_widths: tuple[int, ...] | None = None
    net_activations: tuple[str, ...] | None = None
    train: TrainConfig = dc_field(default_factory=TrainConfig)
    metric: MetricConfig = dc_field(default_factory=MetricConfig)
    weighting: str = "none"
    output_scale: float = 1.0
    seed_weights: int = 1
    seed_mc: int = 1
    out_dir: Path = Path("results")

    def __post_init__(self) -> None:
        if self.experiment not in ("exp1", "exp2", "exp3"):
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.method not in ("galerkin", "ritz", "both"):
            raise ConfigError(f"unknown method {self.method!r}")
        if not self.n_values or not self.p_values:
            raise ConfigError("sweep ranges must be non-empty")
        if any(n < 1 for n in self.n_values) or any(p < 0 for p in self.p_values):
            raise ConfigError("N must be positive and P non-negative")
        if self.experiment == "exp1" and self.n_values != (1,):
            raise ConfigError("exp1 is driven by a single variable; N must be 1")
        if self.experiment == "exp2" and self.p_values != (1,):
            raise ConfigError("exp2 resolves the coefficient at degree one; P must be 1")
        if self.weighting not in ("none", "a_min_inv"):
            raise ConfigError(f"unknown weighting {self.weighting!r}")
        if self.weighting != "none" and self.experiment != "exp3":
            raise ConfigError("the weighted expansion is only available for exp3")
        if self.weighting != "none" and self.method != "ritz":
            raise ConfigError("the weighted expansion trains the ritz loss only")
        if self.output_scale <= 0:
            raise ConfigError("output_scale must be positive")
        if self.metric.reference == "analytic" and self.experiment != "exp1":
            raise ConfigError("the analytic reference exists only for exp1")
        if self.metric.reference == "coupled" and self.experiment == "exp2":
            raise ConfigError("the coupled reference is only assembled on 1-D meshes; exp2 is 2-D")

    @property
    def methods(self) -> tuple[str, ...]:
        return ("galerkin", "ritz") if self.method == "both" else (self.method,)

    def branch_spec(self, spatial_dim: int) -> BranchSpec:
        if self.net_widths is not None:
            widths = self.net_widths
            if self.net_activations is not None:
                activations = self.net_activations
            else:
                preset_acts = _NET_PRESETS[self.experiment][1]
                activations = tuple(
                    preset_acts[min(i, len(preset_acts) - 2)] for i in range(len(widths))
                ) + ("linear",)
        else:
            widths, activations = _NET_PRESETS[self.experiment]
        return BranchSpec(spatial_dim, tuple(widths), tuple(activations))


def _as_int_tuple(value, name: str) -> tuple[int, ...]:
    if _is_int(value):
        return (value,)
    if isinstance(value, (list, tuple)) and value and all(_is_int(v) for v in value):
        return tuple(value)
    raise ConfigError(f"{name} must be an integer or list of integers")


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
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")

    known = {
        "experiment",
        "method",
        "N",
        "P",
        "net",
        "train",
        "metric",
        "weighting",
        "output_scale",
        "seeds",
        "out_dir",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "experiment" not in raw:
        raise ConfigError("missing required key 'experiment'")

    kwargs: dict = {"experiment": raw["experiment"]}
    if "method" in raw:
        kwargs["method"] = raw["method"]
    kwargs["n_values"] = _as_int_tuple(raw.get("N", 1), "N")
    kwargs["p_values"] = _as_int_tuple(raw.get("P", 1), "P")

    net_section = raw.get("net", {}) or {}
    if not isinstance(net_section, dict):
        raise ConfigError("net section must be a mapping")
    if "widths" in net_section:
        kwargs["net_widths"] = _as_int_tuple(net_section["widths"], "net.widths")
    if "activations" in net_section:
        acts = net_section["activations"]
        if not isinstance(acts, list) or not all(isinstance(a, str) for a in acts):
            raise ConfigError("net.activations must be a list of names")
        kwargs["net_activations"] = tuple(acts) + (
            () if acts and acts[-1] == "linear" else ("linear",)
        )

    train_section = raw.get("train", {}) or {}
    if not isinstance(train_section, dict):
        raise ConfigError("train section must be a mapping")
    train_fields = {f.name for f in dataclasses.fields(TrainConfig)}
    unknown = set(train_section) - train_fields
    if unknown:
        raise ConfigError(f"unknown train keys: {sorted(unknown)}")
    try:
        kwargs["train"] = TrainConfig(**train_section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid train section: {exc}") from exc

    metric_section = raw.get("metric", {}) or {}
    if not isinstance(metric_section, dict):
        raise ConfigError("metric section must be a mapping")
    metric_fields = {f.name for f in dataclasses.fields(MetricConfig)}
    unknown = set(metric_section) - metric_fields
    if unknown:
        raise ConfigError(f"unknown metric keys: {sorted(unknown)}")
    kwargs["metric"] = MetricConfig(**metric_section)

    seeds = raw.get("seeds", {}) or {}
    if not isinstance(seeds, dict):
        raise ConfigError("seeds section must be a mapping")
    unknown = set(seeds) - {"weights", "sobol", "mc", "validation"}
    if unknown:
        raise ConfigError(f"unknown seed keys: {sorted(unknown)}")
    for key, value in seeds.items():
        if not _is_int(value) or value < 0:
            raise ConfigError(f"seeds.{key} must be a non-negative integer")
    if seeds.get("sobol") == 0:
        raise ConfigError("seeds.sobol must be a positive integer")
    kwargs["seed_weights"] = seeds.get("weights", 1)
    kwargs["seed_mc"] = seeds.get("mc", 1)
    kwargs["train"] = dataclasses.replace(
        kwargs["train"], **{f"seed_{key}": seeds[key] for key in ("sobol", "validation") if key in seeds}
    )

    for key in ("weighting", "output_scale"):
        if key in raw:
            kwargs[key] = raw[key]
    if "out_dir" in raw:
        kwargs["out_dir"] = Path(raw["out_dir"])
    try:
        config = ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    _require_tape_fits(config)
    return config


def _require_tape_fits(config: ExperimentConfig) -> None:
    """Refuse a sweep whose largest training step needs a network tape beyond physical memory.

    The strong step evaluates the net to order 2, the Ritz step to order 1.
    """
    try:
        spec = config.branch_spec(field_model(config.experiment, 1).spatial_dim)
    except ValueError as exc:
        raise ConfigError(f"invalid net section: {exc}") from exc
    size = max(basis_dim(n, p) for n in config.n_values for p in config.p_values)
    order = 2 if "galerkin" in config.methods else 1
    needed, physical = tape_nbytes(spec, size, config.train.batch_size, order), physical_memory()
    if needed > physical:
        raise ConfigError(
            f"the network tape of one training step at batch {config.train.batch_size} "
            f"with {size} branches needs {needed / 1e9:.3g} GB, "
            f"more than the {physical / 1e9:.3g} GB of physical memory"
        )


def _reference(
    config: ExperimentConfig, model: FieldModel, basis, tensor, train_field, reference: str
) -> tuple[SpatialGrid, PathwiseEvaluator]:
    """Metric grid and reference evaluator; FEM references are compared at mesh midpoints."""
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
    out_dir = Path(config.out_dir)
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

        reference = config.metric.reference or _DEFAULT_REFERENCE[config.experiment]
        try:
            for n_vars in config.n_values:
                for degree in config.p_values:
                    model = field_model(config.experiment, n_vars)
                    basis = total_degree_basis(n_vars, degree, model.family)
                    tensor = galerkin_tensor(basis)
                    train_field = make_spectral_field(model, basis, weighting=config.weighting)
                    plain_field = (
                        train_field if config.weighting == "none" else make_spectral_field(model, basis)
                    )
                    grid, ref_eval = _reference(config, model, basis, tensor, train_field, reference)
                    trained, surrogates = {}, {}
                    diverged = None
                    for method in config.methods:
                        tag = f"{config.experiment}_{method}_N{n_vars}_P{degree}"
                        echo(f"[{tag}] training {basis.size} branches")
                        spec = config.branch_spec(model.spatial_dim)
                        net = MultiBranchNet(spec, n_branches=basis.size, seed=config.seed_weights)
                        loss_kind = "strong" if method == "galerkin" else "ritz"
                        # The strong residual is posed with unweighted operators.
                        field_for_loss = plain_field if loss_kind == "strong" else train_field
                        try:
                            result = train(
                                net,
                                loss_kind,
                                field_for_loss,
                                tensor,
                                config.train,
                                validation_field=plain_field,
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
                        surrogates[method] = net_evaluator(net, basis, grid, scale=config.output_scale)
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


def plot(results_csv: str | Path, kind: str, out_path: str | Path, echo=print) -> int:
    """Render a results table as an SVG convergence or timing figure."""
    if kind not in ("error_vs_dim", "time_vs_dim"):
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
    y_column = "rel_error" if kind == "error_vs_dim" else "train_seconds"
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
    if kind == "error_vs_dim":
        svg = line_plot(
            plotted,
            "system dimension M + 1",
            "relative H1 error",
            "Approximation error vs system dimension",
            y_log=True,
        )
    else:
        svg = line_plot(
            plotted,
            "system dimension M + 1",
            "training time [s]",
            "Training time vs system dimension",
            y_log=False,
        )
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
    plot_parser.add_argument("--kind", default="error_vs_dim", help="error_vs_dim or time_vs_dim")
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
