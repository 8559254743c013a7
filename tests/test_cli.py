"""Config parsing, the experiment runner, plotting and the tensor dump command."""

from __future__ import annotations

import csv
import gc
import time
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
import yaml

import sgnet.cli
from sgnet import diagnostics
from sgnet.cli import (
    EXIT_CONFIG,
    EXIT_TRAINING,
    RESULT_COLUMNS,
    ConfigError,
    load_config,
    main,
    plot,
    run,
    tensor_dump,
)
from sgnet.fields import draw_samples
from sgnet.net import BranchSpec, scratch_nbytes, tape_nbytes
from sgnet.reference import FieldPositivityError
from sgnet.solver import TrainingDivergedError
from sgnet.spectral import PolyFamily, basis_dim, galerkin_nbytes, load_tensor


def write_config(path: Path, **overrides) -> Path:
    config = {
        "experiment": "exp1",
        "method": "both",
        "N": 1,
        "P": [0, 1],
        "net": {"widths": [6], "activations": ["swish"]},
        "train": {
            "batch_size": 16,
            "steps_per_epoch": 3,
            "max_epochs": 2,
            "patience": 10,
            "risk_threshold": None,
            "validation_samples": 40,
            "validation_interval": 1,
        },
        "metric": {"n_mc": 60, "grid_points": 33},
        "seeds": {"weights": 3, "sobol": 2, "mc": 5},
        "out_dir": str(path.parent / "out"),
    }
    config.update(overrides)
    path.write_text(yaml.safe_dump(config))
    return path


def read_results(out_dir: Path) -> list[dict]:
    with open(out_dir / "results.csv", newline="") as handle:
        return list(csv.DictReader(handle))


class TestConfigParsing:
    def test_minimal_config_defaults(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("experiment: exp1\n")
        config = load_config(path)
        assert config.methods == ("galerkin", "ritz")
        assert config.n_values == (1,)

    def test_unknown_experiment(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("experiment: exp9\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_yaml_syntax_error_carries_location(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("experiment: exp1\ntrain: {batch_size: [\n")
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("experiment: exp1\nbogus: 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)
        # The factors are exact closed forms, so there is no quadrature size to set.
        path.write_text("experiment: exp3\nquad_nodes: 40\n")
        with pytest.raises(ConfigError, match="quad_nodes"):
            load_config(path)
        # Every domain is the unit interval or square, so its volume is not a setting.
        path.write_text("experiment: exp1\ntrain: {domain_volume: 1.0}\n")
        with pytest.raises(ConfigError, match="domain_volume"):
            load_config(path)
        # The validation grid is fixed per spatial dimension.
        path.write_text("experiment: exp1\ntrain: {validation_points: 0}\n")
        with pytest.raises(ConfigError, match="validation_points"):
            load_config(path)
        # The network's output is reported as trained; there is no output scale.
        path.write_text("experiment: exp1\noutput_scale: 2.0\n")
        with pytest.raises(ConfigError, match="output_scale"):
            load_config(path)
        # Seeds are set under seeds only.
        path.write_text("experiment: exp1\ntrain: {seed_sobol: 2}\n")
        with pytest.raises(ConfigError, match="seed_sobol"):
            load_config(path)
        path.write_text("experiment: exp1\nnet: {width: [8]}\n")
        with pytest.raises(ConfigError, match="width"):
            load_config(path)

    def test_net_takes_widths_and_activations_together(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("experiment: exp1\nnet: {activations: [swish]}\n")
        with pytest.raises(ConfigError, match="together"):
            load_config(path)
        path.write_text("experiment: exp1\nnet: {widths: [8]}\n")
        with pytest.raises(ConfigError, match="together"):
            load_config(path)
        path.write_text("experiment: exp1\nnet: {widths: [8], activations: [sigmoid]}\n")
        assert load_config(path).branch_spec(1) == BranchSpec(1, (8,), ("sigmoid", "linear"))
        path.write_text("experiment: exp1\n")
        assert load_config(path).branch_spec(1) == BranchSpec(
            1, (45,) * 4, ("swish", "sigmoid", "sigmoid", "sigmoid", "linear")
        )

    def test_one_activation_per_hidden_width(self, tmp_path, capsys):
        # The linear output layer is always appended, so a linear last hidden
        # layer can be written and a network has one spelling.
        path = tmp_path / "c.yaml"
        path.write_text("experiment: exp1\nnet: {widths: [4, 4], activations: [swish, linear]}\n")
        assert load_config(path).branch_spec(1) == BranchSpec(1, (4, 4), ("swish", "linear", "linear"))
        path = write_config(tmp_path / "c1.yaml", net={"widths": [4], "activations": ["swish", "linear"]})
        assert main(["run", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("config error:")
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_readme_schema_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        schema = readme.split("### Configuration schema", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "c.yaml"
        path.write_text(schema)
        config = load_config(path)
        assert set(yaml.safe_load(schema)) == {
            "experiment", "method", "N", "P", "net", "train", "metric", "weighting", "seeds", "out_dir"
        }
        assert config.p_values == (0, 2, 4)
        assert config.branch_spec(1).hidden_widths == (30, 30, 30)
        assert (config.train.seed_sobol, config.train.seed_validation) == (1, 1)

    def test_exp2_requires_degree_one(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("experiment: exp2\nN: 2\nP: 2\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_weighting_restrictions(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("experiment: exp1\nweighting: a_min_inv\n")
        with pytest.raises(ConfigError):
            load_config(path)
        path.write_text("experiment: exp3\nmethod: galerkin\nweighting: a_min_inv\n")
        with pytest.raises(ConfigError):
            load_config(path)
        path.write_text("experiment: exp3\nmethod: ritz\nweighting: a_min_inv\n")
        assert load_config(path).weighting == "a_min_inv"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.yaml")

    def test_main_exit_code_for_bad_config(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("experiment: exp9\n")
        assert main(["run", str(path)]) == EXIT_CONFIG


class TestRunner:
    def test_sweep_produces_cartesian_rows(self, tmp_path):
        config = load_config(write_config(tmp_path / "c.yaml"))
        assert run(config, echo=lambda *_: None) == 0
        rows = read_results(Path(config.out_dir))
        assert len(rows) == 4  # two degrees x two methods
        assert tuple(rows[0].keys()) == RESULT_COLUMNS
        assert {row["method"] for row in rows} == {"galerkin", "ritz"}
        assert {row["P"] for row in rows} == {"0", "1"}
        for row in rows:
            assert float(row["rel_error"]) >= 0.0
            assert int(row["M_plus_1"]) == int(row["P"]) + 1

    def test_rerun_is_deterministic_up_to_timing(self, tmp_path):
        timing_columns = {"train_seconds"}
        results = []
        for attempt in range(2):
            out = tmp_path / f"run{attempt}"
            config = load_config(
                write_config(tmp_path / f"c{attempt}.yaml", out_dir=str(out))
            )
            assert run(config, echo=lambda *_: None) == 0
            results.append(read_results(out))
        for row_a, row_b in zip(*results):
            for column in RESULT_COLUMNS:
                if column in timing_columns:
                    continue
                assert row_a[column] == row_b[column], column

    def test_history_and_checkpoint_artifacts(self, tmp_path):
        config = load_config(
            write_config(tmp_path / "c.yaml", P=[0], method="ritz")
        )
        assert run(config, echo=lambda *_: None) == 0
        out = Path(config.out_dir)
        assert (out / "history_exp1_ritz_N1_P0.csv").exists()
        assert (out / "net_exp1_ritz_N1_P0.npz").exists()
        history = (out / "history_exp1_ritz_N1_P0.csv").read_text().splitlines()
        assert history[0] == "epoch,risk,lr,validation,seconds"

    @pytest.mark.parametrize(
        "experiment, reference", [("exp2", "analytic"), ("exp3", "analytic"), ("exp2", "coupled")]
    )
    def test_impossible_reference_fails_before_any_output(self, tmp_path, capsys, experiment, reference):
        path = write_config(
            tmp_path / "c.yaml",
            experiment=experiment,
            N=2,
            P=1,
            metric={"n_mc": 60, "reference": reference},
        )
        assert main(["run", str(path)]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"metric": {"n_mc": "abc"}},
            {"metric": {"n_mc": 0}},
            {"metric": {"n_mc": 60.5}},
            {"metric": {"n_mc": 60, "reference": "coupled", "mesh": 1}},
            {"metric": {"n_mc": 60, "grid_points": 1}},
            {"metric": {"n_mc": 60, "mesh": 8}},
            {"metric": {"n_mc": 60, "reference": "fem", "grid_points": 33}},
            {"metric": {"n_mc": 60, "reference": "coupled", "grid_points": 33, "mesh": 8}},
            {"experiment": "exp3", "metric": {"n_mc": 60, "grid_points": 33}},
            {"seeds": {"weights": "x"}},
            {"seeds": {"mc": 1.5}},
            {"seeds": {"sobol": -1}},
            {"seeds": {"sobol": 0}},
            {"train": {"batch_size": 2.5}},
            {"train": {"steps_per_epoch": 1.5}},
            {"train": {"validation_samples": True}},
            {"train": {"validation_samples": 0}},
            {"train": {"checkpoint_interval": 0}},
            {"train": {"risk_threshold": "abc"}},
            {"train": {"risk_threshold": True}},
            {"train": {"risk_threshold": float("nan")}},
            {"train": {"lr0": float("nan")}},
            {"train": {"lr0": float("inf")}},
            {"train": {"lr_decay": True}},
            {"N": 2},
            {"experiment": "exp3", "N": 62, "metric": {"n_mc": 60}},
            {"train": {"seed_sobol": 3}},
            {"net": {"width": [8]}},
            {"net": {"activations": ["swish"]}},
            {"out_dir": 5},
            {"output_scale": 2.0},
        ],
        ids=[
            "n_mc-text", "n_mc-zero", "n_mc-float", "mesh-1", "grid-1",
            "mesh-analytic", "grid-fem", "grid-coupled", "grid-default-fem",
            "seed-text", "seed-float", "seed-negative", "sobol-zero",
            "batch-float", "steps-float", "count-bool", "validation-zero", "checkpoint-zero",
            "threshold-text", "threshold-bool", "threshold-nan", "lr0-nan", "lr0-inf", "decay-bool",
            "exp1-two-vars", "exp3-past-kl-cap", "train-seed", "net-unknown", "net-activations-alone",
            "out_dir-int", "output_scale",
        ],
    )
    def test_bad_metric_or_seed_fails_before_any_output(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path / "c.yaml", P=[0], **overrides)
        assert main(["run", str(path)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("config error:")
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_bad_net_section_fails_before_any_output(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.yaml", net={"widths": [6], "activations": ["relu"]})
        assert main(["run", str(path)]) == EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_oversized_network_tape_fails_before_any_output(self, tmp_path, capsys):
        # exp3 at N=16, P=6 has 74,613 branches; one strong step at batch 256
        # needs a tape of hundreds of GB, refused before any tensor is built.
        train = {"batch_size": 256, "steps_per_epoch": 1, "max_epochs": 1}
        path = write_config(
            tmp_path / "c.yaml", experiment="exp3", N=16, P=6, net={}, train=train, metric={"n_mc": 60}
        )
        start = time.perf_counter()
        assert main(["run", str(path)]) == EXIT_CONFIG
        elapsed = time.perf_counter() - start
        spec = BranchSpec(1, (45,) * 5, ("swish",) * 5 + ("linear",))
        needed = tape_nbytes(spec, basis_dim(16, 6), 256, order=2)
        assert needed > 1e11
        err = capsys.readouterr().err
        assert "config error:" in err and f"{needed / 1e9:.3g} GB" in err
        assert not (tmp_path / "out" / "results.csv").exists()
        assert elapsed < 1.0

    def test_tensor_and_contraction_memory_count_against_the_sweep(self, tmp_path, capsys, monkeypatch):
        # exp3 at N=6, P=4: one strong step holds the tape, G's 30,562 stored
        # nonzeros and the contraction's product buffers.  With one byte less
        # than their sum the sweep is refused, and the message names each term.
        train = {"batch_size": 256, "steps_per_epoch": 1, "max_epochs": 1}
        path = write_config(
            tmp_path / "c.yaml", experiment="exp3", N=6, P=4, net={}, train=train, metric={"n_mc": 60}
        )
        spec = BranchSpec(1, (45,) * 5, ("swish",) * 5 + ("linear",))
        tape, scratch = tape_nbytes(spec, 210, 256, order=2), scratch_nbytes(spec, 210, 256, order=2)
        stored, products = galerkin_nbytes(6, 4, 256)
        needed = tape + stored + products
        monkeypatch.setattr(sgnet.cli, "physical_memory", lambda: needed - 1)
        assert main(["run", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        for term in (needed, tape, scratch, stored, products):
            assert f"{term / 1e9:.3g} GB" in err
        for name in ("network tape", "per-worker scratch", "stored nonzeros of G", "contraction products"):
            assert name in err
        assert not (tmp_path / "out" / "results.csv").exists()
        monkeypatch.setattr(sgnet.cli, "physical_memory", lambda: needed)
        assert load_config(path).p_values == (4,)

    def test_exp3_at_N11_P4_fits_a_9_gb_host(self, tmp_path, capsys, monkeypatch):
        # exp3 at N=11, P=4 has 1,365 branches; one strong step at batch 512
        # keeps a 7.6 GB tape (10.1 GB when every layer kept its output over
        # all derivative rows), so it loads on a 9 GB host and is refused on
        # a 7 GB one, for the tape alone.
        train = {"batch_size": 512, "steps_per_epoch": 1, "max_epochs": 1}
        path = write_config(
            tmp_path / "c.yaml", experiment="exp3", N=11, P=4, net={}, train=train, metric={"n_mc": 60}
        )
        monkeypatch.setattr(sgnet.cli, "physical_memory", lambda: 9 * 10**9)
        assert load_config(path).n_values == (11,)
        monkeypatch.setattr(sgnet.cli, "physical_memory", lambda: 7 * 10**9)
        assert main(["run", str(path)]) == EXIT_CONFIG
        spec = BranchSpec(1, (45,) * 5, ("swish",) * 5 + ("linear",))
        tape = tape_nbytes(spec, basis_dim(11, 4), 512, order=2)
        err = capsys.readouterr().err
        assert f"network tape of {tape / 1e9:.3g} GB" in err and "stored nonzeros" not in err
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_a_2d_fem_reference_that_cannot_fit_is_refused(self, tmp_path, capsys, monkeypatch):
        # exp2 on a 1024 x 1024 mesh: each of two workers holds an 8.58 GB
        # band (1,025 rows, 1,023^2 unknowns) and its factor's copy.
        path = write_config(
            tmp_path / "c.yaml", experiment="exp2", N=2, P=1, metric={"n_mc": 60, "mesh": 1024}
        )
        band, copy = 8 * 1025 * 1023**2, 8 * 1025 * (1023**2 + 1024)
        monkeypatch.setattr(sgnet.cli.workers, "count", lambda: 2)
        monkeypatch.setattr(sgnet.cli, "physical_memory", lambda: 2 * (band + copy) - 1)
        assert main(["run", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "1024 x 1024 mesh" in err and f"{2 * (band + copy) / 1e9:.3g} GB" in err
        assert f"a {band / 1e9:.3g} GB band" in err and "8.58 GB band" in err and "2 workers" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out" / "results.csv").exists()
        monkeypatch.setattr(sgnet.cli, "physical_memory", lambda: 2 * (band + copy))
        assert load_config(path).metric.mesh == 1024

    def test_a_coupled_reference_that_cannot_fit_is_refused(self, tmp_path, capsys, monkeypatch):
        # exp3 at N=10, P=4 has 1,001 coefficients; on a 512-element mesh the
        # coupled band has 2,002 rows and 511 x 1,001 columns, 8.19 GB, and it
        # is built from 512 + 511 + 510 blocks of 1,001^2 values, 12.3 GB.
        path = write_config(
            tmp_path / "c.yaml",
            experiment="exp3",
            N=10,
            P=4,
            method="ritz",
            metric={"n_mc": 60, "reference": "coupled", "mesh": 512},
        )
        band, blocks = 8 * 2002 * 511 * 1001, 8 * 1533 * 1001**2
        monkeypatch.setattr(sgnet.cli, "physical_memory", lambda: band + blocks - 1)
        assert main(["run", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "N=10, P=4 on a 512-element mesh" in err and f"{(band + blocks) / 1e9:.3g} GB" in err
        assert "8.19 GB band" in err and "12.3 GB of element, diagonal and coupling blocks" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out" / "results.csv").exists()
        monkeypatch.setattr(sgnet.cli, "physical_memory", lambda: band + blocks)
        assert load_config(path).n_values == (10,)

    def test_each_sample_reaches_the_reference_once(self, tmp_path, monkeypatch):
        # Both methods of an (N, P) entry are measured in one Monte Carlo pass:
        # the entry's reference sees every sample exactly once.
        config = load_config(write_config(tmp_path / "c.yaml"))
        real_builder = sgnet.cli.exact_exp1_evaluator
        seen = []  # the sample blocks each built reference was called on

        def counting_builder(grid):
            reference = real_builder(grid)
            blocks = []
            seen.append(blocks)

            def counting(samples):
                blocks.append(np.array(samples))
                return reference(samples)

            return counting

        monkeypatch.setattr(sgnet.cli, "exact_exp1_evaluator", counting_builder)
        assert run(config, echo=lambda *_: None) == 0
        expected = draw_samples(
            PolyFamily.HERMITE, 1, config.metric.n_mc, np.random.default_rng(config.seed_mc)
        )
        assert len(seen) == len(config.p_values)
        first_rows = {row.tobytes(): i for i, row in enumerate(expected)}
        for blocks in seen:
            # The workers reach the reference in any order: lay the blocks out by their first sample.
            blocks.sort(key=lambda block: first_rows[block[0].tobytes()])
            np.testing.assert_array_equal(np.concatenate(blocks), expected)
        rows = read_results(Path(config.out_dir))
        assert len(rows) == 2 * len(config.p_values)
        assert all(float(row["rel_error_se"]) > 0.0 for row in rows)

    def test_training_abort_keeps_partial_results(self, tmp_path, monkeypatch):
        # The second training of the sweep diverges: run exits with code 3 and
        # results.csv keeps the header and the row of the first method.
        config = load_config(write_config(tmp_path / "c.yaml", P=[0]))
        real_train = sgnet.cli.train
        methods = []

        def train_then_diverge(net, loss_kind, *args, **kwargs):
            methods.append(loss_kind)
            if len(methods) == 2:
                raise TrainingDivergedError("risk is not finite at epoch 1")
            return real_train(net, loss_kind, *args, **kwargs)

        monkeypatch.setattr(sgnet.cli, "train", train_then_diverge)
        assert run(config, echo=lambda *_: None) == EXIT_TRAINING
        assert methods == ["strong", "ritz"]
        out = Path(config.out_dir)
        header = (out / "results.csv").read_text().splitlines()[0]
        assert tuple(header.split(",")) == RESULT_COLUMNS
        rows = read_results(out)
        assert [(row["method"], row["P"]) for row in rows] == [("galerkin", "0")]
        assert float(rows[0]["rel_error"]) >= 0.0

    def test_coupled_reference_failure_exits_with_one_message(self, tmp_path, monkeypatch, capsys):
        # A coupled reference whose operator is not positive definite ends the
        # run with exit code 2 and one line; results.csv keeps its header and
        # is closed.
        path = write_config(
            tmp_path / "c.yaml", experiment="exp3", P=[3], metric={"reference": "coupled", "mesh": 8}
        )

        def not_positive_definite(*args):
            raise FieldPositivityError("the discrete operator is not positive definite")

        monkeypatch.setattr(sgnet.cli, "sga_fem_coupled", not_positive_definite)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert main(["run", str(path)]) == EXIT_CONFIG
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert capsys.readouterr().out.splitlines() == [
            "reference failed: the discrete operator is not positive definite"
        ]
        lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert [tuple(line.split(",")) for line in lines] == [RESULT_COLUMNS]


class TestPlot:
    def make_results(self, path: Path, rows) -> Path:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(RESULT_COLUMNS)
            for row in rows:
                writer.writerow(row)
        return path

    def sample_rows(self):
        rows = []
        for method in ("galerkin", "ritz"):
            for i, dim in enumerate((1, 3, 6, 10, 15)):
                rows.append(
                    [
                        "exp1",
                        method,
                        1,
                        dim - 1,
                        dim,
                        repr(10.0 ** (-1 - 0.3 * i)),
                        "1.0",
                        "2.0",
                        repr(3.0 + i),
                        50,
                        "1e-7",
                        "nan",
                        1,
                        1,
                        1,
                    ]
                )
        return rows

    def test_error_plot_has_two_series(self, tmp_path):
        results = self.make_results(tmp_path / "results.csv", self.sample_rows())
        out = tmp_path / "plot.svg"
        assert plot(results, "error_vs_dim", out, echo=lambda *_: None) == 0
        root = ET.fromstring(out.read_text())
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 2
        for line in polylines:
            assert len(line.attrib["points"].split()) == 5

    def test_time_plot_renders(self, tmp_path):
        results = self.make_results(tmp_path / "results.csv", self.sample_rows())
        out = tmp_path / "time.svg"
        assert plot(results, "time_vs_dim", out, echo=lambda *_: None) == 0
        ET.fromstring(out.read_text())

    def test_plot_bytes_are_deterministic(self, tmp_path):
        results = self.make_results(tmp_path / "results.csv", self.sample_rows())
        out_a, out_b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert plot(results, "error_vs_dim", out_a, echo=lambda *_: None) == 0
        assert plot(results, "error_vs_dim", out_b, echo=lambda *_: None) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_single_row_plot_is_valid(self, tmp_path):
        results = self.make_results(tmp_path / "results.csv", self.sample_rows()[:1])
        out = tmp_path / "one.svg"
        assert plot(results, "error_vs_dim", out, echo=lambda *_: None) == 0
        root = ET.fromstring(out.read_text())
        circles = [el for el in root.iter() if el.tag.endswith("circle")]
        assert len(circles) == 1

    def test_empty_results_error_and_no_file(self, tmp_path):
        results = self.make_results(tmp_path / "results.csv", [])
        out = tmp_path / "nothing.svg"
        assert plot(results, "error_vs_dim", out, echo=lambda *_: None) == EXIT_CONFIG
        assert not out.exists()

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("method,P\ngalerkin,1\n")
        assert plot(path, "error_vs_dim", tmp_path / "x.svg", echo=lambda *_: None) == EXIT_CONFIG

    def test_unknown_kind_rejected(self, tmp_path):
        results = self.make_results(tmp_path / "results.csv", self.sample_rows())
        assert plot(results, "volume_vs_dim", tmp_path / "x.svg", echo=lambda *_: None) == EXIT_CONFIG

    def test_round_trip_of_emitted_rows(self, tmp_path):
        rows = self.sample_rows()
        results = self.make_results(tmp_path / "results.csv", rows)
        with open(results, newline="") as handle:
            parsed = list(csv.DictReader(handle))
        for raw, row in zip(rows, parsed):
            assert float(row["rel_error"]) == float(raw[5])
            assert int(row["M_plus_1"]) == raw[4]


class TestTensorCommand:
    def test_dump_and_reload(self, tmp_path):
        out = tmp_path / "g.bin"
        assert tensor_dump(2, 2, "hermite", out, echo=lambda *_: None) == 0
        tensor, family = load_tensor(out)
        assert family is PolyFamily.HERMITE
        assert tensor.dim == 6
        np.testing.assert_array_equal(tensor.values[0], np.eye(6))

    def test_unknown_family(self, tmp_path):
        assert tensor_dump(1, 2, "jacobi", tmp_path / "g.bin", echo=lambda *_: None) == EXIT_CONFIG

    def test_oversized_dense_dump_is_refused(self, tmp_path):
        # N=16, P=6 has K=74,613: the dense cube would need 3.3 PB.
        out = tmp_path / "g.bin"
        assert main(["tensor", "16", "6", "hermite", "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_main_dispatch(self, tmp_path):
        out = tmp_path / "g.bin"
        assert main(["tensor", "1", "3", "legendre", "--out", str(out)]) == 0
        assert out.exists()


def test_validate_command_passes_every_check(capsys):
    assert main(["validate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [f"PASS {name}" for name, _ in diagnostics.CHECKS]
