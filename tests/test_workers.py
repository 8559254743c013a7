"""The worker pool: started lazily, reset in a forked child, loud on errors, invisible in results."""

from __future__ import annotations

import os
import pickle
import threading
import time
import warnings

import numpy as np
import pytest

from sgnet import metrics as metrics_module
from sgnet import net as net_module
from sgnet import workers
from sgnet.fields import SpectralField, draw_samples, field_model
from sgnet.metrics import (
    exact_exp1_evaluator,
    fem_evaluator,
    midpoint_grid,
    net_evaluator,
    rel_h1_error,
    uniform_grid_1d,
)
from sgnet.net import BranchSpec, MultiBranchNet
from sgnet.reference import Mesh2D
from sgnet.solver import TrainConfig, train
from sgnet.spectral import PolyFamily, galerkin_tensor, total_degree_basis

from oracles import python


def worker_results() -> dict[str, object]:
    """Outputs of every pass that runs on the workers, keyed by name, and the worker counts they ran on.

    The nets use one-branch blocks, so that every pass has a block per
    branch for the workers to share.
    """
    block_bytes, chunk = net_module._BLOCK_BYTES, metrics_module._CHUNK
    net_module._BLOCK_BYTES = 1
    try:
        return _worker_results()
    finally:
        net_module._BLOCK_BYTES, metrics_module._CHUNK = block_bytes, chunk


def _worker_results() -> dict[str, object]:
    out: dict[str, object] = {"workers": workers.count()}
    for d in (1, 2):
        spec = BranchSpec(d, (7, 6), ("swish", "sigmoid", "linear"))
        x = np.random.default_rng(d).uniform(0.05, 0.95, size=(33, d))
        net = MultiBranchNet(spec, n_branches=5, seed=d)
        for order in (0, 1, 2):
            record = net.evaluate(x, order)
            out[f"tape_workers_d{d}"] = record._tape.workers
            for name in ("value", "grad", "laplacian")[: order + 1]:
                out[f"{name}_d{d}_o{order}"] = getattr(record, name)
            rng = np.random.default_rng(order)
            cotangents = {"d_value": rng.normal(size=record.value.shape)}
            if order >= 1:
                cotangents["d_grad"] = rng.normal(size=record.grad.shape)
            if order == 2:
                cotangents["d_lap"] = rng.normal(size=record.laplacian.shape)
            out[f"param_grad_d{d}_o{order}"] = net.param_grad(record, **cotangents)
    # Error reports over chunks of Monte Carlo samples: three chunks with a
    # short last one against the analytic exp1 reference, and three chunks of
    # 2-D pathwise solves, each against a small net.
    exp1, exp2, mesh = field_model("exp1", 1), field_model("exp2", 2), Mesh2D(8)
    line, square = uniform_grid_1d(65), midpoint_grid(mesh)
    for model, reference, grid, n_mc, chunk in (
        (exp1, exact_exp1_evaluator(line), line, 1300, 512),
        (exp2, fem_evaluator(exp2, mesh, square), square, 40, 16),
    ):
        basis = total_degree_basis(model.n_vars, 2, model.family)
        net = MultiBranchNet(BranchSpec(grid.dim, (7,), ("swish", "linear")), basis.size, seed=4)
        surrogate = net_evaluator(net, basis, grid)
        metrics_module._CHUNK = chunk
        report = rel_h1_error(reference, {"net": surrogate}, grid, model, n_mc=n_mc, seed=5)["net"]
        out[f"rel_h1_error_{model.kind}"] = np.array(
            [report.rel_error, report.numerator, report.denominator, report.mc_standard_error]
        )
    # The exp3 shape of the benchmark: K=210 at N=6, P=4, a 5x45 net, batch 256.
    model = field_model("exp3", 6)
    basis = total_degree_basis(6, 4, PolyFamily.HERMITE)
    tensor = galerkin_tensor(basis)
    rng = np.random.default_rng(3)
    out["contract"] = tensor.contract(rng.normal(size=(256, basis.size)), rng.normal(size=(256, basis.size)))
    net_module._BLOCK_BYTES = 8 << 20  # blocks of two branches at this shape, as in a run
    spec = BranchSpec(1, (45,) * 5, ("swish",) * 5 + ("linear",))
    config = TrainConfig(
        batch_size=256,
        steps_per_epoch=1,
        max_epochs=3,
        patience=3,
        risk_threshold=None,
        validation_interval=1,
        validation_samples=64,
    )
    for kind in ("strong", "ritz"):  # Ritz training also validates after every step
        result = train(MultiBranchNet(spec, basis.size, seed=1), kind, SpectralField(model, basis), tensor, config)
        out[f"{kind}_history"] = np.array([[row["risk"], row["validation"]] for row in result.history])
        out[f"{kind}_params"] = result.net.params_flat()
    return out


class TestPoolLifecycle:
    def test_import_tensor_and_plot_start_no_thread(self, tmp_path):
        (tmp_path / "results.csv").write_text("method,M_plus_1,rel_error\ngalerkin,3,0.1\ngalerkin,6,0.05\n")
        done = python(
            f"""
            import threading
            import sgnet.cli
            counts = [threading.active_count()]
            assert sgnet.cli.main(["tensor", "2", "3", "hermite", "--out", r"{tmp_path / 'g.bin'}"]) == 0
            counts.append(threading.active_count())
            assert sgnet.cli.main(["plot", r"{tmp_path / 'results.csv'}", "--out", r"{tmp_path / 'p.svg'}"]) == 0
            counts.append(threading.active_count())
            print(*counts)
            """
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split()[-3:] == ["1", "1", "1"]
        assert (tmp_path / "p.svg").exists()

    def test_evaluate_in_a_forked_child(self, monkeypatch):
        # The parent's pool threads do not exist in a forked child; the child
        # starts its own pool and computes the parent's results bit for bit.
        monkeypatch.setattr(workers, "count", lambda: 2)
        monkeypatch.setattr(net_module, "_BLOCK_BYTES", 1)
        net = MultiBranchNet(BranchSpec(1, (6, 5), ("swish", "sigmoid", "linear")), n_branches=4, seed=3)
        x = np.random.default_rng(0).uniform(0.1, 0.9, size=(20, 1))
        record = net.evaluate(x, 2)
        assert record._tape.workers == 2 and workers._pool is not None
        expected = record.laplacian
        net.param_grad(record, d_value=record.value)
        read, write = os.pipe()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # forking a threaded process
            pid = os.fork()
        if pid == 0:  # the child: evaluate, report and leave without running the parent's cleanup
            status = 1
            try:
                fresh = workers._pool is None
                laplacian = net.evaluate(x, 2).laplacian
                with os.fdopen(write, "wb") as handle:
                    pickle.dump((fresh, workers._pool is not None, laplacian), handle)
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        with os.fdopen(read, "rb") as handle:
            deadline = time.monotonic() + 120
            while (waited := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
                time.sleep(0.05)
            if waited[0] == 0:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish its evaluation")
            assert os.waitstatus_to_exitcode(waited[1]) == 0
            fresh, started, laplacian = pickle.load(handle)
        assert fresh and started
        np.testing.assert_array_equal(laplacian, expected)

    def test_an_exception_in_a_worker_reaches_the_caller(self):
        finished = threading.Event()

        def task(worker):
            if worker == 1:
                raise ArithmeticError("raised in worker 1")

        with pytest.raises(ArithmeticError, match="worker 1"):
            workers.run(task, 2)

        def slow_worker(worker):
            if worker == 0:
                raise KeyError("raised by the caller")
            time.sleep(0.2)
            finished.set()

        # The caller's exception is raised only once the other worker is done.
        with pytest.raises(KeyError):
            workers.run(slow_worker, 2)
        assert finished.is_set()

    def test_a_pass_inside_a_part_runs_inline(self):
        # Each part of a two-worker pass starts a three-part pass of its own:
        # every nested part runs once, on the thread of the part that started it.
        calls = []

        def outer(worker):
            thread = threading.get_ident()
            workers.run(lambda inner: calls.append((worker, inner, threading.get_ident() == thread)), 3)

        # Were the nested parts queued on the pool, whose threads the outer
        # pass holds, the pass would never finish.
        caller = threading.Thread(target=workers.run, args=(outer, 2), daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "the nested pass did not finish"
        assert sorted(calls) == [(w, i, True) for w in range(2) for i in range(3)]

        def failing(worker):
            def inner(part):
                if worker == 1 and part == 1:
                    raise LookupError("raised in nested part 1 of worker 1")
                calls.append((worker, part))

            workers.run(inner, 3)

        calls.clear()
        with pytest.raises(LookupError, match="nested part 1 of worker 1"):
            workers.run(failing, 2)
        assert sorted(calls) == [(0, 0), (0, 1), (0, 2), (1, 0)]

    def test_a_pass_inside_a_one_worker_pass_uses_the_pool(self):
        threads = []
        workers.run(lambda _: workers.run(lambda inner: threads.append(threading.get_ident()), 2), 1)
        assert len(set(threads)) == 2 and threading.get_ident() in threads

    def test_an_exception_in_a_block_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(workers, "count", lambda: 2)
        monkeypatch.setattr(net_module, "_BLOCK_BYTES", 1)
        net = MultiBranchNet(BranchSpec(1, (6,), ("sigmoid", "linear")), n_branches=2, seed=0)
        calls = []

        def failing(kind, z, *args):
            calls.append(threading.current_thread() is threading.main_thread())
            if not calls[-1]:
                raise FloatingPointError("block on worker 1")
            return activation(kind, z, *args)

        activation = net_module._activation
        monkeypatch.setattr(net_module, "_activation", failing)
        with pytest.raises(FloatingPointError, match="worker 1"):
            net.evaluate(np.full((3, 1), 0.5), 1)
        assert sorted(calls) == [False, True]

    def test_an_exception_in_a_metric_chunk_reaches_the_caller(self, monkeypatch):
        # Worker 1 takes the second chunk and its surrogate raises; the caller
        # gets the exception, and no report, once worker 0 has finished its chunk.
        monkeypatch.setattr(workers, "count", lambda: 2)
        monkeypatch.setattr(metrics_module, "_CHUNK", 4)
        model = field_model("exp1", 1)
        grid = uniform_grid_1d(17)
        reference = exact_exp1_evaluator(grid)
        second_chunk = draw_samples(model.family, 1, 8, np.random.default_rng(0))[4:]
        finished = threading.Event()

        def surrogate(samples):
            if np.array_equal(samples, second_chunk):
                raise ZeroDivisionError("raised on worker 1's chunk")
            time.sleep(0.2)
            finished.set()
            return reference(samples)

        reports = None
        with pytest.raises(ZeroDivisionError, match="worker 1"):
            reports = rel_h1_error(reference, {"v": surrogate}, grid, model, n_mc=8, seed=0)
        assert finished.is_set()
        assert reports is None


class TestShares:
    @pytest.mark.parametrize(
        "n_workers, n_items, most, expected",
        [
            # exp3-sg's contraction: 256 points in ranges of at most 50.
            pytest.param(2, 256, 50, [[43, 43, 42], [43, 43, 42]], id="exp3-contraction"),
            # exp2-pathwise's Ritz tape: 9 branches in blocks of at most 3.
            pytest.param(2, 9, 3, [[3, 2], [2, 2]], id="exp2-ritz-tape"),
            pytest.param(1, 5, 2, [[2, 2, 1]], id="one-worker"),
            pytest.param(2, 1, 8, [[1]], id="one-item"),
            pytest.param(2, 0, 8, [], id="no-items"),
        ],
    )
    def test_shares_are_even_contiguous_runs(self, monkeypatch, n_workers, n_items, most, expected):
        monkeypatch.setattr(workers, "count", lambda: n_workers)
        shares = workers.shares(n_items, most)
        assert [[run.stop - run.start for run in share] for share in shares] == expected
        runs = [run for share in shares for run in share]
        assert [run.start for run in runs] + [n_items] == [0] + [run.stop for run in runs]


class TestWorkerCountInvariance:
    """A process restricted to one CPU computes the two-worker results bit for bit.

    The BLAS library fixes its own thread count when numpy is loaded, and its
    products round differently with another count, so the child narrows its
    affinity mask after loading numpy: only the worker count differs.
    """

    def test_one_cpu_child_matches_two_workers(self, tmp_path):
        if workers.count() < 2:
            pytest.skip(f"this host gives the process {workers.count()} CPU, so there is no two-worker result to compare")
        path = tmp_path / "one_cpu.pkl"
        done = python(
            f"""
            import os, pickle
            import numpy
            os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
            from test_workers import worker_results
            with open(r"{path}", "wb") as handle:
                pickle.dump(worker_results(), handle)
            """
        )
        assert done.returncode == 0, done.stderr
        with open(path, "rb") as handle:
            serial = pickle.load(handle)
        parallel = worker_results()
        assert serial["workers"] == 1 and parallel["workers"] >= 2
        assert serial["tape_workers_d1"] == 1 and parallel["tape_workers_d1"] >= 2
        assert serial.keys() == parallel.keys()
        for name in parallel.keys() - {"workers", "tape_workers_d1", "tape_workers_d2"}:
            np.testing.assert_array_equal(serial[name], parallel[name], err_msg=name)
