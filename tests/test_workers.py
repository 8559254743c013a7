"""The worker pool: started lazily, reset in a forked child, loud on errors, invisible in results."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import textwrap
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import sgnet
from sgnet import net as net_module
from sgnet import workers
from sgnet.fields import field_model, make_spectral_field
from sgnet.net import BranchSpec, MultiBranchNet
from sgnet.solver import TrainConfig, train
from sgnet.spectral import PolyFamily, galerkin_tensor, total_degree_basis

SRC = str(Path(sgnet.__file__).parents[1])
TESTS = str(Path(__file__).parent)


def python(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this checkout's sgnet."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, TESTS]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], env=env, capture_output=True, text=True, timeout=300
    )


def worker_results() -> dict[str, object]:
    """Outputs of every pass that runs on the workers, keyed by name, and the worker counts they ran on.

    The nets use one-branch blocks, so that every pass has a block per
    branch for the workers to share.
    """
    block_bytes = net_module._BLOCK_BYTES
    net_module._BLOCK_BYTES = 1
    try:
        return _worker_results()
    finally:
        net_module._BLOCK_BYTES = block_bytes


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
        result = train(MultiBranchNet(spec, basis.size, seed=1), kind, make_spectral_field(model, basis), tensor, config)
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
