"""Benchmark of ``sgnet run``: stage timings per workload, per-layer spans when traced.

Run from the repository root:

    python3 bench/run.py --workload exp1-net --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all        # every workload, one process each

One invocation measures one workload.  It pins BLAS to one thread before
numpy is imported and runs every ``cli.run`` in a fresh child process, as a
user's ``sgnet run`` would: each child writes the workload's YAML config for
the seed and calls ``sgnet.cli.load_config`` and ``sgnet.cli.run`` on it.
One child repeats runs stopped at the end of set-up (``SETUP_SECONDS``); then
children run to completion, one after another, while the next is expected
to end at most half a run after ``--seconds`` (at least one), each
repeating set-up-only runs for ``POST_RUN_SETUP_SECONDS`` after its run.
Each completed run is checked against the pinned expected outputs.  With ``--trace 1`` one more child runs with every layer
wrapped, and the per-layer metrics come from its spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json, or with ``--trace 1`` its per-layer metrics.
Provenance, per-run figures and the spans are written to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Pin BLAS to one thread before numpy is first imported, and take sgnet from
# this checkout's sources.
for _key in BLAS_ENV:
    os.environ[_key] = "1"
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
import yaml  # noqa: E402

import instrument  # noqa: E402
from check import check_run, load_expected  # noqa: E402
from workloads import WORKLOADS, make_config, variant  # noqa: E402

# Set-up-only runs repeat for this long (at least 3, at most SETUP_MAX_RUNS of
# them) in a child of their own, and for POST_RUN_SETUP_SECONDS (at least one)
# after every completed run in the same child; setup_s is the median over all
# of these and the set-up phases of the completed runs.  Set-up takes about a
# millisecond on the small workloads, so one sample would be mostly noise, and
# samples drawn close together share that moment's load on a shared host; the
# cap only bounds the record's size.
SETUP_SECONDS = 3.0
SETUP_MAX_RUNS = 5000
POST_RUN_SETUP_SECONDS = 0.5
# A child process that runs longer than this is killed and its run counted as failed.
CHILD_TIMEOUT = 170


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _load_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        raise ValueError(f"BENCHMARK.json workloads {names} differ from bench/workloads.py")
    return spec


def _provenance(workload: str, seed: int) -> dict:
    def blas(config: dict) -> str:
        dep = config["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "workload": workload,
        "seed": seed,
        "mc_variant": variant(seed),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": {key: os.environ.get(key) for key in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def _read_rows(run_dir: Path) -> list[dict[str, str]]:
    try:
        with open(run_dir / "results.csv", newline="") as handle:
            return list(csv.DictReader(handle))
    except OSError:
        return []


class Session:
    """Runs of one workload inside this process, sharing one span recorder."""

    def __init__(self, workload, seed: int, workdir: Path) -> None:
        from sgnet import cli

        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.recorder = instrument.Recorder()
        self.cli = cli
        self.missing_targets: list[str] = []

    def cli_run(self, stop_after_setup: bool, traced: bool):
        """One ``cli.run``; returns (run span, exit code, results rows)."""
        recorder = self.recorder
        recorder.run += 1
        run_dir = self.workdir / f"run{recorder.run}"
        run_dir.mkdir(parents=True)
        config_path = run_dir / "config.yaml"
        config_path.write_text(yaml.safe_dump(make_config(self.workload, self.seed, str(run_dir))))
        config = self.cli.load_config(config_path)
        recorder.stop_after_setup = stop_after_setup
        with instrument.Instrumented(recorder, traced) as inst:
            try:
                code, span = recorder.call("cli.run", self.cli.run, (config,), {"echo": lambda *_: None})
            except instrument.SetupDone:
                code, span = None, recorder.spans[-1]
            except Exception:  # a crash of the program is a failed run, not a benchmark error
                traceback.print_exc(file=sys.stderr)
                code, span = -1, recorder.spans[-1]
            self.missing_targets = inst.missing
        rows = _read_rows(run_dir)
        shutil.rmtree(run_dir)
        return span, code, rows


def _setup_samples(session: Session, seconds: float, at_least: int) -> list[float]:
    """Set-up times of runs stopped at the end of set-up, repeated for ``seconds``."""
    samples: list[float] = []
    started = time.perf_counter()
    while len(samples) < at_least or (
        len(samples) < SETUP_MAX_RUNS and time.perf_counter() - started < seconds
    ):
        samples.append(session.cli_run(stop_after_setup=True, traced=False)[0].seconds)
    return samples


def child_main(workload, seed: int, kind: str) -> int:
    """Body of one child process: set-up-only runs, or one full (or traced) run.

    Prints one JSON record as the last line of standard output.
    """
    workdir = OUT / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    session = Session(workload, seed, workdir)
    try:
        if kind == "setup":
            record: dict = {"setup_s": _setup_samples(session, SETUP_SECONDS, 3)}
        else:
            _, code, rows = session.cli_run(stop_after_setup=False, traced=kind == "traced")
            record = {
                "code": code,
                "rows": rows,
                "spans": [vars(s) for s in session.recorder.spans],
                "distinct_samples": len(session.recorder.samples_seen),
                "missing_targets": session.missing_targets,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            if kind == "full" and code == 0:
                record["setup_s"] = _setup_samples(session, POST_RUN_SETUP_SECONDS, 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


def _child(workload, seed: int, kind: str) -> dict | None:
    """Run one child process to its end; its record, or None if it failed."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload.name, "--seed", str(seed), "--child", kind,
    ]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"bench: a {kind} run of {workload.name} took over {CHILD_TIMEOUT} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


class Tally:
    """Operations attempted and failed over the runs of one invocation."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.expected = load_expected(workload.name, variant(seed))
        if self.expected is None:
            raise RuntimeError(
                f"no pinned outputs for {workload.name} variant {variant(seed)}; run bench/pin.py"
            )
        self.attempted = 0
        self.failed = 0
        self.problems: list[dict] = []

    def completed(self, run: int, record: dict | None):
        """Check one full run; its spans and run span if ``cli.run`` returned 0, else None."""
        code = record["code"] if record else -1
        rows = record["rows"] if record else []
        problems = check_run(code, rows, self.workload.methods, self.workload.epochs, self.expected)
        self.attempted += len(problems)
        self.failed += sum(1 for found in problems.values() if found)
        if any(problems.values()):
            self.problems.append({"run": run, "problems": problems})
        if code != 0:
            return None
        spans = [instrument.Span(**s) for s in record["spans"]]
        return spans, next(s for s in spans if s.name == "cli.run")


def measure(workload, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, dict]:
    """Run one workload, one child process per ``cli.run``; returns (result line, detail record)."""
    tally = Tally(workload, seed)
    detail: dict = {"provenance": _provenance(workload.name, seed)}
    setup_record = _child(workload, seed, "setup")
    if setup_record is None:
        raise RuntimeError("the set-up-only runs failed")
    setup = setup_record["setup_s"]
    runs: list[dict] = []
    rel_error: dict[str, float] = {}
    run = 0
    started = time.perf_counter()
    # Start another run while it is expected to end at most half a run after
    # ``seconds``, so the time measured stays near ``seconds`` whatever a run
    # takes (workloads whose runs take about ``seconds`` would otherwise
    # complete one run or two, depending on the moment's load).
    last = 0.0
    while not runs or time.perf_counter() - started + last / 2 < seconds:
        run += 1
        began = time.perf_counter()
        record = _child(workload, seed, "full")
        last = time.perf_counter() - began
        done = tally.completed(run, record)
        if done is not None:
            spans, run_span = done
            setup += record["setup_s"]
            runs.append(
                {**instrument.stage_metrics(spans, run_span, workload.steps), "peak_rss_mb": record["peak_rss_mb"]}
            )
            rel_error = {row["method"]: float(row["rel_error"]) for row in record["rows"]}
        elif time.perf_counter() - started >= seconds:
            break
    if not runs:
        raise RuntimeError("no run of the workload completed")
    end_to_end = {
        name: statistics.median(r[name] for r in runs)
        for name in ("run_s", "reference_s", "galerkin_steps_per_s", "ritz_steps_per_s", "metric_s", "peak_rss_mb")
    }
    end_to_end["setup_s"] = statistics.median(setup + [r["setup_s"] for r in runs])
    for method in workload.methods:
        end_to_end[f"rel_error.{method}"] = rel_error[method]
    detail.update(setup_s=setup, runs=runs, end_to_end=end_to_end)

    if trace:
        record = _child(workload, seed, "traced")
        done = tally.completed(run + 1, record)
        if done is None:
            raise RuntimeError("the traced run failed")
        spans, run_span = done
        names = [m["name"] for m in spec["per_layer"]]
        overhead = run_span.seconds - end_to_end["run_s"]
        metrics = instrument.layer_metrics(spans, names, record["distinct_samples"], overhead)
        detail.update(
            traced_run_s=run_span.seconds,
            missing_targets=record["missing_targets"],
            spans=record["spans"],
        )
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: end_to_end[m["name"]] for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    detail["provenance"]["loadavg_end"] = os.getloadavg()
    detail["problems"] = tally.problems
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, detail


def run_one(args, spec: dict) -> int:
    import sgnet

    if not Path(sgnet.__file__).resolve().is_relative_to(ROOT / "src"):
        return _fail(f"sgnet was imported from {sgnet.__file__}, not from this checkout")
    result, detail = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), spec)
    OUT.mkdir(exist_ok=True)
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({**detail, "result": result}, indent=1))
    print("provenance " + json.dumps(detail["provenance"]))
    for problem in detail["problems"]:
        print("check failed " + json.dumps(problem))
    for name, metric in result["metrics"].items():
        print(f"{args.workload:14s} {name:36s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in its own process; prints every metric with its unit and the check status."""
    status = 0
    for entry in spec["workloads"]:
        name = entry["name"]
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(
            f"{name}: output check {'passed' if result['correct'] else 'FAILED'} "
            f"({result['failed']} of {result['attempted']} operations failed)"
        )
        for metric, value in result["metrics"].items():
            print(f"  {metric:36s} {value['value']:14.6g} {value['unit']}")
        if not result["correct"]:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "full", "traced"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sgnet" / "__init__.py").is_file():
        return _fail(f"no sgnet sources under {ROOT / 'src'}; run from a checkout of the repository")
    try:
        spec = _load_spec()
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")
    if args.child:
        return child_main(WORKLOADS[args.workload], args.seed, args.child)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
