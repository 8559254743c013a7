"""Pin the expected outputs of every workload and Monte Carlo variant.

Run from the repository root, on the commit whose outputs are the reference:

    python3 bench/pin.py [workload ...]

It runs each workload once per variant (one pin process at a time: it
rewrites the whole file) and writes ``rel_error`` and
``final_risk`` per method to ``bench/expected.json``.  Re-pin only in a change
that alters the numerics on purpose, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from check import EXPECTED_PATH, check_run
from run import OUT, Session
from workloads import N_VARIANTS, WORKLOADS


def main(names: list[str]) -> int:
    table = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    for name in names or list(WORKLOADS):
        workload = WORKLOADS[name]
        pinned = {}
        for seed in range(N_VARIANTS):
            workdir = OUT / f"pin-{name}-{os.getpid()}"
            session = Session(workload, seed, workdir)
            _, code, rows = session.cli_run(stop_after_setup=False, traced=False)
            shutil.rmtree(workdir, ignore_errors=True)
            problems = check_run(code, rows, workload.methods, workload.epochs, expected=None)
            if any(problems.values()):
                print(f"{name} variant {seed}: {problems}", file=sys.stderr)
                return 1
            pinned[str(seed)] = {
                row["method"]: {key: float(row[key]) for key in ("rel_error", "final_risk")}
                for row in rows
            }
            print(f"{name} variant {seed}: {pinned[str(seed)]}")
        table[name] = pinned
        EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
