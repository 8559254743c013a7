"""The three benchmark workloads: the sgnet config each one runs, and why.

Every workload trains both methods for a fixed number of optimizer steps
(``risk_threshold: null`` and ``patience`` equal to ``max_epochs``), so time
and work stay comparable across commits.  The network weights and the Sobol
training stream are fixed; the workload seed draws the Monte Carlo samples of
the error metric.  Each seed therefore runs the same training and the same
amount of metric work on different realizations, and the expected values of
the output check can be pinned per seed (``expected.json``).
"""

from __future__ import annotations

from dataclasses import dataclass

# Seeds are folded onto this many Monte Carlo variants, each with pinned
# expected outputs; seed s uses the metric seed 1 + (s mod N_VARIANTS).
N_VARIANTS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict

    @property
    def methods(self) -> tuple[str, ...]:
        return ("galerkin", "ritz")

    @property
    def epochs(self) -> int:
        return self.config["train"]["max_epochs"]

    @property
    def steps(self) -> int:
        """Optimizer steps per method and run: the fixed training budget."""
        return self.config["train"]["max_epochs"] * self.config["train"]["steps_per_epoch"]


def _train(batch: int, steps_per_epoch: int, epochs: int, validation_samples: int) -> dict:
    return {
        "batch_size": batch,
        "steps_per_epoch": steps_per_epoch,
        "max_epochs": epochs,
        "patience": epochs,
        "risk_threshold": None,
        # One Ritz validation, at the last epoch.
        "validation_interval": epochs,
        "validation_samples": validation_samples,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exp1-net",
            "K=11, 4x45 net: the network is ~98% of a step and the contraction, fields and "
            "reference barely run; bypass case for solver and reference changes",
            {
                "experiment": "exp1",
                "method": "both",
                "N": 1,
                "P": 10,
                "train": _train(256, 10, 3, 2_000),
                "metric": {"reference": "analytic", "n_mc": 60_000},
            },
        ),
        Workload(
            "exp3-sg",
            "K=210, dense 74 MB G: assemble_A/B are ~2/3 of every step and the coupled "
            "SG-FEM reference takes ~11 s; exercises sparse-G and direct-solve changes",
            {
                "experiment": "exp3",
                "method": "both",
                "N": 6,
                "P": 4,
                "train": _train(256, 2, 1, 1_000),
                "metric": {"reference": "coupled", "mesh": 64, "n_mc": 4_000},
            },
        ),
        Workload(
            "exp2-pathwise",
            "K=9 on the unit square: the metric is dominated by 2-D pathwise FEM solves, "
            "repeated per method; the 2-D network input gives five derivative blocks",
            {
                "experiment": "exp2",
                "method": "both",
                "N": 8,
                "P": 1,
                "train": _train(256, 25, 2, 1_000),
                "metric": {"reference": "fem", "mesh": 64, "n_mc": 200},
            },
        ),
    )
}


def variant(seed: int) -> int:
    """Monte Carlo variant of a workload seed; the pinned expectations are keyed by it."""
    return seed % N_VARIANTS


def make_config(workload: Workload, seed: int, out_dir: str) -> dict:
    """The YAML document ``sgnet run`` receives for one workload and seed."""
    config = dict(workload.config)
    config["seeds"] = {"weights": 1, "sobol": 1, "validation": 0, "mc": 1 + variant(seed)}
    config["out_dir"] = out_dir
    return config
