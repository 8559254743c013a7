"""Loss assembly, quasi-random sampling, ADAM and the training loop.

Two risks are provided.  The strong risk is the mean over a batch of the
averaged squared projections of the pointwise PDE residual onto the basis; it
requires second derivatives of the network.  The Ritz risk is the Monte Carlo
estimate of the quadratic energy functional whose unique minimizer solves the
weak-form coupled system; it requires first derivatives only and is negative
at the minimum.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .fields import SpectralField, draw_samples
from .net import MultiBranchNet
from .spectral import GalerkinTensor, basis_matrix

__all__ = [
    "AdamState",
    "SobolStream",
    "TrainConfig",
    "TrainResult",
    "TrainingDivergedError",
    "adam_step",
    "sobol_batch",
    "strong_risk",
    "ritz_risk",
    "validation_error",
    "default_validation_grid",
    "train",
]


class TrainingDivergedError(RuntimeError):
    """Raised when a risk or gradient stops being finite during training."""


# -- risks ----------------------------------------------------------------------------
#
# The only coupling is the symmetric tensor G, so with C(c, v)_k = sum_ij G_ijk c_i v_j
# the strong residual is r = C(a, lap u) + sum_d C(d_d a, d_d u) + f, its cotangents
# are C(a, r_bar) and C(d_d a, r_bar), and the Ritz flux is C(a, d_d u).


def strong_risk(x: np.ndarray, net: MultiBranchNet, field_: SpectralField, tensor: GalerkinTensor):
    """Mean squared projected strong residual over the batch, with parameter gradient."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, dim = x.shape
    size = field_.size
    if net.n_branches != size:
        raise ValueError(f"network has {net.n_branches} branches, field expects {size}")
    record = net.evaluate(x, order=2)
    coeff = field_.coeff_values(x)
    coeff_grads = field_.coeff_grads(x)
    residual = tensor.contract(coeff, record.laplacian) + field_.forcing_values(x)
    for d in range(dim):
        residual += tensor.contract(coeff_grads[:, :, d], record.grad[:, :, d])
    risk = float(np.mean(residual * residual))
    # d risk / d r_nk, then chain through the linear residual.
    r_bar = residual * (2.0 / (n * size))
    d_lap = tensor.contract(coeff, r_bar)
    d_grad = np.stack([tensor.contract(coeff_grads[:, :, d], r_bar) for d in range(dim)], axis=2)
    return risk, net.param_grad(record, d_grad=d_grad, d_lap=d_lap)


def ritz_risk(x: np.ndarray, net: MultiBranchNet, field_: SpectralField, tensor: GalerkinTensor):
    """Monte Carlo Ritz energy over the batch, with parameter gradient.

    The energy density is 1/2 sum_k grad u_k . flux_k - sum_k f_k u_k with the
    flux C(a, grad u); the flux is also the gradient's cotangent up to 1/n.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, dim = x.shape
    size = field_.size
    if net.n_branches != size:
        raise ValueError(f"network has {net.n_branches} branches, field expects {size}")
    record = net.evaluate(x, order=1)
    coeff = field_.coeff_values(x)
    forcing = field_.forcing_values(x)
    flux = np.stack([tensor.contract(coeff, record.grad[:, :, d]) for d in range(dim)], axis=2)
    density = 0.5 * np.einsum("nid,nid->n", record.grad, flux) - np.einsum("nk,nk->n", forcing, record.value)
    risk = float(np.mean(density))
    scale = 1.0 / n
    return risk, net.param_grad(record, d_value=-scale * forcing, d_grad=scale * flux)


# -- validation ------------------------------------------------------------------

# Bytes of one (realizations x grid) array of a validation block: blocks of
# 256 realizations on the 2-D grid of 1,024 points, 2,048 on the 1-D grid of 128.
_VALIDATION_BYTES = 2 << 20


def validation_error(net: MultiBranchNet, field_: SpectralField, n_samples: int = 10_000, seed: int = 0) -> float:
    """Mean squared pathwise strong residual over sampled realizations.

    The diffusion, forcing and network approximation are reconstructed from
    their spectral coefficients at every sampled realization, and the strong
    residual of the original PDE is averaged in squares over samples and the
    points of :func:`default_validation_grid`.  The field must be unweighted:
    the residual is that of the original equation regardless of how the
    network was trained.  The samples are taken in blocks whose
    (realizations x grid) arrays hold at most ``_VALIDATION_BYTES``.
    """
    if field_.weighting != "none":
        raise ValueError("validation uses the unweighted expansion")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    basis = field_.basis
    x_grid = default_validation_grid(field_.spatial_dim)
    _, u_grads, u_laps = net.evaluate_grid(x_grid, order=2)
    a_values = field_.coeff_values(x_grid)
    a_grads = field_.coeff_grads(x_grid)
    f_values = field_.forcing_values(x_grid)
    rng = np.random.default_rng(seed)
    samples = draw_samples(basis.family, basis.n_dims, n_samples, rng)
    total = 0.0
    per_block = max(1, _VALIDATION_BYTES // (8 * x_grid.shape[0]))
    for start in range(0, n_samples, per_block):
        block = samples[start : start + per_block]
        p_matrix = basis_matrix(basis, block)
        # a u_lap + f, built in place: the net's tape stays alive for the next
        # training step, so the block keeps few temporaries of its own.
        residual = p_matrix @ a_values.T
        residual *= p_matrix @ u_laps.T
        residual += p_matrix @ f_values.T
        for j in range(field_.spatial_dim):
            residual += (p_matrix @ a_grads[:, :, j].T) * (p_matrix @ u_grads[:, :, j].T)
        total += float(np.sum(residual * residual))
    return total / (n_samples * x_grid.shape[0])


def default_validation_grid(spatial_dim: int) -> np.ndarray:
    """Deterministic Sobol point set used for the validation residual."""
    return SobolStream(spatial_dim, skip=1).next(128 if spatial_dim == 1 else 1024)


# -- quasi-random sampling ---------------------------------------------------------


# Sobol direction integers, 30 bits (Joe & Kuo, SIAM J. Sci. Comput. 30, 2008):
# row b holds m_(b+1) 2^(29 - b) per dimension, with m_k = 1 in dimension 1 and,
# from the primitive polynomial x + 1 with m_1 = 1, m_k = 2 m_(k-1) xor m_(k-1)
# in dimension 2.
_SOBOL_BITS = 30


def _sobol_directions() -> np.ndarray:
    rows, m = [], 1
    for b in range(_SOBOL_BITS):
        rows.append((1 << (_SOBOL_BITS - 1 - b), m << (_SOBOL_BITS - 1 - b)))
        m ^= m << 1
    return np.array(rows, dtype=np.uint32)


_SOBOL_DIRECTIONS = _sobol_directions()


def _require_count(name: str, value: int, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}")


class SobolStream:
    """Continuous stream of unscrambled 30-bit Sobol points in [0, 1)^d, d = 1 or 2.

    The stream is deterministic given the initial skip, and emits the points
    of scipy's unscrambled ``qmc.Sobol`` fast-forwarded by ``skip``, at most
    2^30 in all.  A skip of 0 emits the origin point of the sequence first;
    training streams skip at least one.  Point m is the xor of the directions
    picked out by the Gray code m xor (m >> 1) (Antonov & Saleev 1979), so a
    batch starts anywhere in O(30) work and each later point xors in the
    direction of its index's lowest set bit.
    """

    def __init__(self, dim: int, skip: int = 1) -> None:
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim not in (1, 2):
            raise ValueError("dimension must be 1 or 2")
        _require_count("skip", skip, 0)
        if skip > 2**_SOBOL_BITS:
            raise ValueError(f"skip must be at most 2**{_SOBOL_BITS}")
        self.dim = dim
        self._index = int(skip)  # index of the next point

    def next(self, n: int) -> np.ndarray:
        _require_count("batch size", n, 1)
        first = self._index
        if first + n > 2**_SOBOL_BITS:
            raise ValueError(f"at most 2**{_SOBOL_BITS} points can be drawn; {first} were skipped or drawn")
        directions = _SOBOL_DIRECTIONS[:, : self.dim]
        points = np.empty((n, self.dim), dtype=np.uint32)
        gray = first ^ (first >> 1)
        points[0] = np.bitwise_xor.reduce(directions[(gray >> np.arange(_SOBOL_BITS)) & 1 == 1], axis=0)
        index = np.arange(first + 1, first + n, dtype=np.int64)
        points[1:] = directions[np.frexp(index & -index)[1] - 1]  # the lowest set bit's position
        np.bitwise_xor.accumulate(points, axis=0, out=points)
        self._index = first + n
        return points * 2.0**-_SOBOL_BITS


def sobol_batch(stream: SobolStream, n: int) -> np.ndarray:
    """Next ``n`` stream points, in the unit box [0, 1)^d of the spatial domain."""
    return stream.next(n)


# -- optimizer ----------------------------------------------------------------------

# The default ADAM moment decays and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Parameters updated per range: the moments, gradient and scratch of one range stay in cache.
_ADAM_CHUNK = 32_768


@dataclass
class AdamState:
    """First and second moment accumulators of the ADAM update."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n_params: int) -> "AdamState":
        return cls(np.zeros(n_params), np.zeros(n_params))


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> np.ndarray:
    """One bias-corrected ADAM update; mutates the state, returns the new iterate."""
    if theta.shape != grad.shape or theta.shape != state.m.shape:
        raise ValueError("parameter, gradient and state dimensions disagree")
    if not np.all(np.isfinite(grad)):
        raise TrainingDivergedError("non-finite gradient entries")
    state.t += 1
    m_scale, v_scale = 1.0 - ADAM_BETA1**state.t, 1.0 - ADAM_BETA2**state.t
    new = np.empty_like(theta)
    # Cache-sized ranges with two scratch arrays; each expression keeps the
    # operand order of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    # theta - lr m_hat / (sqrt(v_hat) + eps), so the update is bitwise the same.
    scratch = np.empty((2, min(theta.size, _ADAM_CHUNK)))
    for start in range(0, theta.size, _ADAM_CHUNK):
        rows = slice(start, start + _ADAM_CHUNK)
        m, v, g = state.m[rows], state.v[rows], grad[rows]
        step, root = scratch[:, : g.size]
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=step)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(1.0 - ADAM_BETA2, g, out=step), g, out=step)
        np.sqrt(np.divide(v, v_scale, out=root), out=root)
        root += ADAM_EPS
        np.multiply(lr, np.divide(m, m_scale, out=step), out=step)
        np.subtract(theta[rows], np.divide(step, root, out=step), out=new[rows])
    return new


# -- training loop --------------------------------------------------------------------


# Least value of each count of TrainConfig; checkpoint_interval may also be None (no checkpoints).
_COUNTS = {
    "batch_size": 1, "steps_per_epoch": 1, "max_epochs": 1, "lr_decay_steps": 1, "patience": 0,
    "validation_interval": 1, "validation_samples": 1, "checkpoint_interval": 1,
}


@dataclass
class TrainConfig:
    """Schedule, learning-rate decay, stopping rules and seeds for one training run."""

    batch_size: int = 512
    steps_per_epoch: int = 50
    max_epochs: int = 1000
    lr0: float = 1e-3
    lr_decay: float = 0.97
    lr_decay_steps: int = 200
    patience: int = 50
    risk_threshold: float | None = 1e-7
    validation_interval: int = 10
    validation_samples: int = 10_000
    seed_sobol: int = 1
    seed_validation: int = 0
    checkpoint_interval: int | None = None

    def __post_init__(self) -> None:
        for name, least in _COUNTS.items():
            value = getattr(self, name)
            if value is None and name == "checkpoint_interval":
                continue
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}")
        for name in ("lr0", "lr_decay", "risk_threshold"):  # risk_threshold may also be None (no threshold)
            value = getattr(self, name)
            if value is None and name == "risk_threshold":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number")
        if self.lr0 <= 0 or not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("learning rate must be positive with decay factor in (0, 1]")
        if self.seed_sobol < 1:  # the skip of a stream that never emits its origin point
            raise ValueError("seed_sobol must be positive")


@dataclass
class TrainResult:
    """Trained network together with the per-epoch history."""

    net: MultiBranchNet
    history: list[dict]
    stop_reason: str
    train_seconds: float

    @property
    def epochs(self) -> int:
        return len(self.history)

    @property
    def final_risk(self) -> float:
        return self.history[-1]["risk"] if self.history else float("nan")

    @property
    def final_validation(self) -> float:
        for row in reversed(self.history):
            if not np.isnan(row["validation"]):
                return row["validation"]
        return float("nan")


_HISTORY_FIELDS = ("epoch", "risk", "lr", "validation", "seconds")


def _write_history_header(path: Path) -> None:
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(_HISTORY_FIELDS)


def _append_history_row(path: Path, row: dict) -> None:
    with open(path, "a", newline="") as handle:
        csv.writer(handle).writerow([repr(row[k]) if isinstance(row[k], float) else row[k] for k in _HISTORY_FIELDS])


def train(
    net: MultiBranchNet,
    loss_kind: str,
    field_: SpectralField,
    tensor: GalerkinTensor,
    config: TrainConfig,
    history_path: str | Path | None = None,
    checkpoint_dir: str | Path | None = None,
) -> TrainResult:
    """Train with ADAM on a continuous Sobol stream until a stopping rule fires.

    The strong loss stops when the epoch risk falls below the threshold or the
    best risk has not improved for ``patience`` epochs.  The Ritz loss has no
    interpretable risk scale, so it stops only when both the best risk and the
    best validation residual have been stale for ``patience`` epochs; the
    validation residual is evaluated every ``validation_interval`` epochs, on
    the unweighted expansion of the field even when training uses the
    weighted one.
    """
    if loss_kind not in ("strong", "ritz"):
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    loss_fn = strong_risk if loss_kind == "strong" else ritz_risk
    validation_field = field_ if field_.weighting == "none" else SpectralField(field_.model, field_.basis)

    stream = SobolStream(field_.spatial_dim, skip=config.seed_sobol)
    state = AdamState.zeros(net.n_params)
    theta = net.params_flat()

    if history_path is not None:
        history_path = Path(history_path)
        _write_history_header(history_path)
    if checkpoint_dir is not None:
        checkpoint_dir = Path(checkpoint_dir)
        checkpoint_dir.mkdir(parents=True, exist_ok=True)

    history: list[dict] = []
    best_risk = np.inf
    best_validation = np.inf
    stale_risk = 0
    stale_validation = 0
    stop_reason = "max_epochs"
    t_start = time.perf_counter()

    for epoch in range(1, config.max_epochs + 1):
        risk_sum = 0.0
        lr = config.lr0
        for _ in range(config.steps_per_epoch):
            lr = config.lr0 * config.lr_decay ** (state.t // config.lr_decay_steps)
            x = sobol_batch(stream, config.batch_size)
            risk, grad = loss_fn(x, net, field_, tensor)
            if not np.isfinite(risk):
                raise TrainingDivergedError(
                    f"non-finite {loss_kind} risk at epoch {epoch}, step {state.t}"
                )
            try:
                theta = adam_step(theta, grad, state, lr)
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(f"{exc} at epoch {epoch}, step {state.t}") from exc
            net.set_params_flat(theta)
            risk_sum += risk
        epoch_risk = risk_sum / config.steps_per_epoch

        validation = float("nan")
        if loss_kind == "ritz" and epoch % config.validation_interval == 0:
            validation = validation_error(
                net, validation_field, n_samples=config.validation_samples, seed=config.seed_validation
            )

        row = {
            "epoch": epoch,
            "risk": epoch_risk,
            "lr": lr,
            "validation": validation,
            "seconds": time.perf_counter() - t_start,
        }
        history.append(row)
        if history_path is not None:
            _append_history_row(history_path, row)
        if checkpoint_dir is not None and config.checkpoint_interval:
            if epoch % config.checkpoint_interval == 0:
                net.save(checkpoint_dir / f"epoch_{epoch:06d}.npz")

        if epoch_risk < best_risk:
            best_risk = epoch_risk
            stale_risk = 0
        else:
            stale_risk += 1
        if not np.isnan(validation) and validation < best_validation:
            best_validation = validation
            stale_validation = 0
        elif loss_kind == "ritz":
            stale_validation += 1

        if loss_kind == "strong":
            if config.risk_threshold is not None and epoch_risk < config.risk_threshold:
                stop_reason = "risk_threshold"
                break
            if stale_risk >= config.patience:
                stop_reason = "patience"
                break
        else:
            if stale_risk >= config.patience and stale_validation >= config.patience:
                stop_reason = "patience"
                break

    return TrainResult(net, history, stop_reason, time.perf_counter() - t_start)
