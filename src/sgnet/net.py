"""Multi-branch feedforward networks with exact input derivatives.

A :class:`MultiBranchNet` holds one disconnected feedforward branch per
spectral coefficient.  Boundary conditions are imposed exactly by multiplying
every branch output with an enforcer function that vanishes on the boundary.

Derivatives are computed without numerical approximation: the forward pass
propagates the value, the input Jacobian and the diagonal of the input
Hessian through every layer (the diagonal is closed under composition with
elementwise activations, and the Laplacian is its trace).  Parameter
gradients of any scalar built from values, gradients and Laplacians are
obtained by reverse-mode propagation through the same recurrences, which
requires activation derivatives up to third order.

For speed, the value rows and the per-direction Jacobian and Hessian rows of
a batch are stacked into a single matrix per layer, so each linear layer is
one batched matrix product.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import expit

__all__ = [
    "ACTIVATIONS",
    "BranchSpec",
    "Enforcer",
    "EvalRecord",
    "MultiBranchNet",
    "enforcer_for",
    "unit_interval_enforcer",
    "unit_square_enforcer",
]

ACTIVATIONS = ("swish", "sigmoid", "linear")

_CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class BranchSpec:
    """Shape and activations of one branch; the output is a single linear neuron."""

    input_dim: int
    hidden_widths: tuple[int, ...]
    activations: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.input_dim not in (1, 2):
            raise ValueError("input dimension must be 1 or 2")
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        object.__setattr__(self, "activations", tuple(self.activations))
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden widths must be positive")
        if len(self.activations) != len(self.hidden_widths) + 1:
            raise ValueError("one activation per layer is required (hidden layers plus output)")
        for name in self.activations:
            if name not in ACTIVATIONS:
                raise ValueError(f"unknown activation {name!r}")
        if self.activations[-1] != "linear":
            raise ValueError("the output layer must be linear")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden_widths, 1)

    @property
    def n_params(self) -> int:
        dims = self.layer_dims
        return sum(dims[i + 1] * dims[i] + dims[i + 1] for i in range(len(dims) - 1))


@dataclass(frozen=True)
class Enforcer:
    """Boundary enforcer with closed-form value, gradient and Laplacian."""

    name: str
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    lap: Callable[[np.ndarray], np.ndarray]


def unit_interval_enforcer() -> Enforcer:
    """e(x) = x (1 - x) on [0, 1]."""
    return Enforcer(
        "interval",
        lambda x: x[:, 0] * (1.0 - x[:, 0]),
        lambda x: (1.0 - 2.0 * x[:, 0])[:, None],
        lambda x: np.full(x.shape[0], -2.0),
    )


def unit_square_enforcer() -> Enforcer:
    """e(x) = x1 x2 (1 - x1)(1 - x2) on [0, 1]^2."""

    def value(x: np.ndarray) -> np.ndarray:
        return x[:, 0] * (1.0 - x[:, 0]) * x[:, 1] * (1.0 - x[:, 1])

    def grad(x: np.ndarray) -> np.ndarray:
        b1 = x[:, 0] * (1.0 - x[:, 0])
        b2 = x[:, 1] * (1.0 - x[:, 1])
        return np.stack([(1.0 - 2.0 * x[:, 0]) * b2, (1.0 - 2.0 * x[:, 1]) * b1], axis=1)

    def lap(x: np.ndarray) -> np.ndarray:
        b1 = x[:, 0] * (1.0 - x[:, 0])
        b2 = x[:, 1] * (1.0 - x[:, 1])
        return -2.0 * (b1 + b2)

    return Enforcer("square", value, grad, lap)


_ENFORCERS = {"interval": unit_interval_enforcer, "square": unit_square_enforcer}


def enforcer_for(spatial_dim: int) -> Enforcer:
    """Default enforcer of the unit interval or unit square."""
    if spatial_dim == 1:
        return unit_interval_enforcer()
    if spatial_dim == 2:
        return unit_square_enforcer()
    raise ValueError("only spatial dimensions 1 and 2 are supported")


def _forward_derivs(kind: str, z: np.ndarray, order: int):
    """Activation value and first/second derivatives needed at forward time."""
    s = expit(z)
    if kind == "sigmoid":
        value = s
        d1 = s * (1.0 - s)
        d2 = d1 * (1.0 - 2.0 * s) if order >= 2 else None
    else:  # swish: z * sigmoid(z)
        value = z * s
        s1 = s * (1.0 - s)
        d1 = s + z * s1
        d2 = 2.0 * s1 + z * (s1 * (1.0 - 2.0 * s)) if order >= 2 else None
    return value, d1, d2, s


def _backward_derivs(kind: str, z: np.ndarray, s: np.ndarray, order: int):
    """Activation derivatives up to order + 1, as needed by reverse mode."""
    s1 = s * (1.0 - s)
    s2 = s1 * (1.0 - 2.0 * s)
    if kind == "sigmoid":
        d1, d2 = s1, s2
        d3 = s1 * (1.0 - 6.0 * s1) if order >= 2 else None
    else:  # swish
        d1 = s + z * s1
        d2 = 2.0 * s1 + z * s2
        d3 = 3.0 * s2 + z * (s1 * (1.0 - 6.0 * s1)) if order >= 2 else None
    return d1, d2, d3


class EvalRecord:
    """Values and derivatives of all branches at a batch of points, plus the tape.

    ``value`` has shape (n, K); ``grad`` (n, K, d) for order >= 1; ``laplacian``
    (n, K) for order == 2.  The record retains the layer intermediates needed
    to pull parameter gradients back through the evaluation.
    """

    __slots__ = (
        "value",
        "grad",
        "laplacian",
        "order",
        "n_points",
        "_net",
        "_tape",
        "_raw_value",
        "_raw_grad",
        "_enf",
    )

    def __init__(self, net, order, n_points, value, grad, laplacian, tape, raw_value, raw_grad, enf):
        self.value = value
        self.grad = grad
        self.laplacian = laplacian
        self.order = order
        self.n_points = n_points
        self._net = net
        self._tape = tape
        self._raw_value = raw_value
        self._raw_grad = raw_grad
        self._enf = enf


class MultiBranchNet:
    """M + 1 disconnected branches of identical shape with independent parameters.

    Branches share no parameters: weights are stored as stacked arrays with a
    leading branch axis, which is block-diagonal structure evaluated batchwise.
    """

    def __init__(
        self,
        spec: BranchSpec,
        n_branches: int,
        enforcer: Enforcer | None = None,
        seed: int = 0,
    ) -> None:
        if n_branches < 1:
            raise ValueError("n_branches must be positive")
        self.spec = spec
        self.n_branches = int(n_branches)
        self.enforcer = enforcer if enforcer is not None else enforcer_for(spec.input_dim)
        self.seed = int(seed)
        rng = np.random.default_rng(seed)
        dims = spec.layer_dims
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for i in range(len(dims) - 1):
            fan_in, fan_out = dims[i], dims[i + 1]
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-bound, bound, size=(n_branches, fan_out, fan_in)))
            self.biases.append(np.zeros((n_branches, fan_out)))

    @property
    def input_dim(self) -> int:
        return self.spec.input_dim

    @property
    def n_params(self) -> int:
        return self.n_branches * self.spec.n_params

    # -- flat parameter vector ------------------------------------------------

    def params_flat(self) -> np.ndarray:
        return np.concatenate(
            [a.ravel() for pair in zip(self.weights, self.biases) for a in pair]
        )

    def set_params_flat(self, theta: np.ndarray) -> None:
        if theta.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {theta.shape}")
        offset = 0
        for w, b in zip(self.weights, self.biases):
            np.copyto(w, theta[offset : offset + w.size].reshape(w.shape))
            offset += w.size
            np.copyto(b, theta[offset : offset + b.size].reshape(b.shape))
            offset += b.size

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, x: np.ndarray, order: int = 2) -> EvalRecord:
        """Evaluate all branches at points ``x`` with derivatives up to ``order``."""
        if order not in (0, 1, 2):
            raise ValueError("order must be 0, 1 or 2")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n, d = x.shape
        if d != self.input_dim:
            raise ValueError(f"points have dimension {d}, network expects {self.input_dim}")
        K = self.n_branches
        blocks = 1 + (d if order >= 1 else 0) + (d if order >= 2 else 0)
        rows = n * blocks

        S = np.zeros((K, rows, d))
        S[:, :n, :] = x
        if order >= 1:
            for j in range(d):
                S[:, n * (1 + j) : n * (2 + j), j] = 1.0

        tape = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            Z = np.matmul(S, w.transpose(0, 2, 1))
            Z[:, :n, :] += b[:, None, :]
            kind = self.spec.activations[i]
            if kind == "linear":
                tape.append((S, Z, None, kind))
                S = Z
                continue
            value, d1, d2, s = _forward_derivs(kind, Z[:, :n], order)
            S_new = np.empty_like(Z)
            S_new[:, :n] = value
            if order >= 1:
                for j in range(d):
                    jz = Z[:, n * (1 + j) : n * (2 + j)]
                    np.multiply(d1, jz, out=S_new[:, n * (1 + j) : n * (2 + j)])
                    if order >= 2:
                        hz = Z[:, n * (1 + d + j) : n * (2 + d + j)]
                        target = S_new[:, n * (1 + d + j) : n * (2 + d + j)]
                        np.multiply(jz, jz, out=target)
                        target *= d2
                        target += d1 * hz
            tape.append((S, Z, s, kind))
            S = S_new

        raw_value = S[:, :n, 0].T.copy()
        raw_grad = None
        raw_lap = None
        if order >= 1:
            raw_grad = np.stack([S[:, n * (1 + j) : n * (2 + j), 0].T for j in range(d)], axis=2)
        if order >= 2:
            raw_lap = sum(S[:, n * (1 + d + j) : n * (2 + d + j), 0].T for j in range(d))

        e = self.enforcer.value(x)
        ge = self.enforcer.grad(x)
        le = self.enforcer.lap(x)
        value = e[:, None] * raw_value
        grad = None
        laplacian = None
        if order >= 1:
            grad = ge[:, None, :] * raw_value[:, :, None] + e[:, None, None] * raw_grad
        if order >= 2:
            laplacian = (
                le[:, None] * raw_value
                + 2.0 * np.einsum("nd,nkd->nk", ge, raw_grad)
                + e[:, None] * raw_lap
            )
        return EvalRecord(
            self, order, n, value, grad, laplacian, tape, raw_value, raw_grad, (e, ge, le)
        )

    # -- parameter gradients ----------------------------------------------------

    def param_grad(
        self,
        record: EvalRecord,
        d_value: np.ndarray | None = None,
        d_grad: np.ndarray | None = None,
        d_lap: np.ndarray | None = None,
    ) -> np.ndarray:
        """Gradient with respect to all parameters of a scalar S(value, grad, laplacian).

        The arguments are the partial derivatives of the scalar with respect
        to the record's outputs (any of them may be omitted).  The result is a
        flat vector in the :func:`params_flat` layout.
        """
        if record._net is not self:
            raise ValueError("evaluation record belongs to a different network instance")
        n = record.n_points
        d = self.input_dim
        K = self.n_branches
        order = record.order
        if d_lap is not None and order < 2:
            raise ValueError("laplacian cotangent requires an order-2 record")
        if d_grad is not None and order < 1:
            raise ValueError("gradient cotangent requires an order-1 record")

        e, ge, le = record._enf
        raw_value, raw_grad = record._raw_value, record._raw_grad

        # Pull the cotangents back through the enforcer product rule.
        dN = np.zeros((n, K))
        if d_value is not None:
            dN += e[:, None] * d_value
        if d_grad is not None:
            dN += np.einsum("nd,nkd->nk", ge, d_grad)
        if d_lap is not None:
            dN += le[:, None] * d_lap
        dgN = None
        if order >= 1:
            dgN = np.zeros((n, K, d))
            if d_grad is not None:
                dgN += e[:, None, None] * d_grad
            if d_lap is not None:
                dgN += 2.0 * ge[:, None, :] * d_lap[:, :, None]
        dlapN = e[:, None] * d_lap if d_lap is not None else None

        blocks = 1 + (d if order >= 1 else 0) + (d if order >= 2 else 0)
        rows = n * blocks
        Sb = np.zeros((K, rows, 1))
        Sb[:, :n, 0] = dN.T
        if order >= 1:
            for j in range(d):
                Sb[:, n * (1 + j) : n * (2 + j), 0] = dgN[:, :, j].T
        if order >= 2 and dlapN is not None:
            for j in range(d):
                Sb[:, n * (1 + d + j) : n * (2 + d + j), 0] = dlapN.T

        grads_w: list[np.ndarray] = [np.empty(0)] * len(self.weights)
        grads_b: list[np.ndarray] = [np.empty(0)] * len(self.weights)
        for i in reversed(range(len(self.weights))):
            S_prev, Z, s, kind = record._tape[i]
            if s is None:
                Zb = Sb
            else:
                d1, d2, d3 = _backward_derivs(kind, Z[:, :n], s, order)
                Zb = np.empty_like(Sb)
                zb = Sb[:, :n] * d1
                if order >= 1:
                    for j in range(d):
                        jz = Z[:, n * (1 + j) : n * (2 + j)]
                        jb = Sb[:, n * (1 + j) : n * (2 + j)]
                        zb += jb * d2 * jz
                        np.multiply(jb, d1, out=Zb[:, n * (1 + j) : n * (2 + j)])
                        if order >= 2:
                            hz = Z[:, n * (1 + d + j) : n * (2 + d + j)]
                            hb = Sb[:, n * (1 + d + j) : n * (2 + d + j)]
                            zb += hb * (d3 * jz * jz + d2 * hz)
                            Zb[:, n * (1 + j) : n * (2 + j)] += 2.0 * hb * d2 * jz
                            np.multiply(hb, d1, out=Zb[:, n * (1 + d + j) : n * (2 + d + j)])
                Zb[:, :n] = zb
            grads_w[i] = np.matmul(Zb.transpose(0, 2, 1), S_prev)
            grads_b[i] = Zb[:, :n].sum(axis=1)
            if i > 0:
                Sb = np.matmul(Zb, self.weights[i])
        return np.concatenate(
            [a.ravel() for pair in zip(grads_w, grads_b) for a in pair]
        )

    # -- persistence ------------------------------------------------------------

    def save(self, path) -> None:
        """Checkpoint all parameters and the architecture; reload is bitwise exact."""
        meta = {
            "version": _CHECKPOINT_VERSION,
            "input_dim": self.spec.input_dim,
            "hidden_widths": list(self.spec.hidden_widths),
            "activations": list(self.spec.activations),
            "n_branches": self.n_branches,
            "enforcer": self.enforcer.name,
            "seed": self.seed,
        }
        arrays = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            arrays[f"w{i}"] = w
            arrays[f"b{i}"] = b
        np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)

    @classmethod
    def load(cls, path) -> "MultiBranchNet":
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            if meta["version"] != _CHECKPOINT_VERSION:
                raise ValueError(f"unsupported checkpoint version {meta['version']}")
            spec = BranchSpec(
                meta["input_dim"], tuple(meta["hidden_widths"]), tuple(meta["activations"])
            )
            net = cls(
                spec,
                n_branches=meta["n_branches"],
                enforcer=_ENFORCERS[meta["enforcer"]](),
                seed=meta["seed"],
            )
            for i in range(len(net.weights)):
                np.copyto(net.weights[i], data[f"w{i}"])
                np.copyto(net.biases[i], data[f"b{i}"])
        return net
