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
one batched matrix product.  Each net reuses one tape: the evaluation writes
every pre-activation, the value rows of every activation's output and the
activation derivatives into it; the reverse pass rebuilds the Jacobian and
Hessian rows of a layer's input from these by the forward's own ufuncs,
overwrites the tape with the cotangents and hands it back, so a training
step allocates only its outputs.  An evaluation of another (points, order)
shape lays its tape out in the same buffer when it fits.  A record is pulled
back once.

Both passes run branch block by branch block: every layer of one block of
branches is evaluated (or pulled back) before the next block starts, so a
block's layers are still in cache when the next layer reads them.  A block
is as many branches as fit ``_BLOCK_BYTES`` of tape, and at least one; it is
a contiguous slice of every tape array, and only the scratch arrays and the
layer operand are sized by the block instead of the net.
:meth:`MultiBranchNet.evaluate_grid` evaluates large point sets in chunks on
one chunk-sized tape.

Each worker of :mod:`sgnet.workers` (one per CPU) runs one contiguous run of
the blocks, with its own scratch arrays and layer operand in the tape, and
the workers' branch counts differ by at most one.  Branches share no
parameters, so no two blocks write the same output, and a block does the
same arithmetic on any worker: results do not depend on the worker count.
The enforcer's product rule before and after the blocks runs in the caller.
"""

from __future__ import annotations

import ctypes
import json
import math
import mmap
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import workers

__all__ = [
    "ACTIVATIONS",
    "BranchSpec",
    "EvalRecord",
    "MultiBranchNet",
    "box_enforcer",
    "scratch_nbytes",
    "tape_nbytes",
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


def box_enforcer(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """e(x) = prod_d x_d (1 - x_d) on [0, 1]^d, d = 1 or 2, with its gradient and Laplacian."""
    b = x * (1.0 - x)
    others = b[:, ::-1] if x.shape[1] == 2 else np.ones_like(b)  # product of the other factors
    value = b[:, 0]
    for d in range(1, x.shape[1]):
        value = value * x[:, d] * (1.0 - x[:, d])  # one factor at a time, the rounding checkpoints pin
    return value, (1.0 - 2.0 * x) * others, -2.0 * others.sum(axis=1)


# A checkpoint names the enforcer its input dimension implies.
_ENFORCER_NAMES = {1: "interval", 2: "square"}


def _activation(kind: str, z: np.ndarray, value: np.ndarray, derivs, scratch) -> None:
    """Write the activation of ``z`` into ``value`` and its derivatives 1..len(derivs) into ``derivs``.

    The last derivative may overwrite ``z``, so every term that reads ``z`` is
    taken before it is written; ``scratch`` holds three arrays shaped like
    ``z``.  Each expression keeps one operand order, whatever the buffers.
    """
    s = value if kind == "sigmoid" else scratch[0]
    t, s1 = scratch[1], scratch[2]
    np.subtract(1.0, expit(z, out=s), out=t)
    if kind == "sigmoid":
        s1 = np.multiply(s, t, out=derivs[0])  # s (1 - s)
    else:  # swish: z * sigmoid(z)
        np.multiply(z, s, out=value)
        np.multiply(z, np.multiply(s, t, out=s1), out=t)
        np.add(s, t, out=derivs[0])  # s + z s1
    if len(derivs) < 2:
        return
    s2 = derivs[1] if kind == "sigmoid" else s
    np.multiply(s1, np.subtract(1.0, np.multiply(2.0, s, out=t), out=t), out=s2)  # s1 (1 - 2 s)
    if kind == "swish":
        np.add(np.multiply(z, s2, out=t), np.multiply(2.0, s1, out=derivs[1]), out=derivs[1])
    if len(derivs) < 3:
        return
    np.multiply(s1, np.subtract(1.0, np.multiply(6.0, s1, out=t), out=t), out=derivs[2] if kind == "sigmoid" else t)
    if kind == "swish":
        np.add(np.multiply(z, t, out=t), np.multiply(3.0, s2, out=derivs[2]), out=derivs[2])


def _derivative_rows(n: int, d: int, order: int) -> tuple[list[slice], list[slice]]:
    """Row blocks of the Jacobian and of the Hessian diagonal, one per input direction."""
    blocks = [slice(n * b, n * (b + 1)) for b in range(1, 1 + d * order)]
    return blocks[:d], blocks[d:]


def _output_rows(Z: np.ndarray, derivs, S: np.ndarray, J, H, scratch: np.ndarray) -> None:
    """Write the Jacobian rows d1 z_J and Hessian rows z_J z_J d2 + d1 z_H of an activation's output ``S``.

    The forward pass and the reverse pass's rebuild of a layer input both
    call this, so the rows come out the same bit for bit.
    """
    for rows in J:
        np.multiply(derivs[0], Z[:, rows], out=S[:, rows])
    for j, rows in enumerate(H):
        target = np.multiply(Z[:, J[j]], Z[:, J[j]], out=S[:, rows])
        target *= derivs[1]
        target += np.multiply(derivs[0], Z[:, rows], out=scratch)


# Tape bytes of one block of branches.  On a 2 MB-L2 Xeon with one BLAS thread,
# 8 MB (blocks of 2-3 branches) took a 210-branch 5x45 step at 256 points a
# third less time than one whole-net block; 4 and 12 MB were close, 16 MB and
# more slower, and 9- or 11-branch nets ran at parity (BENCH_9.json).  With
# two workers, 8, 12 and 16 MB ran within 5% of each other at all three bench
# shapes, none ahead at all of them; 2 MB was 8% slower at 210 branches, and
# 32 MB 1.3-1.9x slower at 9 and 11 branches (BENCH_12.json).
_BLOCK_BYTES = 8 << 20

# Points per chunk of :meth:`MultiBranchNet.evaluate_grid`: 256 and 512 were
# equally fast on a 4,096-point grid, and 256 needs half the tape.
_GRID_CHUNK = 256


def _activation_widths(spec: BranchSpec) -> list[int]:
    """Widths of the layers with an activation."""
    return [w for w, kind in zip(spec.layer_dims[1:], spec.activations) if kind != "linear"]


def _branch_words(spec: BranchSpec, n_points: int, order: int) -> tuple[int, int]:
    """Tape words of one branch's layers, and of its share of one worker's scratch arrays and operand."""
    rows = n_points * (1 + spec.input_dim * order)
    hidden = _activation_widths(spec)
    layers = rows * sum(spec.layer_dims) + (1 + order) * n_points * sum(hidden)
    return layers, (3 * n_points + rows) * max(hidden, default=0)


def _layout(spec: BranchSpec, n_branches: int, n_points: int, order: int) -> tuple[int, int]:
    """Branches per block (as many as fit ``_BLOCK_BYTES`` of tape, and at least one) and workers of a pass."""
    block = min(n_branches, max(1, _BLOCK_BYTES // (8 * sum(_branch_words(spec, n_points, order)))))
    return block, len(workers.shares(n_branches, block))


def scratch_nbytes(spec: BranchSpec, n_branches: int, n_points: int, order: int) -> int:
    """Bytes of the tape's per-worker arrays, each spanning the widest activation of a block.

    A worker has three scratch arrays over the value rows and one layer
    operand over all derivative rows.
    """
    block, n_workers = _layout(spec, n_branches, n_points, order)
    return 8 * n_workers * block * _branch_words(spec, n_points, order)[1]


def tape_nbytes(spec: BranchSpec, n_branches: int, n_points: int, order: int) -> int:
    """Bytes of the reusable tape of one evaluation of ``n_points`` points at ``order``.

    Every layer keeps its pre-activation over all derivative rows, as the
    net's input is kept.  A layer with an activation keeps the value rows of
    its output and ``order`` activation derivatives over them; the reverse
    pass rebuilds the output's derivative rows from these and the
    pre-activation.  The rest is the workers' arrays (:func:`scratch_nbytes`).
    """
    layers = _branch_words(spec, n_points, order)[0]
    return 8 * n_branches * layers + scratch_nbytes(spec, n_branches, n_points, order)


# A tape buffer is an anonymous private mapping of its own, so the system gets
# it back when the last view is dropped, whatever malloc's thresholds are by
# then, and a forked child writes to its own copy.  As numpy does for its own
# large buffers, it asks for transparent huge pages (unmapping 585 MB of 4 KB
# pages takes 20 ms, of huge pages 2 ms) and is reported to tracemalloc in
# numpy's domain.
_NUMPY_TRACE_DOMAIN = 389047
_trace_track, _trace_untrack = ctypes.pythonapi.PyTraceMalloc_Track, ctypes.pythonapi.PyTraceMalloc_Untrack
_trace_track.argtypes, _trace_track.restype = (ctypes.c_uint, ctypes.c_size_t, ctypes.c_size_t), ctypes.c_int
_trace_untrack.argtypes, _trace_untrack.restype = (ctypes.c_uint, ctypes.c_size_t), ctypes.c_int


def _mapped_buffer(words: int) -> np.ndarray:
    """``words`` float64 values in a mapping that is unmapped with the array's last view."""
    region = mmap.mmap(-1, 8 * words, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_HUGEPAGE"):
        region.madvise(mmap.MADV_HUGEPAGE)
    buf = np.frombuffer(region, np.float64)
    address = buf.ctypes.data
    _trace_track(_NUMPY_TRACE_DOMAIN, address, buf.nbytes)
    weakref.finalize(region, _trace_untrack, _NUMPY_TRACE_DOMAIN, address)
    return buf


class _Tape:
    """Workspace of one (n_points, order) evaluation, reused across calls of that shape.

    ``Z[i]`` is the pre-activation of layer i over all derivative rows, and
    ``S[i]`` what the tape keeps of layer i's input: all its rows for the
    net's input and for a linear layer's output (which is ``Z[i - 1]``; so
    ``S[-1]`` is the net's output), only the value rows of an activation's
    output.  ``D[i]`` holds the activation derivatives 1..order+1 (the last
    one in the value rows of ``Z[i]``); the Jacobian and Hessian rows of an
    activation's output are exact functions of ``Z[i]`` and ``D[i]``
    (:func:`_output_rows`).  ``shares[w]`` lists the blocks of branches
    (slices of the leading branch axis of these arrays) that worker w of
    ``workers`` runs with its own ``operand[w]``, which holds a layer input of
    one block over all rows, and ``scratch[w][i]``, three arrays of the value
    rows' shape for one block.  The reverse pass overwrites ``Z[i]`` with its cotangent and
    takes the cotangent of an activation's output in ``operand[w]`` (that of
    a linear layer's output in its ``Z``).  Every array is a view of ``buf``,
    which is mapped here (:func:`_mapped_buffer`) unless a buffer at least
    ``tape_nbytes`` long is given.
    """

    __slots__ = ("key", "buf", "shares", "workers", "S", "Z", "D", "operand", "scratch")

    def __init__(self, spec: BranchSpec, K: int, n: int, order: int, buf: np.ndarray | None = None) -> None:
        B = _layout(spec, K, n, order)[0]
        self.shares = workers.shares(K, B)
        self.workers = len(self.shares)
        self.key = (n, order, self.workers)
        d, rows = spec.input_dim, n * (1 + spec.input_dim * order)
        words = tape_nbytes(spec, K, n, order) // 8
        self.buf = buf = _mapped_buffer(words) if buf is None else buf
        offset = 0

        def take(*shape):
            nonlocal offset
            offset += math.prod(shape)
            return buf[offset - math.prod(shape) : offset].reshape(shape)

        self.S = [take(K, rows, d)]
        self.S[0][:, n:] = 0.0  # constant derivative rows of the input block
        for j, block in enumerate(_derivative_rows(n, d, order)[0]):
            self.S[0][:, block, j] = 1.0
        width = max(_activation_widths(spec), default=0)
        self.operand = [take(B * rows * width) for _ in self.shares]
        flat = [[take(B * n * width) for _ in range(3)] for _ in self.shares]
        self.Z, self.D, self.scratch = [], [], [[] for _ in flat]
        for w, kind in zip(spec.layer_dims[1:], spec.activations):
            self.Z.append(take(K, rows, w))
            linear = kind == "linear"
            self.S.append(self.Z[-1] if linear else take(K, n, w))
            self.D.append([] if linear else [take(K, n, w) for _ in range(order)] + [self.Z[-1][:, :n]])
            for own, arrays in zip(self.scratch, flat):
                own.append([] if linear else [a[: B * n * w].reshape(B, n, w) for a in arrays])
        assert offset == words <= buf.size


@dataclass(eq=False, repr=False)
class EvalRecord:
    """Values and derivatives of all branches at a batch of points, plus the tape.

    ``value`` has shape (n, K); ``grad`` (n, K, d) for order >= 1; ``laplacian``
    (n, K) for order == 2.  The record holds the tape needed to pull parameter
    gradients back through the evaluation; the pull-back consumes it, so a
    record can be pulled back once.
    """

    _net: MultiBranchNet
    order: int
    n_points: int
    value: np.ndarray
    grad: np.ndarray | None
    laplacian: np.ndarray | None
    _tape: _Tape | None
    _enf: tuple


class MultiBranchNet:
    """M + 1 disconnected branches of identical shape with independent parameters.

    Branches share no parameters: weights are stored as stacked arrays with a
    leading branch axis, which is block-diagonal structure evaluated batchwise.
    """

    def __init__(self, spec: BranchSpec, n_branches: int, seed: int = 0) -> None:
        if n_branches < 1:
            raise ValueError("n_branches must be positive")
        self.spec = spec
        self.n_branches = int(n_branches)
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
        self._spare: _Tape | None = None  # tape handed back by the last pull-back

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
        if n == 0:
            raise ValueError("no points to evaluate")
        tape, self._spare = self._spare, None
        if tape is None or tape.key != (n, order, _layout(self.spec, self.n_branches, n, order)[1]):
            # Another shape is laid out in the spare's buffer when it fits; a
            # spare too small is freed before the new buffer is allocated.
            words = tape_nbytes(self.spec, self.n_branches, n, order) // 8
            buf = tape.buf if tape is not None and tape.buf.size >= words else None
            tape = None
            tape = _Tape(self.spec, self.n_branches, n, order, buf)
        tape.S[0][:, :n, :] = x
        J, H = _derivative_rows(n, d, order)

        def forward(worker: int) -> None:
            for k in tape.shares[worker]:
                S = tape.S[0][k]
                for i, (w, b) in enumerate(zip(self.weights, self.biases)):
                    Z = np.matmul(S, w[k].transpose(0, 2, 1), out=tape.Z[i][k])
                    Z[:, :n] += b[k, None, :]
                    kind = self.spec.activations[i]
                    if kind == "linear":
                        S = Z
                        continue
                    # The next layer's input over all rows, in the worker's operand; the tape keeps its value rows.
                    S, derivs = tape.operand[worker][: Z.size].reshape(Z.shape), [a[k] for a in tape.D[i]]
                    scratch = [a[: len(Z)] for a in tape.scratch[worker][i]]
                    _activation(kind, Z[:, :n], S[:, :n], derivs, scratch)
                    np.copyto(tape.S[i + 1][k], S[:, :n])
                    _output_rows(Z, derivs, S, J, H, scratch[0])

        workers.run(forward, tape.workers)

        S = tape.S[-1]
        raw_value = S[:, :n, 0].T.copy()
        raw_grad = np.stack([S[:, rows, 0].T for rows in J], axis=2) if order >= 1 else None
        raw_lap = sum(S[:, rows, 0].T for rows in H) if order >= 2 else None

        e, ge, le = box_enforcer(x)
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
        return EvalRecord(self, order, n, value, grad, laplacian, tape, (e, ge, le))

    def evaluate_grid(self, x: np.ndarray, order: int = 1):
        """``(value, grad, laplacian)`` at many points, with no pull-back.

        The points are evaluated in chunks of ``_GRID_CHUNK``, the last one
        ending at the last point, and each chunk's tape is handed back at once,
        so one tape serves the whole grid.  The net's spare is left as it was
        found: a net without one frees the chunk tape at the end, as a record's
        tape is, and a net with one keeps the chunk tape's buffer as its spare.
        ``grad`` and ``laplacian`` are None below orders 1 and 2.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        had_spare = self._spare is not None
        chunks = []
        # An empty ``x`` still makes one call, so evaluate refuses it.
        for start in range(0, max(len(x), 1), _GRID_CHUNK):
            first = min(start, max(len(x) - _GRID_CHUNK, 0))
            record = self.evaluate(x[first : first + _GRID_CHUNK], order)
            self._spare, record._tape = record._tape, None
            chunks.append((start - first, record))
        if not had_spare:
            self._spare = None
        return tuple(
            np.concatenate([getattr(r, name)[skip:] for skip, r in chunks]) if order >= least else None
            for name, least in (("value", 0), ("grad", 1), ("laplacian", 2))
        )

    def release_tape(self) -> None:
        """Free the spare tape; the next evaluation allocates a new one."""
        self._spare = None

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
        tape = record._tape
        if tape is None:
            raise ValueError("evaluation record was already pulled back")
        n, order, d, K = record.n_points, record.order, self.input_dim, self.n_branches
        if d_lap is not None and order < 2:
            raise ValueError("laplacian cotangent requires an order-2 record")
        if d_grad is not None and order < 1:
            raise ValueError("gradient cotangent requires an order-1 record")

        e, ge, le = record._enf

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

        out_b = tape.S[-1]
        record._tape = None
        J, H = _derivative_rows(n, d, order)
        out_b[:, :n, 0] = dN.T
        for j, rows in enumerate(J):
            out_b[:, rows, 0] = dgN[:, :, j].T
        for rows in H:
            out_b[:, rows, 0] = 0.0 if dlapN is None else dlapN.T

        grads = np.empty(self.n_params)
        ends = np.cumsum([a.size for pair in zip(self.weights, self.biases) for a in pair])
        grad_w = [grads[end - w.size : end].reshape(w.shape) for w, end in zip(self.weights, ends[::2])]
        grad_b = [grads[end - b.size : end].reshape(b.shape) for b, end in zip(self.biases, ends[1::2])]
        def backward(worker: int) -> None:
            for k in tape.shares[worker]:
                Sb = None  # cotangent of an activation's output, in the worker's operand
                for i in reversed(range(len(self.weights))):
                    S_prev, Zb, derivs = tape.S[i][k], tape.Z[i][k], [a[k] for a in tape.D[i]]
                    if derivs:
                        # Zb overwrites Z block by block, once every term that reads the block is taken.
                        d1 = derivs[0]
                        zb, u, v = [a[: len(Zb)] for a in tape.scratch[worker][i]]
                        np.multiply(Sb[:, :n], d1, out=zb)
                        for j, rows in enumerate(J):
                            jz, jb = Zb[:, rows], Sb[:, rows]
                            zb += np.multiply(np.multiply(jb, derivs[1], out=u), jz, out=u)  # jb d2 jz
                            if order >= 2:
                                hz, hb = Zb[:, H[j]], Sb[:, H[j]]
                                np.multiply(np.multiply(derivs[2], jz, out=u), jz, out=u)
                                u += np.multiply(derivs[1], hz, out=v)
                                zb += np.multiply(hb, u, out=u)  # hb (d3 jz jz + d2 hz)
                                np.multiply(np.multiply(np.multiply(2.0, hb, out=u), derivs[1], out=u), jz, out=u)
                                np.multiply(hb, d1, out=hz)
                            np.multiply(jb, d1, out=jz)
                            if order >= 2:
                                jz += u  # jb d1 + 2 hb d2 jz
                        np.copyto(Zb[:, :n], zb)
                    if i > 0 and tape.D[i - 1]:
                        # Rebuild the input over all rows in the worker's operand, where Sb is read by now.
                        Z_prev, kept = tape.Z[i - 1][k], S_prev
                        S_prev = tape.operand[worker][: Z_prev.size].reshape(Z_prev.shape)
                        np.copyto(S_prev[:, :n], kept)
                        tmp = tape.scratch[worker][i - 1][0][: len(Zb)]
                        _output_rows(Z_prev, [a[k] for a in tape.D[i - 1]], S_prev, J, H, tmp)
                    np.matmul(Zb.transpose(0, 2, 1), S_prev, out=grad_w[i][k])
                    np.sum(Zb[:, :n], axis=1, out=grad_b[i][k])
                    if i > 0:
                        Sb = np.matmul(Zb, self.weights[i][k], out=S_prev)

        workers.run(backward, tape.workers)
        self._spare = tape
        return grads

    # -- persistence ------------------------------------------------------------

    def save(self, path) -> None:
        """Checkpoint all parameters and the architecture; reload is bitwise exact."""
        meta = {
            "version": _CHECKPOINT_VERSION,
            "input_dim": self.spec.input_dim,
            "hidden_widths": list(self.spec.hidden_widths),
            "activations": list(self.spec.activations),
            "n_branches": self.n_branches,
            "enforcer": _ENFORCER_NAMES[self.input_dim],
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
            if meta["enforcer"] != _ENFORCER_NAMES[spec.input_dim]:
                raise ValueError(f"enforcer {meta['enforcer']!r} does not match input dimension {spec.input_dim}")
            net = cls(spec, n_branches=meta["n_branches"], seed=meta["seed"])
            for i in range(len(net.weights)):
                np.copyto(net.weights[i], data[f"w{i}"])
                np.copyto(net.biases[i], data[f"b{i}"])
        return net
