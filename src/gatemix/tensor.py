"""Dense float64 tensors with tape-recorded ops and reverse-mode gradients.

The op set is deliberately closed -- matmul, transpose, reshape, add, sub,
mul, div, sigmoid, exp, log, sqrt, sum, mean, concat -- and every op
carries a hand-written backward rule, so the tape stays small enough to
audit against the finite-difference checker at the bottom of this file.

Conventions:
  * float64 everywhere, row-major, rank 0..3;
  * leaves built with ``requires_grad=True`` allocate a zero grad buffer at
    construction; op outputs only propagate the flag, so ``backward``
    deposits gradients exclusively into leaves;
  * ops record onto the innermost active ``Graph`` when an input requires
    grad; otherwise (no graph active, ``no_grad`` innermost, or only
    constant inputs) an op reads the graph stack once and returns a bare
    output: no backward closure, no tape record, no grad flag. Both paths
    run the same numpy arithmetic, so their values agree bit for bit;
  * Python number constants in arithmetic (``1.0 - t``, ``t * lam``) are
    checked with ``math.isfinite`` and wrapped without a validating copy;
  * random initialisation goes through ``make_rng`` (numpy's PCG64), so
    every draw is reproducible from an integer seed.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Graph",
    "no_grad",
    "ShapeError",
    "DegenerateVectorError",
    "matmul",
    "concat",
    "sigmoid",
    "cosine_sim",
    "mean_pool",
    "backward",
    "finite_diff_check",
    "make_rng",
    "scaled_uniform",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class DegenerateVectorError(ValueError):
    """A vector op received a zero-norm operand."""


# Sigmoid saturates to exactly 0.0/1.0 in float64 for |x| > ~37; clamping to
# the nearest representable interior values keeps outputs strictly in (0, 1)
# so downstream logs never see the endpoints.
_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


class Tensor:
    """Dense float64 array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.array(data, dtype=np.float64, order="C")
        if arr.ndim > 3:
            raise ShapeError(f"tensors are rank 0..3, got rank {arr.ndim}")
        if not np.isfinite(arr).all():
            raise ValueError("tensor data must be finite")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None

    @classmethod
    def _raw(cls, arr: np.ndarray) -> "Tensor":
        # Internal fast path for op outputs and for constants built from finite
        # data (identity and one-hot matrices, row maxima): no copy, no
        # validation, no buffer.
        t = object.__new__(cls)
        t.data = arr
        t.requires_grad = False
        t.grad = None
        return t

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single element, shape is {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad.fill(0.0)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # Arithmetic sugar; every operator routes through the recorded op set.
    def __add__(self, other):
        return _add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return _sub(self, other)

    def __rsub__(self, other):
        return _sub(other, self)

    def __mul__(self, other):
        return _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _div(self, other)

    def __rtruediv__(self, other):
        return _div(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return _mul(self, -1.0)

    def sum(self, axis: Optional[int] = None) -> "Tensor":
        return _sum(self, axis)

    def mean(self, axis: Optional[int] = None) -> "Tensor":
        return _mean(self, axis)

    def exp(self) -> "Tensor":
        return _exp(self)

    def log(self) -> "Tensor":
        return _log(self)

    def sqrt(self) -> "Tensor":
        return _sqrt(self)

    def sigmoid(self) -> "Tensor":
        return sigmoid(self)

    def transpose(self) -> "Tensor":
        return _transpose(self)

    def reshape(self, shape) -> "Tensor":
        return _reshape(self, shape)


@dataclass
class _OpRecord:
    op: str
    inputs: tuple
    out: Tensor
    grad_fn: Callable[[np.ndarray], tuple]


_graph_state = threading.local()


def _graph_stack() -> list:
    stack = getattr(_graph_state, "stack", None)
    if stack is None:
        stack = _graph_state.stack = []
    return stack


class Graph:
    """Ordered tape of op records; ``backward`` replays it once, in reverse.

    Graphs are single-writer: build the tape on one thread, then call
    ``backward``. Entering a graph makes it the recording target for ops on
    the current thread; graphs nest (innermost wins).
    """

    def __init__(self):
        self.records: list[_OpRecord] = []

    def __enter__(self) -> "Graph":
        _graph_stack().append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _graph_stack().pop()
        return False


class no_grad:
    """Context that suppresses recording even inside an active graph."""

    def __enter__(self):
        _graph_stack().append(None)
        return self

    def __exit__(self, *exc) -> bool:
        _graph_stack().pop()
        return False


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, (float, int)):
        if not math.isfinite(x):
            raise ValueError("tensor data must be finite")
        return Tensor._raw(np.array(x, dtype=np.float64))
    return Tensor(x)


def _tape(inputs: tuple) -> Optional[Graph]:
    """The graph an op over ``inputs`` records onto, or None when nothing
    records (no graph, ``no_grad`` innermost, or no input requires grad)."""
    stack = getattr(_graph_state, "stack", None)
    tape = stack[-1] if stack else None
    if tape is not None and any(t.requires_grad for t in inputs):
        return tape
    return None


def _record(tape: Graph, op: str, inputs: tuple, out_data: np.ndarray, grad_fn) -> Tensor:
    out = Tensor._raw(out_data)
    out.requires_grad = True
    tape.records.append(_OpRecord(op, inputs, out, grad_fn))
    return out


def _reduce_to(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


def _binary(op: str, a, b, fn, grad_fn_builder) -> Tensor:
    a = _as_tensor(a)
    b = _as_tensor(b)
    try:
        out_data = fn(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{op}: incompatible shapes {a.shape} and {b.shape}") from exc
    # np.asarray keeps 0-d results 0-d (ascontiguousarray would promote to 1-d)
    out_data = np.asarray(out_data)
    tape = _tape((a, b))
    if tape is None:
        return Tensor._raw(out_data)
    return _record(tape, op, (a, b), out_data, grad_fn_builder(a, b))


def _add_grad(a, b):
    def grad_fn(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return grad_fn


def _add(a, b) -> Tensor:
    return _binary("add", a, b, np.add, _add_grad)


def _sub_grad(a, b):
    def grad_fn(g):
        return _reduce_to(g, a.shape), _reduce_to(-g, b.shape)

    return grad_fn


def _sub(a, b) -> Tensor:
    return _binary("sub", a, b, np.subtract, _sub_grad)


def _mul_grad(a, b):
    def grad_fn(g):
        return _reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape)

    return grad_fn


def _mul(a, b) -> Tensor:
    return _binary("mul", a, b, np.multiply, _mul_grad)


def _div_grad(a, b):
    def grad_fn(g):
        ga = _reduce_to(g / b.data, a.shape)
        gb = _reduce_to(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return grad_fn


def _div(a, b) -> Tensor:
    b = _as_tensor(b)
    if (b.data == 0.0).any():
        raise ValueError("div: zero denominator")
    return _binary("div", a, b, np.divide, _div_grad)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors; inner dimensions must agree."""
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims disagree for {a.shape} x {b.shape}")
    out_data = a.data @ b.data
    tape = _tape((a, b))
    if tape is None:
        return Tensor._raw(out_data)

    def grad_fn(g):
        return g @ b.data.T, a.data.T @ g

    return _record(tape, "matmul", (a, b), out_data, grad_fn)


def _transpose(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"transpose: needs rank 2, got {x.shape}")
    out_data = np.ascontiguousarray(x.data.T)
    tape = _tape((x,))
    if tape is None:
        return Tensor._raw(out_data)

    def grad_fn(g):
        return (np.ascontiguousarray(g.T),)

    return _record(tape, "transpose", (x,), out_data, grad_fn)


def _reshape(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    out_data = x.data.reshape(shape).copy()
    tape = _tape((x,))
    if tape is None:
        return Tensor._raw(out_data)

    def grad_fn(g):
        return (g.reshape(x.shape),)

    return _record(tape, "reshape", (x,), out_data, grad_fn)


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function, clamped strictly inside (0, 1).

    With ``e = exp(-|v|)`` (never overflows) the value is ``1 / (1 + e)``
    for ``v >= 0`` and ``e / (1 + e)`` below zero.
    """
    x = _as_tensor(x)
    v = x.data
    e = np.exp(-np.abs(v))
    out_data = np.where(v >= 0, 1.0, e)
    out_data /= 1.0 + e
    np.clip(out_data, _SIG_LO, _SIG_HI, out=out_data)
    tape = _tape((x,))
    if tape is None:
        return Tensor._raw(out_data)

    def grad_fn(g):
        return (g * out_data * (1.0 - out_data),)

    return _record(tape, "sigmoid", (x,), out_data, grad_fn)


def _exp(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out_data = np.exp(x.data)
    tape = _tape((x,))
    if tape is None:
        return Tensor._raw(out_data)

    def grad_fn(g):
        return (g * out_data,)

    return _record(tape, "exp", (x,), out_data, grad_fn)


def _log(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    if (x.data <= 0.0).any():
        raise ValueError("log: requires strictly positive input")
    out_data = np.log(x.data)
    tape = _tape((x,))
    if tape is None:
        return Tensor._raw(out_data)

    def grad_fn(g):
        return (g / x.data,)

    return _record(tape, "log", (x,), out_data, grad_fn)


def _sqrt(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    if (x.data <= 0.0).any():
        raise ValueError("sqrt: requires strictly positive input")
    out_data = np.sqrt(x.data)
    tape = _tape((x,))
    if tape is None:
        return Tensor._raw(out_data)

    def grad_fn(g):
        return (g * 0.5 / out_data,)

    return _record(tape, "sqrt", (x,), out_data, grad_fn)


def _sum(x: Tensor, axis: Optional[int] = None) -> Tensor:
    x = _as_tensor(x)
    if axis not in (None, 0, 1):
        raise ValueError(f"sum: axis must be None, 0 or 1, got {axis}")
    if axis is not None and x.ndim != 2:
        raise ShapeError(f"sum over an axis needs rank 2, got {x.shape}")
    out_data = np.asarray(x.data.sum(axis=axis))
    tape = _tape((x,))
    if tape is None:
        return Tensor._raw(out_data)

    def grad_fn(g):
        if axis is None:
            return (np.full_like(x.data, float(g)),)
        if axis == 0:
            return (np.broadcast_to(g, x.shape).copy(),)
        return (np.broadcast_to(g[:, None], x.shape).copy(),)

    return _record(tape, "sum", (x,), out_data, grad_fn)


def _mean(x: Tensor, axis: Optional[int] = None) -> Tensor:
    x = _as_tensor(x)
    if axis not in (None, 0, 1):
        raise ValueError(f"mean: axis must be None, 0 or 1, got {axis}")
    if axis is not None and x.ndim != 2:
        raise ShapeError(f"mean over an axis needs rank 2, got {x.shape}")
    n = x.size if axis is None else x.shape[axis]
    if n == 0:
        raise ValueError("mean: empty input")
    out_data = np.asarray(x.data.mean(axis=axis))
    tape = _tape((x,))
    if tape is None:
        return Tensor._raw(out_data)

    def grad_fn(g):
        if axis is None:
            return (np.full_like(x.data, float(g) / n),)
        if axis == 0:
            return (np.broadcast_to(g / n, x.shape).copy(),)
        return (np.broadcast_to(g[:, None] / n, x.shape).copy(),)

    return _record(tape, "mean", (x,), out_data, grad_fn)


def mean_pool(x: Tensor) -> Tensor:
    """Column-wise arithmetic mean of a rank-2 tensor (n rows -> one row)."""
    x = _as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"mean_pool: needs rank 2, got {x.shape}")
    if x.shape[0] < 1:
        raise ValueError("mean_pool: empty sequence")
    return _mean(x, axis=0)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate rank-1 or rank-2 tensors along the given axis."""
    ts = tuple(_as_tensor(t) for t in tensors)
    if not ts:
        raise ValueError("concat: empty input list")
    ndim = ts[0].ndim
    if ndim not in (1, 2) or any(t.ndim != ndim for t in ts):
        raise ShapeError("concat: operands must all be rank 1 or all rank 2")
    if axis not in range(ndim):
        raise ShapeError(f"concat: axis {axis} invalid for rank {ndim}")
    other = 1 - axis
    if ndim == 2 and any(t.shape[other] != ts[0].shape[other] for t in ts):
        raise ShapeError(
            f"concat: non-concat dims differ: {[t.shape for t in ts]}"
        )
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    tape = _tape(ts)
    if tape is None:
        return Tensor._raw(out_data)
    sizes = [t.shape[axis] for t in ts]

    def grad_fn(g):
        grads = []
        start = 0
        for s in sizes:
            sl = slice(start, start + s)
            grads.append(np.ascontiguousarray(g[sl] if axis == 0 else g[:, sl]))
            start += s
        return tuple(grads)

    return _record(tape, "concat", ts, out_data, grad_fn)


def cosine_sim(u, v) -> float:
    """Cosine similarity of two rank-1 vectors, clamped to [-1, 1].

    Accepts tensors or array-likes; this is a plain numeric measure, not a
    recorded op (the differentiable similarity matrix in ``objectives`` is
    assembled from recorded primitives instead).
    """
    ua = np.asarray(u.data if isinstance(u, Tensor) else u, dtype=np.float64)
    va = np.asarray(v.data if isinstance(v, Tensor) else v, dtype=np.float64)
    if ua.ndim != 1 or va.ndim != 1 or ua.shape != va.shape:
        raise ShapeError(f"cosine_sim: needs matching rank-1 vectors, got {ua.shape} and {va.shape}")
    nu = float(np.linalg.norm(ua))
    nv = float(np.linalg.norm(va))
    if nu == 0.0 or nv == 0.0:
        raise DegenerateVectorError("cosine_sim: zero-norm vector")
    return float(np.clip(float(ua @ va) / (nu * nv), -1.0, 1.0))


def backward(graph: Graph, loss: Tensor) -> None:
    """Populate leaf gradients with d(loss)/d(leaf) by replaying the tape.

    Visits every record exactly once in reverse order. Leaves untouched by
    the loss keep their (zero-initialised) buffers; repeated calls
    accumulate, so zero grads between uses.
    """
    if not isinstance(loss, Tensor) or loss.shape != ():
        got = getattr(loss, "shape", type(loss))
        raise ShapeError(f"backward: loss must be a scalar tensor, got {got}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    by_id: dict[int, Tensor] = {id(loss): loss}
    for rec in reversed(graph.records):
        out_g = grads.get(id(rec.out))
        if out_g is None:
            continue
        for t, contrib in zip(rec.inputs, rec.grad_fn(out_g)):
            if contrib is None or not t.requires_grad:
                continue
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + contrib
            else:
                grads[key] = contrib
                by_id[key] = t
    for key, t in by_id.items():
        if t.grad is not None:
            t.grad += grads[key].reshape(t.shape)


def finite_diff_check(
    f: Callable[[Sequence[Tensor]], Tensor],
    params: Sequence[Tensor],
    eps: float = 1e-5,
) -> float:
    """Central-difference gradient check of a scalar objective.

    Runs ``f`` once under a fresh graph for the analytic gradients, then
    perturbs every coordinate of every parameter by +/- eps (recording
    suppressed) and compares. Returns the max over coordinates of
    ``|analytic - numeric| / max(1e-12, |numeric|)``.
    """
    if eps <= 0:
        raise ValueError("finite_diff_check: eps must be positive")
    params = list(params)
    for p in params:
        if p.grad is None:
            raise ValueError("finite_diff_check: every param must require grad")
        p.zero_grad()
    with Graph() as g:
        out = f(params)
    if not isinstance(out, Tensor) or out.shape != ():
        raise ShapeError("finite_diff_check: objective must return a scalar tensor")
    if not np.isfinite(out.data).all():
        raise ValueError("finite_diff_check: objective returned a non-finite value")
    backward(g, out)
    analytic = [p.grad.copy() for p in params]

    max_rel = 0.0
    with no_grad():
        for p, ag in zip(params, analytic):
            flat = p.data.reshape(-1)
            aflat = ag.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                f_plus = f(params).item()
                flat[i] = orig - eps
                f_minus = f(params).item()
                flat[i] = orig
                if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                    raise ValueError("finite_diff_check: non-finite value during probing")
                numeric = (f_plus - f_minus) / (2.0 * eps)
                rel = abs(aflat[i] - numeric) / max(1e-12, abs(numeric))
                if rel > max_rel:
                    max_rel = rel
    return max_rel


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the single source of randomness in the repo."""
    return np.random.default_rng(seed)


def scaled_uniform(rng: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    """Uniform draw in [-1/sqrt(fan_in), 1/sqrt(fan_in)], the default init."""
    if fan_in < 1:
        raise ValueError("scaled_uniform: fan_in must be >= 1")
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)
