"""Dense float64 tensors with tape-recorded ops and reverse-mode gradients.

The primitive op set is deliberately closed -- matmul, transpose, reshape,
add, sub, mul, div, sigmoid, exp, log, sqrt, sum, mean, concat -- and every
op carries a hand-written backward rule, so the tape stays small enough to
audit against the finite-difference checker at the bottom of this file.
Four composite terms record as one fused op each through ``_op``:
``connector.gate_mix`` (the whole gate) and ``objectives.generation_loss``,
``similarity_matrix`` and ``creg_loss``. A fused op's forward runs the numpy
calls of its primitive chain in order; its grad rule computes the chain
rules' expressions and sums each input's contributions in the order
``backward`` sums them over the chain's records, so both keep every bit.

Conventions:
  * float64 everywhere, row-major, rank 0..3;
  * leaves built with ``requires_grad=True`` allocate a zero grad buffer at
    construction; op outputs only propagate the flag, so ``backward``
    deposits gradients exclusively into leaves;
  * a thread records onto at most one ``Graph`` at a time: the one it has
    entered. Entering a second while it records is a ``RuntimeError``;
  * every op computes its output and hands it to ``_op``, the one place
    that decides whether to record. An op records onto the thread's
    ``Graph`` when an input requires grad, keeping a module-level grad
    rule and the context it needs; otherwise (no graph entered, or only
    constant inputs) it returns a bare output: no tape record, no grad
    flag. Both paths run the same numpy arithmetic, so their values agree
    bit for bit;
  * a grad rule computes nothing for an input that does not require grad
    and returns ``None`` in its place, which ``backward`` skips. A rule may
    return its incoming gradient itself, so one array can stand for
    several inputs; ``backward`` never mutates a gradient entry in place,
    it only rebinds the entry to a new sum;
  * ops take tensors; the one other operand is a Python number constant in
    arithmetic (``1.0 - t``, ``t * lam``), checked with ``math.isfinite``
    and wrapped without a validating copy;
  * random initialisation goes through ``make_rng`` (numpy's PCG64), so
    every draw is reproducible from an integer seed.
"""

from __future__ import annotations

import math
import operator
import threading
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Graph",
    "ShapeError",
    "DegenerateVectorError",
    "matmul",
    "concat",
    "sigmoid",
    "cosine_sim",
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
        return _binary("add", self, other, np.add, _add_grad)

    __radd__ = __add__

    def __sub__(self, other):
        return _binary("sub", self, other, np.subtract, _sub_grad)

    def __rsub__(self, other):
        return _binary("sub", other, self, np.subtract, _sub_grad)

    def __mul__(self, other):
        return _binary("mul", self, other, np.multiply, _mul_grad)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _binary("div", self, other, np.divide, _div_grad)

    def __rtruediv__(self, other):
        return _binary("div", other, self, np.divide, _div_grad)

    def sum(self, axis: Optional[int] = None) -> "Tensor":
        return _reduce("sum", self, axis)

    def mean(self, axis: Optional[int] = None) -> "Tensor":
        return _reduce("mean", self, axis)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)
        return _op("exp", (self,), out_data, _exp_grad, out_data)

    def log(self) -> "Tensor":
        data = self.data
        if _any_non_positive(data):
            raise ValueError("log: requires strictly positive input")
        return _op("log", (self,), np.log(data), _log_grad, data)

    def sqrt(self) -> "Tensor":
        if _any_non_positive(self.data):
            raise ValueError("sqrt: requires strictly positive input")
        out_data = np.sqrt(self.data)
        return _op("sqrt", (self,), out_data, _sqrt_grad, out_data)

    def transpose(self) -> "Tensor":
        data = self.data
        if data.ndim != 2:
            raise ShapeError(f"transpose: needs rank 2, got {data.shape}")
        return _op("transpose", (self,), np.ascontiguousarray(data.T), _transpose_grad)

    def reshape(self, shape) -> "Tensor":
        try:
            shape = tuple(map(operator.index, shape))
        except TypeError as exc:
            raise ShapeError(f"reshape: dimensions must be integers, got {shape}") from exc
        data = self.data
        if math.prod(shape) != data.size or min(shape, default=0) < 0:
            raise ShapeError(f"reshape: cannot view {data.shape} as {shape}")
        return _op("reshape", (self,), data.reshape(shape).copy(), _reshape_grad, data.shape)


class _OpRecord:
    """One tape entry: ``grad_rule(*ctx, g)`` maps the output's gradient
    ``g`` to one gradient per input."""

    __slots__ = ("op", "inputs", "out", "grad_rule", "ctx")

    def __init__(self, op: str, inputs: tuple, out: Tensor, grad_rule: Callable[..., tuple],
                 ctx: tuple):
        self.op = op
        self.inputs = inputs
        self.out = out
        self.grad_rule = grad_rule
        self.ctx = ctx


class _Recording(threading.local):
    """Per thread: the ``Graph`` the thread has entered, or None."""

    graph: Optional[Graph] = None


_recording = _Recording()


def _refuse_if_recording(what: str) -> None:
    if _recording.graph is not None:
        raise RuntimeError(f"{what}: this thread already records onto a Graph")


class Graph:
    """Ordered tape of op records; ``backward`` replays it once, in reverse.

    Graphs are single-writer: build the tape on one thread, then call
    ``backward``. Entering a graph makes it the recording target for ops on
    the current thread until the block exits, also by an exception. A
    thread records onto one graph at a time, so entering a graph while the
    thread records is a ``RuntimeError``.
    """

    def __init__(self):
        self.records: list[_OpRecord] = []

    def __enter__(self) -> "Graph":
        _refuse_if_recording("Graph")
        _recording.graph = self
        return self

    def __exit__(self, *exc) -> bool:
        _recording.graph = None
        return False


_new_tensor = object.__new__


def _op(op: str, inputs: tuple, out_data: np.ndarray, grad_rule, *ctx) -> Tensor:
    """Return an op's output as a tensor, recorded onto a tape if one records.

    The only code that reads the thread's graph to decide whether to
    record, and the only code that appends to a tape. The op records onto
    that graph when an input requires grad; ``backward`` then calls
    ``grad_rule(*ctx, g)``, which returns one gradient per input.
    Otherwise the output is returned bare.
    """
    out = _new_tensor(Tensor)
    out.data = out_data
    out.grad = None
    graph = _recording.graph
    # every op but concat has one or two inputs: test their flags directly
    if graph is not None and (
            inputs[0].requires_grad or inputs[-1].requires_grad
            or len(inputs) > 2 and any(t.requires_grad for t in inputs)):
        out.requires_grad = True
        graph.records.append(_OpRecord(op, inputs, out, grad_rule, ctx))
    else:
        out.requires_grad = False
    return out


def _any_non_positive(a: np.ndarray) -> bool:
    """``(a <= 0.0).any()`` in one reduction unless ``a`` holds a NaN: NaN
    itself passes, but a zero or negative entry beside it still fails."""
    if not a.size:
        return False
    low = np.minimum.reduce(a, None)
    return low <= 0.0 or (low != low and (a <= 0.0).any())


def _as_tensor(x: float) -> Tensor:
    """The Python number ``x`` as a constant Tensor."""
    if not math.isfinite(x):
        raise ValueError("tensor data must be finite")
    return Tensor._raw(np.array(x, dtype=np.float64))


def _reduce_to(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, dim in enumerate(shape):
        if dim == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


def _binary(op: str, a, b, fn, grad_rule) -> Tensor:
    if not isinstance(a, Tensor):
        a = _as_tensor(a)
    if not isinstance(b, Tensor):
        b = _as_tensor(b)
    ad = a.data
    bd = b.data
    if op == "div" and not bd.all():
        raise ValueError("div: zero denominator")
    try:
        out_data = fn(ad, bd)
    except ValueError as exc:
        raise ShapeError(f"{op}: incompatible shapes {ad.shape} and {bd.shape}") from exc
    # np.asarray keeps 0-d results 0-d (ascontiguousarray would promote to 1-d)
    return _op(op, (a, b), np.asarray(out_data), grad_rule, a, b)


# Each two-operand rule returns None in place of the gradient of an operand
# that does not require grad, and computes nothing for it.
def _add_grad(a, b, g):
    return (_reduce_to(g, a.shape) if a.requires_grad else None,
            _reduce_to(g, b.shape) if b.requires_grad else None)


def _sub_grad(a, b, g):
    return (_reduce_to(g, a.shape) if a.requires_grad else None,
            _reduce_to(-g, b.shape) if b.requires_grad else None)


def _mul_grad(a, b, g):
    return (_reduce_to(g * b.data, a.shape) if a.requires_grad else None,
            _reduce_to(g * a.data, b.shape) if b.requires_grad else None)


def _div_grad(a, b, g):
    bd = b.data
    return (_reduce_to(g / bd, a.shape) if a.requires_grad else None,
            _reduce_to(-g * a.data / (bd * bd), b.shape) if b.requires_grad else None)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two rank-2 tensors; inner dimensions must agree."""
    ad = a.data
    bd = b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ShapeError(f"matmul: needs rank-2 operands, got {ad.shape} and {bd.shape}")
    if ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul: inner dims disagree for {ad.shape} x {bd.shape}")
    return _op("matmul", (a, b), ad @ bd, _matmul_grad, a, b)


def _matmul_grad(a, b, g):
    return (g @ b.data.T if a.requires_grad else None,
            a.data.T @ g if b.requires_grad else None)


def _transpose_grad(g):
    return (np.ascontiguousarray(g.T),)


def _reshape_grad(shape, g):
    return (g.reshape(shape),)


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise logistic function, clamped strictly inside (0, 1).

    With ``e = exp(-|v|)`` (never overflows) the value is ``1 / (1 + e)``
    for ``v >= 0`` and ``e / (1 + e)`` below zero.
    """
    v = x.data
    e = np.exp(-np.abs(v))
    out_data = np.where(v >= 0, 1.0, e)
    out_data /= 1.0 + e
    np.maximum(out_data, _SIG_LO, out=out_data)
    np.minimum(out_data, _SIG_HI, out=out_data)
    return _op("sigmoid", (x,), out_data, _sigmoid_grad, out_data)


def _sigmoid_grad(out, g):
    return (g * out * (1.0 - out),)


def _exp_grad(out, g):
    return (g * out,)


def _log_grad(x, g):
    return (g / x,)


def _sqrt_grad(out, g):
    return (g * 0.5 / out,)


def _reduce(op: str, x: Tensor, axis: Optional[int]) -> Tensor:
    """``sum`` or ``mean`` over every element (axis None) or one axis of a
    rank-2 tensor. A sum is a mean over n = 1: numpy's float64 mean is the
    same sum divided by the count, so both agree with numpy bit for bit.
    Dividing by n = 1 is exact, so it is skipped."""
    if axis not in (None, 0, 1):
        raise ValueError(f"{op}: axis must be None, 0 or 1, got {axis}")
    data = x.data
    if axis is not None and data.ndim != 2:
        raise ShapeError(f"{op} over an axis needs rank 2, got {data.shape}")
    n = 1
    if op == "mean":
        n = data.size if axis is None else data.shape[axis]
        if n == 0:
            raise ValueError("mean: empty input")
    out_data = np.add.reduce(data, axis)
    if n != 1:
        out_data = out_data / n
    return _op(op, (x,), np.asarray(out_data), _reduce_grad, data.shape, axis, n)


def _reduce_grad(shape, axis, n, g):
    if axis is None:
        return (np.full(shape, float(g) / n),)
    out = np.empty(shape)
    np.divide(g if axis == 0 else g[:, None], n, out=out)
    return (out,)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate rank-1 or rank-2 tensors along the given axis."""
    ts = tuple(tensors)
    if not ts:
        raise ValueError("concat: empty input list")
    datas = [t.data for t in ts]
    ndim = datas[0].ndim
    if ndim not in (1, 2) or any(d.ndim != ndim for d in datas):
        raise ShapeError("concat: operands must all be rank 1 or all rank 2")
    if axis not in range(ndim):
        raise ShapeError(f"concat: axis {axis} invalid for rank {ndim}")
    if ndim == 2:
        other = 1 - axis
        width = datas[0].shape[other]
        if any(d.shape[other] != width for d in datas):
            raise ShapeError(
                f"concat: non-concat dims differ: {[d.shape for d in datas]}"
            )
    out_data = np.concatenate(datas, axis=axis)
    return _op("concat", ts, out_data, _concat_grad, axis, ts)


def _concat_grad(axis, ts, g):
    grads = []
    start = 0
    for t in ts:
        stop = start + t.data.shape[axis]
        if t.requires_grad:
            grads.append(np.ascontiguousarray(g[start:stop] if axis == 0 else g[:, start:stop]))
        else:
            grads.append(None)
        start = stop
    return grads


def _cosine(ua: np.ndarray, va: np.ndarray) -> float:
    """The plain cosine of two float64 vectors, or NaN when the product of
    their norms is 0 or not finite. ``np.linalg.norm`` squares a contiguous
    copy; ``np.vdot`` of one gives the same bits without an overflow warning."""
    uc, vc = np.ascontiguousarray(ua), np.ascontiguousarray(va)
    norms = math.sqrt(np.vdot(uc, uc)) * math.sqrt(np.vdot(vc, vc))
    return float(ua @ va) / norms if 0.0 < norms < math.inf else math.nan


def cosine_sim(u, v) -> float:
    """Cosine similarity of two rank-1 vectors, clamped to [-1, 1].

    Accepts tensors or array-likes; this is a plain numeric measure, not a
    recorded op (the differentiable similarity matrix in ``objectives`` is
    a fused recorded op instead).
    """
    ua = np.asarray(u.data if isinstance(u, Tensor) else u, dtype=np.float64)
    va = np.asarray(v.data if isinstance(v, Tensor) else v, dtype=np.float64)
    if ua.ndim != 1 or va.ndim != 1 or ua.shape != va.shape:
        raise ShapeError(f"cosine_sim: needs matching rank-1 vectors, got {ua.shape} and {va.shape}")
    cos = _cosine(ua, va)
    if not math.isfinite(cos):
        # A norm or dot product left the float range (or a vector is all
        # zeros). The cosine of each vector over its largest absolute entry
        # is the same and stays in range; inputs that work unscaled never
        # come here, so their bits do not change.
        su, sv = np.max(np.abs(ua), initial=0.0), np.max(np.abs(va), initial=0.0)
        if su == 0.0 or sv == 0.0:
            raise DegenerateVectorError("cosine_sim: zero-norm vector")
        with np.errstate(invalid="ignore"):  # an infinite entry gives inf / inf = NaN
            cos = _cosine(ua / su, va / sv)
    # two comparisons, so a NaN comes back as NaN rather than as a bound
    if cos > 1.0:
        return 1.0
    if cos < -1.0:
        return -1.0
    return cos


def backward(graph: Graph, loss: Tensor) -> None:
    """Populate leaf gradients with d(loss)/d(leaf) by replaying the tape.

    Visits every record exactly once in reverse order and does only the
    gradient work that reaches a leaf: a grad rule returns ``None`` for an
    input that does not require grad, and that entry is skipped. A grad
    rule may hand back its incoming gradient itself, so one array can sit
    under several entries; an entry is never mutated in place, only
    replaced by a new sum. Leaves untouched by the loss keep their
    (zero-initialised) buffers; repeated calls accumulate, so zero grads
    between uses.
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
        for t, contrib in zip(rec.inputs, rec.grad_rule(*rec.ctx, out_g)):
            if contrib is None:
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

    Runs ``f`` once under a fresh graph for the analytic gradients, then,
    with that graph exited, perturbs every coordinate of every parameter by
    +/- eps and compares. Returns the max over coordinates of
    ``|analytic - numeric| / max(1e-12, |numeric|)``; a non-finite one is a
    ValueError. Called while the thread records, it is a ``RuntimeError``
    before any gradient or parameter changes.
    """
    if eps <= 0:
        raise ValueError("finite_diff_check: eps must be positive")
    _refuse_if_recording("finite_diff_check")
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
    for k, (p, ag) in enumerate(zip(params, analytic)):
        flat = p.data.reshape(-1)
        aflat = ag.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            try:
                flat[i] = orig + eps
                f_plus = f(params).item()
                flat[i] = orig - eps
                f_minus = f(params).item()
            finally:
                flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise ValueError("finite_diff_check: non-finite value during probing")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            rel = abs(aflat[i] - numeric) / max(1e-12, abs(numeric))
            if not rel <= max_rel:  # true for NaN too
                if not math.isfinite(rel):
                    raise ValueError("finite_diff_check: non-finite relative error at "
                                     f"coordinate {i} of param {k}")
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
