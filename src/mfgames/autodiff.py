"""Reverse-mode automatic differentiation on a dynamic tape of array nodes.

Each operation records one node holding its value, an ndarray (a scalar is
the 0-d case), and one vector-Jacobian product (VJP) per parent: a function
mapping the adjoint of the node to the adjoint contribution of that parent.
A whole batched array op is therefore one node, after the design of HIPS
*autograd*. Gradients of a root are obtained by a single reverse sweep over
the creation-ordered tape, which is topologically sorted by construction.

Every primitive is generic: given plain floats or ndarrays it returns the
plain numpy result and records nothing.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tape",
    "Value",
    "exp",
    "log",
    "max0",
    "sigmoid",
    "tanh",
    "square",
    "lipswish",
    "clip01",
    "absval",
    "affine",
    "stack",
    "take_along_axis",
    "where",
]


def _unbroadcast(g, shape):
    """Sum ``g`` over the axes that broadcasting added to an operand of ``shape``."""
    if np.shape(g) == shape:
        return g
    lead = np.ndim(g) - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + k for k, n in enumerate(shape) if n == 1 and np.shape(g)[lead + k] != 1
    )
    return np.sum(g, axis=axes).reshape(shape)


def _pass(p):
    shape = np.shape(p.v)
    return lambda g: _unbroadcast(g, shape)


def _scale(p, d):
    """VJP of an elementwise op whose local partial is ``d``."""
    shape = np.shape(p.v)
    return lambda g: _unbroadcast(g * d, shape)


def _check_divisor(d) -> None:
    if np.any(np.asarray(d) == 0.0):
        raise ZeroDivisionError("division by zero")


class Value:
    """A node of the computation graph holding an ndarray value.

    ``parents`` is a flat tuple ``(p0, d0, p1, d1, ...)`` of parent nodes and
    their VJPs, captured when the node was created. Leaves have an empty
    tuple. ``backward`` only ever touches ``g``, which has the shape of ``v``
    once a gradient reached the node (0.0 before); values are immutable once
    recorded. Arithmetic broadcasts like numpy.
    """

    __slots__ = ("v", "g", "i", "op", "parents", "tape")
    # numpy defers `ndarray <op> Value` to the reflected methods below
    __array_ufunc__ = None

    def __init__(self, v, tape, op="leaf", parents=()):
        self.v = v
        self.g = 0.0
        self.op = op
        self.parents = parents
        self.tape = tape
        self.i = len(tape.nodes)
        tape.nodes.append(self)

    def __repr__(self):
        return f"Value({self.v!r}, op={self.op!r}, grad={self.g!r})"

    @property
    def shape(self) -> tuple:
        return np.shape(self.v)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Value):
            return Value(self.v + other.v, self.tape, "add",
                         (self, _pass(self), other, _pass(other)))
        return Value(self.v + other, self.tape, "add", (self, _pass(self)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Value):
            return Value(self.v - other.v, self.tape, "sub",
                         (self, _pass(self), other, _scale(other, -1.0)))
        return Value(self.v - other, self.tape, "sub", (self, _pass(self)))

    def __rsub__(self, other):
        return Value(other - self.v, self.tape, "sub", (self, _scale(self, -1.0)))

    def __mul__(self, other):
        if isinstance(other, Value):
            return Value(self.v * other.v, self.tape, "mul",
                         (self, _scale(self, other.v), other, _scale(other, self.v)))
        return Value(self.v * other, self.tape, "mul", (self, _scale(self, other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Value):
            _check_divisor(other.v)
            inv = 1.0 / other.v
            return Value(self.v * inv, self.tape, "div",
                         (self, _scale(self, inv), other, _scale(other, -self.v * inv * inv)))
        _check_divisor(other)
        inv = 1.0 / np.asarray(other, dtype=float)
        return Value(self.v * inv, self.tape, "div", (self, _scale(self, inv)))

    def __rtruediv__(self, other):
        _check_divisor(self.v)
        inv = 1.0 / self.v
        return Value(other * inv, self.tape, "div", (self, _scale(self, -other * inv * inv)))

    def __neg__(self):
        return Value(-self.v, self.tape, "neg", (self, _scale(self, -1.0)))

    # -- indexing and reductions -------------------------------------------

    def __getitem__(self, index):
        """Basic indexing (ints, slices, ``...``, ``None``); the VJP scatters back."""
        shape = self.shape

        def vjp(g):
            out = np.zeros(shape)
            out[index] = g
            return out

        return Value(np.asarray(self.v)[index], self.tape, "getitem", (self, vjp))

    def __len__(self):
        return len(self.v)

    def __iter__(self):
        return (self[k] for k in range(len(self)))

    def sum(self, axis=None, keepdims=False) -> "Value":
        shape = self.shape

        def vjp(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, shape)

        return Value(np.sum(self.v, axis=axis, keepdims=keepdims), self.tape, "sum",
                     (self, vjp))

    def mean(self, axis=None, keepdims=False) -> "Value":
        total = self.sum(axis, keepdims)
        return total * (np.size(total.v) / np.size(self.v))


class Tape:
    """Creation-ordered record of every node built during a forward pass.

    Nodes always appear after their parents, so a reverse walk is a valid
    topological traversal. A tape is single-threaded; run concurrent work on
    separate tapes.
    """

    def __init__(self):
        self.nodes: list[Value] = []

    def __len__(self):
        return len(self.nodes)

    def value(self, x) -> Value:
        """Record a leaf node (input, constant, or parameter) holding a copy of ``x``."""
        return Value(np.array(x, dtype=float), self, "leaf", ())

    def zero_grads(self) -> None:
        for n in self.nodes:
            n.g = 0.0

    def backward(self, root: Value) -> None:
        """Accumulate d(sum of root)/d(node) into ``g`` for every node feeding root.

        Repeated calls without ``zero_grads`` sum their contributions. The
        sweep uses scratch adjoints so prior accumulated gradients never leak
        into the current pass.
        """
        if root.tape is not self:
            raise ValueError("root is not registered on this tape")
        nodes = self.nodes
        adj = [None] * (root.i + 1)
        adj[root.i] = np.ones(root.shape)
        for k in range(root.i, -1, -1):
            a = adj[k]
            if a is None:
                continue
            it = iter(nodes[k].parents)
            for p, vjp in zip(it, it):
                c = vjp(a)
                j = p.i
                adj[j] = c if adj[j] is None else adj[j] + c
        for k, a in enumerate(adj):
            if a is not None:
                nodes[k].g = nodes[k].g + a


def _tape_of(args):
    for a in args:
        if isinstance(a, Value):
            return a.tape
    return None


def _val(x):
    return x.v if isinstance(x, Value) else x


# -- elementwise primitives, generic over Value, float and ndarray ------------


def _sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _unary(x, op, value, partial):
    """Node for ``value(x)`` with local partial ``partial(x, value)``.

    Plain floats and arrays get ``value(x)`` and record nothing.
    """
    if not isinstance(x, Value):
        return value(x)
    v = value(x.v)
    return Value(v, x.tape, op, (x, _scale(x, partial(x.v, v))))


def exp(x):
    return _unary(x, "exp", np.exp, lambda x, e: e)


def log(x):
    if np.any(_val(x) <= 0.0):
        raise ValueError(f"log of non-positive value {np.min(_val(x))}")
    return _unary(x, "log", np.log, lambda x, _v: 1.0 / x)


def max0(x):
    """max(x, 0); the flat branch (x <= 0) has zero local partial."""
    return _unary(x, "max0", lambda x: np.where(x > 0.0, x, 0.0),
                  lambda x, _v: (x > 0.0) * 1.0)


def sigmoid(x):
    return _unary(x, "sigmoid", _sigmoid, lambda _x, s: s * (1.0 - s))


def tanh(x):
    return _unary(x, "tanh", np.tanh, lambda _x, t: 1.0 - t * t)


def square(x):
    return _unary(x, "square", lambda x: x * x, lambda x, _v: 2.0 * x)


def lipswish(x):
    """x * sigmoid(x) / 1.1, Lipschitz with constant <= 1."""
    if not isinstance(x, Value):
        return x * _sigmoid(x) / 1.1
    s = _sigmoid(x.v)
    d = (s + x.v * s * (1.0 - s)) / 1.1
    return Value(x.v * s / 1.1, x.tape, "lipswish", (x, _scale(x, d)))


def clip01(x):
    """Clamp to [0, 1] with a straight-through local partial of 1."""
    if not isinstance(x, Value):
        return np.clip(x, 0.0, 1.0)
    return Value(np.clip(x.v, 0.0, 1.0), x.tape, "clip01", (x, _pass(x)))


def absval(x):
    """|x| with the subgradient 0 at x = 0 (that of max0(x) + max0(-x))."""
    return _unary(x, "abs", np.abs, lambda x, _v: np.sign(x))


# -- array primitives ----------------------------------------------------------


def affine(x, w, b):
    """Batched ``x @ w.T + b`` for x of shape (..., in), w (out, in), b (out,)."""
    xv, wv, bv = _val(x), _val(w), _val(b)
    out = xv @ wv.T + bv
    tape = _tape_of((x, w, b))
    if tape is None:
        return out
    n_out, n_in = np.shape(wv)
    parents = []
    if isinstance(x, Value):
        parents += [x, lambda g: g @ wv]
    if isinstance(w, Value):
        parents += [w, lambda g: g.reshape(-1, n_out).T @ np.reshape(xv, (-1, n_in))]
    if isinstance(b, Value):
        parents += [b, lambda g: g.reshape(-1, n_out).sum(axis=0)]
    return Value(out, tape, "affine", tuple(parents))


def stack(xs, axis=-1):
    """Stack Values, arrays and floats along a new axis, broadcasting them first."""
    shape = np.broadcast_shapes(*(np.shape(_val(x)) for x in xs))
    out = np.stack([np.broadcast_to(_val(x), shape) for x in xs], axis=axis)
    tape = _tape_of(xs)
    if tape is None:
        return out
    parents = []
    for k, x in enumerate(xs):
        if isinstance(x, Value):
            parents += [x, _slice_vjp(k, axis, x.shape)]
    return Value(out, tape, "stack", tuple(parents))


def _slice_vjp(k, axis, shape):
    return lambda g: _unbroadcast(np.take(g, k, axis=axis), shape)


def take_along_axis(x, indices, axis):
    """Gather like ``np.take_along_axis``; repeated indices accumulate their adjoints."""
    if not isinstance(x, Value):
        return np.take_along_axis(x, indices, axis)
    shape = x.shape

    def vjp(g):
        out = np.zeros(shape)
        grid = list(np.ix_(*(np.arange(n) for n in np.shape(indices))))
        grid[axis] = indices
        np.add.at(out, tuple(grid), g)
        return out

    return Value(np.take_along_axis(x.v, indices, axis), x.tape, "take", (x, vjp))


def where(mask, a, b):
    """Elementwise ``a`` where ``mask`` holds, else ``b``; each side gets its share."""
    out = np.where(mask, _val(a), _val(b))
    tape = _tape_of((a, b))
    if tape is None:
        return out
    parents = []
    if isinstance(a, Value):
        parents += [a, _scale(a, np.asarray(mask, dtype=float))]
    if isinstance(b, Value):
        parents += [b, _scale(b, np.logical_not(mask) * 1.0)]
    return Value(out, tape, "where", tuple(parents))
