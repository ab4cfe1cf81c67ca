"""Reverse-mode automatic differentiation on a dynamic tape of array nodes.

Each operation records one node holding its value, an ndarray (a scalar is
the 0-d case), and one vector-Jacobian product (VJP) per parent: a function
mapping the adjoint of the node to the adjoint contribution of that parent.
A whole batched array op is therefore one node, after the design of HIPS
*autograd*. Gradients of a root are obtained by a single reverse sweep over
the creation-ordered tape, which is topologically sorted by construction, and
land on the leaves.

Every primitive is generic: given plain floats or ndarrays it returns the
plain numpy result and records nothing. A node's value is that numpy result
bit for bit (a quotient is numpy's quotient), so an expression gives the
same numbers on the tape and on arrays. Only this module asks whether an
input is a node; others read a node's array with :func:`plain`.

A primitive records its node in one of two ways. An elementwise one (the
operators, :func:`max0`, :func:`sigmoid`, :func:`square`, :func:`absval`,
:func:`clip01`, :func:`where`) gives ``_elementwise`` each input's local
partial, and a parent's VJP is the adjoint times it, summed over the axes
broadcasting added. Any other gives :func:`fused` one function returning
every input's adjoint; indexing, ``sum`` and :func:`take_along_axis` are its
one-input case.

:func:`mlp`, a whole LipSwish network, is one fused node: its VJP walks back
through the layers with the expressions of an affine node and of a LipSwish
node, so its adjoints are bit for bit those of a node per layer. It runs a
stack of ``n`` networks of one input width and depth, their weights
``(n, out, in)``, on one input, one ``np.matmul`` per layer (the "vmap over
networks" ensemble pattern); one network's own ``(out, in)`` weights run as
a stack of one, so one forward pass and one VJP serve both.
:func:`stack_padded` builds such stacks from each network's own nodes, and
its VJP hands each network its slice.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tape",
    "Value",
    "plain",
    "fused",
    "max0",
    "sigmoid",
    "square",
    "clip01",
    "absval",
    "mlp",
    "stack",
    "stack_padded",
    "take_along_axis",
    "where",
]


def _unbroadcast(g, shape):
    """Sum ``g`` over the axes that broadcasting added to an operand of ``shape``."""
    if g.shape == shape:
        return g
    lead = np.ndim(g) - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + k for k, n in enumerate(shape) if n == 1 and np.shape(g)[lead + k] != 1
    )
    return np.sum(g, axis=axes).reshape(shape)


def _check_divisor(d) -> None:
    if np.any(np.asarray(d) == 0.0):
        raise ZeroDivisionError("division by zero")


class Value:
    """A node of the computation graph holding an ndarray value.

    ``parents`` is a flat tuple ``(p0, d0, p1, d1, ...)`` of parent nodes and
    their VJPs, captured when the node was created. Leaves have an empty
    tuple. ``backward`` writes ``g`` on leaves only: a leaf's ``g`` has the
    shape of ``v`` once a gradient reached it, and every other node's ``g``
    stays 0.0. Values are immutable once recorded. Arithmetic broadcasts like
    numpy.
    """

    __slots__ = ("v", "g", "i", "op", "parents", "tape")
    # numpy defers `ndarray <op> Value` to the reflected methods below
    __array_ufunc__ = None
    # iterating would record a getitem node per element, and find a 0-d node empty
    __iter__ = None
    _BASIC_INDEX = (int, np.integer, slice, type(None), type(Ellipsis))

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
        return _elementwise("add", self.v + plain(other), (self, other), (None, None))

    __radd__ = __add__

    def __sub__(self, other):
        return _elementwise("sub", self.v - plain(other), (self, other), (None, -1.0))

    def __rsub__(self, other):
        return _elementwise("sub", other - self.v, (other, self), (None, -1.0))

    def __mul__(self, other):
        d = plain(other)
        return _elementwise("mul", self.v * d, (self, other), (d, self.v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        d = plain(other)
        _check_divisor(d)
        inv = 1.0 / np.asarray(d, dtype=float)
        return _elementwise("div", self.v / d, (self, other), (inv, -self.v * inv * inv))

    def __rtruediv__(self, other):
        _check_divisor(self.v)
        inv = 1.0 / self.v
        return _elementwise("div", other / self.v, (other, self), (inv, -other * inv * inv))

    def __neg__(self):
        return _elementwise("neg", -self.v, (self,), (-1.0,))

    # -- indexing and reductions -------------------------------------------

    def __getitem__(self, index):
        """Basic indexing (ints, slices, ``...``, ``None``); the VJP scatters back,
        so any other index, whose repeats it would drop, raises IndexError."""
        for i in index if isinstance(index, tuple) else (index,):
            if isinstance(i, (bool, np.bool_)) or not isinstance(i, self._BASIC_INDEX):
                raise IndexError(f"basic indices only, got {i!r}; gather with take_along_axis")
        shape = self.shape

        def vjp_all(g):
            out = np.zeros(shape)
            out[index] = g
            return [out]

        return fused("getitem", np.asarray(self.v)[index], (self,), vjp_all)

    def sum(self, axis=None, keepdims=False) -> "Value":
        shape = self.shape

        def vjp_all(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return [np.broadcast_to(g, shape)]

        return fused("sum", np.sum(self.v, axis=axis, keepdims=keepdims), (self,), vjp_all)

    def mean(self, axis=None, keepdims=False) -> "Value":
        total = self.sum(axis, keepdims)
        return total * (np.size(total.v) / np.size(self.v))


class Tape:
    """Creation-ordered record of every node built during a forward pass.

    Nodes always appear after their parents, so a reverse walk is a valid
    topological traversal. A tape is single-threaded; run concurrent work on
    separate tapes.

    Every node refers to its tape, a reference cycle that only the cyclic
    garbage collector frees. As a context manager a tape empties ``nodes`` on
    exit, also when the block raises, so the graph dies by reference counting
    once the block's own references go; :func:`mfgames.mfg.train_step` runs
    every training step this way.
    """

    def __init__(self):
        self.nodes: list[Value] = []

    def __len__(self):
        return len(self.nodes)

    def __enter__(self) -> "Tape":
        return self

    def __exit__(self, *exc) -> None:
        self.nodes.clear()

    def value(self, x) -> Value:
        """Record a leaf node (input, constant, or parameter) holding a copy of ``x``."""
        return Value(np.array(x, dtype=float), self, "leaf", ())

    def backward(self, root: Value) -> None:
        """Accumulate d(sum of root)/d(leaf) into ``g`` for every leaf feeding root.

        Only leaves (nodes without parents) receive ``g``; interior nodes'
        adjoints live in a scratch list, and each is dropped as soon as its
        VJPs have run, so the sweep holds only the adjoints of nodes still
        waiting for a consumer. Repeated calls sum their contributions into
        ``g``, and prior accumulated gradients never leak into the current
        pass. ``nodes`` is left intact; the training loops
        release the graph after each step (see :class:`Tape`).
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
            adj[k] = None
            node = nodes[k]
            if not node.parents:
                node.g = node.g + a
                continue
            it = iter(node.parents)
            for p, vjp in zip(it, it):
                c = vjp(a)
                j = p.i
                adj[j] = c if adj[j] is None else adj[j] + c


def _tape_of(args):
    for a in args:
        if isinstance(a, Value):
            return a.tape
    return None


def plain(x):
    """The array a node holds; anything that is not a node, as it is."""
    return x.v if isinstance(x, Value) else x


def fused(op, value, inputs, vjp_all):
    """``value``, computed from ``inputs``, as one node whose parents are the
    nodes among them; without one, ``value`` itself. ``vjp_all(g)`` returns
    every input's adjoint in order. A sweep calls the parents' VJPs in order,
    once each: the first computes all, and each hands out the next and drops it.
    """
    tape = _tape_of(inputs)
    if tape is None:
        return value
    keep = [isinstance(x, Value) for x in inputs]
    pending = []

    def vjp(g):
        if not pending:
            pending.extend(reversed([a for a, k in zip(vjp_all(g), keep) if k]))
        return pending.pop()

    return Value(value, tape, op, tuple([item for x, k in zip(inputs, keep) if k
                                         for item in (x, vjp)]))


def _elementwise(op, value, inputs, partials):
    """``value``, computed elementwise from ``inputs``, as one node whose parents
    are the nodes among them; without one, ``value`` itself. ``partials[k]`` is
    the local partial of ``inputs[k]``, ``None`` for 1, and that parent's VJP
    is ``g`` times it, summed over the axes broadcasting added to the parent.
    """
    parents = []
    for x, d in zip(inputs, partials):
        if isinstance(x, Value):
            parents += (x, lambda g, d=d, shape=x.shape:
                        _unbroadcast(g if d is None else g * d, shape))
    if not parents:
        return value
    return Value(value, parents[0].tape, op, tuple(parents))


# -- elementwise primitives, generic over Value, float and ndarray ------------


def _sigmoid(x):
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.maximum(e, x >= 0) / d  # max(e, 1) = 1 for x >= 0, as e <= 1; else e


def _unary(x, op, value, partial):
    """Node for ``value(x)`` with local partial ``partial(x, value)``.

    Plain floats and arrays get ``value(x)`` and record nothing.
    """
    if not isinstance(x, Value):
        return value(x)
    v = value(x.v)
    return _elementwise(op, v, (x,), (partial(x.v, v),))


def max0(x):
    """max(x, 0); the flat branch (x <= 0) has zero local partial."""
    return _unary(x, "max0", lambda x: np.where(x > 0.0, x, 0.0),
                  lambda x, _v: (x > 0.0) * 1.0)


def sigmoid(x):
    return _unary(x, "sigmoid", _sigmoid, lambda _x, s: s * (1.0 - s))


def square(x):
    return _unary(x, "square", lambda x: x * x, lambda x, _v: 2.0 * x)


def clip01(x):
    """Clamp to [0, 1] with a straight-through local partial of 1."""
    return _elementwise("clip01", np.clip(plain(x), 0.0, 1.0), (x,), (None,))


def absval(x):
    """|x| with the subgradient 0 at x = 0 (that of max0(x) + max0(-x))."""
    return _unary(x, "abs", np.abs, lambda x, _v: np.sign(x))


# -- array primitives ----------------------------------------------------------


def mlp(x, weights, biases):
    """LipSwish network on x of shape (..., in), one node on the tape: affine
    layers ``h @ w.T + b``, LipSwish ``h * sigmoid(h) / 1.1`` (Lipschitz with
    constant <= 1) between them; one layer is the affine map alone. Its
    parents (the Values among them) are each layer's weight and bias, last
    layer first, then x: the order in which its VJP walks back over the layer
    inputs and slopes the forward pass kept.

    A network's weights are ``(out, in)`` and its biases ``(out,)``; stacked
    weights ``(n, out, in)`` and biases ``(n, out)`` hold ``n`` networks of
    one input width and depth (see :func:`stack_padded`). One network runs
    as a stack of one: ``np.matmul`` broadcasts its weights as ``w[None]``,
    and its output and adjoints have no stack axis. Every network runs on
    the input's rows, reshaped to ``(rows, in)`` once, with one
    ``np.matmul`` per layer. The output is ``(n, ..., out)`` for a stack and
    ``(..., out)`` for one network; the VJP gives each weight and bias an
    adjoint of its own shape, and ``x`` the sum of the networks' adjoints.
    """
    ws = [plain(w) for w in weights]
    shape = np.shape(plain(x))
    n_in = ws[0].shape[-1]
    if not shape or shape[-1] != n_in:
        raise ValueError(f"expected {n_in} inputs, got shape {shape}")
    lead = ws[0].shape[:-2]  # (n,) for n stacked networks, () for one
    bs = [np.asarray(plain(b), dtype=float).reshape(*lead, 1, -1) for b in biases]
    taped = _tape_of((x, *weights, *biases)) is not None
    inputs, slopes = [], []
    h = np.reshape(plain(x), (-1, n_in))  # the input's rows, shared by the networks
    last = len(ws) - 1
    for k in range(last + 1):
        if taped:
            inputs.append(h)
        h = h @ ws[k].mT + bs[k]
        if k != last and not taped:
            h = h * _sigmoid(h) / 1.1
        elif k != last:
            s = _sigmoid(h)
            slopes.append((s + h * s * (1.0 - s)) / 1.1)
            h = h * s / 1.1
    h = h.reshape(*lead, *shape[:-1], h.shape[-1])

    def vjp_all(g):
        g = g.reshape(*lead, -1, g.shape[-1])
        out = []
        for k in range(last, -1, -1):
            if k != last:
                g = g * slopes[k]
            out += [g.mT @ inputs[k], g.sum(axis=-2)]
            if k:
                g = g @ ws[k]
        out.append((g @ ws[0]).reshape(-1, *shape).sum(axis=0)
                   if isinstance(x, Value) else None)
        return out

    every = [p for k in range(last, -1, -1) for p in (weights[k], biases[k])]
    return fused("mlp", h, every + [x], vjp_all)


def stack(xs):
    """Stack Values, arrays and floats along a new last axis, broadcasting them first."""
    shapes = [np.shape(plain(x)) for x in xs]
    out = np.empty(np.broadcast_shapes(*shapes) + (len(xs),))
    for k, x in enumerate(xs):
        out[..., k] = plain(x)
    return fused("stack", out, xs, lambda g: [
        _unbroadcast(np.take(g, k, axis=-1), shape) for k, shape in enumerate(shapes)])


def stack_padded(xs):
    """Stack Values and arrays along a new first axis, each zero-padded at the
    end of every axis to the largest shape; the VJP hands each its own slice.

    Stacks networks' weights and biases for one stacked :func:`mlp`: a padded
    output row of a last layer only adds zero outputs.
    """
    shapes = [np.shape(plain(x)) for x in xs]
    out = np.zeros((len(xs), *np.max(shapes, axis=0)))
    parts = [(k, *map(slice, shape)) for k, shape in enumerate(shapes)]
    for x, part in zip(xs, parts):
        out[part] = plain(x)
    return fused("stack_padded", out, xs, lambda g: [g[part] for part in parts])


def take_along_axis(x, indices, axis):
    """Gather like ``np.take_along_axis``, indices and ``x`` broadcasting against
    each other; repeated indices accumulate their adjoints."""
    shape = np.shape(plain(x))

    def vjp_all(g):
        out = np.zeros(shape)
        grid = list(np.ix_(*(np.arange(n) for n in shape)))
        grid[axis] = indices
        np.add.at(out, tuple(grid), g)
        return [out]

    return fused("take", np.take_along_axis(plain(x), indices, axis), (x,), vjp_all)


def where(mask, a, b):
    """Elementwise ``a`` where ``mask`` holds, else ``b``; each side gets its share."""
    if not (isinstance(a, Value) or isinstance(b, Value)):
        return np.where(mask, a, b)  # no node: no complement of the mask
    return _elementwise("where", np.where(mask, plain(a), plain(b)), (a, b),
                        (mask, np.logical_not(mask)))
