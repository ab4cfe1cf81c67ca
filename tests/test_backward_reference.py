"""The leaf-only backward sweep against the full-adjoint sweep it replaced.

``reference_adjoints`` keeps every node's adjoint to the end of the sweep, as
``Tape.backward`` once did before writing ``g`` onto every node. Both sum the
same contributions in the same order, so on random graphs of the autodiff
primitives, with broadcasts, each leaf's ``g`` must equal the reference
bit for bit, and interior nodes must keep ``g == 0.0``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mfgames import autodiff as ad
from gradcheck import exp, lipswish, log, tanh


def reference_adjoints(tape, root):
    """Adjoint of every node up to ``root`` (None where no gradient reached it)."""
    nodes = tape.nodes
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
    return adj


# every shape here broadcasts against every other
SHAPES = [(), (3,), (2, 1), (1, 3), (2, 3)]


def _broadcasts(a, b) -> bool:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        return False
    return True


def _unary_ops(rng):
    """Ops on one Value; each may decline (return None) for a shape it cannot take."""
    nd = lambda f: (lambda x: f(x) if x.shape else None)
    return [
        ad.sigmoid, tanh, lipswish, ad.square, ad.max0, ad.absval, ad.clip01,
        lambda x: -x,
        lambda x: exp(tanh(x)),
        lambda x: log(ad.square(x) + 0.5),
        lambda x: 1.5 / (ad.square(x) + 0.5),
        lambda x: x - 0.25,
        lambda x: x * np.linspace(-1.0, 1.0, 3),
        lambda x: x.sum(),
        nd(lambda x: x.sum(axis=-1, keepdims=True)),
        nd(lambda x: x.mean(axis=0)),
        nd(lambda x: x[..., :1]),
        nd(lambda x: ad.take_along_axis(
            x, rng.integers(0, x.shape[-1], size=x.shape), axis=-1)),
        lambda x: ad.where(rng.random(x.shape) < 0.5, x, 0.3),
    ]


def _binary_ops(rng, w, b):
    return [
        lambda x, y: x + y,
        lambda x, y: x - y,
        lambda x, y: x * y,
        lambda x, y: x / (ad.square(y) + 0.5),
        lambda x, y: ad.where(
            rng.random(np.broadcast_shapes(x.shape, y.shape)) < 0.5, x, y),
        lambda x, y: ad.stack([x, y, 0.5]).sum(axis=-1),
        # an affine layer on a length-3 last axis, weights and biases as leaves
        lambda x, _y: ad.mlp(x, [w], [b]) if x.shape[-1:] == (3,) else None,
    ]


@st.composite
def graphs(draw):
    """A recipe: leaf shapes, a seed for values and masks, and op picks."""
    shapes = draw(st.lists(st.sampled_from(SHAPES), min_size=1, max_size=4))
    seed = draw(st.integers(0, 2**32 - 1))
    ops = draw(st.lists(
        st.tuples(st.booleans(), st.integers(0, 99), st.integers(0, 999), st.integers(0, 999)),
        min_size=1, max_size=16))
    root_back = draw(st.integers(0, 3))
    return shapes, seed, ops, root_back


def build(recipe):
    """Record the recipe's graph on a fresh tape; returns (tape, root)."""
    shapes, seed, ops, root_back = recipe
    rng = np.random.default_rng(seed)
    tape = ad.Tape()
    w = tape.value(rng.uniform(-1.0, 1.0, (3, 3)))
    b = tape.value(rng.uniform(-1.0, 1.0, 3))
    vals = [tape.value(rng.uniform(-2.0, 2.0, s)) for s in shapes]
    unary, binary = _unary_ops(rng), _binary_ops(rng, w, b)
    for is_binary, op, i, j in ops:
        x = vals[i % len(vals)]
        if is_binary:
            y = vals[j % len(vals)]
            out = binary[op % len(binary)](x, y) if _broadcasts(x, y) else None
        else:
            out = unary[op % len(unary)](x)
        if out is not None:
            vals.append(out)
    return tape, vals[max(len(vals) - 1 - root_back, 0)]


def _assert_leaf_grads(tape, adj, times):
    for node in tape.nodes:
        a = adj[node.i] if node.i < len(adj) else None
        if node.parents or a is None:
            assert type(node.g) is float and node.g == 0.0
            continue
        want = 0.0
        for _ in range(times):
            want = want + a
        assert np.shape(node.g) == np.shape(want)
        assert np.all(node.g == want)


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_leaf_only_sweep_matches_full_adjoint_sweep(recipe):
    tape, root = build(recipe)
    n_nodes = len(tape)
    adj = reference_adjoints(tape, root)
    tape.backward(root)
    assert len(tape) == n_nodes  # the graph is still recorded after the sweep
    _assert_leaf_grads(tape, adj, 1)
    # a second sweep accumulates onto the leaves and leaves the interior alone
    tape.backward(root)
    _assert_leaf_grads(tape, adj, 2)
