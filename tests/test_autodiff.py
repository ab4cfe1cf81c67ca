import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mfgames import autodiff as ad
from gradcheck import (
    array_gradcheck,
    central_diff,
    eval_program,
    exp,
    gradcheck_program,
    lipswish,
    log,
    random_program,
    tanh,
    well_conditioned,
)
from test_backward_reference import SHAPES


def test_square_via_mul():
    tape = ad.Tape()
    x = tape.value(3.0)
    y = x * x
    tape.backward(y)
    assert x.g == 6.0


def test_sigmoid_at_zero():
    tape = ad.Tape()
    x = tape.value(0.0)
    y = ad.sigmoid(x)
    assert y.v == 0.5
    tape.backward(y)
    assert x.g == 0.25


def test_sigmoid_value_equals_the_select_form_bit_for_bit():
    def selected(x):  # the form the branch-free maximum replaced
        e = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0, e) / (1.0 + e)

    tiny = np.finfo(float).smallest_subnormal
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 2.2e-308, -2.2e-308,
               745.2, -745.2, 36.7, -36.7, 1.0, -1.0]
    rng = np.random.default_rng(5)
    x = np.concatenate([special, rng.normal(0.0, 30.0, 20000), rng.normal(0.0, 1e-3, 2000)])
    assert np.array_equal(ad._sigmoid(x).view(np.int64), selected(x).view(np.int64))
    for v in special:  # a float in, a numpy float out, as before
        got, want = ad._sigmoid(v), selected(v)
        assert type(got) is type(want) and got.tobytes() == want.tobytes()


def test_max0_flat_region():
    tape = ad.Tape()
    x = tape.value(-2.0)
    y = ad.max0(x)
    assert y.v == 0.0
    tape.backward(y)
    assert x.g == 0.0


def test_backward_on_leaf_is_identity():
    tape = ad.Tape()
    x = tape.value(1.5)
    tape.backward(x)
    assert x.g == 1.0


def test_hand_chain_rule():
    # f(x, y) = x*y + x at (2, 3) -> df/dx = y + 1 = 4, df/dy = x = 2
    tape = ad.Tape()
    x, y = tape.value(2.0), tape.value(3.0)
    f = x * y + x
    tape.backward(f)
    assert (x.g, y.g) == (4.0, 2.0)


def test_random_four_op_composite_matches_fd():
    rng = np.random.default_rng(7)
    done = 0
    while done < 20:
        xs = rng.uniform(-3, 3, size=3).tolist()
        prog = random_program(rng, 3, 4)
        if not well_conditioned(prog, xs):
            continue
        grads, fd = gradcheck_program(prog, xs)
        for g, f in zip(grads, fd):
            assert abs(g - f) <= max(1e-6, 1e-6 * abs(g))
        done += 1


def test_gradient_check_property_sweep():
    rng = np.random.default_rng(123)
    done = 0
    while done < 60:
        n_in = int(rng.integers(2, 5))
        xs = rng.uniform(-3, 3, size=n_in).tolist()
        prog = random_program(rng, n_in, int(rng.integers(3, 12)))
        if not well_conditioned(prog, xs):
            continue
        grads, fd = gradcheck_program(prog, xs)
        for g, f in zip(grads, fd):
            assert abs(g - f) <= max(1e-6, 1e-4 * abs(g)), (g, f)
        done += 1


def test_linearity_of_gradients():
    rng = np.random.default_rng(5)
    for _ in range(10):
        xs = rng.uniform(-2, 2, size=2).tolist()
        a, b = rng.uniform(-2, 2, size=2)

        def build(tape):
            leaves = [tape.value(x) for x in xs]
            f = tanh(leaves[0] * leaves[1]) + ad.square(leaves[0])
            g = ad.sigmoid(leaves[0] - leaves[1]) * leaves[1]
            return leaves, f, g

        t1 = ad.Tape()
        leaves, f, g = build(t1)
        combo = a * f + b * g
        t1.backward(combo)
        combo_grads = [leaf.g for leaf in leaves]

        t2 = ad.Tape()
        leaves2, f2, _ = build(t2)
        t2.backward(f2)
        f_grads = [leaf.g for leaf in leaves2]

        t3 = ad.Tape()
        leaves3, _, g3 = build(t3)
        t3.backward(g3)
        g_grads = [leaf.g for leaf in leaves3]

        for cg, fg, gg in zip(combo_grads, f_grads, g_grads):
            assert cg == pytest.approx(a * fg + b * gg, rel=1e-12, abs=1e-12)


def test_determinism_bit_identical():
    rng = np.random.default_rng(11)
    xs = rng.uniform(-3, 3, size=3).tolist()
    prog = random_program(rng, 3, 8)

    def run():
        tape = ad.Tape()
        leaves = [tape.value(x) for x in xs]
        root, _ = eval_program(prog, leaves)
        tape.backward(root)
        return [leaf.g for leaf in leaves]

    assert run() == run()


def test_repeated_backward_accumulates():
    tape = ad.Tape()
    x = tape.value(2.0)
    y = ad.square(x)
    tape.backward(y)
    tape.backward(y)
    assert x.g == 8.0


def test_tape_is_topologically_ordered():
    tape = ad.Tape()
    x, y = tape.value(1.0), tape.value(2.0)
    z = tanh(x * y + exp(y))
    for node in tape.nodes:
        for k in range(0, len(node.parents), 2):
            assert node.parents[k].i < node.i
    assert z is tape.nodes[-1]


def test_leaves_have_no_parents_and_values_unchanged():
    tape = ad.Tape()
    x = tape.value(1.25)
    y = exp(x)
    before = (x.v, y.v)
    tape.backward(y)
    assert x.parents == ()
    assert (x.v, y.v) == before


def test_domain_errors():
    tape = ad.Tape()
    zero = tape.value(0.0)
    with pytest.raises(ZeroDivisionError):
        tape.value(1.0) / zero
    with pytest.raises(ZeroDivisionError):
        2.0 / zero


def test_affine_matches_scalar_built_dot():
    # one batched affine node against the same dot products built from 0-d nodes
    rng = np.random.default_rng(3)
    ws = rng.uniform(-1, 1, (2, 5))
    xs = rng.uniform(-1, 1, 5)
    bs = [0.37, -0.2]

    t1 = ad.Tape()
    w, x, b = t1.value(ws), t1.value(xs), t1.value(bs)
    out1 = ad.mlp(x, [w], [b])
    t1.backward(out1.sum())

    t2 = ad.Tape()
    wn = [[t2.value(v) for v in row] for row in ws]
    xn = [t2.value(v) for v in xs]
    bn = [t2.value(v) for v in bs]
    outs = []
    for row, bias in zip(wn, bn):
        acc = bias
        for wi, xi in zip(row, xn):
            acc = acc + wi * xi
        outs.append(acc)
    t2.backward(outs[0] + outs[1])

    np.testing.assert_allclose(out1.v, [o.v for o in outs], rtol=1e-15)
    np.testing.assert_allclose(w.g, [[n.g for n in row] for row in wn], rtol=1e-12)
    np.testing.assert_allclose(x.g, [n.g for n in xn], rtol=1e-12)
    np.testing.assert_allclose(b.g, [n.g for n in bn], rtol=1e-12)


def test_absval_from_max0():
    for x0 in (-2.5, 0.0, 3.0):
        tape = ad.Tape()
        x = tape.value(x0)
        y = ad.absval(x)
        assert y.v == abs(x0)
        tape.backward(y)
        assert x.g == (1.0 if x0 > 0 else (-1.0 if x0 < 0 else 0.0))


def test_clip01_straight_through():
    tape = ad.Tape()
    x = tape.value(1.7)
    y = ad.clip01(x)
    assert y.v == 1.0
    tape.backward(y)
    assert x.g == 1.0
    assert ad.clip01(-0.2) == 0.0 and ad.clip01(0.4) == 0.4


def test_float_fallbacks_match_node_values():
    rng = np.random.default_rng(9)
    for fn in (exp, tanh, ad.sigmoid, ad.square, lipswish, ad.max0):
        x = float(rng.uniform(-2, 2))
        tape = ad.Tape()
        assert fn(x) == fn(tape.value(x)).v


def test_quotients_are_numpys_bit_for_bit():
    # a quotient node holds x / y, not x * (1 / y), so that one expression
    # gives the same bits on the tape and on arrays
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=200), rng.uniform(0.5, 3.0, size=200)
    assert not np.array_equal(x * (1.0 / y), x / y)
    tape = ad.Tape()
    a, b = tape.value(x), tape.value(y)
    for got, want in ((a / b, x / y), (a / y, x / y), (x / b, x / y), (a / 3.0, x / 3.0),
                      (1.5 / b, 1.5 / y)):
        assert np.array_equal(got.v, want)


# -- array ops ---------------------------------------------------------------

_RNG = np.random.default_rng(31)
_ORDER = np.argsort(_RNG.uniform(size=(3, 5)), axis=1)
_MASK = _RNG.uniform(size=(3, 4)) < 0.5

ARRAY_CASES = {
    # weights (2, 4), biases (2,), inputs (3, 4): one batched affine node
    "affine": (lambda w, b, x: tanh(ad.mlp(x, [w], [b])).sum(),
               [(2, 4), (2,), (3, 4)]),
    "affine_4d_input": (lambda w, b, x: ad.square(ad.mlp(x, [w], [b])).sum(),
                        [(2, 4), (2,), (2, 3, 4)]),
    # (3, 1) column against a (4,) row and a 0-d scalar
    "broadcast_add": (lambda a, b, c: ad.sigmoid(a + b + c).sum(), [(3, 1), (4,), ()]),
    "broadcast_mul": (lambda a, b, c: (a * b * c - b / (ad.square(a) + 1.0)).sum(),
                      [(3, 1), (4,), ()]),
    "sum_axis": (lambda x: ad.square(x.sum(axis=1)).sum() + tanh(x.mean(axis=0)).sum(),
                 [(3, 4)]),
    "sum_keepdims": (lambda x: (x / x.sum(axis=1, keepdims=True)).sum()
                     + ad.square(x).mean(), [(3, 4)]),
    # gather by a row-wise permutation, then a single picked column per row
    "take_along_axis": (lambda x: (ad.take_along_axis(x, _ORDER, axis=1)
                                   * np.arange(5.0)).sum()
                        + ad.square(ad.take_along_axis(x, _ORDER[:, 2:3], axis=1)).sum(),
                        [(3, 5)]),
    "take_repeated_index": (lambda x: ad.square(
        ad.take_along_axis(x, np.array([[0, 0, 2]]), axis=1)).sum(), [(1, 4)]),
    # one row of indices broadcast against every row of x
    "take_broadcast_index": (lambda x: ad.square(
        ad.take_along_axis(x, np.array([[1, 3, 1]]), axis=1)).sum(), [(3, 4)]),
    "where_mask": (lambda a, b: ad.square(ad.where(_MASK, a, b * 2.0)).sum(), [(3, 4), (3, 4)]),
    "where_broadcast": (lambda a: tanh(ad.where(_MASK, a, 0.5)).sum(), [(3, 1)]),
    "stack": (lambda a, b: ad.square(ad.stack([a, b, 0.3]) * np.arange(1.0, 4.0)).sum(),
              [(2, 3), (3,)]),
    "getitem": (lambda x: (ad.square(x[:, 1:]) * x[..., 0:1]).sum(), [(3, 4)]),
    # a network of three layers (4 -> 5 -> 5 -> 2) as one node
    "mlp": (lambda w0, b0, w1, b1, w2, b2, x: tanh(
        ad.mlp(x, [w0, w1, w2], [b0, b1, b2])).sum(),
        [(5, 4), (5,), (5, 5), (5,), (2, 5), (2,), (4,)]),
    "mlp_batch": (lambda w0, b0, w1, b1, x: ad.square(ad.mlp(x, [w0, w1], [b0, b1])).sum(),
                  [(3, 4), (3,), (2, 3), (2,), (6, 4)]),
    # leading axes (3, 1) on the input; the output (3, 1, 2) broadcasts against (5, 2)
    "mlp_broadcast": (lambda w0, b0, w1, b1, x, c: ad.square(
        ad.mlp(x, [w0, w1], [b0, b1]) * c).sum(),
        [(3, 4), (3,), (2, 3), (2,), (3, 1, 4), (5, 2)]),
    # networks 4 -> 3 -> 2 and 4 -> 3 -> 1 stacked (the second padded to 2
    # outputs) and run as one node on a (2, 3, 4) input
    "mlp_stacked": (lambda w0, b0, w1, b1, v0, c0, v1, c1, x: tanh(ad.mlp(
        x, [ad.stack_padded([w0, v0]), ad.stack_padded([w1, v1])],
        [ad.stack_padded([b0, c0]), ad.stack_padded([b1, c1])]) * np.arange(1.0, 3.0)).sum(),
        [(3, 4), (3,), (2, 3), (2,), (3, 4), (3,), (1, 3), (1,), (2, 3, 4)]),
}


@pytest.mark.parametrize("name", sorted(ARRAY_CASES))
def test_array_op_gradients_match_finite_differences(name):
    f, shapes = ARRAY_CASES[name]
    rng = np.random.default_rng(sorted(ARRAY_CASES).index(name))
    arrays = [rng.uniform(0.2, 1.5, size=s) for s in shapes]
    grads, fds = array_gradcheck(f, arrays)
    for g, fd in zip(grads, fds):
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("index", [[0, 0], np.array([0, 0]), (slice(None), [0, 0]),
                                   np.array([True, False]), True, np.int64(0) == 0],
                         ids=["list", "array", "list_in_tuple", "bool_array", "bool",
                              "numpy_bool"])
def test_getitem_rejects_an_advanced_index(index):
    # a scatter of x[[0, 0]]'s adjoint would keep one of its two 1s: [1, 0], not [2, 0]
    tape = ad.Tape()
    with pytest.raises(IndexError, match="take_along_axis"):
        tape.value(np.zeros((2, 2)))[index]
    x = tape.value(np.zeros(2))
    tape.backward(ad.take_along_axis(x, np.array([0, 0]), axis=0).sum())
    assert np.array_equal(x.g, [2.0, 0.0])


def test_array_domain_checks_cover_every_element():
    tape = ad.Tape()
    with pytest.raises(ZeroDivisionError):
        tape.value([1.0, 2.0]) / tape.value([3.0, 0.0])
    with pytest.raises(ZeroDivisionError):
        tape.value([1.0, 2.0]) / np.array([3.0, 0.0])
    with pytest.raises(ZeroDivisionError):
        1.0 / tape.value([0.0, 1.0])


def test_batched_ops_are_one_node_each():
    tape = ad.Tape()
    x = tape.value(np.ones((10, 64)))
    y = lipswish(x * 2.0 + 1.0).sum()
    assert len(tape) == 5 and y.shape == ()


def test_a_node_does_not_iterate():
    # a (2,) node would record a getitem node per element, and a 0-d node look empty
    tape = ad.Tape()
    for x in (tape.value(1.0), tape.value([1.0, 2.0])):
        with pytest.raises(TypeError):
            list(x)
    assert len(tape) == 2


# -- each smooth primitive against central differences, over broadcasts --------

# f(a, b, k): k holds the plain operands that stay fixed while the finite
# differences move a and b (a constant c of b's shape, a mask, gather indices)
SMOOTH = {
    "add": lambda a, b, k: a + b,
    "sub": lambda a, b, k: a - b,
    "mul": lambda a, b, k: a * b,
    "div": lambda a, b, k: a / b,
    "neg": lambda a, b, k: -a,
    "constant_add": lambda a, b, k: k.c + a,
    "sub_constant": lambda a, b, k: a - k.c,
    "constant_sub": lambda a, b, k: k.c - a,
    "constant_mul": lambda a, b, k: k.c * a,
    "div_constant": lambda a, b, k: a / k.c,
    "constant_div": lambda a, b, k: k.c / a,
    "sigmoid": lambda a, b, k: ad.sigmoid(a),
    "square": lambda a, b, k: ad.square(a),
    "exp": lambda a, b, k: exp(a),
    "log": lambda a, b, k: log(a),
    # a and b stay at least 0.1 from 1.0, clear of these kinks
    "max0": lambda a, b, k: ad.max0(a - 1.0),
    "absval": lambda a, b, k: ad.absval(1.0 - a),
    # inside [0, 1], where the straight-through partial is the derivative
    "clip01": lambda a, b, k: ad.clip01(0.5 * a),
    "where": lambda a, b, k: ad.where(k.mask, a, b),
    "where_constant": lambda a, b, k: ad.where(k.mask, k.c, a),
    "take_along_axis": lambda a, b, k: ad.take_along_axis(a, k.indices, axis=-1),
}


class _Fixed:
    """The plain operands of one example, drawn for leaf shapes ``sa`` and ``sb``."""

    def __init__(self, rng, sa, sb):
        self.c = rng.uniform(0.5, 1.5, sb)
        self.mask = rng.random(np.broadcast_shapes(sa, sb)) < 0.5
        # along every other axis one row of indices, or two rows where a has one
        shape = [1 if n > 1 else int(rng.integers(1, 3)) for n in sa[:-1]]
        self.indices = rng.integers(0, sa[-1], (*shape, int(rng.integers(1, 4)))) if sa else None


def _weighted_sum(y):
    """Sum of ``y`` with a distinct weight per element, so no adjoint is all ones."""
    shape = np.shape(ad.plain(y))
    return (y * np.linspace(0.5, 1.5, int(np.prod(shape))).reshape(shape)).sum()


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(SMOOTH)), st.sampled_from(SHAPES), st.sampled_from(SHAPES),
       st.integers(0, 2**32 - 1))
def test_each_smooth_primitive_matches_central_differences(name, sa, sb, seed):
    assume(sa or name != "take_along_axis")
    rng = np.random.default_rng(seed)
    k = _Fixed(rng, sa, sb)
    # in [0.5, 0.9] or [1.1, 1.5]: positive, and 0.1 from the kinks at 1
    a, b = (1.0 + rng.choice([-1.0, 1.0], s) * rng.uniform(0.1, 0.5, s) for s in (sa, sb))
    f = SMOOTH[name]
    grads, fds = array_gradcheck(lambda a, b: _weighted_sum(f(a, b, k)), [a, b])
    for g, fd in zip(grads, fds):
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)
