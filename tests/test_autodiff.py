import math

import numpy as np
import pytest

from mfgames import autodiff as ad
from gradcheck import (
    array_gradcheck,
    central_diff,
    eval_program,
    gradcheck_program,
    random_program,
    well_conditioned,
)


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
            f = ad.tanh(leaves[0] * leaves[1]) + ad.square(leaves[0])
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
    tape.zero_grads()
    tape.backward(y)
    assert x.g == 4.0


def test_tape_is_topologically_ordered():
    tape = ad.Tape()
    x, y = tape.value(1.0), tape.value(2.0)
    z = ad.tanh(x * y + ad.exp(y))
    for node in tape.nodes:
        for k in range(0, len(node.parents), 2):
            assert node.parents[k].i < node.i
    assert z is tape.nodes[-1]


def test_leaves_have_no_parents_and_values_unchanged():
    tape = ad.Tape()
    x = tape.value(1.25)
    y = ad.exp(x)
    before = (x.v, y.v)
    tape.backward(y)
    assert x.parents == ()
    assert (x.v, y.v) == before


def test_domain_errors():
    tape = ad.Tape()
    x = tape.value(-1.0)
    with pytest.raises(ValueError):
        ad.log(x)
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
    out1 = ad.affine(x, w, b)
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
    for fn in (ad.exp, ad.tanh, ad.sigmoid, ad.square, ad.lipswish, ad.max0):
        x = float(rng.uniform(-2, 2))
        tape = ad.Tape()
        assert fn(x) == fn(tape.value(x)).v


# -- array ops ---------------------------------------------------------------

_RNG = np.random.default_rng(31)
_ORDER = np.argsort(_RNG.uniform(size=(3, 5)), axis=1)
_MASK = _RNG.uniform(size=(3, 4)) < 0.5

ARRAY_CASES = {
    # weights (2, 4), biases (2,), inputs (3, 4): one batched affine node
    "affine": (lambda w, b, x: ad.tanh(ad.affine(x, w, b)).sum(),
               [(2, 4), (2,), (3, 4)]),
    "affine_4d_input": (lambda w, b, x: ad.square(ad.affine(x, w, b)).sum(),
                        [(2, 4), (2,), (2, 3, 4)]),
    # (3, 1) column against a (4,) row and a 0-d scalar
    "broadcast_add": (lambda a, b, c: ad.sigmoid(a + b + c).sum(), [(3, 1), (4,), ()]),
    "broadcast_mul": (lambda a, b, c: (a * b * c - b / (ad.square(a) + 1.0)).sum(),
                      [(3, 1), (4,), ()]),
    "sum_axis": (lambda x: ad.square(x.sum(axis=1)).sum() + ad.tanh(x.mean(axis=0)).sum(),
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
    "where_mask": (lambda a, b: ad.square(ad.where(_MASK, a, b * 2.0)).sum(), [(3, 4), (3, 4)]),
    "where_broadcast": (lambda a: ad.tanh(ad.where(_MASK, a, 0.5)).sum(), [(3, 1)]),
    "stack": (lambda a, b: ad.square(ad.stack([a, b, 0.3]) * np.arange(1.0, 4.0)).sum(),
              [(2, 3), (3,)]),
    "getitem": (lambda x: (ad.square(x[:, 1:]) * x[..., 0:1]).sum(), [(3, 4)]),
}


@pytest.mark.parametrize("name", sorted(ARRAY_CASES))
def test_array_op_gradients_match_finite_differences(name):
    f, shapes = ARRAY_CASES[name]
    rng = np.random.default_rng(sorted(ARRAY_CASES).index(name))
    arrays = [rng.uniform(0.2, 1.5, size=s) for s in shapes]
    grads, fds = array_gradcheck(f, arrays)
    for g, fd in zip(grads, fds):
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)


def test_array_domain_checks_cover_every_element():
    tape = ad.Tape()
    with pytest.raises(ValueError):
        ad.log(tape.value([1.0, 2.0, -1e-300]))
    with pytest.raises(ZeroDivisionError):
        tape.value([1.0, 2.0]) / tape.value([3.0, 0.0])
    with pytest.raises(ZeroDivisionError):
        tape.value([1.0, 2.0]) / np.array([3.0, 0.0])
    with pytest.raises(ZeroDivisionError):
        1.0 / tape.value([0.0, 1.0])


def test_batched_ops_are_one_node_each():
    tape = ad.Tape()
    x = tape.value(np.ones((10, 64)))
    y = ad.lipswish(x * 2.0 + 1.0).sum()
    assert len(tape) == 5 and y.shape == ()
