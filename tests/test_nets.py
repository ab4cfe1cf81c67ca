import json
import math

import numpy as np
import pytest

from mfgames import autodiff as ad
from mfgames.nets import (
    AdaBelief,
    MLP,
    MLPConfig,
    load_checkpoint,
    mlp_forward_np,
    mlp_init,
    save_checkpoint,
    stack_nets,
)
from gradcheck import central_diff, lipswish


def _activation(x):
    """The networks' LipSwish activation: a 1 -> 1 -> 1 network with identity
    weights and zero biases computes it."""
    one, zero = np.ones((1, 1)), np.zeros(1)
    return ad.mlp(np.asarray(x, dtype=float)[..., None], [one, one], [zero, zero])[..., 0]


def test_lipswish_values():
    assert _activation(0.0) == 0.0
    assert _activation(20.0) == pytest.approx(20.0 / 1.1, rel=1e-6)


def test_lipswish_derivative_bounded_by_one():
    # dense numerical sweep of the derivative over [-10, 10]
    xs = np.arange(-10.0, 10.0, 1e-3)
    h = 1e-6
    deriv = (_activation(xs + h) - _activation(xs - h)) / (2 * h)
    assert np.max(np.abs(deriv)) <= 1.0


def test_init_deterministic_and_bounded():
    cfg = MLPConfig(2, 1, 3, 8, seed=7)
    a, b = mlp_init(cfg), mlp_init(cfg)
    for wa, wb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(wa, wb)
    dims = [2, 8, 8, 8, 1]
    for w, fan_in in zip(a.weights, dims[:-1]):
        assert np.all(np.abs(w) <= math.sqrt(1.0 / fan_in))
    for bias in a.biases:
        assert np.all(bias == 0.0)


def test_layer_shapes_chain():
    net = mlp_init(MLPConfig(5, 3, 4, 16, seed=1))
    dims = [5] + [16] * 4 + [3]
    for w, b, (fi, fo) in zip(net.weights, net.biases, zip(dims[:-1], dims[1:])):
        assert w.shape == (fo, fi)
        assert b.shape == (fo,)


def test_fresh_net_maps_zero_to_zero():
    # zero biases and lipswish(0) = 0 propagate a zero input to a zero output
    net = mlp_init(MLPConfig(3, 2, 3, 8, seed=3))
    out = mlp_forward_np(net, np.zeros(3))
    assert np.allclose(out, 0.0)
    tape = ad.Tape()
    nodes = net.bind(tape).forward([0.0, 0.0, 0.0])
    assert all(abs(nodes[k].v) < 1e-15 for k in range(nodes.shape[0]))


def test_identity_single_layer():
    # hand-built 1-hidden-layer net with identity-like weights, linear output
    cfg = MLPConfig(1, 1, 1, 1, seed=0)
    net = MLP([np.array([[1.0]]), np.array([[1.1]])], [np.zeros(1), np.zeros(1)], cfg)
    # lipswish(2) = 2*sigmoid(2)/1.1; scaling the output rescales it back
    out = mlp_forward_np(net, np.array([2.0]))
    expected = 1.1 * (2.0 / (1.0 + math.exp(-2.0)) / 1.1)
    assert out[0] == pytest.approx(expected, rel=1e-12)


def test_forward_matches_numpy_path():
    net = mlp_init(MLPConfig(4, 3, 3, 8, seed=5))
    x = np.array([0.3, -1.2, 0.7, 2.0])
    tape = ad.Tape()
    nodes = net.bind(tape).forward(list(x))
    np_out = mlp_forward_np(net, x)
    assert [nodes[k].v for k in range(nodes.shape[0])] == pytest.approx(list(np_out), rel=1e-12)


def test_weight_gradients_match_finite_differences():
    net = mlp_init(MLPConfig(2, 1, 3, 8, seed=9))
    x = [0.4, -0.8]
    tape = ad.Tape()
    bound = net.bind(tape)
    out = bound.forward(x)[0]
    tape.backward(out)
    grads = bound.grad_arrays()

    rng = np.random.default_rng(0)
    params = net.parameters()
    for _ in range(12):
        li = int(rng.integers(len(params)))
        flat = params[li].reshape(-1)
        gflat = grads[li].reshape(-1)
        j = int(rng.integers(flat.size))

        def f(val):
            old = flat[j]
            flat[j] = val
            y = mlp_forward_np(net, np.array(x))[0]
            flat[j] = old
            return y

        h = 1e-5
        fd = (f(flat[j] + h) - f(flat[j] - h)) / (2 * h)
        assert gflat[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)


# -- one tape node per network call ----------------------------------------------


def _per_layer(bound, x):
    """The network as one affine node (a one-layer ``ad.mlp``) and one
    LipSwish node per layer; the bits of the old per-layer graph itself are
    pinned by the golden hashes of the neural games.
    """
    last = len(bound.wnodes) - 1
    for k, (w, b) in enumerate(zip(bound.wnodes, bound.bnodes)):
        x = ad.mlp(x, [w], [b])
        if k != last:
            x = lipswish(x)
    return x


def _leaf(shape, seed):
    return lambda tape: tape.value(np.random.default_rng(seed).normal(size=shape))


def _listed(tape):
    rng = np.random.default_rng(4)
    return ad.stack([tape.value(rng.normal(size=5)), tape.value(rng.normal(size=5)), 0.3,
                     tape.value(rng.normal(size=5))])


NETWORK_CASES = {
    "input (13,)": (MLPConfig(13, 3, 8, 32, seed=1), _leaf((13,), 5), 1),
    "input (5, 13)": (MLPConfig(13, 3, 8, 32, seed=2), _leaf((5, 13), 6), 1),
    "input (10, 64, 3)": (MLPConfig(3, 1, 3, 8, seed=3), _leaf((10, 64, 3), 7), 1),
    "list of Values": (MLPConfig(4, 2, 3, 8, seed=4), _listed, 1),
    "plain array input": (MLPConfig(13, 3, 8, 32, seed=5),
                          lambda tape: np.random.default_rng(8).normal(size=(5, 13)), 1),
    "one hidden layer": (MLPConfig(13, 3, 1, 32, seed=6), _leaf((5, 13), 9), 1),
    "one network twice on one input": (MLPConfig(13, 3, 8, 32, seed=7), _leaf((5, 13), 10), 2),
}


def _network_run(forward, config, make_input, calls):
    """Outputs, parameter gradients, input gradients and node ops of ``calls``
    calls of ``forward(bound, x)`` on one input, under one squared loss."""
    net = mlp_init(config)
    rng = np.random.default_rng(11)
    for b in net.biases:
        b[:] = rng.normal(scale=0.1, size=b.shape)
    tape = ad.Tape()
    bound = net.bind(tape)
    n_params = len(tape)
    x = make_input(tape)
    inputs = [v for v in tape.nodes[n_params:] if not v.parents]
    outs = [forward(bound, x) for _ in range(calls)]
    loss = sum(ad.square(out * rng.normal(size=out.shape)).sum() for out in outs)
    tape.backward(loss)
    return ([out.v for out in outs], [n.g for n in bound.wnodes + bound.bnodes],
            [v.g for v in inputs], [n.op for n in tape.nodes])


@pytest.mark.parametrize("name", list(NETWORK_CASES))
def test_network_node_matches_per_layer_nodes_bit_for_bit(name):
    config, make_input, calls = NETWORK_CASES[name]
    *node, ops = _network_run(lambda bound, x: bound.forward(x), config, make_input, calls)
    *layers, _ = _network_run(_per_layer, config, make_input, calls)
    assert ops.count("mlp") == calls and "lipswish" not in ops
    for got, want in zip(node, layers):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.shape(a) == np.shape(b) and np.all(a == b)


def test_outputs_finite_for_large_inputs():
    net = mlp_init(MLPConfig(3, 2, 8, 32, seed=4))
    out = mlp_forward_np(net, np.array([1e3, -1e3, 1e3]))
    assert np.all(np.isfinite(out))


def test_forward_lipschitz_bound():
    # product of layer spectral norms bounds the network's Lipschitz constant
    def spectral_norm(w, iters=200):
        v = np.ones(w.shape[1]) / math.sqrt(w.shape[1])
        for _ in range(iters):
            u = w @ v
            u /= np.linalg.norm(u) + 1e-30
            v = w.T @ u
            v /= np.linalg.norm(v) + 1e-30
        return float(np.linalg.norm(w @ v))

    rng = np.random.default_rng(21)
    for seed in range(5):
        net = mlp_init(MLPConfig(3, 2, 3, 8, seed=seed))
        bound = np.prod([spectral_norm(w) for w in net.weights])
        for _ in range(20):
            x1 = rng.uniform(-5, 5, 3)
            x2 = rng.uniform(-5, 5, 3)
            d_out = np.linalg.norm(mlp_forward_np(net, x1) - mlp_forward_np(net, x2))
            d_in = np.linalg.norm(x1 - x2)
            assert d_out <= bound * d_in + 1e-3


def test_dimension_mismatch_rejected():
    net = mlp_init(MLPConfig(3, 1, 3, 8, seed=0))
    with pytest.raises(ValueError):
        mlp_forward_np(net, np.zeros(4))
    # 12 values reshape to 4 rows of 3 inputs; the check names the width first
    with pytest.raises(ValueError, match="expected 3 inputs"):
        mlp_forward_np(net, np.zeros((2, 6)))
    tape = ad.Tape()
    with pytest.raises(ValueError):
        net.bind(tape).forward([0.0, 0.0])
    with pytest.raises(ValueError):
        mlp_init(MLPConfig(0, 1, 3, 8))


# -- AdaBelief -----------------------------------------------------------------


def test_adabelief_zero_gradient_keeps_parameters():
    net = mlp_init(MLPConfig(2, 1, 3, 8, seed=2))
    before = [p.copy() for p in net.parameters()]
    opt = AdaBelief(net.parameters())
    for _ in range(25):
        opt.step([np.zeros_like(p) for p in net.parameters()])
    for p, q in zip(net.parameters(), before):
        assert np.array_equal(p, q)


def test_adabelief_scalar_quadratic():
    # minimize f(theta) = theta^2 from theta = 1 at the default learning rate
    theta = np.array([1.0])
    opt = AdaBelief([theta], lr=5e-4)
    for _ in range(5000):
        opt.step([2.0 * theta])
    assert abs(theta[0]) < 0.01


def test_adabelief_default_lr():
    opt = AdaBelief([np.zeros(1)])
    assert opt.lr == 5e-4
    assert opt.beta1 == 0.9 and opt.beta2 == 0.999 and opt.eps == 1e-16


def test_adabelief_monotone_on_quadratic_after_warmup():
    theta = np.array([2.0])
    opt = AdaBelief([theta], lr=1e-2)
    values = []
    for _ in range(200):
        opt.step([2.0 * theta])
        values.append(theta[0] ** 2)
    for a, b in zip(values[10:], values[11:]):
        assert b <= a + 1e-15


def test_adabelief_belief_nonnegative_and_nan_rejected():
    theta = np.array([1.0])
    opt = AdaBelief([theta])
    rng = np.random.default_rng(0)
    for _ in range(50):
        opt.step([rng.normal(size=1)])
        assert np.all(opt.s[0] >= 0)
    with pytest.raises(ValueError):
        opt.step([np.array([np.nan])])


# -- checkpoints ----------------------------------------------------------------


def test_checkpoint_roundtrip_exact(tmp_path):
    net = mlp_init(MLPConfig(3, 2, 4, 16, seed=11))
    path = tmp_path / "net.json"
    save_checkpoint(net, path)
    loaded = load_checkpoint(path)
    assert loaded.config == net.config
    for a, b in zip(net.parameters(), loaded.parameters()):
        assert np.array_equal(a, b)


def test_checkpoint_rejects_a_config_without_hidden_layers(tmp_path):
    # one layer of shape (2, 3) chains for a config of no hidden layers, so
    # only the config's own check rejects it
    net = mlp_init(MLPConfig(3, 2, 1, 8, seed=1))
    path = tmp_path / "net.json"
    save_checkpoint(net, path)
    payload = json.loads(path.read_text())
    payload["config"]["hidden_layers"] = 0
    payload["weights"] = [np.zeros((2, 3)).tolist()]
    payload["biases"] = [[0.0, 0.0]]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="hidden_layers"):
        load_checkpoint(path)


def test_checkpoint_rejects_bad_shapes(tmp_path):
    net = mlp_init(MLPConfig(3, 2, 3, 8, seed=1))
    path = tmp_path / "net.json"
    save_checkpoint(net, path)
    payload = json.loads(path.read_text())
    payload["weights"][0] = [[0.0, 0.0]]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_checkpoint(path)


# SIR's two networks: 13 inputs, 8 x 32 hidden, 6 and 3 outputs
STACKED = [MLPConfig(13, 6, 8, 32, seed=1), MLPConfig(13, 3, 8, 32, seed=2)]


@pytest.mark.parametrize("shape", [(13,), (5, 13), (2, 5, 13)])
def test_stacked_networks_equal_separate_calls_on_arrays(shape):
    nets = [mlp_init(c) for c in STACKED]
    x = np.random.default_rng(3).normal(size=shape)
    out = mlp_forward_np(stack_nets(nets), x)
    assert out.shape == (2, *shape[:-1], 6)
    # a network runs as a stack of one on the same (rows, in) reshape of the
    # input, so the widest network's products are those of its separate call,
    # bit for bit, for every input shape; the narrower network's last layer
    # is a wider product, so there the sums may round differently (measured:
    # within 4.6e-16 of the output's scale)
    assert np.array_equal(out[0], mlp_forward_np(nets[0], x))
    np.testing.assert_allclose(out[1, ..., :3], mlp_forward_np(nets[1], x), rtol=0.0, atol=1e-15)
    assert np.all(out[1, ..., 3:] == 0.0)


def test_stacked_network_adjoints_equal_separate_calls():
    # every adjoint is bit for bit that of the separate calls: each network's
    # slice of each stacked product is the product its own call makes, and
    # the padded rows of the narrower network's last layer carry zeros
    nets = [mlp_init(c) for c in STACKED]
    rng = np.random.default_rng(4)
    for net in nets:
        for b in net.biases:
            b[:] = rng.normal(scale=0.1, size=b.shape)
    x = rng.normal(size=(5, 13))
    weights = [rng.normal(size=(5, c.output_dim)) for c in STACKED]

    def run(stacked):
        tape = ad.Tape()
        bound = [net.bind(tape) for net in nets]
        xv = tape.value(x)
        if stacked:
            out = stack_nets(bound).forward(xv)
            outs = [out[0], out[1, ..., :3]]
        else:
            outs = [b.forward(xv) for b in bound]
        tape.backward(sum(ad.square(o * w).sum() for o, w in zip(outs, weights)))
        ops = [n.op for n in tape.nodes]
        return [g for b in bound for g in b.grad_arrays()] + [xv.g], ops

    got, ops = run(True)
    want, _ = run(False)
    assert ops.count("mlp") == 1 and ops.count("stack_padded") == 2 * 9
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_stack_nets_rejects_networks_that_do_not_share_an_input():
    with pytest.raises(ValueError, match="layers"):
        stack_nets([mlp_init(MLPConfig(13, 6, 8, 32)), mlp_init(MLPConfig(13, 3, 7, 32))])
    with pytest.raises(ValueError, match="input width"):
        stack_nets([mlp_init(MLPConfig(13, 6, 8, 32)), mlp_init(MLPConfig(12, 3, 8, 32))])
