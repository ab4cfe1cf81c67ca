"""Small multilayer perceptrons with LipSwish activations, plus AdaBelief.

The networks play the role of learned drift and diffusion residuals. They are
deliberately tiny (a handful of hidden layers, 8-32 units) because they are
applied at every step of an unrolled differential-equation solve, which
multiplies their effective capacity. Every forward pass is one call of one
layer loop, :func:`autodiff.mlp`, on one input form: an array or node of
shape (..., input_dim). On arrays it records nothing, while on the tape a
network is one leaf per weight matrix and per bias vector, and a forward pass
over a whole batch of agents or trajectories is one node. Networks that
read the same input can run as one: :func:`stack_nets` stacks their layers,
and a forward pass of the stack is one call and one node, whose output holds
each network's output in turn; a single network is run as a stack of one. On
the tape the stack is built from each network's own leaves, so each keeps
its gradient, its optimizer and its checkpoint.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .autodiff import Tape, Value, mlp, stack_padded

__all__ = [
    "MLPConfig",
    "MLP",
    "BoundMLP",
    "mlp_init",
    "mlp_forward_np",
    "stack_nets",
    "AdaBelief",
    "save_checkpoint",
    "load_checkpoint",
]


@dataclass(frozen=True)
class MLPConfig:
    input_dim: int
    output_dim: int
    hidden_layers: int = 3
    hidden_width: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be positive")
        if self.hidden_layers < 1 or self.hidden_width < 1:
            raise ValueError("hidden_layers and hidden_width must be positive")


class MLP:
    """Affine layers with LipSwish hidden activations and a linear output.

    Parameters live in numpy arrays; tape-recorded evaluation goes through
    :class:`BoundMLP`, which registers every parameter array as a leaf node.
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray], config: MLPConfig):
        self.weights = weights
        self.biases = biases
        self.config = config

    def parameters(self) -> list[np.ndarray]:
        """Flat list of parameter arrays, weights and biases interleaved per layer."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def bind(self, tape: Tape) -> "BoundMLP":
        """Register every parameter array as a leaf of ``tape``."""
        return BoundMLP([tape.value(w) for w in self.weights],
                        [tape.value(b) for b in self.biases])


def mlp_init(config: MLPConfig) -> MLP:
    """Weights ~ U(-sqrt(1/fan_in), +sqrt(1/fan_in)), biases zero, seeded."""
    rng = np.random.default_rng(config.seed)
    dims = (
        [config.input_dim]
        + [config.hidden_width] * config.hidden_layers
        + [config.output_dim]
    )
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(1.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MLP(weights, biases, config)


class BoundMLP:
    """A network's parameters as nodes of one tape.

    :meth:`MLP.bind` registers each parameter array as a leaf. Binding once
    per training step lets several forward evaluations share the same
    parameter nodes, so ``backward`` accumulates their gradients in one
    place. :func:`stack_nets` builds a stacked network's nodes from its
    networks' leaves.
    """

    def __init__(self, wnodes: list[Value], bnodes: list[Value]):
        self.wnodes = wnodes
        self.bnodes = bnodes

    def forward(self, x) -> Value:
        """Evaluate the network on ``x``, a Value or an ndarray of shape
        (..., input_dim). Returns a Value of shape (..., output_dim): one tape
        node for the whole call (see :func:`autodiff.mlp`); a stacked
        network's is (networks, ..., output_dim).
        """
        return mlp(x, self.wnodes, self.bnodes)

    def grad_arrays(self) -> list[np.ndarray]:
        """Gradients in the same order/shape as ``MLP.parameters()``."""
        out = []
        for w, b in zip(self.wnodes, self.bnodes):
            out.append(np.zeros(w.shape) + w.g)
            out.append(np.zeros(b.shape) + b.g)
        return out


def mlp_forward_np(net: MLP, x) -> np.ndarray:
    """Forward pass on a plain array of shape (..., input_dim), recording nothing."""
    return mlp(x, net.weights, net.biases)


def stack_nets(nets):
    """Networks of one input width and depth as one network on a shared input.

    Each layer's weights are stacked as (networks, out, in) and its biases as
    (networks, out), a narrower layer zero-padded to the widest, so one
    forward pass of the stack (:func:`autodiff.mlp`) runs every network with
    one matrix product per layer. Its output is (networks, ..., widest
    output); network k's output is ``out[k, ..., :its output_dim]``.
    ``nets`` are MLPs, giving an MLP of arrays, or BoundMLPs of one tape,
    giving a BoundMLP whose nodes are ``stack_padded`` nodes of their leaves,
    recorded once: the gradients of every call of the stack land on each
    network's own leaves.
    """
    bound = isinstance(nets[0], BoundMLP)
    weights = [n.wnodes if bound else n.weights for n in nets]
    biases = [n.bnodes if bound else n.biases for n in nets]
    if len({len(ws) for ws in weights}) != 1:
        raise ValueError("stacked networks must have the same number of layers")
    if len({ws[0].shape[-1] for ws in weights}) != 1:
        raise ValueError("stacked networks must have the same input width")
    weights = [stack_padded(layer) for layer in zip(*weights)]
    biases = [stack_padded(layer) for layer in zip(*biases)]
    if bound:
        return BoundMLP(weights, biases)
    return MLP(weights, biases, replace(nets[0].config, hidden_width=weights[0].shape[-2],
                                        output_dim=weights[-1].shape[-2]))


class AdaBelief:
    """AdaBelief: adapts step sizes by the belief (centred variance) in gradients.

    m <- b1*m + (1-b1)*g
    s <- b2*s + (1-b2)*(g-m)^2
    theta <- theta - lr * m_hat / (sqrt(s_hat) + eps)
    with the usual bias corrections and eps added to s before correction.
    Only the learning rate is set per optimizer.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-16

    def __init__(self, params: list[np.ndarray], lr: float = 5e-4):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.s = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        if len(grads) != len(self.params):
            raise ValueError("gradient list does not match parameter list")
        for g in grads:
            if not np.all(np.isfinite(g)):
                raise ValueError("non-finite gradient passed to AdaBelief")
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1**t
        c2 = 1.0 - self.beta2**t
        for p, g, m, s in zip(self.params, grads, self.m, self.s):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            diff = g - m
            s *= self.beta2
            s += (1.0 - self.beta2) * diff * diff
            m_hat = m / c1
            s_hat = (s + self.eps) / c2
            p -= self.lr * m_hat / (np.sqrt(s_hat) + self.eps)


def save_checkpoint(net: MLP, path) -> None:
    """JSON checkpoint; floats round-trip exactly via repr serialization."""
    payload = {
        "config": asdict(net.config),
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))  # one C-encoder call; json.dump encodes in Python


def load_checkpoint(path) -> MLP:
    with open(path) as fh:
        payload = json.load(fh)
    config = MLPConfig(**payload["config"])
    weights = [np.array(w, dtype=float) for w in payload["weights"]]
    biases = [np.array(b, dtype=float) for b in payload["biases"]]
    net = MLP(weights, biases, config)
    dims = [config.input_dim] + [config.hidden_width] * config.hidden_layers + [config.output_dim]
    for (fan_in, fan_out), w, b in zip(zip(dims[:-1], dims[1:]), weights, biases):
        if w.shape != (fan_out, fan_in) or b.shape != (fan_out,):
            raise ValueError("checkpoint layer shapes do not chain correctly")
    return net
