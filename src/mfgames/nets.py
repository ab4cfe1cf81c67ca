"""Small multilayer perceptrons with LipSwish activations, plus AdaBelief.

The networks play the role of learned drift and diffusion residuals. They are
deliberately tiny (a handful of hidden layers, 8-32 units) because they are
applied at every step of an unrolled differential-equation solve, which
multiplies their effective capacity. One layer loop serves both plain arrays
and the tape: on arrays it records nothing, while on the tape a network is
one leaf per weight matrix and per bias vector, and a forward pass over a
whole batch of agents or trajectories is one affine node plus one LipSwish
node per layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Value, affine, lipswish, stack

__all__ = [
    "MLPConfig",
    "MLP",
    "BoundMLP",
    "mlp_init",
    "mlp_forward_np",
    "AdaBelief",
    "save_checkpoint",
    "load_checkpoint",
    "lipswish",
]


@dataclass(frozen=True)
class MLPConfig:
    input_dim: int
    output_dim: int
    hidden_layers: int = 3
    hidden_width: int = 8
    seed: int = 0

    def validate(self) -> None:
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

    def zero_(self) -> None:
        """Zero every parameter in place; the network output becomes exactly 0."""
        for w, b in zip(self.weights, self.biases):
            w[:] = 0.0
            b[:] = 0.0

    def bind(self, tape: Tape) -> "BoundMLP":
        return BoundMLP(self, tape)


def mlp_init(config: MLPConfig) -> MLP:
    """Weights ~ U(-sqrt(1/fan_in), +sqrt(1/fan_in)), biases zero, seeded."""
    config.validate()
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
    """A network's parameter arrays registered as leaves of one tape.

    Binding once per training step lets several forward evaluations share the
    same parameter nodes, so ``backward`` accumulates their gradients in one
    place.
    """

    def __init__(self, net: MLP, tape: Tape):
        self.net = net
        self.tape = tape
        self.wnodes = [tape.value(w) for w in net.weights]
        self.bnodes = [tape.value(b) for b in net.biases]

    def forward(self, xs) -> Value:
        """Evaluate the network on inputs of shape (..., input_dim).

        ``xs`` is a Value or an ndarray; a list of Values and floats is first
        stacked along a new last axis. Returns a Value of shape (..., output_dim).
        """
        return _forward(xs, self.wnodes, self.bnodes, self.net.config.input_dim)

    def grad_arrays(self) -> list[np.ndarray]:
        """Gradients in the same order/shape as ``MLP.parameters()``."""
        out = []
        for w, b in zip(self.wnodes, self.bnodes):
            out.append(np.zeros(w.shape) + w.g)
            out.append(np.zeros(b.shape) + b.g)
        return out


def mlp_forward_np(net: MLP, x) -> np.ndarray:
    """Forward pass on plain arrays (or a list of them), recording nothing."""
    return _forward(x, net.weights, net.biases, net.config.input_dim)


def _forward(x, weights, biases, input_dim: int):
    """The layer loop: affine layers, LipSwish between them, linear output.

    Generic over plain arrays and tape Values, so one loop serves
    :func:`mlp_forward_np` and :meth:`BoundMLP.forward`. A list of inputs is
    first stacked along a new last axis.
    """
    if isinstance(x, (list, tuple)):
        x = stack(x)
    shape = x.shape if isinstance(x, Value) else np.shape(x)
    if not shape or shape[-1] != input_dim:
        raise ValueError(f"expected {input_dim} inputs, got shape {shape}")
    last = len(weights) - 1
    for li, (w, b) in enumerate(zip(weights, biases)):
        x = affine(x, w, b)
        if li != last:
            x = lipswish(x)
    return x


class AdaBelief:
    """AdaBelief: adapts step sizes by the belief (centred variance) in gradients.

    m <- b1*m + (1-b1)*g
    s <- b2*s + (1-b2)*(g-m)^2
    theta <- theta - lr * m_hat / (sqrt(s_hat) + eps)
    with the usual bias corrections and eps added to s before correction.
    """

    def __init__(self, params: list[np.ndarray], lr: float = 5e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-16):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
        "config": {
            "input_dim": net.config.input_dim,
            "output_dim": net.config.output_dim,
            "hidden_layers": net.config.hidden_layers,
            "hidden_width": net.config.hidden_width,
            "seed": net.config.seed,
        },
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
