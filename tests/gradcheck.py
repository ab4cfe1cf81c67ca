"""Finite-difference oracle and random expression programs shared by tests.

A program is a list of (op, i, j) instructions over a growing value stack; it
can be interpreted over floats (for central differences) or over tape nodes
(for reverse-mode gradients), which keeps the oracle independent of the tape.
"""

import numpy as np

from mfgames import autodiff as ad


def central_diff(f, xs, i, h=1e-5):
    up = list(xs)
    dn = list(xs)
    up[i] += h
    dn[i] -= h
    return (f(up) - f(dn)) / (2.0 * h)


def _div_safe(a, b):
    return a / (ad.square(b) + 0.5)


_UNARY = [
    ("tanh", ad.tanh),
    ("sigmoid", ad.sigmoid),
    ("lipswish", ad.lipswish),
    ("square", ad.square),
    ("max0", ad.max0),
    ("exp_bounded", lambda x: ad.exp(ad.tanh(x))),
    ("log_safe", lambda x: ad.log(ad.square(x) + 0.5)),
    ("neg", lambda x: -x),
]

_BINARY = [
    ("add", lambda a, b: a + b),
    ("sub", lambda a, b: a - b),
    ("mul", lambda a, b: a * b),
    ("div_safe", _div_safe),
]


def random_program(rng, n_inputs, n_ops):
    """Random composite favouring bounded ops so values stay FD-friendly."""
    prog = []
    size = n_inputs
    for _ in range(n_ops):
        if rng.random() < 0.55:
            name, fn = _UNARY[rng.integers(len(_UNARY))]
            prog.append((fn, int(rng.integers(size)), None))
        else:
            name, fn = _BINARY[rng.integers(len(_BINARY))]
            prog.append((fn, int(rng.integers(size)), int(rng.integers(size))))
        size += 1
    return prog


def eval_program(prog, inputs):
    vals = list(inputs)
    for fn, i, j in prog:
        vals.append(fn(vals[i]) if j is None else fn(vals[i], vals[j]))
    return vals[-1], vals


def well_conditioned(prog, xs, kink_margin=1e-3, value_cap=50.0):
    """Reject programs whose float evaluation sits on a kink or blows up."""
    try:
        _, vals = eval_program(prog, list(xs))
    except (ValueError, ZeroDivisionError, OverflowError):
        return False
    for v in vals:
        if not np.isfinite(v) or abs(v) > value_cap:
            return False
    # max0 kinks: any intermediate too close to zero makes FD unreliable
    for fn, i, j in prog:
        if fn is ad.max0 and abs(vals[i]) < kink_margin:
            return False
    return True


def gradcheck_program(prog, xs, h=1e-5):
    """Return (reverse-mode grads, finite-difference grads) for one program."""
    tape = ad.Tape()
    leaves = [tape.value(x) for x in xs]
    root, _ = eval_program(prog, leaves)
    tape.backward(root)
    grads = [leaf.g for leaf in leaves]

    def as_float(zs):
        out, _ = eval_program(prog, list(zs))
        return out

    fd = [central_diff(as_float, xs, i, h) for i in range(len(xs))]
    return grads, fd


def array_gradcheck(f, arrays, h=1e-6):
    """Return (reverse-mode grads, finite-difference grads) of ``f`` per input array.

    ``f`` maps its inputs to a scalar using only ops that are generic over
    Value and ndarray, so the same function gives the tape gradient (on
    leaves) and the float values the central differences are taken from.
    """
    arrays = [np.array(a, dtype=float) for a in arrays]
    tape = ad.Tape()
    leaves = [tape.value(a) for a in arrays]
    tape.backward(f(*leaves))
    grads = [np.zeros(leaf.shape) + leaf.g for leaf in leaves]
    fds = []
    for k, a in enumerate(arrays):
        fd = np.zeros(a.shape)
        for idx in np.ndindex(a.shape):
            up = [x.copy() for x in arrays]
            dn = [x.copy() for x in arrays]
            up[k][idx] += h
            dn[k][idx] -= h
            fd[idx] = (float(f(*up)) - float(f(*dn))) / (2.0 * h)
        fds.append(fd)
    return grads, fds
