"""SIR's day step as a node per operation: the reference that the one-node
:func:`mfgames.games.sir._day_step` is pinned against, bit for bit, as the
per-layer ``affine`` and ``lipswish`` graph is for ``autodiff.mlp``.
"""

import numpy as np

from mfgames.autodiff import absval, affine, max0
from mfgames.games.sir import (
    _I_0_0,
    _I_0_0_BIAS,
    _RATE_OUTPUTS,
    _RESIDUAL_OUTPUTS,
    _S_I_S,
    _STOICHIOMETRY,
    _ZERO_SUM,
)


def rate_array(rates) -> np.ndarray:
    """A :class:`mfgames.games.sir.RateVector` as the array (gamma, rho, pi)."""
    return np.array([rates.gamma, rates.rho, rates.pi])


def neural_drift(m, rates, out):
    """Drift with learned rate corrections and zero-sum state residuals.

    ``m`` is a state (3,) or a batch of states (..., 3), an array or a tape
    Value; ``rates`` is the day's (gamma, rho, pi) and ``out`` the drift
    network's (..., 6) output on the day's inputs. The corrected rates
    ``max0(out[..., :3] + rates)`` scale the transitions ``(gamma S I, rho I,
    pi S)``, which the stoichiometry maps to (dS, dI, dR), and the residuals
    ``out[..., 3:]``, projected to zero sum, are added. Returns the (..., 3)
    drift, in nine operations on (..., 3) arrays.
    """
    corrected = max0(affine(out, _RATE_OUTPUTS, rates))
    transitions = (corrected * affine(m, _S_I_S, 0.0)
                   * affine(m, _I_0_0, _I_0_0_BIAS))
    return affine(transitions, _STOICHIOMETRY, 0.0) + affine(out, _RESIDUAL_OUTPUTS, 0.0)


def day_step(m, rates, out, dB):
    """``_day_step``'s arguments and result, one node per operation: the
    drift from ``out[0]``, then the diffusion ``out[1, ..., :3]`` scaling
    ``dB``, projected to zero sum (none when ``dB`` is None)."""
    m = m + neural_drift(m, rates, out[0])
    if dB is not None:
        m = m + affine(absval(out[1, ..., :3]) * dB, _ZERO_SUM, 0.0)
    return m
