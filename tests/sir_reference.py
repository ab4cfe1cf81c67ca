"""References for SIR's program code, pinned against it bit for bit.

The rate equation's transition terms (:func:`kolmogorov_drift`) and the
synthetic-data loop written on them (:func:`synthetic_dataset`); SIR's day
step as a node per operation (:func:`day_step`), the reference that the
one-node :func:`mfgames.games.sir._day_step` is pinned against, as the
per-layer affine and LipSwish graph is for ``autodiff.mlp``.
"""

import datetime

import numpy as np

from mfgames.autodiff import absval, max0, mlp
from mfgames.games.sir import (
    _I_0_0,
    _I_0_0_BIAS,
    _RATE_OUTPUTS,
    _RESIDUAL_OUTPUTS,
    _S_I_S,
    _STOICHIOMETRY,
    _ZERO_SUM,
    N_MEASURES,
    EpidemicDataset,
    validate_measures,
)


def kolmogorov_drift(m, rates):
    """Forward rate equation for the compartment fractions (sums to zero).

    ``rates`` is (gamma, rho, pi). Shared transition terms are computed once
    and reused so the three components cancel exactly up to float rounding.
    """
    gamma, rho, pi = rates
    t_si = gamma * m[0] * m[1]
    t_rec = rho * m[1]
    t_vac = pi * m[0]
    return (-t_si - t_vac, t_si - t_rec, t_rec + t_vac)


# gamma's factor at each measure level
MEASURE_FACTORS = {0: 1.0, 1: 0.9, 2: 0.8}


def synthetic_dataset(days, seed=0, rates=(0.25, 0.1, 0.01), i0=0.02,
                      measures=None, modulate=False, population=1_000_000,
                      start=datetime.date(2020, 8, 1)):
    """``generate_synthetic_dataset`` on its own numpy loop over
    :func:`kolmogorov_drift`, summing the recoveries and vaccinations as it
    goes: the loop it ran before it stepped ``integrate_kolmogorov``. With
    ``modulate``, day k's gamma is scaled by each of ``measures[k]``'s level
    factors in turn, on Python floats."""
    if measures is None:
        measures = np.zeros((days, N_MEASURES), dtype=int)
    measures = validate_measures(measures)
    gamma, rho, pi = (float(r) for r in rates)
    m = np.array([1.0 - i0, i0, 0.0])
    states = [m.copy()]
    cum_rec, cum_vac = 0.0, 0.0
    recs, vacs = [0.0], [0.0]
    for k in range(days - 1):
        scale = 1.0
        if modulate:
            for level in measures[k]:
                scale *= MEASURE_FACTORS[int(level)]
        dm = np.asarray(kolmogorov_drift(m, (gamma * scale, rho, pi)))
        cum_rec += rho * m[1]
        cum_vac += pi * m[0]
        m = np.clip(m + dm, 0.0, None)
        m = m / m.sum()
        states.append(m.copy())
        recs.append(cum_rec)
        vacs.append(cum_vac)
    states = np.array(states)
    dates = [start + datetime.timedelta(days=k) for k in range(days)]
    raw = np.zeros((days, 4), dtype=int)
    for k in range(days):
        recovered = int(round(recs[k] * population))
        vacc = int(round(vacs[k] * population))
        active = int(round(states[k, 1] * population))
        raw[k] = [active + recovered, recovered, 0, vacc]
    return EpidemicDataset(dates, states, measures[:days].copy(), raw, population)


def affine(x, w, b):
    """Batched ``x @ w.T + b``: a one-layer network node."""
    return mlp(x, [w], [b])


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
