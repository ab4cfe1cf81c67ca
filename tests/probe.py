"""An exact Nash probe: the reference the closed-form exploitability is checked against.

The probe moves one agent over a grid of candidate controls and recomputes
the mean field for each, so it counts the agent's own effect on the mean
field that the closed form holds fixed. It costs a full profile per
candidate, so the tests run it on a few agents only.
"""

import numpy as np

from mfgames.games import elfarol, meeting


def nash_gap(cost_fn, states, probe_agent, candidate_controls) -> float:
    """Largest improvement one agent gets by a unilateral deviation.

    ``cost_fn(states, i)`` evaluates agent i's cost on a full state profile,
    with the mean field recomputed from it, so the deviation is visible to
    it. Returns max over candidates of [J(profile) - J(deviated)]_+; zero
    means no candidate improves the agent.
    """
    candidates = list(candidate_controls)
    if not candidates:
        raise ValueError("candidate set must be nonempty")
    states = np.asarray(states, dtype=float)
    if not 0 <= probe_agent < states.shape[0]:
        raise ValueError("probe_agent out of range")
    j_eq = cost_fn(states, probe_agent)
    gap = 0.0
    for cand in candidates:
        deviated = states.copy()
        deviated[probe_agent] = cand
        gap = max(gap, j_eq - cost_fn(deviated, probe_agent))
    return gap


def meeting_cost(config):
    """Agent i's terminal cost on a profile of actual arrivals."""
    def cost(tau_tilde, i):
        ts = meeting.actual_start(tau_tilde, config.scheduled, config.quorum)[0]
        return float(meeting.terminal_cost(float(tau_tilde[i]), config.scheduled, ts))
    return cost


def bar_cost(config):
    """Agent i's expected cost on a profile of intentions, at a = mean(p)."""
    def cost(p, i):
        return float(elfarol.expected_bar_cost(float(p[i]), float(np.mean(p)),
                                               config.threshold))
    return cost


def closed_form_gaps(cost_fn, states, agents, exploitability):
    """The gap the closed form gives each of ``agents``.

    Once the mean field is held, every agent's best response costs the
    same, mean(J) - ``exploitability``, so an agent's gap is its cost minus
    that.
    """
    costs = np.array([cost_fn(states, i) for i in range(len(states))])
    return costs[agents] - (costs.mean() - exploitability)
