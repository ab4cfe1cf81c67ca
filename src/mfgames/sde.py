"""Fixed-step Euler-Maruyama integration, generic over ndarrays and tape Values.

One loop serves plain simulation and training: given plain arrays it runs in
numpy and records nothing, while a state that is an autodiff ``Value`` unrolls
the whole solve onto its tape, so that losses on the trajectory can be
backpropagated to any learned drift/diffusion parameters
(discretize-then-optimize).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .autodiff import Value, absval

__all__ = [
    "TimeGrid",
    "BrownianPath",
    "SDEProblem",
    "IntegrationError",
    "em_step",
    "integrate",
]


class IntegrationError(RuntimeError):
    """Raised when a step produces a non-finite state; carries the step index."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    t1: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")
        if self.n_steps > 0 and not self.t1 > self.t0:
            raise ValueError("t1 must exceed t0")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.n_steps if self.n_steps else 0.0

    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.n_steps + 1)


@dataclass
class BrownianPath:
    """Pre-sampled Wiener increments, one state-shaped row per step, Normal(0, dt)."""

    increments: np.ndarray  # shape (n_steps, *state_shape)


@dataclass
class SDEProblem:
    """Drift/diffusion fields combining a predefined game term with neural residuals.

    With the neural fields absent the dynamics are ``dx = b dt + sigma dB``;
    with them present, ``dx = (b + mu) dt + |sigma_theta| dB``. All callables
    take ``(t, x, mean_field)`` and return a state-shaped array or Value (or a
    scalar that broadcasts to one).
    """

    base_drift: Callable
    fixed_diffusion: Optional[Callable] = None
    neural_drift: Optional[Callable] = None
    neural_diffusion: Optional[Callable] = None


def em_step(x, t, dt, problem: SDEProblem, mean_field, dB):
    """One Euler-Maruyama update: x + (b + mu) dt + |sigma| dB.

    Without a neural drift the update is x + b dt + sigma dB. Nonnegativity
    of the learned noise scale is enforced by absolute value at the point of
    use, keeping the network output scale-free. ``dB`` of None (or no
    diffusion) drops the noise term.
    """
    b = problem.base_drift(t, x, mean_field)
    mu = problem.neural_drift(t, x, mean_field) if problem.neural_drift else None
    sig = None
    if dB is not None:
        if problem.neural_diffusion is not None:
            sig = absval(problem.neural_diffusion(t, x, mean_field))
        elif problem.fixed_diffusion is not None:
            sig = problem.fixed_diffusion(t, x, mean_field)
    new = x + (b if mu is None else b + mu) * dt
    return new if sig is None else new + sig * dB


def integrate(problem: SDEProblem, x0, grid: TimeGrid, path: Optional[BrownianPath],
              mean_field_fn=None):
    """Integrate over the grid, returning the state at every grid point.

    The mean field is recomputed from the current state before each step
    (forward-in-time coupling, no lookahead). A non-finite state raises
    :class:`IntegrationError` carrying the step index.
    """
    if path is not None and path.increments.shape[0] not in (0, grid.n_steps):
        raise ValueError("Brownian path length does not match the grid")
    times = grid.times()
    traj = [x0]
    x = x0
    for k in range(grid.n_steps):
        t = times[k]
        mf = mean_field_fn(k, t, x) if mean_field_fn else None
        dB = path.increments[k] if (path is not None and path.increments.size) else None
        x = em_step(x, t, grid.dt, problem, mf, dB)
        if not np.all(np.isfinite(x.v if isinstance(x, Value) else x)):
            raise IntegrationError(f"non-finite state at step {k}", k)
        traj.append(x)
    return traj
