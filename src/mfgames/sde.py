"""Fixed-step Euler-Maruyama integration, generic over ndarrays and tape Values.

One loop serves plain simulation and training: given plain arrays it runs in
numpy and records nothing, while a state that is an autodiff ``Value`` unrolls
the whole solve onto its tape, so that losses on the trajectory can be
backpropagated to any learned drift/diffusion parameters
(discretize-then-optimize).

The dynamics are one callable, ``coefficients(t, x) -> (drift, diffusion)``,
evaluated at the start of each step; a game that couples its agents through a
mean field recomputes it there from the current state. The meeting game is the
one caller. El Farol and SIR keep their own projected steps instead, because
their states live on constrained sets that a plain EM update leaves: El Farol
clips each intention back to [0, 1], and SIR steps on the simplex with
zero-sum noise between its compartments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import plain

__all__ = ["TimeGrid", "IntegrationError", "integrate"]


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


def integrate(coefficients: Callable, x0, grid: TimeGrid, dB=None):
    """Integrate over the grid, returning the state at every grid point.

    Each step is ``x + drift dt + diffusion dB[k]`` with ``(drift,
    diffusion) = coefficients(t, x)`` at the step's start (forward-in-time
    coupling, no lookahead). ``dB`` holds the pre-sampled Wiener increments,
    one state-shaped row per step drawn from Normal(0, dt); None switches the
    noise off. A non-finite state raises :class:`IntegrationError` carrying
    the step index.
    """
    if dB is not None and len(dB) != grid.n_steps:
        raise ValueError("Brownian increments do not match the grid")
    times = grid.times()
    traj = [x0]
    x = x0
    for k in range(grid.n_steps):
        drift, diffusion = coefficients(times[k], x)
        x = x + drift * grid.dt
        if dB is not None:
            x = x + diffusion * dB[k]
        if not np.all(np.isfinite(plain(x))):
            raise IntegrationError(f"non-finite state at step {k}", k)
        traj.append(x)
    return traj
