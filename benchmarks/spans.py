"""Span recorder and per-layer metrics for the traced benchmark run.

Spans are recorded around calls into each module's public functions, from
outside the program: a function is replaced, in the namespace where its
caller looks it up, by a wrapper that records ``[name, start, end, parent]``.
Per-operation tape calls (``Value.__init__``, ``Tape.affine``) are not
wrapped: at about a million calls per epoch that would measure the tracer.
Garbage-collector pauses are recorded as ``runtime.gc_pause`` spans through
``gc.callbacks``, so they are excluded from the self time of the span they
interrupt.

A span named ``S`` gives the per-layer metric ``S_s``, the sum of its self
times (duration minus the time covered by its direct children). Count
metrics are listed in ``COUNT_METRICS``.
"""

from __future__ import annotations

import functools
import gc
import time
from collections import Counter

# Count metrics: a counter of the tracer, or "calls:" and the span counted.
# Each repeats exactly across runs of one build on one seed, except the
# collector count, which depends on the tracer's own allocations.
COUNT_METRICS = {
    "autodiff.tape_nodes": "tape_nodes",
    "autodiff.tape_edges": "tape_edges",
    "runtime.gc_collections": "calls:runtime.gc_pause",
    "nets.forward_calls": "calls:nets.forward",
    "mfg.episodes": "calls:mfg.episode",
    "sde.steps": "sde_steps",
    "games.sir.rate_fit_rollouts": "rate_fit_rollouts",
    "games.dice.rounds": "calls:games.dice.play_round",
    "games.dice.turns": "dice_turns",
    "games.dice.bid_probability_calls": "calls:games.dice.bid_probability",
}
UNREPEATABLE_COUNTS = {"runtime.gc_collections"}

# Spans whose self time is reported, in report order.
SPANS = [
    "autodiff.backward",
    "runtime.gc_pause",
    "nets.forward",
    "nets.bind",
    "nets.grad_arrays",
    "nets.adabelief",
    "nets.forward_np",
    "nets.checkpoint",
    "mfg.train",
    "mfg.episode",
    "sde.integrate",
    "games.meeting.simulate_neural",
    "games.meeting.run_standard",
    "games.meeting.actual_start",
    "games.meeting.write_history",
    "games.elfarol.simulate_neural",
    "games.elfarol.write_history",
    "games.sir.ingest",
    "games.sir.estimate_rates",
    "games.sir.train",
    "games.sir.forecast",
    "games.dice.train",
    "games.dice.play_round",
    "games.dice.bid_probability",
    "games.dice.write",
    "cli.output",
]
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Records nested spans and counts for one process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def traced(self, fn, name: str, count=None):
        """``fn`` wrapped in a span; ``count(counts, args, result)`` runs after it.

        The counting hook runs in a bookkeeping span of its own, so its cost
        shows as tracing overhead and not in the caller's self time.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec = self._open(BOOKKEEPING)
                count(self.counts, args, result)
                self._close(rec)
            return result

        return wrapper

    def counted(self, fn, key: str):
        """``fn`` with a call counter and no span, for calls too cheap to time."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._open("runtime.gc_pause")
        elif self._stack and self.spans[self._stack[-1]][0] == "runtime.gc_pause":
            self._close(self.spans[self._stack[-1]])

    def start_gc_spans(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop_gc_spans(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def summary(self) -> dict:
        """Self time and call count per span name, plus the counters."""
        dur = [end - start for _name, start, end, _parent in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_name, _start, _end, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += dur[i]
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for i, (name, *_rest) in enumerate(self.spans):
            self_s[name] += dur[i] - child[i]
            calls[name] += 1
        return {"self_s": dict(self_s), "calls": dict(calls), "counts": dict(self.counts)}


def _count_tape(counts, args, _result) -> None:
    nodes = args[0].nodes
    counts["tape_nodes"] += len(nodes)
    counts["tape_edges"] += sum(len(n.parents) for n in nodes) // 2


def _count_steps(counts, args, _result) -> None:
    counts["sde_steps"] += args[2].n_steps


def _count_turns(counts, _args, result) -> None:
    counts["dice_turns"] += result.n_turns


def instrument(tracer: Tracer) -> None:
    """Wrap each module's public functions where their callers look them up.

    Names imported by value (``from ..mfg import train``) are replaced in the
    importing module; methods are replaced on their class.
    """
    from mfgames import autodiff, cli, nets
    from mfgames.games import dice, elfarol, meeting, sir

    def wrap(owner, attr, name, count=None):
        setattr(owner, attr, tracer.traced(getattr(owner, attr), name, count))

    wrap(autodiff.Tape, "backward", "autodiff.backward", _count_tape)
    wrap(nets.MLP, "bind", "nets.bind")
    wrap(nets.BoundMLP, "forward", "nets.forward")
    wrap(nets.BoundMLP, "grad_arrays", "nets.grad_arrays")
    wrap(nets.AdaBelief, "step", "nets.adabelief")
    for game in (meeting, elfarol, sir, dice):
        wrap(game, "mlp_forward_np", "nets.forward_np")
    wrap(cli, "save_checkpoint", "nets.checkpoint")

    for game in (meeting, elfarol):
        wrap(game, "train", "mfg.train")
    wrap(meeting.MeetingGame, "episode_losses", "mfg.episode")
    wrap(elfarol.BarGame, "episode_losses", "mfg.episode")
    wrap(meeting, "integrate", "sde.integrate", _count_steps)

    for attr in ("simulate_neural", "run_standard", "actual_start", "write_history"):
        wrap(meeting, attr, f"games.meeting.{attr}")
    for attr in ("simulate_neural", "write_history"):
        wrap(elfarol, attr, f"games.elfarol.{attr}")

    wrap(sir, "ingest_csv", "games.sir.ingest")
    wrap(sir, "estimate_rates", "games.sir.estimate_rates")
    wrap(sir, "train_sir", "games.sir.train")
    wrap(sir, "forecast", "games.sir.forecast")
    sir.integrate_kolmogorov = tracer.counted(sir.integrate_kolmogorov, "rate_fit_rollouts")

    wrap(dice, "train_dice", "games.dice.train")
    wrap(dice, "play_round", "games.dice.play_round", _count_turns)
    wrap(dice, "bid_probability", "games.dice.bid_probability")
    wrap(dice, "write_round_history", "games.dice.write")
    wrap(dice, "write_analysis_csv", "games.dice.write")

    # The CLI's own code is output writing plus argument glue; its runners are
    # held by value in a dict.
    for attr in ("run_experiment", "emit_histogram", "write_history_csv", "_sha256"):
        wrap(cli, attr, "cli.output")
    for game, runner in cli._RUNNERS.items():
        cli._RUNNERS[game] = tracer.traced(runner, "cli.output")


def layer_metrics(summaries: list[dict], output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one workload iteration from its processes' summaries."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    for s in summaries:
        self_s.update(s["self_s"])
        calls.update(s["calls"])
        counts.update(s["counts"])
    out: dict[str, float] = {}
    for metric, key in COUNT_METRICS.items():
        out[metric] = calls[key[6:]] if key.startswith("calls:") else counts[key]
    for name in SPANS:
        out[f"{name}_s"] = self_s[name]
    out["cli.output_bytes"] = output_bytes
    return out
