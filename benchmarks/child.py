"""One CLI run in a fresh process, as the benchmark harness starts it.

Usage: python3 child.py RESULT_JSON TRACE SRC_DIR -- CLI_ARGS...

Imports the package from SRC_DIR, records the monotonic clock at CLI entry
(so the parent can take set-up time from its own spawn time), calls
``mfgames.cli.main(CLI_ARGS)`` and writes a JSON result with the process's
peak RSS. Training time is always measured, around the training loop each
game calls; with TRACE=1 the spans of ``spans.instrument`` are recorded too.
With no CLI_ARGS the process only imports, which gives the harness extra
set-up samples.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def _timed_training(trainings: list, fn, units):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        trainings.append([time.perf_counter() - start, units(*args, **kwargs)])
        return result

    return wrapper


def _peak_rss_kib() -> int | None:
    """High-water RSS of this process's own address space (VmHWM).

    ``ru_maxrss`` would also count the parent's memory at spawn time, which
    Linux carries across exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main(argv: list[str]) -> int:
    result_path, trace, src = argv[0], argv[1] == "1", argv[2]
    cli_args = argv[argv.index("--") + 1:]
    sys.path.insert(0, src)
    from mfgames import cli
    from mfgames.games import dice, elfarol, meeting, sir

    trainings: list = []
    for game in (meeting, elfarol):
        game.train = _timed_training(trainings, game.train, lambda _g, cfg: cfg.epochs)
    sir.train_sir = _timed_training(trainings, sir.train_sir, lambda _d, cfg, **_k: cfg.epochs)
    dice.train_dice = _timed_training(
        trainings, dice.train_dice,
        lambda _c, _t, games, rounds_per_game, **_k: games * rounds_per_game,
    )
    tracer = None
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)
        tracer.start_gc_spans()

    entry = time.perf_counter()
    code = cli.main(cli_args) if cli_args else 0
    result = {"entry": entry, "exit_code": code, "trainings": trainings,
              "peak_rss_kib": _peak_rss_kib()}
    if tracer is not None:
        tracer.stop_gc_spans()
        result["trace"] = tracer.summary()
        result["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
