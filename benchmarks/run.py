"""Benchmark of the mfgames CLI: end-to-end metrics and a traced per-layer run.

Usage (from the repository root):

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

    agents-train  meeting, then El Farol, neural training at CLI defaults, 1 epoch
    sir-train     SIR neural training on a seeded 60-day synthetic CSV, 1 epoch
    nograd-mix    20000-agent meeting runs (standard, then neural with 0 epochs),
                  then 3000 rounds of standard dice

Load is a closed loop with one client: the workload's CLI runs execute one at
a time, each in a fresh child process (``child.py``), so that peak RSS and CPU
time are per run. An iteration is one pass over the workload's CLI runs;
iterations repeat on the same inputs while the next one is expected to end
within ``--seconds``. Every figure is the median over the run's iterations.

End-to-end metrics (``--trace 0``, no spans recorded):

    setup_s      spawn of a child to CLI entry (the imports), median over every
                 CLI run and two import-only runs
    run_s        wall time of the iteration's CLI runs, spawn to exit
    epoch_s      time per epoch of each training loop, timed around the loop
                 the game calls (``mfg.train``, ``sir.train_sir``), summed over
                 the iteration's games; on nograd-mix, which trains nothing, time
                 per round of dice's update loop (``dice.train_dice``)
    cpu_s        user plus system CPU time of the iteration's CLI processes
    peak_rss_mb  largest peak RSS (VmHWM) among the iteration's CLI processes

Runs that exit non-zero or fail a check are counted in ``failed`` out of
``attempted``, not as a metric, since the share is 0 when all is well.

Inputs come from ``--seed``: the program seed is ``seed % 16`` so that each
run's outputs can be checked against the reference values committed in
``reference.json`` (regenerate with ``make_reference.py``). The program only
receives the generated inputs: ``--seed`` and, for SIR, the CSV.

Every CLI run must exit 0, give the same manifest ``content_hash`` as the
same run in the first iteration, and write loss histories, forecasts, dice
analyses and final-turn trajectory summaries within a relative tolerance of
the reference.

With ``--trace 1`` traced and untraced iterations alternate; the metrics are
per-layer self times and counts from the traced ones (see ``spans.py``), the
traced run time and the tracing overhead (traced minus untraced ``run_s``).
Counts must repeat exactly across traced iterations.

Standard output holds a JSON line stamping the environment, one line per
iteration, and the result as the last line. ``--size smoke`` runs tiny games
for the harness's own test (``test_smoke.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

SEED_POOL = 16
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 150.0
REL_TOL = 1e-6
ABS_TOL = 1e-9

sys.path.insert(0, str(HERE))
import spans  # noqa: E402


@dataclass(frozen=True)
class Invocation:
    argv: tuple  # CLI arguments; "{data}" and "{config}" are filled in
    checks: tuple = ()  # output files compared with the reference values


@dataclass(frozen=True)
class Workload:
    invocations: tuple
    sir_days: int = 0  # length of the generated SIR dataset, 0 for none


_SMOKE = "--config={config}"
WORKLOADS = {
    "agents-train": {
        "full": Workload((
            Invocation(("meeting", "--mode", "neural", "--epochs", "1"), ("loss", "final_turn")),
            Invocation(("elfarol", "--mode", "neural", "--epochs", "1"), ("loss", "final_turn")),
        )),
        "smoke": Workload((
            Invocation(("meeting", "--mode", "neural", "--epochs", "1", "--agents", "4", _SMOKE),
                       ("loss", "final_turn")),
            Invocation(("elfarol", "--mode", "neural", "--epochs", "1", _SMOKE),
                       ("loss", "final_turn")),
        )),
    },
    "sir-train": {
        "full": Workload((
            Invocation(("sir", "--mode", "neural", "--data", "{data}", "--epochs", "1"),
                       ("loss", "forecast")),
        ), sir_days=60),
        "smoke": Workload((
            Invocation(("sir", "--mode", "neural", "--data", "{data}", "--epochs", "1", _SMOKE),
                       ("loss", "forecast")),
        ), sir_days=12),
    },
    "nograd-mix": {
        "full": Workload((
            Invocation(("meeting", "--mode", "standard", "--agents", "20000"), ("final_turn",)),
            Invocation(("meeting", "--mode", "neural", "--epochs", "0", "--agents", "20000"),
                       ("final_turn",)),
            Invocation(("dice", "--mode", "standard", "--rounds", "3000"), ("analysis",)),
        )),
        "smoke": Workload((
            Invocation(("meeting", "--mode", "standard", "--agents", "50", _SMOKE),
                       ("final_turn",)),
            Invocation(("meeting", "--mode", "neural", "--epochs", "0", "--agents", "50", _SMOKE),
                       ("final_turn",)),
            Invocation(("dice", "--mode", "standard", _SMOKE), ("analysis",)),
        )),
    },
}


# -- output values ------------------------------------------------------------


def _rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def _number(cell: str) -> float:
    # loss histories may carry numpy reprs such as np.float64(0.5)
    m = re.fullmatch(r"np\.float64\((.*)\)", cell)
    return float(m.group(1) if m else cell)


def _loss_values(out: Path) -> list[float]:
    return [_number(c) for row in _rows(out / "loss_history.csv") for c in row]


def _forecast_values(out: Path) -> list[float]:
    return [_number(c) for row in _rows(out / "forecast.csv") for c in row[1:4]]


def _analysis_values(out: Path) -> list[float]:
    values = []
    for _metric, key, mean, std in _rows(out / "analysis.csv"):
        values += ([float(key)] if key else []) + [float(mean), float(std)]
    return values


def _final_turn_values(out: Path) -> list[float]:
    """Mean and standard deviation of each value column at the last turn."""
    lines = (out / "trajectory.csv").read_bytes().splitlines()
    turn = lines[-1].split(b",", 1)[0] + b","
    k = len(lines)
    while k > 1 and lines[k - 1].startswith(turn):
        k -= 1
    final = np.array([[float(c) for c in line.split(b",")[2:]] for line in lines[k:]])
    return [float(v) for col in final.T for v in (col.mean(), col.std())]


VALUES = {
    "loss": _loss_values,
    "forecast": _forecast_values,
    "analysis": _analysis_values,
    "final_turn": _final_turn_values,
}


def _mismatch(got: dict, want: dict) -> str | None:
    for kind, ref in want.items():
        vals = got.get(kind, [])
        if len(vals) != len(ref):
            return f"{kind}: {len(vals)} values, reference has {len(ref)}"
        for i, (a, b) in enumerate(zip(vals, ref)):
            if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                return f"{kind}[{i}]: {a!r} differs from reference {b!r}"
    return None


# -- child processes ----------------------------------------------------------


@dataclass
class ChildRun:
    ok: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    setup_s: float
    result: dict


def spawn(cli_args: list[str], trace: bool, result_path: Path) -> ChildRun:
    """Run ``child.py`` to completion; wall time is from spawn to exit."""
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), str(int(trace)),
           str(SRC), "--", *cli_args]
    result_path.unlink(missing_ok=True)
    with open(result_path.with_suffix(".stderr"), "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {}
    if result_path.exists():
        result = json.loads(result_path.read_text())
    ok = proc.returncode == 0 and result.get("exit_code") == 0
    if not ok:
        tail = result_path.with_suffix(".stderr").read_text()[-2000:]
        print(f"run failed ({proc.returncode}): {' '.join(cli_args)}\n{tail}", file=sys.stderr)
    return ChildRun(
        ok=ok,
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=(result.get("peak_rss_kib") or usage.ru_maxrss) / 1024.0,
        setup_s=result.get("entry", end) - start,
        result=result,
    )


# -- iterations ---------------------------------------------------------------


@dataclass
class Iteration:
    traced: bool
    wall_s: float = 0.0  # including output checks, to plan the next one
    run_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    epoch_s: float = 0.0
    setups: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)  # run index -> reason
    hashes: list = field(default_factory=list)
    values: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)


def run_iteration(workload: Workload, pseed: int, work: Path, traced: bool,
                  index: int, reference: list | None) -> Iteration:
    """One pass over the workload's CLI runs, each checked as it finishes.

    ``reference`` holds the expected values per run; None skips the
    comparison (used when making the reference).
    """
    it = Iteration(traced)
    start = time.perf_counter()
    summaries = []
    output_bytes = 0
    for k, inv in enumerate(workload.invocations):
        out = work / f"out{k}"
        shutil.rmtree(out, ignore_errors=True)
        cli_args = [a.format(data=work / "sir.csv", config=HERE / "smoke.ini")
                    for a in inv.argv]
        cli_args += ["--seed", str(pseed), "--out", str(out)]
        child = spawn(cli_args, traced, work / f"iter{index}-run{k}.json")
        it.run_s += child.wall_s
        it.cpu_s += child.cpu_s
        it.peak_rss_mb = max(it.peak_rss_mb, child.rss_mb)
        it.setups.append(child.setup_s)
        it.epoch_s += sum(sec / units for sec, units in child.result.get("trainings", [])
                          if units > 0)
        values, content_hash = {}, None
        if not child.ok:
            it.failures[k] = "exited with an error"
        else:
            try:
                content_hash = json.loads((out / "manifest.json").read_text())["content_hash"]
                values = {kind: VALUES[kind](out) for kind in inv.checks}
            except (OSError, ValueError, KeyError, IndexError) as err:
                it.failures[k] = f"unreadable output: {err}"
            if reference is not None and k not in it.failures:
                problem = _mismatch(values, reference[k])
                if problem:
                    it.failures[k] = problem
        output_bytes += sum(p.stat().st_size for p in out.glob("*"))
        shutil.rmtree(out, ignore_errors=True)
        it.hashes.append(content_hash)
        it.values.append(values)
        if traced and "trace" in child.result:
            summaries.append(child.result["trace"])
    if traced:
        it.layers = spans.layer_metrics(summaries, output_bytes)
    it.wall_s = time.perf_counter() - start
    return it


def make_inputs(workload: Workload, pseed: int, work: Path) -> None:
    """Write the seeded inputs: a measure-modulated synthetic SIR dataset."""
    if not workload.sir_days:
        return
    sys.path.insert(0, str(SRC))
    from mfgames.games import sir

    days = workload.sir_days
    dataset = sir.generate_synthetic_dataset(
        days, seed=pseed, measures=sir.make_measure_schedule(days, seed=pseed), modulate=True,
    )
    sir.write_dataset_csv(dataset, work / "sir.csv")


def environment(trace: bool) -> dict:
    commit = None  # a checkout without .git has no commit to report
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "mfgames").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": src_hash.hexdigest(),
        "tracing": trace,
    }


# -- the run ------------------------------------------------------------------


def _median(xs) -> float:
    return float(statistics.median(xs))


def measure(workload: Workload, pseed: int, work: Path, seconds: float, trace: bool,
            reference: list | None):
    """Iterate while the next iteration should end in time; return (iterations, probes)."""
    start = time.perf_counter()
    probes = []
    if not trace:
        probes = [spawn([], False, work / f"probe{k}.json") for k in range(SETUP_PROBES)]
    # traced runs alternate with untraced ones, so the overhead is measured
    # on the same machine state
    minimum = 3 if trace else 1
    iterations: list[Iteration] = []
    while len(iterations) < minimum or (
        time.perf_counter() + max(it.wall_s for it in iterations) <= start + seconds
    ):
        traced = trace and len(iterations) % 2 == 0
        iterations.append(run_iteration(workload, pseed, work, traced, len(iterations),
                                        reference))
    return iterations, probes


def check_repeats(iterations: list[Iteration]) -> list[str]:
    """Repeated runs of one build on one seed must agree exactly.

    A run whose content hash differs from the first iteration's fails; counts
    that do not repeat are returned as problems of the whole run.
    """
    first = iterations[0]
    for it in iterations[1:]:
        for k, (a, b) in enumerate(zip(first.hashes, it.hashes)):
            if a is not None and b is not None and a != b:
                it.failures.setdefault(k, "content_hash differs from the first iteration")
    out = []
    traced = [it for it in iterations if it.traced]
    for it in traced[1:]:
        for name in spans.COUNT_METRICS:
            if name not in spans.UNREPEATABLE_COUNTS and it.layers[name] != traced[0].layers[name]:
                out.append(f"{name} did not repeat: {traced[0].layers[name]} then {it.layers[name]}")
    return out


def end_to_end(iterations: list[Iteration], setups: list[float]) -> dict:
    return {
        "setup_s": (_median(setups + [s for it in iterations for s in it.setups]), "s"),
        "run_s": (_median(it.run_s for it in iterations), "s"),
        "epoch_s": (_median(it.epoch_s for it in iterations), "s"),
        "cpu_s": (_median(it.cpu_s for it in iterations), "s"),
        "peak_rss_mb": (_median(it.peak_rss_mb for it in iterations), "MiB"),
    }


def per_layer(iterations: list[Iteration]) -> dict:
    traced = [it for it in iterations if it.traced]
    plain = [it for it in iterations if not it.traced]
    out = {}
    for name in spans.COUNT_METRICS:
        if name in spans.UNREPEATABLE_COUNTS:
            out[name] = (_median(it.layers[name] for it in traced), "count")
        else:
            out[name] = (traced[0].layers[name], "count")
    for name in spans.SPANS:
        out[f"{name}_s"] = (_median(it.layers[f"{name}_s"] for it in traced), "s")
    out["cli.output_bytes"] = (traced[0].layers["cli.output_bytes"], "bytes")
    traced_run = _median(it.run_s for it in traced)
    out["trace.run_s"] = (traced_run, "s")
    out["trace.overhead_s"] = (traced_run - _median(it.run_s for it in plain), "s")
    return out


def load_reference(size: str, workload: str, pseed: int) -> list | None:
    if not REFERENCE.exists():
        return None
    data = json.loads(REFERENCE.read_text())
    return data.get(size, {}).get(workload, {}).get(str(pseed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if not (SRC / "mfgames" / "cli.py").is_file():
        print(f"no mfgames sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload][args.size]
    pseed = args.seed % SEED_POOL
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    make_inputs(workload, pseed, work)
    reference = load_reference(args.size, args.workload, pseed)
    problems = [] if reference else [f"no reference values for program seed {pseed}"]
    trace = bool(args.trace)
    print(json.dumps({"env": environment(trace), "workload": args.workload,
                      "seed": args.seed, "program_seed": pseed, "size": args.size}))

    iterations, probes = measure(workload, pseed, work, args.seconds, trace, reference)
    problems += check_repeats(iterations)
    failed = sum(not p.ok for p in probes)
    for j, it in enumerate(iterations):
        print(json.dumps({"iteration": j, "traced": it.traced, "run_s": it.run_s,
                          "epoch_s": it.epoch_s, "cpu_s": it.cpu_s, "setup_s": it.setups}))
        failed += len(it.failures)
        problems += [f"iteration {j}, run {k}: {why}" for k, why in sorted(it.failures.items())]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if trace:
        metrics = per_layer(iterations)
    else:
        metrics = end_to_end(iterations, [p.setup_s for p in probes])
    result = {
        "correct": not problems and not failed,
        "attempted": len(probes) + len(iterations) * len(workload.invocations),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
