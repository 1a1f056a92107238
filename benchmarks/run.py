"""Benchmark of the steinhaus CLI: end-to-end metrics, or per-layer with --trace 1.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload spectrum --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload, each in its own process. One
operation is one ``steinhaus.cli.main([...])`` call in this process, in a
closed loop: one caller, and the next operation starts only when the
previous one has ended. Every operation's stdout is captured and checked
(see workloads.py). The engine gets ``--workers`` equal to the cores this
process may run on. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric with its unit, and a result file with provenance and raw
samples goes to benchmarks/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from tracing import Tracer, op_layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload, check_output  # noqa: E402

MAX_OPS = 19  # timed operations per run; fewer than 20, so only the median is reported
SETUP_TIMEOUT_S = 60
SETUP_SNIPPET = ("import sys; sys.path.insert(0, sys.argv[1]); "
                 "from steinhaus.cli import main; sys.exit(main(sys.argv[2:]))")
MAX_PROBLEMS_KEPT = 20

END_TO_END_UNITS = {"op_p50_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "error_rate": "ratio"}
# error_rate is printed and stored, but the final line carries it as
# failed/attempted: it is 0 whenever the program is correct.
FINAL_END_TO_END = ("op_p50_s", "cpu_s", "setup_s", "peak_rss_mb")
PER_LAYER_UNITS = {
    "spectrum.hist_s": "s", "spectrum.hist_calls": "count",
    "spectrum.hist_mgen_s": "Mgen/s",
    "spectrum.collect_s": "s", "spectrum.collect_calls": "count",
    "spectrum.collect_mgen_s": "Mgen/s",
    "spectrum.sweep_ratio": "ratio",
    "spectrum.hist_1w_s": "s", "spectrum.fanout_speedup": "ratio",
    "verify.all_s": "s", "verify.self_s": "s", "verify.s3_s": "s",
    "verify.checks_s": "s", "verify.records": "count",
    "verify.elapsed_coverage": "ratio",
    "cli.self_s": "s",
    "triangle.weight_calls": "count", "triangle.weight_s": "s",
    "symmetry.orbit_calls": "count", "symmetry.orbit_s": "s",
    "families.s": "s",
    "trace.op_s": "s", "trace.self_sum_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def import_package():
    """Import steinhaus from this checkout's src/, never from elsewhere."""
    if not (SRC / "steinhaus" / "__init__.py").is_file():
        raise SystemExit(f"error: no steinhaus package under {SRC}; "
                         "run from a checkout that has src/")
    sys.path.insert(0, str(SRC))
    import steinhaus
    import steinhaus.cli
    import steinhaus.spectrum
    import steinhaus.verify
    if SRC not in Path(steinhaus.__file__).resolve().parents:
        raise SystemExit(f"error: imported steinhaus from {steinhaus.__file__}, not {SRC}")
    return steinhaus


class Run:
    """Counts and raw samples of one benchmark run of one workload."""

    def __init__(self, wl: Workload, workers: int, seed: int, cli) -> None:
        self.wl = wl
        self.argv = [*wl.argv, "--workers", str(workers)]
        self.workers = workers
        self.rng = random.Random(seed)
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _count(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[:MAX_PROBLEMS_KEPT - len(self.problems)]

    def op(self) -> tuple[float, float]:
        """One checked CLI operation; returns its wall and CPU seconds."""
        out, err = io.StringIO(), io.StringIO()
        problems = []
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(self.argv))
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code
        except Exception as exc:  # an operation that raises is a failed operation
            code, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if not problems:
            problems = check_output(self.wl, code, out.getvalue(), self.rng)
        self._count(problems)
        return wall, cpu

    def setup_sample(self) -> float:
        """Wall seconds of a fresh interpreter running the smallest command."""
        argv = [sys.executable, "-c", SETUP_SNIPPET, str(SRC),
                *self.wl.setup_argv, "--workers", str(self.workers)]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S)
            problems = [] if proc.returncode == 0 else [
                f"set-up command exit code {proc.returncode}: "
                f"{proc.stderr.decode(errors='replace').strip()[-200:]}"]
        except subprocess.TimeoutExpired:
            problems = [f"set-up command ran past {SETUP_TIMEOUT_S} s"]
        wall = time.perf_counter() - t0
        self._count(problems)
        return wall


def timed_loop(seconds: float, step) -> None:
    """Call step() at least once and at most MAX_OPS times, while another
    call as long as the last one still ends within `seconds`."""
    t0 = time.perf_counter()
    for _ in range(MAX_OPS):
        start = time.perf_counter()
        step()
        end = time.perf_counter()
        if end + (end - start) > t0 + seconds:
            break


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    run.op()  # warm-up: checked and counted, not timed
    walls, cpus, setup = [], [], []

    def step():
        wall, cpu = run.op()
        walls.append(wall)
        cpus.append(cpu)
        # One set-up sample after each operation, so that the set-up median
        # spans the same stretch of machine load as the operations.
        setup.append(run.setup_sample())
    timed_loop(seconds, step)
    metrics = {
        "op_p50_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "error_rate": run.failed / run.attempted,
    }
    return metrics, {"op_wall_s": walls, "op_cpu_s": cpus, "setup_s": setup}


def time_full_spectrum(st, n: int, workers: int) -> float:
    t0 = time.perf_counter()
    st.full_spectrum(n, workers=workers)
    return time.perf_counter() - t0


def run_traced(run: Run, st, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced operations; report per-layer medians."""
    run.op()  # warm-up
    asked = sum(1 << n for n in run.wl.sizes)
    untraced, traced, per_op = [], [], []

    def step():
        untraced.append(run.op()[0])
        tracer = Tracer()
        with tracer.installed(st.cli, st.verify):
            wall = run.op()[0]
        traced.append(wall)
        per_op.append(op_layer_metrics(tracer, wall, asked))
    timed_loop(seconds, step)
    metrics = {k: statistics.median(op[k] for op in per_op) for k in per_op[0]}
    n = run.wl.largest_n
    one = time_full_spectrum(st, n, 1)
    many = time_full_spectrum(st, n, run.workers)
    metrics["spectrum.hist_1w_s"] = one
    metrics["spectrum.fanout_speedup"] = one / many
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    raw = {"untraced_wall_s": untraced, "traced_wall_s": traced, "per_op": per_op,
           "full_spectrum_n": n, "full_spectrum_1w_s": one,
           "full_spectrum_nw_s": many}
    return metrics, raw


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def provenance(st, run: Run, args) -> dict:
    import numpy
    return {
        "workload": run.wl.name, "command": run.argv, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "affinity_cores": len(os.sched_getaffinity(0)), "workers": run.workers,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "chunk": getattr(st.spectrum, "_CHUNK", None),
    }


def print_metrics(metrics: dict, units: dict, samples: int | None = None) -> None:
    for name, unit in units.items():
        note = f"  ({samples} samples)" if samples and name in ("op_p50_s", "cpu_s") else ""
        print(f"  {name:<26} {metrics[name]:.6g} {unit}{note}")


def run_one(args, wl: Workload) -> int:
    st = import_package()
    run = Run(wl, len(os.sched_getaffinity(0)), args.seed, st.cli)
    if args.trace:
        metrics, raw = run_traced(run, st, args.seconds)
        units, final = PER_LAYER_UNITS, tuple(PER_LAYER_UNITS)
        samples = len(raw["traced_wall_s"])
    else:
        metrics, raw = run_end_to_end(run, args.seconds)
        units, final = END_TO_END_UNITS, FINAL_END_TO_END
        samples = len(raw["op_wall_s"])
    prov = provenance(st, run, args)
    print(f"workload {wl.name}: {' '.join(run.argv)}")
    print(f"  provenance {json.dumps(prov, sort_keys=True)}")
    print_metrics(metrics, units, samples)
    for problem in run.problems:
        print(f"  FAILED CHECK: {problem}")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({"provenance": prov, "attempted": run.attempted,
                    "failed": run.failed, "problems": run.problems,
                    "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
                    "raw": raw}, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in final},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        last = json.loads(lines[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args, WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())
