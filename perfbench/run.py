"""Benchmark for the ``mfsgd`` command line: three workloads, end-to-end and
per-layer metrics, and output checks made apart from the program.

    python3 perfbench/run.py --workload meanfield-ref --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the workload's command is run in whole rounds
for ``--seconds`` seconds (at least two rounds) after a repeated set-up, and
the medians of the rounds are reported.  With ``--trace 1`` the command runs
once untraced and once as a traced flow of calls into the package, followed
by layer probes, and the per-layer metrics are reported.  Every command run
and every output check counts as one operation attempted.  The last line of
standard output is one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "results"
WORKLOADS = ("meanfield-ref", "verify-d2", "mnist-wide")
SUBCOMMAND = {"meanfield-ref": "meanfield", "verify-d2": "verify",
              "mnist-wide": "mnist-hist"}
# set-ups per run; setup_s is their median.  verify-d2's set-up is a 5 s
# solve; the others are mostly interpreter start-up, whose time varied by a
# quarter from one start to the next
SETUP_REPEATS = {"meanfield-ref": 7, "verify-d2": 3, "mnist-wide": 7}
MIN_ROUNDS = 2
# the first command after set-up ran up to 15% slower than the rest on the
# 1 GB meanfield-ref shape, so there it runs once unmeasured
WARM_UP = {"meanfield-ref"}
CHILD_TIMEOUT_S = 150
# BLAS threads for every child process and for the checks, at most the
# cores this process may run on
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402  (after the thread settings, which numpy reads)
import inputs  # noqa: E402


class Operations:
    """Counts operations attempted and failed; one line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, name: str, check, *args):
        self.attempted += 1
        try:
            check(*args)
        except checks.CheckFailed as exc:
            self.failures.append(f"{name}: {exc}")
            print(f"FAILED {name}: {exc}", flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], log: Path) -> dict:
    """Run one child to completion; wall time from the parent, CPU time and
    peak RSS of exactly that child from wait4."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def mfsgd(args: list, log: Path) -> dict:
    return run_child([sys.executable, "-m", "meanfield_sgd.cli",
                      *(str(a) for a in args)], log)


def expect_rc(result: dict, allowed: tuple, log: Path):
    checks.require(result["rc"] in allowed,
                   f"exit code {result['rc']}, see {log.relative_to(ROOT)}")


def set_up(workload: str, directory: Path, seed: int, ops: Operations) -> Path:
    """Make the workload's inputs in a fresh directory and return the config
    the measured command reads.  A start-up run of the CLI imports the whole
    package (and compiles its bytecode once per checkout); verify-d2 also
    builds the mean-field solution it reuses through meanfield_dir=."""
    shutil.rmtree(directory, ignore_errors=True)
    cfg = inputs.write_inputs(workload, directory, seed)
    log = directory / "startup.log"
    ops.run("cli-startup", expect_rc, mfsgd(["--help"], log), (0,), log)
    if workload == "verify-d2":
        mf = directory / "mf"
        log = directory / "meanfield.log"
        ops.run("setup-meanfield", expect_rc,
                mfsgd(["meanfield", "--config", cfg, "--seed", seed,
                       "--out", mf, "--quiet"], log), (0,), log)
        cfg = directory / "verify.cfg"
        cfg.write_text(inputs.config_text(workload, {"meanfield_dir": mf.resolve()}))
    return cfg


def run_command(workload: str, cfg: Path, seed: int, out: Path,
                ops: Operations) -> dict:
    """One measured command.  verify-d2 exits 4 when a verdict fails, which
    check_verify_report judges: the chaos verdict may fail on some seeds,
    and no other verdict may (see perfbench/README.md)."""
    log = out.with_suffix(".log")
    result = mfsgd([SUBCOMMAND[workload], "--config", cfg, "--seed", seed,
                    "--out", out, "--quiet"], log)
    allowed = (0, 4) if workload == "verify-d2" else (0,)
    ops.run(f"{out.name}:exit", expect_rc, result, allowed, log)
    ops.run(f"{out.name}:manifest", checks.check_manifest, out)
    return result


def output_checks(workload: str, out: Path, rc: int, ops: Operations):
    cfg = inputs.CONFIGS[workload]
    if workload == "meanfield-ref":
        ops.run("euler-interval", checks.check_euler_interval, out, cfg)
        ops.run("weak-residual", checks.check_weak_residual, out)
    elif workload == "verify-d2":
        ops.run("verify-report", checks.check_verify_report, out, rc)
        ops.run("weak-residual", checks.check_weak_residual, out)
        ops.run("lln-slopes", checks.check_lln, out, cfg)
        ops.run("moment-bound", checks.check_moment_bound, out, cfg)
        ops.run("martingale-ratios", checks.check_martingale, out, cfg)
        ops.run("chaos", checks.check_chaos, out, cfg)
        ops.run("limit-gaps", checks.check_limit_gaps, out, cfg)
    else:
        ops.run("histogram-counts", checks.check_histograms, out, cfg)
        ops.run("hist-w1", checks.check_hist_w1, out, cfg)


def measure(workload: str, seed: int, seconds: float, ops: Operations) -> dict:
    work = WORK / workload
    setup_times = []
    for _ in range(SETUP_REPEATS[workload]):
        start = time.perf_counter()
        cfg = set_up(workload, work / "inputs", seed, ops)
        setup_times.append(time.perf_counter() - start)
    if workload in WARM_UP:
        run_command(workload, cfg, seed, work / "round0", ops)
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or (
            time.perf_counter() - start + rounds[-1]["wall_s"] <= seconds):
        out = work / f"round{len(rounds) + 1}"
        rounds.append(run_command(workload, cfg, seed, out, ops))
        if out.name != "round1":
            ops.run(f"{out.name}:same-bytes", checks.check_same_manifest,
                    work / "round1", out)
    output_checks(workload, work / "round1", rounds[0]["rc"], ops)
    print(f"{workload}: {len(rounds)} rounds, wall "
          + ", ".join(f"{r['wall_s']:.3f}" for r in rounds) + " s", flush=True)
    metrics = {key: statistics.median(r[key] for r in rounds)
               for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setup_times)
    return metrics


def run_tracer(mode: str, workload: str, cfg: Path, seed: int, out: Path,
               ops: Operations, *extra: str) -> tuple[dict, dict]:
    """One trace.py child; returns its timing and its JSON report."""
    shutil.rmtree(out, ignore_errors=True)
    report, log = out.with_suffix(".json"), out.with_suffix(".log")
    run = run_child([sys.executable, str(BENCH / "trace.py"), mode,
                     "--workload", workload, "--config", str(cfg),
                     "--seed", str(seed), "--out", str(out),
                     "--report", str(report), *extra], log)
    ops.run(f"{mode}:exit", expect_rc, run, (0,), log)
    return run, json.loads(report.read_text())


def traced(workload: str, seed: int, ops: Operations) -> dict:
    work = WORK / workload
    cfg = set_up(workload, work / "inputs", seed, ops)
    plain = work / "untraced"
    base = run_command(workload, cfg, seed, plain, ops)
    run, report = run_tracer("pipeline", workload, cfg, seed, work / "traced", ops)
    ops.run("traced:same-bytes", checks.check_same_artifacts, plain, work / "traced")
    metrics = report["metrics"]
    metrics["trace_overhead_s"] = [run["wall_s"] - base["wall_s"], "s"]
    if workload == "verify-d2":
        # the set-up's meanfield run, traced in a process of its own: run
        # first in the verify flow's process, it left a heap that halved
        # martingale_decay's page faults and time.  It gives the layers only
        # the set-up reaches.
        _, setup = run_tracer("pipeline", "meanfield-ref",
                              work / "inputs" / "run.cfg", seed,
                              work / "traced-setup", ops)
        ops.run("traced-setup:same-bytes", checks.check_same_artifacts,
                work / "inputs" / "mf", work / "traced-setup")
        metrics = {**setup["metrics"], **metrics}
    _, probed = run_tracer("probes", workload, cfg, seed, work / "probes", ops,
                           "--untraced", str(plain))
    for name, message in probed["failures"]:
        ops.run(name, checks.require, False, message)
    ops.attempted += probed["passed"]
    ops.run("per-layer-metrics", check_layer_metrics, metrics, probed["metrics"])
    metrics.update(probed["metrics"])
    return metrics


def check_layer_metrics(pipeline: dict, probed: dict):
    """The pipeline and the probes measure each per-layer metric of
    BENCHMARK.json once between them."""
    both = sorted(set(pipeline) & set(probed))
    checks.require(not both, f"measured twice: {both}")
    names = {m["name"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    got = set(pipeline) | set(probed)
    checks.require(got == names, f"missing {sorted(names - got)}, "
                   f"unlisted {sorted(got - names)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "meanfield_sgd" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    ops = Operations()
    if args.trace:
        metrics = traced(args.workload, args.seed, ops)
        units = {name: unit for name, (_, unit) in metrics.items()}
        values = {name: value for name, (value, _) in metrics.items()}
    else:
        values = measure(args.workload, args.seed, args.seconds, ops)
        units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"blas_threads={BLAS_THREADS}", flush=True)
    for name in sorted(values):
        print(f"  {name:36s} {values[name]:14.6g} {units[name]}")
    print(f"  operations attempted {ops.attempted}, failed {len(ops.failures)}")
    print(json.dumps({
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(values)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
