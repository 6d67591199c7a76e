"""Traced runs: per-layer numbers for one workload.

``pipeline`` repeats the workload's ``mfsgd`` command as a flow of calls from
this file into the package's public functions, in the same order and with the
same arguments, and records a span (name, parent, start, end, work counts and,
where asked, the tracemalloc peak) around each call.  It writes the same
artifacts, so run.py can check that the traced flow did the command's work.
The meanfield-ref pipeline is the flow of ``mfsgd meanfield`` on any teacher
config; run.py also runs it on verify-d2's set-up config.

``probes`` fills in the metrics the pipeline does not give: single calls on
the workload's own shapes (activation blocks, one SGD step, one data chunk,
distances), and small jobs for the layers the workload's command never
reaches (see PROBES and perfbench/README.md).  It also checks the first SGD
steps against the benchmark's float64 formula.

Both write a JSON report: ``{"metrics": {name: [value, unit]}, ...}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import inputs  # noqa: E402

from meanfield_sgd import (Ensemble, InitLaw, QuadratureSpec,  # noqa: E402
                           RandomStreams, TrainSchedule, activation, chaos_test,
                           default_test_functions, freeze_quadrature,
                           histogram, histogram_w1, limit_distance,
                           lln_decay, load_mnist_idx, martingale_decay,
                           moment_bound, moment_guard, run_study, sample_data,
                           sample_init, sgd_step, solve_selfconsistent,
                           teacher_network, train, wasserstein, weak_residual)
from meanfield_sgd import cli  # noqa: E402
from meanfield_sgd.measure import fmt_float, write_histogram_csv  # noqa: E402

MB = 1024.0 * 1024.0
# the small jobs for layers a workload's command does not run: SGD at the
# middle verify-d2 size, and diagnostics on grids and replica counts cut to
# a fraction of a second
SMALL_SGD_N = 400
SMALL_STUDY = {"n_grid": (16, 32, 64), "R": 2, "chaos_R": 50,
               "mart_grid": (16, 64), "mart_R": 1, "T": 0.25}
SGD_CHECK_STEPS = 3


class Tracer:
    """Spans kept in memory and written out when the run ends."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str, peak: bool = False, **counts):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        if peak:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            row = {"name": name, "parent": parent,
                   "start": start - self.origin, "end": end - self.origin,
                   **counts}
            if peak:
                row["peak_mb"] = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()
            self._stack.pop()
            self.spans.append(row)

    def rows(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.rows(name))

    def total(self, name: str, key: str) -> float:
        return sum(s[key] for s in self.rows(name))

    def peak(self, name: str) -> float:
        return max(s["peak_mb"] for s in self.rows(name))


def median_seconds(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def write_csv(path: Path, header: str, rows, chash: str):
    path.write_text("\n".join([f"# config_hash={chash}", header, *rows]) + "\n")


def dir_mb(out: Path) -> float:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) / MB


def teacher_setup(cfg: dict):
    act = activation(cfg["activation"])
    model = teacher_network(d=cfg["d"], act=act, noise_scale=cfg["noise_scale"])
    lo, hi = [float(v) for v in cfg["init_c"].split(",")]
    init = InitLaw(d=model.d, c_params=(lo, hi), w_scale=cfg["init_w_scale"])
    return model, init, act


def mnist_setup(cfg: dict):
    digits = tuple(int(v) for v in cfg["digit_pair"].split(","))
    model = load_mnist_idx(cfg["images"], cfg["labels"], digits)
    init = InitLaw(d=model.d, w_scale=cfg["init_w_scale"])
    return model, init, activation(cfg["activation"])


def residual_rows(tr: Tracer, sol, fs) -> list[str]:
    rows = []
    for f in fs:
        with tr.span("meanfield.weak_residual", peak=True,
                     slices=int(sol.times.shape[0])):
            resid, norm = weak_residual(sol, f)
        rel = resid / norm if norm > 0 else 0.0
        rows.append(f"{f.label},{fmt_float(resid)},{fmt_float(norm)},{fmt_float(rel)}")
    return rows


def residual_metrics(tr: Tracer) -> dict:
    calls = tr.total("meanfield.weak_residual", "slices")
    return {
        "meanfield.weak_residual_ms":
            [1e3 * tr.seconds("meanfield.weak_residual") / calls, "ms"],
        "meanfield.weak_residual_peak_mb": [tr.peak("meanfield.weak_residual"), "MB"],
    }


def solve_metrics(tr: Tracer) -> dict:
    (row,) = tr.rows("meanfield.solve_selfconsistent")
    secs = row["end"] - row["start"]
    return {
        "meanfield.euler_step_ms": [1e3 * secs / row["steps"], "ms"],
        "meanfield.path_node_steps_per_s":
            [row["paths"] * row["nodes"] * row["steps"] / secs, "1/s"],
        "meanfield.solve_peak_mb": [row["peak_mb"], "MB"],
    }


def solve(tr: Tracer, cfg: dict, model, init, act, streams):
    """The self-consistent solve exactly as ``mfsgd meanfield`` makes it."""
    quad = freeze_quadrature(QuadratureSpec(cfg["quad_mode"], cfg["quad_nodes"]),
                             model, streams.stream(purpose="quadrature"))
    steps = max(1, int(round(cfg["t_horizon"] / cfg["dt"])))
    with tr.span("meanfield.solve_selfconsistent", peak=True,
                 paths=cfg["m"], nodes=quad.n, steps=steps):
        return solve_selfconsistent(
            init, model, cfg["m"], cfg["dt"], cfg["t_horizon"], quad=quad,
            rng=streams.stream(purpose="paths"), alpha=cfg["alpha"], act=act,
            snapshot_times=np.linspace(0.0, cfg["t_horizon"], cfg["mf_snapshots"]))


# ---------------------------------------------------------------------------
# pipelines: the command flows of cli.cmd_meanfield, cmd_verify, cmd_mnist_hist


def pipeline_meanfield(tr: Tracer, cfg: dict, seed: int, out: Path) -> dict:
    streams = RandomStreams(seed)
    model, init, act = teacher_setup(cfg)
    chash = cli.config_hash(cfg)
    out.mkdir(parents=True, exist_ok=True)
    sol = solve(tr, cfg, model, init, act, streams)
    with tr.span("cli.save_solution"):
        cli.save_solution(sol, out, chash)
    rows = residual_rows(tr, sol, default_test_functions(model.d))
    write_csv(out / "weak_residual.csv", "f,residual,normalizer,relative", rows, chash)
    with tr.span("cli.write_manifest"):
        cli.write_manifest(out, chash, seed, {"status": "ok"})
    return {**solve_metrics(tr), **residual_metrics(tr),
            "cli.save_solution_s": [tr.seconds("cli.save_solution"), "s"]}


def pipeline_verify(tr: Tracer, cfg: dict, seed: int, out: Path) -> dict:
    streams = RandomStreams(seed)
    model, init, act = teacher_setup(cfg)
    chash = cli.config_hash(cfg)
    out.mkdir(parents=True, exist_ok=True)
    alpha, T = cfg["alpha"], cfg["t_horizon"]
    n_grid = checks.int_list(cfg["n_grid"])
    mart_grid = checks.int_list(cfg["mart_n_grid"])
    fs = default_test_functions(model.d)
    schedule = TrainSchedule(T)
    study_steps = cfg["replicas"] * sum(schedule.n_steps(n) for n in n_grid)
    with tr.span("diagnostics.run_study", steps=study_steps):
        study = run_study(model, init, act, alpha, T, n_grid, cfg["replicas"],
                          streams, workers=cfg["workers"])
    for f in fs:
        header, rows = lln_decay(study, f).to_csv_rows()
        write_csv(out / f"lln_{checks.slug(f.label)}.csv", header, rows, chash)
    header, rows = moment_bound(study).to_csv_rows()
    write_csv(out / "moment_bound.csv", header, rows, chash)
    mart_steps = cfg["mart_replicas"] * sum(schedule.n_steps(n) for n in mart_grid)
    with tr.span("diagnostics.martingale_decay", steps=mart_steps):
        mart = martingale_decay(model, init, fs[1], mart_grid, T,
                                cfg["mart_replicas"], streams, alpha=alpha, act=act)
    header, rows = mart.to_csv_rows()
    write_csv(out / "martingale.csv", header, rows, chash)
    mf_dir = Path(cfg["meanfield_dir"])
    with tr.span("cli.check_manifest"):
        cli.check_manifest(mf_dir)
    with tr.span("cli.load_solution"):
        sol = cli.load_solution(mf_dir)
    rows = residual_rows(tr, sol, fs)
    write_csv(out / "weak_residual.csv", "f,residual,normalizer,relative", rows, chash)
    with tr.span("diagnostics.limit_distance"):
        lim = limit_distance(study, sol, fs)
    header, rows = lim.to_csv_rows()
    write_csv(out / "limit_distance.csv", header, rows, chash)
    with tr.span("diagnostics.chaos_test"):
        chaos = chaos_test(model, init, fs[0], fs[1], n_grid, T,
                           cfg["chaos_replicas"], streams, alpha=alpha, act=act)
    header, rows = chaos.to_csv_rows()
    write_csv(out / "chaos.csv", header, rows, chash)
    with tr.span("cli.write_manifest"):
        cli.write_manifest(out, chash, seed, {"status": "traced"})
    return {
        **residual_metrics(tr), **diagnostics_metrics(tr),
        "sgd.train_steps_per_s":
            [study_steps / tr.seconds("diagnostics.run_study"), "1/s"],
        "cli.check_manifest_ms": [1e3 * tr.seconds("cli.check_manifest"), "ms"],
        "cli.load_solution_s": [tr.seconds("cli.load_solution"), "s"],
    }


def diagnostics_metrics(tr: Tracer) -> dict:
    return {
        "diagnostics.run_study_s": [tr.seconds("diagnostics.run_study"), "s"],
        "diagnostics.martingale_step_ms":
            [1e3 * tr.seconds("diagnostics.martingale_decay")
             / tr.total("diagnostics.martingale_decay", "steps"), "ms"],
        "diagnostics.limit_distance_s": [tr.seconds("diagnostics.limit_distance"), "s"],
        "diagnostics.chaos_test_s": [tr.seconds("diagnostics.chaos_test"), "s"],
    }


def pipeline_mnist(tr: Tracer, cfg: dict, seed: int, out: Path) -> dict:
    streams = RandomStreams(seed)
    with tr.span("data.load_mnist_idx"):
        model, init, act = mnist_setup(cfg)
    chash = cli.config_hash(cfg)
    out.mkdir(parents=True, exist_ok=True)
    hists = []
    for n in checks.int_list(cfg["mnist_n_grid"]):
        ens = Ensemble.from_init(init, act, cfg["alpha"],
                                 streams.stream(0, purpose="init"), n)
        schedule = TrainSchedule(cfg["t_horizon"])
        with tr.span("sgd.train", steps=schedule.n_steps(n)):
            result = train(ens, model, schedule, streams.stream(0, purpose="data"))
        with tr.span("measure.histogram"):
            h = histogram(result.snapshots[-1][1], "c", cfg["bins"])
        write_histogram_csv(h, out / f"hist_c_n{n}.csv", chash)
        hists.append((n, h))
    rows = [f"{a},{b},{fmt_float(histogram_w1(ha, hb))}"
            for (a, ha), (b, hb) in zip(hists, hists[1:])]
    write_csv(out / "hist_w1.csv", "n_small,n_large,w1", rows, chash)
    with tr.span("cli.write_manifest"):
        cli.write_manifest(out, chash, seed, {"status": "ok"})
    return {
        "data.load_mnist_idx_ms": [1e3 * tr.seconds("data.load_mnist_idx"), "ms"],
        "sgd.train_steps_per_s":
            [tr.total("sgd.train", "steps") / tr.seconds("sgd.train"), "1/s"],
        "measure.histogram_ms":
            [1e3 * tr.seconds("measure.histogram") / len(hists), "ms"],
    }


PIPELINES = {"meanfield-ref": pipeline_meanfield, "verify-d2": pipeline_verify,
             "mnist-wide": pipeline_mnist}


def run_pipeline(args) -> dict:
    tr = Tracer()
    cfg = cli.parse_config(args.config)
    out = Path(args.out)
    metrics = PIPELINES[args.workload](tr, cfg, args.seed, out)
    metrics["cli.write_manifest_ms"] = [1e3 * tr.seconds("cli.write_manifest"), "ms"]
    metrics["cli.artifact_mb"] = [dir_mb(out), "MB"]
    if args.workload == "verify-d2":
        # report.txt and the manifest's status carry the verdicts, which
        # this flow does not repeat
        (out / "manifest.txt").unlink()
    return {"metrics": metrics, "spans": tr.spans}


# ---------------------------------------------------------------------------
# probes
#
# Each probe gives a disjoint set of metrics; PROBES names, per workload, the
# probes that fill in what its pipeline does not measure.  Workload-shape
# probes time single calls on the workload's own model and sizes.  The
# small-job probes (small_solve, small_diagnostics, small_train, idx_corpus,
# and sgd_shape and distances_d2 where the workload has no such call) cover
# layers the workload's command never reaches, on the d=2 teacher at the
# verify-d2 set-up solve or at small grids and replica counts, so that every
# workload reports every metric.


@dataclass
class ProbeContext:
    workload: str
    cfg: dict
    seed: int
    work: Path
    untraced: Path
    streams: RandomStreams
    result: dict = field(default_factory=lambda: {"passed": 0, "failures": []})

    def record(self, name: str, check, *args):
        try:
            check(*args)
            self.result["passed"] += 1
        except checks.CheckFailed as exc:
            self.result["failures"].append([name, str(exc)])

    def setup(self):
        """Data model, initial law and activation of the workload, or of the
        d=2 teacher for the small jobs on mnist-wide."""
        if self.workload == "mnist-wide":
            return mnist_setup(self.cfg)
        return teacher_setup(self.cfg)


def small_job_config() -> dict:
    cfg = cli.parse_config(None)
    cfg.update(inputs.CONFIGS["verify-d2"])
    return cfg


def activation_block(ctx: ProbeContext) -> dict:
    """One activation block of the workload's hot loop: the (M x K) float32
    pre-activations of the mean-field kernel, or the N-vector of one SGD
    step at d=784."""
    model, init, act = ctx.setup()
    streams = ctx.streams
    if ctx.workload == "mnist-wide":
        top_n = checks.int_list(ctx.cfg["mnist_n_grid"])[-1]
        cloud = sample_init(init, streams.stream(0, purpose="init"), top_n)
        z = cloud.w @ sample_data(model, streams.stream(0, purpose="data"), 1).x[0]
        reps = 200
    else:
        cfg = ctx.cfg
        quad = freeze_quadrature(QuadratureSpec(cfg["quad_mode"], cfg["quad_nodes"]),
                                 model, streams.stream(purpose="quadrature"))
        cloud = sample_init(init, streams.stream(purpose="paths"), cfg["m"])
        z = cloud.w.astype(np.float32) @ np.ascontiguousarray(quad.x.T, dtype=np.float32)
        reps = 5
    v = act.value(z)
    return {
        "core.act_value_ms": [1e3 * median_seconds(lambda: act.value(z), reps), "ms"],
        "core.act_deriv_ms": [1e3 * median_seconds(lambda: act.deriv(z), reps), "ms"],
        "core.act_deriv_from_value_ms":
            [1e3 * median_seconds(lambda: act.deriv_from_value(v), reps), "ms"],
    }


def sample_chunk(ctx: ProbeContext) -> dict:
    model, _, _ = ctx.setup()
    rng = ctx.streams.stream(9, purpose="probe")
    return {"data.sample_data_ms": [1e3 * median_seconds(
        lambda: sample_data(model, rng, 4096), 5), "ms"]}


def histogram_cloud(ctx: ProbeContext) -> dict:
    """The histogram of an M-atom cloud, as the teacher workloads would
    histogram their solutions."""
    _, init, _ = ctx.setup()
    cloud = sample_init(init, ctx.streams.stream(3, purpose="probe"), ctx.cfg["m"])
    return {"measure.histogram_ms":
            [1e3 * median_seconds(lambda: histogram(cloud, "c", 30), 20), "ms"]}


def saved_solution(ctx: ProbeContext) -> dict:
    """Checksum and load of the untraced command's own run directory."""
    start = time.perf_counter()
    cli.check_manifest(ctx.untraced)
    checked = time.perf_counter() - start
    start = time.perf_counter()
    cli.load_solution(ctx.untraced)
    return {"cli.check_manifest_ms": [1e3 * checked, "ms"],
            "cli.load_solution_s": [time.perf_counter() - start, "s"]}


def sgd_shape(ctx: ProbeContext) -> dict:
    """Per-call time of sgd_step and moment_guard: N=10^4, d=784 on
    mnist-wide, N=400 on the d=2 teacher elsewhere.  The first steps are
    checked against the benchmark's float64 formula."""
    model, init, act = ctx.setup()
    streams = ctx.streams
    wide = ctx.workload == "mnist-wide"
    n = checks.int_list(ctx.cfg["mnist_n_grid"])[-1] if wide else SMALL_SGD_N
    ens = Ensemble.from_init(init, act, ctx.cfg["alpha"],
                             streams.stream(0, purpose="init"), n)
    batch = sample_data(model, streams.stream(0, purpose="data"), 4096)
    steps = 4 if wide else 500
    c0, w0 = ens.c.copy(), ens.w.copy()
    xs, ys = batch.x[:SGD_CHECK_STEPS], batch.y[:SGD_CHECK_STEPS]
    for x, y in zip(xs, ys):
        sgd_step(ens, x, float(y))
    ctx.record("sgd-step-reference", checks.check_sgd_steps,
               c0, w0, xs, ys, ens.alpha, ens.c, ens.w)
    per_call = []
    k = SGD_CHECK_STEPS
    for _ in range(5):
        start = time.perf_counter()
        for i in range(k, k + steps):
            sgd_step(ens, batch.x[i], float(batch.y[i]))
        per_call.append((time.perf_counter() - start) / steps)
        k += steps
    tracemalloc.start()
    sgd_step(ens, batch.x[k], float(batch.y[k]))
    peak = tracemalloc.get_traced_memory()[1] / MB
    tracemalloc.stop()
    return {
        "sgd.sgd_step_us": [1e6 * statistics.median(per_call), "us"],
        "sgd.sgd_step_peak_mb": [peak, "MB"],
        "sgd.moment_guard_us":
            [1e6 * median_seconds(lambda: moment_guard(ens), 20), "us"],
    }


def distances_d2(ctx: ProbeContext) -> dict:
    """wasserstein in both modes on two clouds of the d=2 initial law, at
    the sizes verify-d2's limit_distance uses (exact at N=100, sliced at
    N=1600).  d=784 clouds are not used: the sliced estimator's debias
    factor overflows for d >= 342."""
    _, init, _ = teacher_setup(small_job_config())
    out = {}
    for name, n in (("measure.wasserstein_exact_ms", 100),
                    ("measure.wasserstein_sliced_ms", 1600)):
        a = sample_init(init, ctx.streams.stream(1, purpose="probe"), n)
        b = sample_init(init, ctx.streams.stream(2, purpose="probe"), n)
        out[name] = [1e3 * median_seconds(lambda: wasserstein(a, b, p=1), 3), "ms"]
    return out


def idx_corpus(ctx: ProbeContext) -> dict:
    """Loading the benchmark's 675-image IDX corpus."""
    images, labels = inputs.write_idx_corpus(ctx.work, ctx.seed)
    return {"data.load_mnist_idx_ms": [1e3 * median_seconds(
        lambda: load_mnist_idx(images, labels, inputs.IDX_DIGITS), 3), "ms"]}


def small_train(ctx: ProbeContext) -> dict:
    """train on the d=2 teacher at N=400 over T=0.25."""
    model, init, act = teacher_setup(small_job_config())
    schedule = TrainSchedule(SMALL_STUDY["T"])
    ens = Ensemble.from_init(init, act, 1.0, ctx.streams.stream(0, purpose="init"),
                             SMALL_SGD_N)
    start = time.perf_counter()
    train(ens, model, schedule, ctx.streams.stream(0, purpose="data"))
    secs = time.perf_counter() - start
    return {"sgd.train_steps_per_s": [schedule.n_steps(SMALL_SGD_N) / secs, "1/s"]}


def small_solve(ctx: ProbeContext) -> dict:
    """The verify-d2 set-up solve with its weak residuals, save, checksum
    and load."""
    cfg = small_job_config()
    model, init, act = teacher_setup(cfg)
    tr = Tracer()
    sol = solve(tr, cfg, model, init, act, RandomStreams(ctx.seed))
    residual_rows(tr, sol, default_test_functions(model.d))
    sol_dir = ctx.work / "small-solution"
    with tr.span("cli.save_solution"):
        cli.save_solution(sol, sol_dir, "small")
    cli.write_manifest(sol_dir, "small", ctx.seed)
    with tr.span("cli.check_manifest"):
        cli.check_manifest(sol_dir)
    with tr.span("cli.load_solution"):
        cli.load_solution(sol_dir)
    return {**solve_metrics(tr), **residual_metrics(tr),
            "cli.save_solution_s": [tr.seconds("cli.save_solution"), "s"],
            "cli.check_manifest_ms": [1e3 * tr.seconds("cli.check_manifest"), "ms"],
            "cli.load_solution_s": [tr.seconds("cli.load_solution"), "s"]}


def small_diagnostics(ctx: ProbeContext) -> dict:
    """run_study, martingale_decay, limit_distance and chaos_test on the d=2
    teacher with small grids and replica counts."""
    model, init, act = teacher_setup(small_job_config())
    streams, job = ctx.streams, SMALL_STUDY
    fs = default_test_functions(model.d)
    tr = Tracer()
    schedule = TrainSchedule(job["T"])
    limit = solve_selfconsistent(init, model, 400, 0.025, job["T"],
                                 quad=QuadratureSpec("monte-carlo", 256),
                                 rng=streams.stream(purpose="probe-limit"),
                                 act=act, snapshot_times=[0.0, job["T"]])
    with tr.span("diagnostics.run_study"):
        study = run_study(model, init, act, 1.0, job["T"], job["n_grid"],
                          job["R"], streams)
    mart_steps = job["mart_R"] * sum(schedule.n_steps(n) for n in job["mart_grid"])
    with tr.span("diagnostics.martingale_decay", steps=mart_steps):
        martingale_decay(model, init, fs[1], job["mart_grid"], job["T"],
                         job["mart_R"], streams, act=act)
    with tr.span("diagnostics.limit_distance"):
        limit_distance(study, limit, fs)
    with tr.span("diagnostics.chaos_test"):
        chaos_test(model, init, fs[0], fs[1], job["n_grid"], job["T"],
                   job["chaos_R"], streams, act=act)
    return diagnostics_metrics(tr)


PROBES = {
    "meanfield-ref": (activation_block, sample_chunk, histogram_cloud,
                      saved_solution, sgd_shape, small_train, small_diagnostics,
                      distances_d2, idx_corpus),
    "verify-d2": (activation_block, sample_chunk, histogram_cloud, sgd_shape,
                  distances_d2, idx_corpus),
    "mnist-wide": (activation_block, sample_chunk, sgd_shape, small_solve,
                   small_diagnostics, distances_d2),
}


def run_probes(args) -> dict:
    work = Path(args.out)
    work.mkdir(parents=True, exist_ok=True)
    ctx = ProbeContext(args.workload, cli.parse_config(args.config), args.seed,
                       work, Path(args.untraced), RandomStreams(args.seed))
    metrics = {}
    for probe in PROBES[args.workload]:
        measured = probe(ctx)
        overlap = set(metrics) & set(measured)
        if overlap:
            raise RuntimeError(f"{probe.__name__} measures {sorted(overlap)} again")
        metrics.update(measured)
    return {"metrics": metrics, **ctx.result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("pipeline", "probes"))
    parser.add_argument("--workload", required=True, choices=sorted(PIPELINES))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--untraced", default=None)
    args = parser.parse_args(argv)
    report = run_pipeline(args) if args.mode == "pipeline" else run_probes(args)
    Path(args.report).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
