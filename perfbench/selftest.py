"""Self-test of the output checks: each must pass on real ``mfsgd`` output
and reject a copy with one deliberate perturbation.

    python3 perfbench/selftest.py

Runs tiny configs of the three subcommands (about 5 s) under
perfbench/results/selftest and exits 1 if any check misses its perturbation.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import inputs  # noqa: E402
from run import SRC, WORK, child_env  # noqa: E402

TINY = {
    "meanfield": {"m": 300, "quad_nodes": 256, "dt": 0.05, "t_horizon": 0.5,
                  "mf_snapshots": 3},
    "verify": {"m": 1000, "quad_nodes": 512, "dt": 0.005, "t_horizon": 0.25,
               "mf_snapshots": 6, "n_grid": "100,200,400", "replicas": 20,
               "mart_n_grid": "16,64", "mart_replicas": 4, "chaos_replicas": 50},
    "mnist": {"digit_pair": "3,5", "mnist_n_grid": "20,40,80",
              "t_horizon": 0.1, "bins": 10},
}


def mfsgd(sub: str, cfg: dict, out: Path, seed: int = 3) -> int:
    cfg_path = out.with_suffix(".cfg")
    cfg_path.write_text("".join(f"{k}={v}\n" for k, v in cfg.items()))
    return subprocess.run([sys.executable, "-m", "meanfield_sgd.cli", sub,
                           "--config", str(cfg_path), "--seed", str(seed),
                           "--out", str(out), "--quiet"],
                          env=child_env(), cwd=SRC.parent).returncode


def edit_line(path: Path, index: int, change):
    """Replace data row ``index`` (after comments and header) of a CSV."""
    lines = path.read_text().splitlines()
    data = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")][1:]
    lines[data[index]] = change(lines[data[index]])
    path.write_text("\n".join(lines) + "\n")


def set_field(row: str, col: int, value) -> str:
    parts = row.split(",")
    parts[col] = repr(value) if isinstance(value, float) else str(value)
    return ",".join(parts)


def scale_field(col: int, factor: float):
    return lambda row: set_field(row, col, float(row.split(",")[col]) * factor)


def residual_6pct(row: str) -> str:
    norm = float(row.split(",")[2])
    return set_field(set_field(row, 1, 0.06 * norm), 3, 0.06 * norm / norm)


def psi_c_above_bound(out: Path):
    """psi(c)'s residual at 6% of the largest other normalizer, with its
    relative column kept consistent."""
    path = out / "weak_residual.csv"
    _, rows = checks.read_table(path)
    scale = max(float(r[2]) for r in rows if r[0] != "psi(c)")
    resid = 0.06 * scale
    edit_line(path, 0, lambda r: set_field(
        set_field(r, 1, resid), 3, resid / float(r.split(",")[2])))


def flip_verdict(out: Path, name: str):
    path = out / "report.txt"
    lines = path.read_text().splitlines()
    for i, ln in enumerate(lines):
        verdict, _, rest = ln.partition(" ")
        if rest.startswith(name + ":"):
            lines[i] = ("FAIL " if verdict == "PASS" else "PASS ") + rest
    path.write_text("\n".join(lines) + "\n")


class SelfTest:
    def __init__(self, base: Path):
        self.base = base
        self.missed: list[str] = []
        self.count = 0

    def case(self, name: str, source: Path, perturb, check, *args):
        """``check(out, *args)`` passes on ``source`` and fails on a copy
        perturbed by ``perturb(copy)``."""
        self.count += 1
        try:
            check(source, *args)
        except checks.CheckFailed as exc:
            self.missed.append(f"{name}: fails on genuine output: {exc}")
            return
        copy = self.base / f"perturbed-{self.count}"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(source, copy)
        perturb(copy)
        try:
            check(copy, *args)
        except checks.CheckFailed:
            print(f"ok   {name}")
            return
        self.missed.append(f"{name}: accepted the perturbed output")


def main() -> int:
    base = WORK / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    t = SelfTest(base)

    mf = base / "mf"
    assert mfsgd("meanfield", TINY["meanfield"], mf) == 0
    t.case("euler-interval: one path shifted by 1e-3", mf,
           lambda d: edit_line(d / "solution_001.csv", 7,
                               lambda r: set_field(r, 0, float(r.split(",")[0]) + 1e-3)),
           checks.check_euler_interval, TINY["meanfield"])
    t.case("euler-interval: slice 1 replaced by slice 2", mf,
           lambda d: shutil.copy(d / "solution_002.csv", d / "solution_001.csv"),
           checks.check_euler_interval, TINY["meanfield"])
    t.case("weak-residual: relative column not residual/normalizer", mf,
           lambda d: edit_line(d / "weak_residual.csv", 1, scale_field(3, 0.5)),
           checks.check_weak_residual)
    t.case("weak-residual: residual above 5%", mf,
           lambda d: edit_line(d / "weak_residual.csv", 2, residual_6pct),
           checks.check_weak_residual)
    t.case("weak-residual: psi(c) residual above 5% of the other normalizers", mf,
           psi_c_above_bound, checks.check_weak_residual)
    t.case("manifest: one byte of an artifact changed", mf,
           lambda d: edit_line(d / "quadrature.csv", 0, lambda r: r[:-1] + (
               "1" if r[-1] != "1" else "2")),
           checks.check_manifest)
    t.case("manifest: an artifact left unlisted", mf,
           lambda d: (d / "extra.csv").write_text("x\n"), checks.check_manifest)
    other = base / "mf-seed4"
    assert mfsgd("meanfield", TINY["meanfield"], other, seed=4) == 0
    t.case("same-bytes: a run with another seed", mf,
           lambda d: shutil.copy(other / "manifest.txt", d / "manifest.txt"),
           lambda d: checks.check_same_manifest(mf, d))

    ver = base / "ver"
    cfg = dict(TINY["verify"])
    rc = mfsgd("verify", cfg, ver)
    # the perturbation here is the exit code handed to the check: 0 <-> 4
    t.case("verify-report: exit code disagrees with the verdicts", ver,
           lambda d: None,
           lambda d: checks.check_verify_report(d, rc if d == ver else 4 - rc))
    t.case("verify-report: one check missing", ver,
           lambda d: (d / "report.txt").write_text(
               "\n".join((d / "report.txt").read_text().splitlines()[:-1]) + "\n"),
           checks.check_verify_report, rc)
    t.case("verify-report: weak-residual verdict flipped", ver,
           lambda d: flip_verdict(d, "weak-residual"), checks.check_verify_report, rc)
    lln = sorted(ver.glob("lln_*.csv"))[0]
    t.case("lln-slopes: smallest-N std changed by 10%", ver,
           lambda d: edit_line(d / lln.name, 0, scale_field(2, 1.1)),
           checks.check_lln, cfg)
    lln_check = next(n for n in checks.read_report(ver) if n.startswith("lln-slope["))
    t.case("lln-slopes: one verdict flipped", ver,
           lambda d: flip_verdict(d, lln_check), checks.check_lln, cfg)
    t.case("verify-report: a required check reported as failed", ver,
           lambda d: flip_verdict(d, "martingale-ratio"),
           lambda d: checks.check_verify_report(d, rc if d == ver else 4))
    t.case("moment-bound: largest-N moment raised by half", ver,
           lambda d: edit_line(d / "moment_bound.csv", 2, scale_field(1, 1.5)),
           checks.check_moment_bound, cfg)
    t.case("moment-bound: verdict flipped", ver,
           lambda d: flip_verdict(d, "moment-bound"), checks.check_moment_bound, cfg)
    t.case("martingale-ratios: one second moment doubled", ver,
           lambda d: edit_line(d / "martingale.csv", 0, scale_field(1, 2.0)),
           checks.check_martingale, cfg)
    t.case("chaos: verdict flipped", ver,
           lambda d: flip_verdict(d, "chaos"), checks.check_chaos, cfg)
    t.case("limit-gaps: verdict flipped", ver,
           lambda d: flip_verdict(d, "limit-gap[psi(c)]"),
           checks.check_limit_gaps, cfg)

    hist = base / "hist"
    images, labels = inputs.write_idx_corpus(base, 3)
    cfg = dict(TINY["mnist"], images=images.resolve(), labels=labels.resolve())
    assert mfsgd("mnist-hist", cfg, hist) == 0
    t.case("histogram-counts: one count changed", hist,
           lambda d: edit_line(d / "hist_c_n40.csv", 3,
                               lambda r: set_field(r, 2, int(r.split(",")[2]) + 1)),
           checks.check_histograms, cfg)
    t.case("hist-w1: one distance changed in the 9th digit", hist,
           lambda d: edit_line(d / "hist_w1.csv", 1, scale_field(2, 1 + 1e-8)),
           checks.check_hist_w1, cfg)

    rng = np.random.default_rng(0)
    c0, w0 = rng.uniform(-1, 1, 50), rng.standard_normal((50, 784))
    xs, ys = rng.uniform(0, 1, (2, 784)), np.array([1.0, -1.0])
    c1, w1 = c0, w0
    for x, y in zip(xs, ys):
        c1, w1 = checks.sgd_step_reference(c1, w1, x, y, 1.0)
    t.count += 1
    checks.check_sgd_steps(c0, w0, xs, ys, 1.0, c1, w1)
    try:
        checks.check_sgd_steps(c0, w0, xs, ys, 1.0, c1, w1 * (1 + 1e-10))
        t.missed.append("sgd-step-reference: accepted a 1e-10 relative change")
    except checks.CheckFailed:
        print("ok   sgd-step-reference: 1e-10 relative change in w")

    for line in t.missed:
        print("MISSED", line)
    print(f"{t.count - len(t.missed)} of {t.count} checks rejected their perturbation")
    return 1 if t.missed else 0


if __name__ == "__main__":
    sys.exit(main())
