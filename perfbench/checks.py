"""Output checks made apart from the program.

Each check reads the artifacts an ``mfsgd`` run wrote and either recomputes a
number with the benchmark's own formula or tests a property the method
guarantees; it raises :class:`CheckFailed` when the output disagrees.  No
check compares against stored copies of earlier output, and none imports the
package under test.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np
from scipy.stats import wasserstein_distance

# float32 kernel against a float64 re-integration: the kernel rounds every
# (M x K) product and K-term sum to float32 (eps 6e-8, sums over 4096 nodes),
# so a few steps drift by ~1e-6; 2e-5 leaves a 10x margin and still rejects
# any change of the update formula.
EULER_ATOL = 2e-5
WEAK_RESIDUAL_LIMIT = 0.05
WEAK_RESIDUAL_LABELS = ["psi(c)", "psi(c^1*w1^1)", "bump(s=1.5)"]
# SGD runs in float64; the benchmark's update formula differs from the
# program's only in summation order
SGD_RTOL = 1e-12
VERIFY_CHECKS = 10
# verify verdicts that must pass on every seed at the verify-d2 sizes; the
# lln-slope, limit-gap and chaos verdicts fail on some seeds (see
# perfbench/README.md) and are recomputed instead, next to properties of the
# method with margins wide enough to hold on every seed
REQUIRED_PASS = ("moment-bound", "martingale-ratio", "weak-residual")
# log(std) on log(N): -1/2 by the law of large numbers; the window is about
# five standard errors of a 20-replica fit on either side
LLN_SLOPE_RANGE = (-0.85, -0.15)


class CheckFailed(Exception):
    """An artifact disagrees with the benchmark's recomputation."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of one of the program's CSV artifacts."""
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    require(len(lines) >= 1, f"{path.name}: empty")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def read_array(path: Path) -> np.ndarray:
    _, rows = read_table(path)
    return np.array([[float(v) for v in row] for row in rows])


def read_manifest(out: Path) -> dict:
    entries = {}
    for line in (out / "manifest.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        entries[key] = value
    return entries


# ---------------------------------------------------------------------------
# every workload


def check_manifest(out: Path):
    """Every file in the run directory is listed with its own SHA-256."""
    listed = {k.split(":", 1)[1]: v for k, v in read_manifest(out).items()
              if k.startswith("sha256:")}
    present = {str(p.relative_to(out)) for p in out.rglob("*")
               if p.is_file() and p.name != "manifest.txt"}
    require(set(listed) == present,
            f"manifest lists {sorted(listed)}, directory has {sorted(present)}")
    for name, want in listed.items():
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        require(got == want, f"{name}: sha256 {got[:12]} != manifest {want[:12]}")


def check_same_manifest(first: Path, again: Path):
    """Re-running one (config, seed) reproduces every artifact byte for byte."""
    a = (first / "manifest.txt").read_bytes()
    b = (again / "manifest.txt").read_bytes()
    require(a == b, f"{again.name}: manifest differs from {first.name}")


# ---------------------------------------------------------------------------
# meanfield-ref


def euler_reintegrate(c: np.ndarray, w: np.ndarray, x: np.ndarray,
                      y: np.ndarray, alpha: float, dt: float, steps: int,
                      block: int = 2000):
    """Explicit Euler for the self-consistent tanh limit dynamics, float64:

        Q(x_k)  = mean_i c_i tanh(w_i . x_k)
        dc_i/dt = alpha mean_k (y_k - Q(x_k)) tanh(w_i . x_k)
        dw_i/dt = alpha c_i mean_k (y_k - Q(x_k)) (1 - tanh^2(w_i . x_k)) x_k
    """
    c, w = c.copy(), w.copy()
    m, k = c.shape[0], y.shape[0]
    for _ in range(steps):
        blocks = [np.tanh(w[i:i + block] @ x.T) for i in range(0, m, block)]
        q = sum(c[i * block:(i + 1) * block] @ v for i, v in enumerate(blocks)) / m
        r = alpha * (y - q)
        dc = np.empty(m)
        dw = np.empty_like(w)
        for i, v in enumerate(blocks):
            sl = slice(i * block, (i + 1) * block)
            dc[sl] = v @ r / k
            dw[sl] = c[sl, None] * (((1.0 - v * v) * r) @ x) / k
        c += dt * dc
        w += dt * dw
    return c, w


def euler_plan(cfg: dict) -> tuple[float, list[int]]:
    """Effective step and snapshot steps, as the CLI documents them: dt is
    coerced to T / round(T / dt), snapshots are uniform in [0, T]."""
    T, dt = float(cfg["t_horizon"]), float(cfg["dt"])
    n_steps = max(1, round(T / dt))
    dt_eff = T / n_steps
    times = np.linspace(0.0, T, int(cfg["mf_snapshots"]))
    return dt_eff, sorted({round(t / dt_eff) for t in times})


def check_euler_interval(out: Path, cfg: dict):
    """Re-integrate the first snapshot interval from solution_000.csv and
    quadrature.csv; solution_001.csv must agree to float32 accuracy."""
    dt_eff, snap_steps = euler_plan(cfg)
    s0, s1 = read_array(out / "solution_000.csv"), read_array(out / "solution_001.csv")
    quad = read_array(out / "quadrature.csv")
    require(s0.shape == (int(cfg["m"]), 3) and quad.shape == (int(cfg["quad_nodes"]), 3),
            f"solution {s0.shape} / quadrature {quad.shape} disagree with the config")
    c, w = euler_reintegrate(s0[:, 0], s0[:, 1:], quad[:, :-1], quad[:, -1],
                             float(cfg.get("alpha", 1.0)), dt_eff,
                             snap_steps[1] - snap_steps[0])
    err = max(float(np.max(np.abs(c - s1[:, 0]))),
              float(np.max(np.abs(w - s1[:, 1:]))))
    require(err <= EULER_ATOL,
            f"solution_001 differs from float64 Euler by {err:.3g} > {EULER_ATOL:g}")


def check_weak_residual(out: Path):
    """Each relative residual is residual / normalizer and within the
    acceptance suite's 5%.

    psi(c) is held to 5% of the largest other normalizer instead of its own:
    its drift is zero by the symmetry of the initial law up to Monte Carlo
    noise, so its normalizer is noise (4.6e-5 on one seed in ten) and the
    ratio reached 0.17 with a residual of 8e-6.
    """
    header, rows = read_table(out / "weak_residual.csv")
    require(header == ["f", "residual", "normalizer", "relative"] and
            [r[0] for r in rows] == WEAK_RESIDUAL_LABELS,
            f"weak_residual.csv: {header}, {[r[0] for r in rows]}")
    values = {label: tuple(float(v) for v in rest) for label, *rest in rows}
    for label, (resid, norm, rel) in values.items():
        require(resid >= 0 and norm > 0 and math.isclose(rel, resid / norm,
                                                          rel_tol=1e-12),
                f"{label}: relative {rel} is not {resid}/{norm}")
        if label == "psi(c)":
            scale = max(n for lb, (_, n, _) in values.items() if lb != label)
            require(resid <= WEAK_RESIDUAL_LIMIT * scale,
                    f"psi(c): residual {resid:.3g} > {WEAK_RESIDUAL_LIMIT} x "
                    f"largest other normalizer {scale:.3g}")
        else:
            require(rel <= WEAK_RESIDUAL_LIMIT,
                    f"{label}: relative weak residual {rel:.4f} > {WEAK_RESIDUAL_LIMIT}")


# ---------------------------------------------------------------------------
# verify-d2


def int_list(text) -> list[int]:
    return [int(tok) for tok in str(text).split(",") if tok.strip()]


def read_report(out: Path) -> dict:
    """report.txt lines as name -> (passed, detail), in file order."""
    report = {}
    for line in (out / "report.txt").read_text().splitlines():
        verdict, _, rest = line.partition(" ")
        name, _, detail = rest.partition(": ")
        require(verdict in ("PASS", "FAIL"), f"report line {line!r}")
        report[name] = (verdict == "PASS", detail)
    return report


def check_verify_report(out: Path, rc: int):
    """All ten checks are reported, the exit code follows them (0 when all
    pass, 4 otherwise) and so does the manifest status, the checks in
    REQUIRED_PASS pass, and the weak-residual verdict is the 5% rule applied
    to weak_residual.csv."""
    report = read_report(out)
    require(len(report) == VERIFY_CHECKS,
            f"report has {len(report)} checks, expected {VERIFY_CHECKS}")
    for name in REQUIRED_PASS:
        require(report[name][0], f"{name} failed: {report[name][1]}")
    all_pass = all(p for p, _ in report.values())
    require(rc == (0 if all_pass else 4),
            f"exit code {rc} with {'all' if all_pass else 'not all'} checks passing")
    status = read_manifest(out).get("status")
    require(status == ("ok" if all_pass else "failed"), f"manifest status {status}")
    _, rows = read_table(out / "weak_residual.csv")
    worst = max(float(r[3]) for r in rows)
    passed, detail = report["weak-residual"]
    require(passed == (worst <= WEAK_RESIDUAL_LIMIT) and
            detail == f"max relative {worst:.4f}",
            f"weak-residual verdict {passed} ({detail}) for max relative {worst}")


def check_moment_bound(out: Path, cfg: dict):
    """Spread (max / min of the replica-mean run-max moment over N) and the
    growth test (monotone rise by more than 3 joint SE), against the
    report."""
    data = read_array(out / "moment_bound.csv")
    require(list(data[:, 0].astype(int)) == int_list(cfg["n_grid"]),
            f"moment_bound N {data[:, 0]}")
    guard, se = data[:, 1], data[:, 2]
    spread = float(np.max(guard) / np.min(guard))
    increasing = bool(np.all(np.diff(guard) > 0) and
                      guard[-1] - guard[0] > 3.0 * math.hypot(se[0], se[-1]))
    passed, detail = read_report(out)["moment-bound"]
    want = f"spread={spread:.3f} increasing={increasing}"
    require(detail == want, f"moment-bound detail {detail!r} != {want!r}")
    require(passed == (spread <= 1.5 and not increasing),
            f"moment-bound verdict {passed} for {want}")


def lls_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope, from the normal equations."""
    xc = x - x.mean()
    return float(np.sum(xc * (y - y.mean())) / np.sum(xc * xc))


def slug(label: str) -> str:
    """File-name form of a test-function label, as documented for the
    lln_<label>.csv artifacts."""
    safe = "".join(ch if ch.isalnum() or ch == "." else "-" for ch in label)
    return "-".join(piece for piece in safe.split("-") if piece)


def check_lln(out: Path, cfg: dict):
    """Slope of log(std) on log(N) in each lln_*.csv, the slope the report
    prints, and its verdict."""
    report = read_report(out)
    names = [n for n in report if n.startswith("lln-slope[")]
    require(len(names) == 3 and len(list(out.glob("lln_*.csv"))) == 3,
            f"lln checks {names}")
    for name in names:
        path = out / f"lln_{slug(name[len('lln-slope['):-1])}.csv"
        data = read_array(path)
        require(list(data[:, 0].astype(int)) == int_list(cfg["n_grid"]),
                f"{path.name}: N column {data[:, 0]}")
        slope = lls_slope(np.log(data[:, 0]), np.log(data[:, 2]))
        require(np.allclose(data[:, 3], slope, rtol=1e-9, atol=0),
                f"{path.name}: slope {data[0, 3]} != least squares {slope}")
        passed, detail = report[name]
        require(detail == f"slope={slope:.3f}",
                f"{name}: detail {detail!r}, recomputed slope {slope:.3f}")
        require(passed == (-0.65 <= slope <= -0.35),
                f"{name}: verdict {passed} for slope {slope}")
        lo, hi = LLN_SLOPE_RANGE
        require(lo <= slope <= hi,
                f"{name}: slope {slope:.3f} outside [{lo}, {hi}]")


def check_martingale(out: Path, cfg: dict):
    """QV ratios between the two martingale sizes, and their verdict."""
    grid = int_list(cfg["mart_n_grid"])
    data = read_array(out / "martingale.csv")
    require(list(data[:, 0].astype(int)) == grid, f"martingale N {data[:, 0]}")
    passed, detail = read_report(out)["martingale-ratio"]
    if detail.startswith("degenerate"):
        require(np.max(data[:, 1:3]) <= 1e-28, "degenerate verdict on live data")
        return
    r1, r2 = data[0, 1] / data[-1, 1], data[0, 2] / data[-1, 2]
    scale = grid[-1] / grid[0]
    lo, hi = 2.5 * scale / 4.0, 6.0 * scale / 4.0
    want = f"M1 {r1:.2f}, M2 {r2:.2f}, window [{lo:.2f},{hi:.2f}]"
    require(detail == want, f"martingale-ratio detail {detail!r} != {want!r}")
    require(passed == (lo <= r1 <= hi and lo <= r2 <= hi),
            f"martingale-ratio verdict {passed} for {want}")


def check_chaos(out: Path, cfg: dict):
    """|cov| strictly decreasing in N and the top-N CI covering 0, against
    the report's verdict.  No property of the numbers themselves is checked:
    at these sizes the estimate is noise-dominated (its sign at N=100
    differs between seeds)."""
    data = read_array(out / "chaos.csv")
    require(list(data[:, 0].astype(int)) == int_list(cfg["n_grid"]),
            f"chaos N {data[:, 0]}")
    require(np.all(data[:, 2] <= data[:, 3]), "chaos CI with lo > hi")
    decreasing = all(b < a for a, b in zip(np.abs(data[:-1, 1]), np.abs(data[1:, 1])))
    covers = data[-1, 2] <= 0.0 <= data[-1, 3]
    passed, _ = read_report(out)["chaos"]
    require(passed == (decreasing and covers),
            f"chaos verdict {passed}, recomputed decreasing={decreasing} covers={covers}")


def check_limit_gaps(out: Path, cfg: dict):
    """Gap non-increasing in N and the top-N gap within floor + 3 SE, per
    test function, against the report's verdicts; and, on every seed, the
    gap at the largest N below the gap at the smallest."""
    header, rows = read_table(out / "limit_distance.csv")
    require(header == ["n", "t", "w1", "f", "gap", "noise_floor", "gap_se"],
            f"limit_distance.csv header {header}")
    grid = int_list(cfg["n_grid"])
    report = read_report(out)
    labels = sorted({row[3] for row in rows})
    require(len(labels) == 3, f"limit_distance labels {labels}")
    for label in labels:
        mine = [r for r in rows if r[3] == label]
        require([int(r[0]) for r in mine] == grid, f"{label}: N column")
        gaps = [float(r[4]) for r in mine]
        mono = all(b - a <= 1e-12 for a, b in zip(gaps, gaps[1:]))
        floor, se = float(mine[-1][5]), float(mine[-1][6])
        passed, _ = report[f"limit-gap[{label}]"]
        require(passed == (mono and gaps[-1] <= floor + 3.0 * se),
                f"limit-gap[{label}] verdict {passed} for gaps {gaps}")
        require(gaps[-1] < gaps[0], f"{label}: gap does not shrink: {gaps}")


# ---------------------------------------------------------------------------
# mnist-wide


def read_histogram(path: Path) -> tuple[np.ndarray, np.ndarray]:
    header, rows = read_table(path)
    require(header == ["edge_lo", "edge_hi", "count"], f"{path.name}: {header}")
    lo = np.array([float(r[0]) for r in rows])
    hi = np.array([float(r[1]) for r in rows])
    counts = np.array([int(r[2]) for r in rows])
    require(np.all(hi > lo) and np.all(lo[1:] == hi[:-1]),
            f"{path.name}: edges are not contiguous and increasing")
    return 0.5 * (lo + hi), counts


def check_histograms(out: Path, cfg: dict):
    """Counts are non-negative and add up to N in every hist_c_n<N>.csv."""
    for n in int_list(cfg["mnist_n_grid"]):
        _, counts = read_histogram(out / f"hist_c_n{n}.csv")
        require(len(counts) == int(cfg["bins"]), f"n={n}: {len(counts)} bins")
        require(np.all(counts >= 0) and counts.sum() == n,
                f"n={n}: counts sum to {counts.sum()}")


def check_hist_w1(out: Path, cfg: dict):
    """Every hist_w1.csv value against scipy's 1-D W1 of the histograms
    (atoms at bin midpoints weighted by count), an integral of the CDF gap
    computed without the program's code."""
    header, rows = read_table(out / "hist_w1.csv")
    grid = int_list(cfg["mnist_n_grid"])
    require(header == ["n_small", "n_large", "w1"] and
            [(int(a), int(b)) for a, b, _ in rows] == list(zip(grid, grid[1:])),
            f"hist_w1.csv rows {rows}")
    for a, b, value in rows:
        ma, ca = read_histogram(out / f"hist_c_n{a}.csv")
        mb, cb = read_histogram(out / f"hist_c_n{b}.csv")
        want = wasserstein_distance(ma, mb, ca, cb)
        require(math.isclose(float(value), want, rel_tol=1e-9, abs_tol=1e-15),
                f"W1({a},{b}) = {value}, recomputed {want}")


def sgd_step_reference(c: np.ndarray, w: np.ndarray, x: np.ndarray, y: float,
                       alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """One simultaneous 1/N-scaled tanh SGD step, written out per particle:
    g = mean_i c_i tanh(w_i.x); c_i += a/N (y-g) tanh(w_i.x);
    w_i += a/N (y-g) c_i (1 - tanh^2(w_i.x)) x."""
    n = c.shape[0]
    s = np.tanh(np.einsum("ij,j->i", w, x))
    g = math.fsum(c * s) / n
    coef = alpha / n * (y - g)
    return c + coef * s, w + np.outer(coef * c * (1.0 - s * s), x)


def check_sgd_steps(c0, w0, xs, ys, alpha, c1, w1):
    """The program's state after len(xs) steps against the reference,
    relative to the largest parameter."""
    c, w = c0, w0
    for x, y in zip(xs, ys):
        c, w = sgd_step_reference(c, w, x, float(y), alpha)
    err = max(float(np.max(np.abs(c1 - c))) / float(np.max(np.abs(c))),
              float(np.max(np.abs(w1 - w))) / float(np.max(np.abs(w))))
    require(err <= SGD_RTOL,
            f"sgd_step differs from the float64 reference by {err:.3g} relative")


def check_same_artifacts(reference: Path, other: Path):
    """Every file ``other`` holds is byte-identical to the same file in
    ``reference``."""
    files = [p for p in other.rglob("*") if p.is_file()]
    require(files, f"{other.name} is empty")
    for path in files:
        name = path.relative_to(other)
        require((reference / name).is_file() and
                (reference / name).read_bytes() == path.read_bytes(),
                f"{name} differs from {reference.name}/{name}")
