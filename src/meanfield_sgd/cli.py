"""Reproducible experiment runner.

One flat key=value config file describes a whole experiment; each subcommand
reads the keys it needs.  A run is fully determined by (config file, seed):
artifacts embed the config hash, manifests carry per-file checksums and no
timestamps, so re-running a command into a fresh directory reproduces every
byte.  Every CSV goes through ``measure.write_csv`` and its rows through
``csv_row`` (a cloud's rows through ``_table_rows``, the same text), and the
manifest and ``solution_meta.txt`` through ``_write_keys``/``_read_keys``;
files are written and hashed a row or a block at a time.

Every run ends in ``main``: a ``cmd_*`` returns a status and its summary
lines, and ``main`` writes the manifest with that status, prints the summary
unless --quiet and exits with the status's code (``_EXIT_CODES``).  A run
that diverges after its output directory exists ends there too, with
``DIVERGED`` (step=k) and a status=diverged manifest; one that diverges
earlier, like one refused, leaves no directory.

An ``--out`` whose manifest names another config hash is refused before
any work; the same config may run into its own directory again, also on
another corpus whose images have the same size (``_LAYOUT``).

BLAS runs on one thread whatever OPENBLAS_NUM_THREADS says: the package
pins it as it is imported (``_blas``), so artifacts at every input width
are the same at every thread count, and the manifest records the count as
``blas_threads``.  Besides ``workers=``, ``meanfield.drift`` walks the
second half of its quadrature nodes on a worker thread from
``meanfield.THREADED_ROWS`` paths on; no output depends on it.

``images=`` and ``labels=`` enter the config hash by the bytes of the
files they name, so the hash follows the corpus, not where it lies.

Exit codes: 0 ok; 2 refused config, i/o error or out of memory; 3 diverged
or not converged; 4 failed verification.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import __version__, _blas
from .core import (ConfigError, DivergedError, RandomStreams,
                   RejectedInputError, activation, default_test_functions)
from .data import (IdxFormatError, InitLaw, load_mnist_idx,
                   noisy_polynomial, sample_init, teacher_network)
from .diagnostics import (CHAOS_MIN_REPLICAS, LLN_MIN_REPLICAS,
                          LLN_MIN_WIDTHS, chaos_table, limit_distance,
                          lln_decay, martingale_decay, moment_bound, run_study)
from .measure import (EmpiricalMeasure, csv_row, fmt_float, histogram,
                      histogram_w1, write_csv, write_histogram_csv)
from .meanfield import (MeanFieldSolution, Quadrature, QuadratureSpec,
                        freeze_quadrature, frozen_start, picard_iterate,
                        seed_resampled_floor, solve_selfconsistent,
                        weak_residuals)
from .sgd import TrainSchedule, run_default

# ---------------------------------------------------------------------------
# config handling

# key -> (parser, default); one shared schema so every command hashes the
# same file and artifact mixing is detectable
_SCHEMA = {
    "model": (str, "teacher"),
    "d": (int, 2),
    "activation": (str, "tanh"),
    "alpha": (float, 1.0),
    "t_horizon": (float, 0.5),
    "noise_scale": (float, 0.25),
    "init_c": (str, "-1,1"),
    "init_w_scale": (float, 1.0),
    "n": (int, 400),
    "snapshot_times": (str, ""),
    "bins": (int, 30),
    "n_grid": (str, "100,400,1600"),
    "replicas": (int, 30),
    "m": (int, 10000),
    "dt": (float, 0.0005),
    "quad_mode": (str, "monte-carlo"),
    "quad_nodes": (int, 4096),
    "mf_snapshots": (int, 51),
    "mode": (str, "selfconsistent"),
    "picard_tol": (float, 0.0),
    "picard_max_iters": (int, 25),
    "floor_runs": (int, 2),
    "chaos_replicas": (int, 50),
    "mart_n_grid": (str, "200,800"),
    "mart_replicas": (int, 20),
    "meanfield_dir": (str, ""),
    "workers": (int, 1),
    "images": (str, ""),
    "labels": (str, ""),
    "digit_pair": (str, "3,5"),
    "mnist_n_grid": (str, "100,1000,10000"),
}


def parse_config(path: str | None) -> dict:
    """Flat key=value lines; unknown keys and non-finite floats are hard
    errors."""
    raw: dict[str, str] = {}
    if path:
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key, value = key.strip(), value.strip()
            if key not in _SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            raw[key] = value
    cfg = {}
    for key, (parse, default) in _SCHEMA.items():
        if key in raw:
            try:
                cfg[key] = parse(raw[key])
                if parse is float and not np.isfinite(cfg[key]):
                    raise ValueError(f"{raw[key]!r} is not a finite number")
            except ValueError as exc:
                raise ConfigError(f"config key {key}: {exc}") from exc
        else:
            cfg[key] = default
    return cfg


# operational keys: they steer where work happens, never what comes out, so
# artifacts stay shareable across machines and worker counts.  meanfield_dir=
# is a cache: verify takes a limit from it only when that run has this config
# hash, this seed and status=ok, which is the limit it would solve itself
_UNHASHED = {"meanfield_dir", "workers"}
# input files: the hash names each by its bytes, so one corpus at two paths
# is one config and another corpus written over a path is another; and its
# layout by the IDX header bytes that give one item's size (an image's rows
# and columns, which set d and so the names of the files a run writes; a
# label has none)
_CORPUS = {"images": slice(8, 16), "labels": slice(8, 8)}
#: the hex digits of a config hash that name its layout: the hashed keys
#: with each corpus file named by its item size, which fix the names of the
#: files a run writes
_LAYOUT = slice(8, 16)


def _digest(entries: dict) -> str:
    text = "\n".join(f"{k}={entries[k]}" for k in sorted(entries))
    return hashlib.sha256(text.encode()).hexdigest()


def _corpus_names(path: str, size: slice) -> tuple[str, str]:
    """A corpus file's two names in the config hash: sha256:<hex> of its
    bytes, and item:<hex> of the header bytes ``size``.  A file that
    cannot be read is named by its path in both: a command that reads it
    refuses it, and one whose model does not read it runs."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(size.stop)
        return f"sha256:{_sha256(Path(path))}", f"item:{head[size].hex()}"
    except OSError:
        return path, path


def config_hash(cfg: dict) -> str:
    """16 hex digits that name a config.  The first 8 are those of the
    SHA-256 of its hashed key=value lines in key order, with each non-empty
    ``_CORPUS`` value named by its file's bytes; the ``_LAYOUT`` digits
    those of the same lines with each named by its item size.  Without a
    corpus the two texts are one, and the hash is the first 16 digits of
    its SHA-256."""
    canon = {k: cfg[k] for k in cfg if k not in _UNHASHED}
    names = {key: _corpus_names(canon[key], size)
             for key, size in _CORPUS.items() if canon[key]}
    by_bytes = _digest({**canon, **{k: v[0] for k, v in names.items()}})
    by_layout = _digest({**canon, **{k: v[1] for k, v in names.items()}})
    return by_bytes[:_LAYOUT.start] + by_layout[_LAYOUT]


def _list(entries: dict, key: str, parse) -> list:
    """The comma-separated values of ``entries[key]``, each read by
    ``parse``; a malformed one is a ConfigError naming the key."""
    try:
        return [parse(tok) for tok in entries[key].split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"{key}={entries[key]!r}: {exc}") from exc


def _increasing(cfg: dict, key: str) -> list[int]:
    """Two or more widths, strictly increasing: verify's verdicts assume it."""
    grid = _list(cfg, key, int)
    if len(grid) < 2 or any(a >= b for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{key}={cfg[key]!r}: need 2+ strictly increasing N")
    return grid


def _at_least(command: str, *checks):
    """Refuse the first (key, value, least) whose value is below least."""
    for key, have, least in checks:
        if have < least:
            raise ConfigError(f"{key}={have}: {command} needs at least {least}")


def _histogram_fits(command: str, bins: int):
    """Refuse a bins= whose histogram cannot be held: bins + 1 float64 edges
    and bins int64 counts beyond this machine's physical memory.  The
    histogram comes after training, so the refusal must come before it."""
    need = 8 * (2 * bins + 1)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(f"bins={bins}: {command} would need {need:.3g} bytes "
                          f"of histogram edges and counts, more than this "
                          f"machine's {have:.3g}")


def _slug(label: str) -> str:
    safe = "".join(ch if ch.isalnum() or ch == "." else "-" for ch in label)
    return "-".join(piece for piece in safe.split("-") if piece)


def _load_mnist(cfg: dict):
    """The digit-pair stream named by the images=, labels= and digit_pair=
    keys."""
    if not cfg["images"] or not cfg["labels"]:
        raise ConfigError("mnist data needs images= and labels= paths in the "
                          "config")
    digits = _list(cfg, "digit_pair", int)
    if len(digits) != 2:
        raise ConfigError("digit_pair must hold two digits")
    return load_mnist_idx(cfg["images"], cfg["labels"], tuple(digits))


def _init_law(cfg: dict, d: int) -> InitLaw:
    """The initial law named by the init_c= and init_w_scale= keys."""
    c_params = tuple(_list(cfg, "init_c", float))
    if len(c_params) != 2:
        raise ConfigError(f"init_c={cfg['init_c']!r} needs two numbers, lo,hi")
    return InitLaw(d=d, c_params=c_params, w_scale=cfg["init_w_scale"])


def _build_model(cfg: dict):
    act = activation(cfg["activation"])
    kind = cfg["model"]
    if kind == "teacher":
        model = teacher_network(d=cfg["d"], act=act,
                                noise_scale=cfg["noise_scale"])
    elif kind == "polynomial":
        d = cfg["d"]
        model = noisy_polynomial(d, lin=(1.0,) * d,
                                 noise_scale=cfg["noise_scale"])
    elif kind == "mnist":
        model = _load_mnist(cfg)
    else:
        raise ConfigError(f"unknown model {kind!r}")
    return model, _init_law(cfg, model.d), act


# ---------------------------------------------------------------------------
# artifacts


def _sha256(path: Path) -> str:
    """The file's SHA-256, read in 1 MiB blocks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_keys(path: Path, entries: dict):
    """The one key=value file format: a line per key, in sorted order."""
    with open(path, "w") as fh:
        for key in sorted(entries):
            fh.write(f"{key}={entries[key]}\n")


def _read_keys(path: Path) -> dict:
    """The entries of a file ``_write_keys`` wrote; a line without ``=`` is
    skipped."""
    with open(path) as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh
                    if "=" in line)


def write_manifest(out: Path, cfg_hash: str, seed: int, extra: dict | None = None):
    threads = _blas.threads()
    lines = {
        "config_hash": cfg_hash,
        "seed": str(seed),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "blas_threads": "unknown" if threads is None else str(threads),
        "python_version": ".".join(str(v) for v in sys.version_info[:3]),
    }
    lines.update(extra or {})
    for file in sorted(out.rglob("*")):
        if file.is_file() and file.name != "manifest.txt":
            lines[f"sha256:{file.relative_to(out)}"] = _sha256(file)
    _write_keys(out / "manifest.txt", lines)


def read_manifest(out: Path) -> dict:
    path = out / "manifest.txt"
    if not path.exists():
        raise ConfigError(f"{out}: missing manifest.txt")
    return _read_keys(path)


def _refuse_other_config(out: Path, cfg_hash: str):
    """Refuse an ``out`` whose manifest names another config: its files,
    stale ones too, would be hashed into this run's manifest.  The same
    config writes the same file names, so it may run there again, at any
    seed and on any corpus of the same item size: only the ``_LAYOUT``
    digits of the two hashes must match."""
    path = out / "manifest.txt"
    if path.is_file():
        have = _read_keys(path).get("config_hash") or ""
        if have[_LAYOUT] != cfg_hash[_LAYOUT]:
            raise ConfigError(f"{out} holds the artifacts of config_hash="
                              f"{have}, this run has {cfg_hash}; choose "
                              f"another --out")


def check_manifest(out: Path):
    """Verify every checksum recorded in a run directory's manifest."""
    entries = read_manifest(out)
    for key, want in entries.items():
        if not key.startswith("sha256:"):
            continue
        file = out / key.split(":", 1)[1]
        if not file.exists():
            raise ConfigError(f"{out}: artifact {file.name} is missing")
        got = _sha256(file)
        if got != want:
            raise ConfigError(
                f"{out}: checksum mismatch for {file.name}: "
                f"manifest {want[:12]}.., file {got[:12]}..")
    return entries


def _write_weak_residuals(path: Path, sol: MeanFieldSolution, fs,
                          cfg_hash: str):
    """One row per test function of ``fs``: the weak-form residual of
    ``sol``, its normalizer and their ratio."""
    rows = [csv_row(f.label, resid, norm, resid / norm if norm > 0 else 0.0)
            for f, (resid, norm) in zip(fs, weak_residuals(sol, fs))]
    write_csv(path, "f,residual,normalizer,relative", rows, cfg_hash)


def _table_rows(columns):
    """One CSV row per row of the stacked ``columns``, each value written as
    ``fmt_float`` writes it (``tolist`` gives the same Python floats, and
    ``repr`` of a Python float is ``fmt_float``).  Rows are made one at a
    time as the writer asks, so no row outlives its write."""
    for row in np.column_stack(columns):
        yield ",".join(map(repr, row.tolist()))


def write_cloud_csv(path: Path, cloud: EmpiricalMeasure, cfg_hash: str):
    header = "c," + ",".join(f"w_{j + 1}" for j in range(cloud.d))
    write_csv(path, header, _table_rows((cloud.c, cloud.w)), cfg_hash)


def _read_table(path: Path, usecols=None) -> np.ndarray:
    """The (rows, columns) floats of a CSV that ``write_csv`` wrote, or of
    its ``usecols`` (None or one column index): its comment line and header
    are skipped, and every value parses as float() parses it.  A row that
    does not read is a ConfigError naming the file and its line."""
    try:
        return np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2,
                          usecols=usecols)
    except ValueError:
        # numpy counts data rows, not file lines, and advises on its own
        # arguments: find the first line loadtxt refused by reading it again
        pass
    with open(path) as fh:  # the lines loadtxt reads as rows
        rows = [(n, line.split(",")) for n, line in enumerate(fh, 1)
                if n > 2 and line.strip() and not line.lstrip().startswith("#")]
    for lineno, cells in rows:
        if usecols is None and len(cells) != len(rows[0][1]):
            raise ConfigError(f"{path}:{lineno}: expected {len(rows[0][1])} "
                              f"columns, found {len(cells)}")
        for cell in cells if usecols is None else [cells[usecols]]:
            try:
                float(cell)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {cell.strip()!r} is not "
                                  f"a number") from None
    raise ConfigError(f"{path}: not a table of numbers")


def read_cloud_csv(path: Path) -> EmpiricalMeasure:
    data = _read_table(path)
    return EmpiricalMeasure(data[:, 0], data[:, 1:])


def save_solution(sol: MeanFieldSolution, out: Path, cfg_hash: str):
    out.mkdir(parents=True, exist_ok=True)
    for i in range(sol.times.shape[0]):
        write_cloud_csv(out / f"solution_{i:03d}.csv", sol.slice(i), cfg_hash)
    quad_header = ",".join(f"x_{j + 1}" for j in range(sol.quad.x.shape[1])) + ",y"
    write_csv(out / "quadrature.csv", quad_header,
              _table_rows((sol.quad.x, sol.quad.y)), cfg_hash)
    _write_keys(out / "solution_meta.txt", {
        "times": ",".join(fmt_float(t) for t in sol.times),
        "dt": fmt_float(sol.dt),
        "m_paths": str(sol.n_paths),
        "alpha": fmt_float(sol.alpha),
        "activation": sol.act.kind,
        "quad_mode": sol.quad.spec.mode,
        "quad_nodes": str(sol.quad.spec.n_nodes),
        "max_rate": fmt_float(sol.max_rate),
    })


def load_solution(out: Path) -> MeanFieldSolution:
    """The solution ``save_solution`` wrote to ``out``.  A missing key, a
    number that does not parse or a slice shaped unlike the first is a
    ConfigError naming the file."""
    meta_path = out / "solution_meta.txt"
    if not meta_path.exists():
        raise ConfigError(
            f"{out}: no mean-field solution found; run `mfsgd meanfield "
            f"--config <same config> --out {out}` first")
    meta = _read_keys(meta_path)
    try:
        times = np.array([float(t) for t in meta["times"].split(",")])
        spec = QuadratureSpec(meta["quad_mode"], int(meta["quad_nodes"]))
        act = activation(meta["activation"])
        alpha, dt, max_rate = (float(meta[k]) for k in ("alpha", "dt", "max_rate"))
    except KeyError as exc:
        raise ConfigError(f"{meta_path}: missing key {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{meta_path}: {exc}") from exc
    slices = []
    for i in range(times.shape[0]):
        path = out / f"solution_{i:03d}.csv"
        slices.append(read_cloud_csv(path))
        if slices[i].w.shape != slices[0].w.shape:
            raise ConfigError(f"{path}: {slices[i].n} atoms in d={slices[i].d}, "
                              f"slice 0 has {slices[0].n} in d={slices[0].d}")
    qdata = _read_table(out / "quadrature.csv")
    return MeanFieldSolution(
        times, np.stack([s.c for s in slices]), np.stack([s.w for s in slices]),
        Quadrature(qdata[:, :-1], qdata[:, -1], spec), act, alpha, dt, max_rate)


# ---------------------------------------------------------------------------
# subcommands: each takes (cfg, streams, config hash, out) from ``main`` and
# returns (status, summary lines); ``main`` ends every run


class LimitStatusError(Exception):
    """The mean-field limit ``verify`` would check against has a status
    other than ok: exit 3 before any training or output."""


def cmd_train(cfg: dict, streams: RandomStreams, chash: str,
              out: Path) -> tuple[str, list[str]]:
    model, init, act = _build_model(cfg)
    _at_least("train", ("n", cfg["n"], 1), ("bins", cfg["bins"], 2))
    _histogram_fits("train", cfg["bins"])
    times = tuple(_list(cfg, "snapshot_times", float)) or (cfg["t_horizon"],)
    schedule = TrainSchedule(cfg["t_horizon"], (0.0,) + times)
    schedule.n_steps(cfg["n"])  # refuses a horizon too long to count
    out.mkdir(parents=True, exist_ok=True)
    result = run_default(model, init, act, cfg["alpha"], cfg["n"], schedule,
                         streams, record_moments=True)
    for i, (t, cloud) in enumerate(result.snapshots):
        write_cloud_csv(out / f"snapshot_{i:03d}.csv", cloud, chash)
        write_histogram_csv(histogram(cloud, "c", cfg["bins"]),
                            out / f"hist_c_{i:03d}.csv", chash)
    write_csv(out / "moment_trace.csv", "step,moment_guard",
              (csv_row(k, v) for k, v in enumerate(result.moment_trace)), chash)
    return "ok", [f"train: {len(result.snapshots)} snapshots, "
                  f"max moment {result.max_moment:.4f} -> {out}"]


def _solve_limit(cfg: dict, model, init, act, streams: RandomStreams):
    """The mean-field limit that (config, seed) names, for ``meanfield`` to
    write and ``verify`` to check against.  Returns (solution, Picard
    distances or None, status)."""
    _at_least("the mean-field limit", ("mf_snapshots", cfg["mf_snapshots"], 2))
    quad = freeze_quadrature(QuadratureSpec(cfg["quad_mode"], cfg["quad_nodes"]),
                             model, streams.stream(purpose="quadrature"))
    t_grid = np.linspace(0.0, cfg["t_horizon"], cfg["mf_snapshots"])
    if cfg["mode"] == "selfconsistent":
        return solve_selfconsistent(
            init, model, cfg["m"], cfg["dt"], cfg["t_horizon"], quad=quad,
            rng=streams.stream(purpose="paths"), alpha=cfg["alpha"], act=act,
            snapshot_times=t_grid), None, "ok"
    if cfg["mode"] != "picard":
        raise ConfigError(f"unknown meanfield mode {cfg['mode']!r}")
    if cfg["picard_max_iters"] < 1 or cfg["picard_tol"] < 0:
        raise ConfigError("mode=picard needs picard_max_iters >= 1 and "
                          "picard_tol >= 0 (0 stops at the noise floor)")
    cloud0 = sample_init(init, streams.stream(purpose="paths"), cfg["m"])
    # picard_tol=0: stop once the a-posteriori distance to the fixed point
    # is below the solver's own Monte Carlo noise
    tol, floor = cfg["picard_tol"], None
    if tol <= 0:
        tol, floor = None, seed_resampled_floor(
            init, model, cfg["m"], cfg["dt"], cfg["t_horizon"], quad, streams,
            n_runs=cfg["floor_runs"], alpha=cfg["alpha"], act=act,
            snapshot_times=t_grid)
    m0 = frozen_start(cloud0, cfg["t_horizon"], cfg["dt"], quad, act,
                      cfg["alpha"], snapshot_times=t_grid)
    res = picard_iterate(m0, tol=tol, floor=floor,
                         max_iters=cfg["picard_max_iters"])
    return (res.solution, res.distances,
            "ok" if res.converged else "picard-not-converged")


def cmd_meanfield(cfg: dict, streams: RandomStreams, chash: str,
                  out: Path) -> tuple[str, list[str]]:
    model, init, act = _build_model(cfg)
    sol, distances, status = _solve_limit(cfg, model, init, act, streams)
    out.mkdir(parents=True, exist_ok=True)
    if distances is not None:
        write_csv(out / "picard_distances.csv", "iteration,distance",
                  (csv_row(i, d) for i, d in enumerate(distances)), chash)
    save_solution(sol, out, chash)
    _write_weak_residuals(out / "weak_residual.csv", sol,
                          default_test_functions(model.d), chash)
    return status, [f"meanfield[{cfg['mode']}]: {sol.times.shape[0]} slices "
                    f"-> {out} ({status})"]


def _check(checks: list, name: str, passed: bool, detail: str):
    checks.append((name, bool(passed), detail))


def cmd_verify(cfg: dict, streams: RandomStreams, chash: str,
               out: Path) -> tuple[str, list[str]]:
    model, init, act = _build_model(cfg)
    n_grid, mart_grid = _increasing(cfg, "n_grid"), _increasing(cfg, "mart_n_grid")
    _at_least("verify", ("replicas", cfg["replicas"], LLN_MIN_REPLICAS),
              ("chaos_replicas", cfg["chaos_replicas"], CHAOS_MIN_REPLICAS),
              ("mart_replicas", cfg["mart_replicas"], 1),
              ("n_grid widths", len(n_grid), LLN_MIN_WIDTHS),
              ("smallest n_grid width", n_grid[0], 2),
              ("smallest mart_n_grid width", mart_grid[0], 1))
    TrainSchedule(cfg["t_horizon"]).n_steps(max(n_grid[-1], mart_grid[-1]))
    # the limit comes first, so a refused one costs no training
    mf_dir = Path(cfg["meanfield_dir"]) if cfg["meanfield_dir"] else None
    if mf_dir is not None:
        entries = check_manifest(mf_dir)
        for key, want in (("config_hash", chash), ("seed", str(streams.seed))):
            if entries.get(key) != want:
                raise ConfigError(f"{mf_dir}: artifacts were produced with "
                                  f"{key}={entries.get(key)}, this run has {want}")
        sol, status = load_solution(mf_dir), entries.get("status")
        # a malformed table is refused here, before any training
        _read_table(mf_dir / "weak_residual.csv", -1)
    else:
        sol, _, status = _solve_limit(cfg, model, init, act, streams)
    if status != "ok":
        raise LimitStatusError(f"the mean-field limit has status={status}")
    out.mkdir(parents=True, exist_ok=True)
    alpha, T = cfg["alpha"], cfg["t_horizon"]
    fs = default_test_functions(model.d)
    checks: list = []

    study = run_study(model, init, act, alpha, T, n_grid, cfg["replicas"],
                      streams, workers=cfg["workers"])

    # variance decay of pairings
    for f in fs:
        table = lln_decay(study, f)
        write_csv(out / f"lln_{_slug(f.label)}.csv", *table.to_csv_rows(), chash)
        if table.slope is None:
            _check(checks, f"lln-slope[{f.label}]", True,
                   "degenerate: zero variance at some N")
        else:
            _check(checks, f"lln-slope[{f.label}]",
                   -0.65 <= table.slope <= -0.35, f"slope={table.slope:.3f}")

    # parameter-moment boundedness
    mb = moment_bound(study)
    write_csv(out / "moment_bound.csv", *mb.to_csv_rows(), chash)
    _check(checks, "moment-bound", mb.spread <= 1.5 and not mb.increasing,
           f"spread={mb.spread:.3f} increasing={mb.increasing}")

    # fluctuation decay; fs[1] depends on both c and w, so neither
    # fluctuation term is structurally zero
    mart = martingale_decay(model, init, fs[1], mart_grid, T,
                            cfg["mart_replicas"], streams, alpha=alpha, act=act)
    write_csv(out / "martingale.csv", *mart.to_csv_rows(), chash)
    if float(np.max(mart.m1_sq)) <= 1e-28 and float(np.max(mart.m2_sq)) <= 1e-28:
        _check(checks, "martingale-ratio", True, "degenerate: fluctuations are 0")
    else:
        r1 = mart.ratio(mart_grid[0], mart_grid[-1], which=1)
        r2 = mart.ratio(mart_grid[0], mart_grid[-1], which=2)
        scale = mart_grid[-1] / mart_grid[0]
        lo, hi = 2.5 * scale / 4.0, 6.0 * scale / 4.0
        _check(checks, "martingale-ratio",
               lo <= r1 <= hi and lo <= r2 <= hi,
               f"M1 {r1:.2f}, M2 {r2:.2f}, window [{lo:.2f},{hi:.2f}]")

    # meanfield wrote its table for the same test functions, so a copy holds
    # the rows this run would write, and repr round-trips every ratio
    if mf_dir is None:
        _write_weak_residuals(out / "weak_residual.csv", sol, fs, chash)
    else:
        shutil.copyfile(mf_dir / "weak_residual.csv", out / "weak_residual.csv")
    worst = float(np.max(_read_table(out / "weak_residual.csv", -1),
                         initial=0.0))
    _check(checks, "weak-residual", worst <= 0.05, f"max relative {worst:.4f}")

    lim = limit_distance(study, sol, fs)
    write_csv(out / "limit_distance.csv", *lim.to_csv_rows(), chash)
    for f in fs:
        series = lim.gap_series(f.label, T)
        mono = bool(np.all(np.diff(series) <= 1e-12))
        last = [r for r in lim.rows if r.n == n_grid[-1] and abs(r.t - T) <= 1e-9][0]
        gap, floor, se = last.gaps[f.label]
        _check(checks, f"limit-gap[{f.label}]",
               mono and gap <= floor + 3.0 * se,
               f"gaps={np.array2string(series, precision=4)} "
               f"floor={floor:.4f} se={se:.4f}")

    chaos = chaos_table(study, fs[0], fs[1], cfg["chaos_replicas"])
    write_csv(out / "chaos.csv", *chaos.to_csv_rows(), chash)
    dec = bool(np.all(np.diff(np.abs(chaos.cov)) < 0))
    covers = chaos.ci_lo[-1] <= 0.0 <= chaos.ci_hi[-1]
    cov_txt = ",".join(f"{v:.2e}" for v in np.abs(chaos.cov))
    _check(checks, "chaos", dec and covers,
           f"|cov|=[{cov_txt}] "
           f"top-N CI [{chaos.ci_lo[-1]:.2e},{chaos.ci_hi[-1]:.2e}]")

    report = [f"{'PASS' if passed else 'FAIL'} {name}: {detail}"
              for name, passed, detail in checks]
    (out / "report.txt").write_text("\n".join(report) + "\n")
    return "ok" if all(p for _, p, _ in checks) else "failed", report


def cmd_mnist_hist(cfg: dict, streams: RandomStreams, chash: str,
                   out: Path) -> tuple[str, list[str]]:
    model = _load_mnist(cfg)
    act = activation(cfg["activation"])
    init = _init_law(cfg, model.d)
    n_grid = _list(cfg, "mnist_n_grid", int)
    _at_least("mnist-hist", ("bins", cfg["bins"], 2),
              ("mnist_n_grid widths", len(n_grid), 1),
              ("smallest mnist_n_grid width", min(n_grid, default=1), 1))
    _histogram_fits("mnist-hist", cfg["bins"])
    schedule = TrainSchedule(cfg["t_horizon"])
    schedule.n_steps(max(n_grid))  # refuses a horizon too long to count
    out.mkdir(parents=True, exist_ok=True)
    hists = []
    for n in n_grid:  # each width's cloud is dropped before the next trains
        h = histogram(run_default(model, init, act, cfg["alpha"], n, schedule,
                                  streams).snapshots[-1][1], "c", cfg["bins"])
        write_histogram_csv(h, out / f"hist_c_n{n}.csv", chash)
        hists.append((n, h))
    rows = [csv_row(n_small, n_large, histogram_w1(h_small, h_large))
            for (n_small, h_small), (n_large, h_large) in zip(hists, hists[1:])]
    write_csv(out / "hist_w1.csv", "n_small,n_large,w1", rows, chash)
    return "ok", [f"w1: {row}" for row in rows]


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {"train": cmd_train, "meanfield": cmd_meanfield,
             "verify": cmd_verify, "mnist-hist": cmd_mnist_hist}

#: the exit code of each status a command returns; a divergence is 3 too
_EXIT_CODES = {"ok": 0, "picard-not-converged": 3, "failed": 4}

#: how numpy's messages begin when an array's size overflows its index type
_TOO_BIG = ("array is too big", "Maximum allowed dimension exceeded",
            "Maximum allowed size exceeded")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfsgd",
        description="Wide-network SGD particle system, its large-N limit, "
                    "and statistical verification runs")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub = subs.add_parser(name)
        sub.add_argument("--config", default=None, help="key=value config file")
        sub.add_argument("--seed", type=int, default=0, help="64-bit run seed")
        sub.add_argument("--out", default=None, help="output directory")
        sub.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        # every command trains or solves at this rate: refuse it before any
        # work and before any output directory
        _at_least(args.command, ("alpha", cfg["alpha"], 0))
        streams, chash = RandomStreams(args.seed), config_hash(cfg)
        out = Path(args.out) if args.out else Path(
            f"runs/{args.command}-{chash[:8]}-s{args.seed}")
        _refuse_other_config(out, chash)
        try:
            status, summary = _COMMANDS[args.command](cfg, streams, chash, out)
        except DivergedError as exc:
            # a divergence after the output directory exists is recorded there
            if out.exists():
                (out / "DIVERGED").write_text(f"step={exc.step}\n")
                write_manifest(out, chash, args.seed, {"status": "diverged"})
            raise
        write_manifest(out, chash, args.seed, {"status": status})
        if not args.quiet:
            for line in summary:
                print(line)
        return _EXIT_CODES[status]
    except (ConfigError, RejectedInputError, IdxFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, ValueError) as exc:
        # numpy refuses an array whose size overflows its index type with a
        # ValueError, not a MemoryError; any other one is a bug and raises
        if isinstance(exc, ValueError) and not str(exc).startswith(_TOO_BIG):
            raise
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except DivergedError as exc:
        print(f"diverged: {exc}", file=sys.stderr)
        return 3
    except LimitStatusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
