"""End-to-end checks of the command-line runner: config parsing, artifact
layout, byte-level reproducibility, manifest integrity, and exit codes."""

import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import meanfield_sgd
from meanfield_sgd import cli, meanfield
from meanfield_sgd.cli import (_slug, check_manifest, config_hash,
                               load_solution, main, parse_config,
                               read_cloud_csv, read_manifest, write_cloud_csv,
                               write_manifest)
from meanfield_sgd.core import ConfigError, activation
from meanfield_sgd.measure import EmpiricalMeasure
from meanfield_sgd.meanfield import (MeanFieldSolution, Quadrature,
                                     QuadratureSpec)
from tests.conftest import make_idx_pair, read_histogram_csv

# ---------------------------------------------------------------------------
# config parsing


def test_defaults_without_config_file():
    cfg = parse_config(None)
    assert cfg["n"] == 400
    assert cfg["n_grid"] == "100,400,1600"
    assert cfg["dt"] == 0.0005
    assert cfg["mode"] == "selfconsistent"


def test_config_overrides_and_comments(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# tiny run\n\nn = 64\nalpha=0.5\n")
    cfg = parse_config(str(p))
    assert cfg["n"] == 64 and cfg["alpha"] == 0.5
    assert cfg["d"] == 2                      # untouched default


def test_unknown_key_names_file_and_line(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("n=64\nbogus=1\n")
    with pytest.raises(ConfigError, match=r"bad.cfg:2: unknown key 'bogus'"):
        parse_config(str(p))


def test_duplicate_key_rejected(tmp_path):
    p = tmp_path / "dup.cfg"
    p.write_text("n=64\nn=128\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(str(p))


def test_unparseable_value_rejected(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("n=sixty-four\n")
    with pytest.raises(ConfigError, match="config key n"):
        parse_config(str(p))


def test_missing_equals_rejected(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("just a line\n")
    with pytest.raises(ConfigError, match="expected key=value"):
        parse_config(str(p))


def test_config_errors_exit_code_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("bogus=1\n")
    rc = main(["train", "--config", str(p), "--quiet"])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("command,line", [
    ("train", "t_horizon=nan"), ("train", "t_horizon=inf"),
    ("train", "noise_scale=nan"), ("train", "alpha=nan"),
    ("train", "init_w_scale=-inf"), ("meanfield", "dt=nan"),
    ("meanfield", "dt=inf"), ("meanfield", "picard_tol=nan"),
])
def test_non_finite_float_keys_exit_2(tmp_path, capsys, command, line):
    """NaN or an infinity in a float key would train on noiseless labels,
    take one Euler step or end in a traceback; it is a config error."""
    p = tmp_path / "bad.cfg"
    p.write_text(f"m=64\nquad_nodes=64\n{line}\n")
    out = tmp_path / "x"
    assert main([command, "--config", str(p), "--out", str(out),
                 "--quiet"]) == 2
    assert "not a finite number" in capsys.readouterr().err
    assert not out.exists()


FLOAT_KEYS = [key for key, (parse, _) in cli._SCHEMA.items() if parse is float]


@pytest.fixture(scope="module")
def drawn_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn")


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(key=st.sampled_from(FLOAT_KEYS),
       value=st.one_of(st.floats().map(repr), st.text()))
def test_float_keys_parse_finite_or_raise_config_error(drawn_dir, key, value):
    p = drawn_dir / "drawn.cfg"
    p.write_text(f"{key}={value}\n", encoding="utf-8")
    try:
        cfg = parse_config(str(p))
    except ConfigError:
        return
    assert all(np.isfinite(cfg[k]) for k in FLOAT_KEYS), (key, value)


@pytest.mark.parametrize("command,line,key", [
    ("train", "init_c=-1,x", "init_c"),
    ("train", "init_c=-1,0,1", "init_c"),
    ("train", "snapshot_times=0.1,abc", "snapshot_times"),
    ("verify", "n_grid=100,x", "n_grid"),
    ("verify", "mart_n_grid=200,x", "mart_n_grid"),
    ("mnist-hist", "mnist_n_grid=20,x", "mnist_n_grid"),
    ("mnist-hist", "digit_pair=3,x", "digit_pair"),
])
def test_malformed_list_keys_exit_2(idx_files, tmp_path, capsys, command,
                                    line, key):
    images, labels = idx_files
    p = tmp_path / "bad.cfg"
    p.write_text(f"images={images}\nlabels={labels}\n{line}\n")
    out = tmp_path / "x"
    assert main([command, "--config", str(p), "--out", str(out),
                 "--quiet"]) == 2
    assert f"{key}=" in capsys.readouterr().err


def test_config_hash_ignores_line_order(tmp_path):
    a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
    a.write_text("n=64\nalpha=0.5\n")
    b.write_text("alpha=0.5\nn=64\n")
    ha, hb = config_hash(parse_config(str(a))), config_hash(parse_config(str(b)))
    assert ha == hb and len(ha) == 16
    assert ha != config_hash(parse_config(None))


def test_one_corpus_at_two_paths_is_one_config(tmp_path):
    """``config_hash`` names images= and labels= by the files' bytes, so a
    corpus copied to another directory hashes the same and ``mnist-hist``
    writes the same bytes from either copy, manifest included."""
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    corpus = make_idx_pair(first, n_per_class=40)
    for path in corpus:
        shutil.copy(path, second / path.name)
    outs, hashes = [], []
    for where in (first, second):
        cfg = _write_cfg(where, f"images={where / corpus[0].name}\n"
                                f"labels={where / corpus[1].name}\n"
                                "mnist_n_grid=20,40\nt_horizon=0.1\nbins=10\n")
        hashes.append(config_hash(parse_config(cfg)))
        outs.append(where / "out")
        assert main(["mnist-hist", "--config", cfg, "--out", str(outs[-1]),
                     "--quiet"]) == 0
    assert hashes[0] == hashes[1]
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert all((outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
               for name in names)


def test_verify_refuses_a_limit_solved_on_another_corpus_at_its_path(
        tmp_path, capsys):
    """``meanfield`` on corpus A, then corpus B written over A's files:
    ``verify`` with ``meanfield_dir=`` exits 2 naming both config hashes
    before any training.  B's images have A's size, so the two hashes share
    their ``_LAYOUT`` digits and ``meanfield`` on B may run into A's
    directory again, as a rerun at another seed may.  A corpus file that is
    gone exits 2 with the one i/o error line of the command that reads it,
    and a model that does not read it runs."""
    images, labels = make_idx_pair(tmp_path, n_per_class=40)
    cfg = _write_cfg(tmp_path, _IMAGE_CFG.replace("m=1000", "m=16").replace(
        "quad_nodes=256", "quad_nodes=16") + f"images={images}\n"
                                               f"labels={labels}\n")
    mf = tmp_path / "mf"
    assert main(["meanfield", "--config", cfg, "--out", str(mf),
                 "--quiet"]) == 0
    solved_on = config_hash(parse_config(cfg))
    make_idx_pair(tmp_path, n_per_class=40, seed=100)
    now = config_hash(parse_config(cfg))
    assert now != solved_on
    with open(cfg, "a") as fh:
        fh.write(f"meanfield_dir={mf}\n")
    capsys.readouterr()
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v"),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"config_hash={solved_on}" in err and now in err
    assert not (tmp_path / "v").exists()
    assert now[cli._LAYOUT] == solved_on[cli._LAYOUT]
    assert main(["meanfield", "--config", cfg, "--out", str(mf),
                 "--quiet"]) == 0
    assert check_manifest(mf)["config_hash"] == now
    labels.unlink()
    for model, code in (("mnist", 2), ("teacher", 0)):
        text = Path(cfg).read_text().replace("model=mnist", f"model={model}")
        other = _write_cfg(tmp_path, text, name=f"{model}.cfg")
        assert main(["meanfield", "--config", other, "--quiet",
                     "--out", str(tmp_path / model)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.splitlines() == [f"i/o error: [Errno 2] No such file "
                                        f"or directory: '{labels}'"]
        assert (tmp_path / model).exists() == (code == 0)


def test_two_corpora_take_two_directories_and_another_size_is_refused(
        tmp_path, monkeypatch, capsys):
    """Two corpora at two paths run into two default directories.  A
    corpus of another image size written over one of them cannot rerun
    into its ``--out``: another d writes other file names (``verify``'s
    bump label carries it) next to the old ones, which the new manifest
    would list.  The refusal is one line and leaves the directory as it
    was."""
    monkeypatch.chdir(tmp_path)
    dirs = []
    for name, seed in (("a", 99), ("b", 100)):
        where = tmp_path / name
        where.mkdir()
        images, labels = make_idx_pair(where, n_per_class=40, seed=seed)
        cfg = _write_cfg(where, f"images={images}\nlabels={labels}\n"
                                "mnist_n_grid=20,40\nt_horizon=0.1\nbins=10\n")
        assert main(["mnist-hist", "--config", cfg, "--quiet"]) == 0
        dirs.append(f"mnist-hist-{config_hash(parse_config(cfg))[:8]}-s0")
    assert dirs[0] != dirs[1]
    assert sorted(dirs) == sorted(p.name for p in Path("runs").iterdir())
    out = tmp_path / "runs" / dirs[1]
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    make_idx_pair(where, n_per_class=40, size=20)
    capsys.readouterr()
    assert main(["mnist-hist", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {out} holds")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_slug_makes_filenames_safe():
    assert _slug("psi(c^1*w1^1)") == "psi-c-1-w1-1"
    assert _slug("bump(s=1.5)") == "bump-s-1.5"


def test_cloud_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    cloud = EmpiricalMeasure(rng.standard_normal(17), rng.standard_normal((17, 3)))
    path = tmp_path / "cloud.csv"
    write_cloud_csv(path, cloud, "feedc0de")
    back = read_cloud_csv(path)
    assert np.array_equal(back.c, cloud.c) and np.array_equal(back.w, cloud.w)
    assert path.read_text().startswith("# config_hash=feedc0de\nc,w_1,w_2,w_3")


# ---------------------------------------------------------------------------
# artifact text and memory


def test_meanfield_artifact_text_is_pinned(tmp_path, monkeypatch):
    """Every file ``mfsgd meanfield`` writes, as literals: integral floats
    keep their ``.0``, ``-0.0`` its sign, counts are ints, and a relative
    residual over a zero normalizer is 0.0.  The solution loads back bit
    for bit, signed zeros included."""
    # two paths at two times in d = 2, on two quadrature nodes
    sol = MeanFieldSolution(
        np.array([0.0, 0.25]), np.array([[2.0, -0.0], [0.1, 1e-20]]),
        np.array([[[1.0, -2.5], [-0.0, 0.5]], [[0.5, 100.0], [3.0, -1.0]]]),
        Quadrature(np.array([[0.5, -0.0], [1.0, 2.0]]), np.array([1.0, -1.0]),
                   QuadratureSpec("monte-carlo", 2)),
        activation("tanh"), 1.0, 0.25, 2.0)
    monkeypatch.setattr(cli, "_solve_limit",
                        lambda *args: (sol, [0.5, 2.0, -0.0], "ok"))
    monkeypatch.setattr(cli, "weak_residuals", lambda s, fs: [
        (0.5, 2.0), (-0.0, 0.0), (3.0, 4.0)])
    out = tmp_path / "mf"
    assert main(["meanfield", "--out", str(out), "--quiet"]) == 0
    head = f"# config_hash={config_hash(parse_config(None))}\n"
    texts = {f.name: f.read_text() for f in out.iterdir()}
    del texts["manifest.txt"]
    assert texts == {
        "picard_distances.csv": head + "iteration,distance\n"
                                       "0,0.5\n1,2.0\n2,-0.0\n",
        "solution_000.csv": head + "c,w_1,w_2\n2.0,1.0,-2.5\n-0.0,-0.0,0.5\n",
        "solution_001.csv": head + "c,w_1,w_2\n0.1,0.5,100.0\n1e-20,3.0,-1.0\n",
        "quadrature.csv": head + "x_1,x_2,y\n0.5,-0.0,1.0\n1.0,2.0,-1.0\n",
        "weak_residual.csv": head + "f,residual,normalizer,relative\n"
                                    "psi(c),0.5,2.0,0.25\n"
                                    "psi(c^1*w1^1),-0.0,0.0,0.0\n"
                                    "bump(s=1.5),3.0,4.0,0.75\n",
        "solution_meta.txt": "activation=tanh\nalpha=1.0\ndt=0.25\n"
                             "m_paths=2\nmax_rate=2.0\n"
                             "quad_mode=monte-carlo\nquad_nodes=2\n"
                             "times=0.0,0.25\n",
    }
    back = load_solution(out)
    for got, want in ((back.times, sol.times), (back.c, sol.c),
                      (back.w, sol.w), (back.quad.x, sol.quad.x),
                      (back.quad.y, sol.quad.y)):
        assert got.tobytes() == want.tobytes()
    assert (back.quad.spec, back.act.kind, back.alpha, back.dt,
            back.max_rate) == (sol.quad.spec, "tanh", 1.0, 0.25, 2.0)


def test_train_artifact_text_is_pinned(tmp_path, monkeypatch):
    """The snapshot cloud and the moment trace of ``mfsgd train``, as
    literals."""
    cloud = EmpiricalMeasure(np.array([2.0, -0.0]),
                             np.array([[0.1, 1e-20], [-1.5, 100.0]]))
    result = SimpleNamespace(snapshots=[(0.5, cloud)], max_moment=2.0,
                             moment_trace=np.array([1.5, 2.0, -0.0]))
    monkeypatch.setattr(cli, "run_default", lambda *args, **kwargs: result)
    out = tmp_path / "train"
    assert main(["train", "--out", str(out), "--quiet"]) == 0
    head = f"# config_hash={config_hash(parse_config(None))}\n"
    assert (out / "snapshot_000.csv").read_text() == (
        head + "c,w_1,w_2\n2.0,0.1,1e-20\n-0.0,-1.5,100.0\n")
    assert (out / "moment_trace.csv").read_text() == (
        head + "step,moment_guard\n0,1.5\n1,2.0\n2,-0.0\n")


def test_manifest_text_is_pinned(tmp_path):
    """Keys in sorted order, one ``key=value`` line each, read back as
    written."""
    (tmp_path / "a.csv").write_text("1\n")
    write_manifest(tmp_path, "abc123", 7, {"status": "ok"})
    python = ".".join(str(v) for v in sys.version_info[:3])
    want = {
        "blas_threads": "1",
        "config_hash": "abc123",
        "numpy_version": np.__version__,
        "package_version": meanfield_sgd.__version__,
        "python_version": python,
        "seed": "7",
        "sha256:a.csv": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9"
                        "ee954a27460dd865",
        "status": "ok",
    }
    assert (tmp_path / "manifest.txt").read_text() == (
        "blas_threads=1\n"
        "config_hash=abc123\n"
        f"numpy_version={np.__version__}\n"
        f"package_version={meanfield_sgd.__version__}\n"
        f"python_version={python}\n"
        "seed=7\n"
        "sha256:a.csv=4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9"
        "ee954a27460dd865\n"
        "status=ok\n")
    assert read_manifest(tmp_path) == want


def test_cloud_csv_and_its_checksum_hold_no_whole_file(tmp_path):
    """A cloud of N = 20000 atoms in d = 50 (a 19 MB file) is written a row
    at a time: the traced peak is one float64 copy of the cloud plus at
    most 1 MB.  Its checksum reads 1 MiB blocks and peaks under 2.5 MB."""
    rng = np.random.default_rng(2)
    cloud = EmpiricalMeasure(rng.standard_normal(20000),
                             rng.standard_normal((20000, 50)))
    path = tmp_path / "cloud.csv"
    mb = 1 << 20
    tracemalloc.start()
    try:
        write_cloud_csv(path, cloud, "feedc0de")
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        cli._sha256(path)
        hash_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 18 * mb
    assert write_peak <= cloud.c.nbytes + cloud.w.nbytes + mb, write_peak
    assert hash_peak <= 2.5 * mb, hash_peak


# ---------------------------------------------------------------------------
# train


TRAIN_CFG = "n=64\nt_horizon=0.25\nsnapshot_times=0.125,0.25\nbins=10\n"


def _write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_train_artifacts_and_byte_reproducibility(tmp_path):
    cfg = _write_cfg(tmp_path, TRAIN_CFG)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", "--config", cfg, "--seed", "3",
                 "--out", str(out1), "--quiet"]) == 0
    for i in range(3):
        assert (out1 / f"snapshot_{i:03d}.csv").exists()
        assert (out1 / f"hist_c_{i:03d}.csv").exists()
    trace = (out1 / "moment_trace.csv").read_text().splitlines()
    assert len(trace) == 2 + 17          # hash line + header + 16 steps + t0
    entries = check_manifest(out1)       # every checksum verifies
    assert entries["status"] == "ok" and entries["seed"] == "3"

    assert main(["train", "--config", cfg, "--seed", "3",
                 "--out", str(out2), "--quiet"]) == 0
    for f1 in sorted(out1.iterdir()):
        assert f1.read_bytes() == (out2 / f1.name).read_bytes(), f1.name


def test_train_seed_changes_artifacts(tmp_path):
    cfg = _write_cfg(tmp_path, TRAIN_CFG)
    out1, out2 = tmp_path / "s3", tmp_path / "s4"
    main(["train", "--config", cfg, "--seed", "3", "--out", str(out1), "--quiet"])
    main(["train", "--config", cfg, "--seed", "4", "--out", str(out2), "--quiet"])
    a = (out1 / "snapshot_002.csv").read_bytes()
    b = (out2 / "snapshot_002.csv").read_bytes()
    assert a != b


def test_train_alpha_zero_leaves_histogram_fixed(tmp_path):
    cfg = _write_cfg(tmp_path, TRAIN_CFG + "alpha=0\n")
    out = tmp_path / "frozen"
    assert main(["train", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    first = (out / "hist_c_000.csv").read_bytes()
    last = (out / "hist_c_002.csv").read_bytes()
    assert first == last


def test_out_of_another_config_is_refused_before_any_work(tmp_path, capsys):
    """A default ``train`` into the --out of a run with three snapshot
    times would hash that run's snapshots 2 and 3 into its own manifest: it
    exits 2 with one error: line and leaves the directory as it was.  The
    same config run again, at another seed, writes over it."""
    cfg = _write_cfg(tmp_path, "snapshot_times=0.05,0.1,0.2\n")
    out = tmp_path / "out"
    assert main(["train", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    assert main(["train", "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "config_hash=" + check_manifest(out)["config_hash"] in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert main(["train", "--config", cfg, "--seed", "3", "--out", str(out),
                 "--quiet"]) == 0
    assert check_manifest(out)["seed"] == "3"
    assert sorted(p.name for p in out.iterdir()) == sorted(before)


def test_train_divergence_exit_3(tmp_path, capsys):
    """A diverged ``train`` leaves DIVERGED and a checked status=diverged
    manifest, and prints the one ``diverged:`` line under --quiet too."""
    cfg = _write_cfg(tmp_path, "n=32\nt_horizon=0.5\nalpha=1e16\n")
    out = tmp_path / "boom"
    rc = main(["train", "--config", cfg, "--out", str(out), "--quiet"])
    assert rc == 3
    assert (out / "DIVERGED").read_text().startswith("step=")
    assert check_manifest(out)["status"] == "diverged"
    assert capsys.readouterr().err.startswith(
        "diverged: parameters exceeded 1e+12 at step ")


#: runs that diverge after their output directory exists: verify in its
#: replica study, mnist-hist in its first width
_DIVERGE_LATE = {
    "verify": "alpha=1000\nm=16\nquad_nodes=16\ndt=0.0001\nt_horizon=0.25\n"
              "mf_snapshots=3\nn_grid=8,16,32\nreplicas=20\n"
              "chaos_replicas=50\nmart_n_grid=8,16\nmart_replicas=2\n",
    "mnist-hist": "mnist_n_grid=20,40\nt_horizon=0.5\nbins=10\nalpha=1e13\n",
}


@pytest.mark.parametrize("command", sorted(_DIVERGE_LATE))
def test_every_command_records_a_divergence_after_output(tmp_path, capsys,
                                                         command):
    """``main`` ends every run: a divergence after the output directory
    exists leaves DIVERGED (step=k) and a status=diverged manifest whose
    checksums hold, whichever command diverged, and exits 3."""
    images, labels = make_idx_pair(tmp_path, n_per_class=60)
    cfg = _write_cfg(tmp_path, f"images={images}\nlabels={labels}\n"
                               + _DIVERGE_LATE[command])
    out = tmp_path / "out"
    rc = main([command, "--config", cfg, "--out", str(out), "--quiet"])
    assert rc == 3 and capsys.readouterr().err.startswith("diverged: ")
    assert re.fullmatch(r"step=\d+\n", (out / "DIVERGED").read_text())
    assert check_manifest(out)["status"] == "diverged"


def test_divergence_before_output_makes_no_directory(tmp_path, capsys):
    """The Euler solve diverges before ``meanfield`` makes its output
    directory: exit 3 and nothing on disk."""
    cfg = _write_cfg(tmp_path, "m=16\nquad_nodes=16\ndt=0.05\nt_horizon=0.25\n"
                               "mf_snapshots=3\nalpha=1e12\n")
    out = tmp_path / "out"
    assert main(["meanfield", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 3
    assert capsys.readouterr().err.startswith("diverged: ")
    assert not out.exists()


@pytest.mark.parametrize("command,line", [
    ("train", "bins=1"), ("train", "n=0"),
    ("train", "snapshot_times=0.3,0.1"),
    ("mnist-hist", "mnist_n_grid=100,0"), ("mnist-hist", "mnist_n_grid="),
    ("mnist-hist", "bins=1"),
])
def test_train_and_mnist_hist_refuse_before_any_output(
        idx_files, tmp_path, capsys, monkeypatch, command, line):
    """Bins, widths and the schedule are checked before the output directory
    is made or a replica trained, so a refused config exits 2 and leaves
    nothing behind."""
    def no_work(*args, **kwargs):
        raise AssertionError("training started before the config was checked")

    monkeypatch.setattr(cli, "run_default", no_work)
    images, labels = idx_files
    cfg = _write_cfg(tmp_path, f"images={images}\nlabels={labels}\n"
                               f"t_horizon=0.5\n{line}\n")
    out = tmp_path / "x"
    rc = main([command, "--config", cfg, "--out", str(out), "--quiet"])
    assert rc == 2 and capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("command,line,why", [
    ("train", "n=10\nt_horizon=1e300", "too many"),
    ("mnist-hist", "t_horizon=1e300", "too many"),
    ("meanfield", "t_horizon=1e300", "too many"),
    ("verify", "t_horizon=1e300", "too many"),
    ("meanfield", "t_horizon=1e13\nmode=picard", "too many"),
    ("meanfield", "dt=0\nmode=picard\npicard_tol=0.01", "dt > 0"),
])
def test_uncountable_step_counts_exit_2_before_any_output(
        idx_files, tmp_path, capsys, monkeypatch, command, line, why):
    """From 2**53 steps on (N*T for SGD, T/dt for the Euler solver) a float
    names no one step, and dt = 0 names none at all; each command refuses
    such a plan before the output directory is made, and no training or
    solve starts."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started on a horizon too long to count")

    monkeypatch.setattr(cli, "run_default", no_work)
    monkeypatch.setattr(meanfield, "_evolve", no_work)
    images, labels = idx_files
    cfg = _write_cfg(tmp_path, f"images={images}\nlabels={labels}\n{line}\n")
    out = tmp_path / "x"
    rc = main([command, "--config", cfg, "--out", str(out), "--quiet"])
    assert rc == 2 and why in capsys.readouterr().err
    assert not out.exists()


def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    """An allocation too large for the machine is a config error (exit 2),
    reported in one line rather than a traceback."""
    def too_big(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array with "
                          "shape (100000000, 1000) and data type float64")

    monkeypatch.setattr(cli, "run_default", too_big)
    cfg = _write_cfg(tmp_path, TRAIN_CFG)
    rc = main(["train", "--config", cfg, "--out", str(tmp_path / "x"),
               "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: out of memory")
    assert err.count("\n") == 1


def test_array_too_big_to_index_exits_2_with_one_line(tmp_path, capsys,
                                                      monkeypatch):
    """numpy refuses an array whose byte count overflows its index type with
    a ValueError, not a MemoryError: 10**18 quadrature nodes at d=2 is out
    of memory too, exit 2 in one line and before any output.  Any other
    ValueError is a bug and still raises."""
    cfg = _write_cfg(tmp_path, "quad_nodes=1000000000000000000\n")
    out = tmp_path / "x"
    rc = main(["meanfield", "--config", cfg, "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: out of memory: array is too big")
    assert err.count("\n") == 1 and not out.exists()

    def bug(*args, **kwargs):
        raise ValueError("not a size")

    monkeypatch.setattr(cli, "run_default", bug)
    with pytest.raises(ValueError, match="not a size"):
        main(["train", "--config", _write_cfg(tmp_path, TRAIN_CFG), "--out",
              str(out), "--quiet"])


def test_unknown_model_exit_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "model=quux\n")
    rc = main(["train", "--config", cfg, "--out", str(tmp_path / "x"), "--quiet"])
    assert rc == 2 and "unknown model" in capsys.readouterr().err


def test_default_out_directory_pattern(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = _write_cfg(tmp_path, TRAIN_CFG)
    assert main(["train", "--config", cfg, "--seed", "7", "--quiet"]) == 0
    chash = config_hash(parse_config(cfg))[:8]
    assert (tmp_path / "runs" / f"train-{chash}-s7" / "manifest.txt").exists()


# ---------------------------------------------------------------------------
# meanfield

MF_CFG = ("m=200\ndt=0.025\nt_horizon=0.25\nquad_nodes=128\n"
          "mf_snapshots=5\nn_grid=16,32,64\nreplicas=20\n"
          "mart_n_grid=16,64\nmart_replicas=8\nchaos_replicas=50\n")


def test_meanfield_selfconsistent_artifacts(tmp_path):
    cfg = _write_cfg(tmp_path, MF_CFG)
    out = tmp_path / "mf"
    assert main(["meanfield", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    sol = load_solution(out)
    assert sol.times.shape == (5,) and sol.w.shape[1:] == (200, 2)
    assert sol.quad.n == 128
    resid = (out / "weak_residual.csv").read_text().splitlines()
    assert resid[1] == "f,residual,normalizer,relative" and len(resid) == 5
    check_manifest(out)


def test_meanfield_solution_roundtrip_exact(tmp_path):
    cfg = _write_cfg(tmp_path, MF_CFG)
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    main(["meanfield", "--config", cfg, "--seed", "5", "--out", str(out1),
          "--quiet"])
    main(["meanfield", "--config", cfg, "--seed", "5", "--out", str(out2),
          "--quiet"])
    for f1 in sorted(out1.iterdir()):
        assert f1.read_bytes() == (out2 / f1.name).read_bytes(), f1.name


def _manifests_at_1_and_2_blas_threads(tmp_path, command, text, seed):
    """The manifests ``command`` writes on the config ``text`` in one child
    process per OPENBLAS_NUM_THREADS, 1 and 2; the two exit codes agree."""
    src = str(Path(meanfield_sgd.__file__).resolve().parents[1])
    cfg = _write_cfg(tmp_path, text)
    manifests, codes = [], set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")]),
               "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-m", "meanfield_sgd.cli",
                               command, "--config", cfg, "--seed", str(seed),
                               "--out", str(out), "--quiet"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode in (0, 4), proc.stderr
        codes.add(proc.returncode)
        manifests.append((out / "manifest.txt").read_text())
    assert len(codes) == 1
    return manifests


def test_meanfield_manifest_does_not_depend_on_blas_threads(tmp_path):
    """BLAS splits a product across threads above a size, which could
    change how its sums are taken.  A run at M = 6000 on 512 nodes, where
    the Euler walk's (M x 32) block products and the weak residual's row
    block products pass OpenBLAS's threading thresholds (2^18 multiply-adds
    for a GEMM, 9216 entries for a GEMV), writes the same manifest at 1 and
    at 2 threads."""
    manifests = _manifests_at_1_and_2_blas_threads(
        tmp_path, "meanfield", "m=6000\ndt=0.05\nt_horizon=0.15\n"
                               "quad_nodes=512\nmf_snapshots=2\n", 4)
    assert manifests[0] == manifests[1]
    assert "sha256:solution_001.csv" in manifests[0]
    assert "blas_threads=1\n" in manifests[0]


#: a tiny image-model config on ``make_idx_pair(n_per_class=100)``, for the
#: mean-field limit and its verification at d = 784
_IMAGE_CFG = ("model=mnist\ndigit_pair=3,5\nm=1000\nquad_nodes=256\n"
              "dt=0.05\nt_horizon=0.1\nmf_snapshots=3\nn_grid=20,40,80\n"
              "replicas=20\nmart_n_grid=16,32\nmart_replicas=2\n"
              "chaos_replicas=50\n")


@pytest.mark.parametrize("command,text,corpus", [
    ("train", "model=polynomial\nd=20\nn=1000\nt_horizon=0.25\n"
              "snapshot_times=0.125,0.25\nbins=10\n", None),
    ("meanfield", _IMAGE_CFG, 100),
    ("verify", _IMAGE_CFG, 100),
    ("mnist-hist", "digit_pair=3,5\nmnist_n_grid=100,1000\nt_horizon=0.1\n"
                   "bins=10\n", 300),
], ids=["train-d20", "meanfield-d784", "verify-d784", "mnist-hist-d784"])
def test_wide_artifacts_do_not_depend_on_blas_threads(tmp_path, command,
                                                      text, corpus):
    """At d >= 16 products sum over long axes, and OpenBLAS gives other
    bits at 2 threads than at 1: every command at d = 20 or 784 writes the
    same manifest, so the same artifacts, whatever OPENBLAS_NUM_THREADS
    says, because the program runs OpenBLAS on one thread.  Without that,
    the image-model meanfield and verify differ in their low digits."""
    if corpus is not None:
        images, labels = make_idx_pair(tmp_path, n_per_class=corpus)
        text += f"images={images}\nlabels={labels}\n"
    manifests = _manifests_at_1_and_2_blas_threads(tmp_path, command, text, 1)
    assert manifests[0] == manifests[1]
    assert "blas_threads=1\n" in manifests[0]


@pytest.mark.parametrize("command,text", [
    ("train", TRAIN_CFG),
    ("meanfield", "m=16\nquad_nodes=16\ndt=0.05\nt_horizon=0.25\n"
                  "mf_snapshots=3\n"),
    ("verify", MF_CFG),
    ("mnist-hist", "digit_pair=3,5\nmnist_n_grid=20,40\nt_horizon=0.1\n"
                   "bins=10\n"),
    ("picard", "m=64\ndt=0.025\nt_horizon=0.25\nquad_nodes=128\n"
               "mf_snapshots=5\nmode=picard\npicard_max_iters=4\n"),
], ids=["train", "meanfield", "verify", "mnist-hist", "picard"])
def test_commands_leave_numpy_ma_and_scipy_unloaded(idx_files, tmp_path,
                                                    command, text):
    """A fresh process that runs a tiny command imports neither numpy.ma
    (``np.unique`` and ``np.percentile`` would, 10-15 ms on first use) nor
    any scipy module.  The one exception is a Picard ``meanfield`` at
    m <= ``EXACT_LIMIT`` paths: its distances and its seed-resampled floor
    take the exact assignment, which imports scipy.optimize."""
    import meanfield_sgd
    src = str(Path(meanfield_sgd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    images, labels = idx_files
    cfg = _write_cfg(tmp_path, text + f"images={images}\nlabels={labels}\n")
    argv = ["meanfield" if command == "picard" else command, "--config", cfg,
            "--out", str(tmp_path / "out"), "--quiet"]
    code = ("import sys\n"
            "from meanfield_sgd.cli import main\n"
            f"rc = main({argv!r})\n"
            "print(rc, 'numpy.ma' in sys.modules, 'scipy' in sys.modules,\n"
            "      'scipy.optimize' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out[0] in (("0", "4") if command == "verify" else ("0",))
    check_manifest(tmp_path / "out")
    if command == "picard":
        assert out[3] == "True"
    else:
        assert out[1:] == ["False"] * 3


def test_image_model_meanfield_finishes_in_seconds(tmp_path):
    """``mfsgd meanfield model=mnist`` at d = 784 in a child process with a
    20 s timeout: its weak residual pairs psi(c*w1) through a gradient that
    reads one axis of w, so the run takes seconds.  The three residual rows
    are finite."""
    import meanfield_sgd
    src = str(Path(meanfield_sgd.__file__).resolve().parents[1])
    images, labels = make_idx_pair(tmp_path, n_per_class=100)
    cfg = _write_cfg(tmp_path, "model=mnist\ndigit_pair=3,5\nm=1000\n"
                               "quad_nodes=256\ndt=0.05\nt_horizon=0.1\n"
                               f"mf_snapshots=3\nimages={images}\n"
                               f"labels={labels}\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "mf"
    proc = subprocess.run([sys.executable, "-m", "meanfield_sgd.cli",
                           "meanfield", "--config", cfg, "--seed", "1",
                           "--out", str(out), "--quiet"], env=env,
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    rows = [ln.split(",") for ln in
            (out / "weak_residual.csv").read_text().splitlines()[2:]]
    assert len(rows) == 3
    assert all(np.isfinite(float(v)) for row in rows for v in row[1:])


def test_meanfield_picard_with_automatic_tolerance(tmp_path):
    cfg = _write_cfg(tmp_path, MF_CFG + "mode=picard\npicard_max_iters=8\n")
    out = tmp_path / "pic"
    assert main(["meanfield", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    dist = (out / "picard_distances.csv").read_text().splitlines()
    assert dist[1] == "iteration,distance" and len(dist) >= 3
    assert read_manifest(out)["status"] == "ok"


def _relative_residuals(out):
    rows = (out / "weak_residual.csv").read_text().splitlines()[2:]
    return np.array([float(row.split(",")[3]) for row in rows])


def test_picard_automatic_tolerance_reaches_the_fixed_point(tmp_path):
    """picard_tol=0 iterates until the a-posteriori bound on the distance to
    the fixed point is below the noise floor, so the Picard solution's weak
    residuals land within 2x those of the self-consistent solve."""
    keys = "m=2000\nquad_nodes=1024\ndt=0.002\nmf_snapshots=11\n"
    runs = {}
    for mode in ("selfconsistent", "picard"):
        cfg = _write_cfg(tmp_path, keys + f"mode={mode}\n", f"{mode}.cfg")
        out = tmp_path / mode
        assert main(["meanfield", "--config", cfg, "--seed", "5", "--out",
                     str(out), "--quiet"]) == 0
        runs[mode] = _relative_residuals(out)
    dist = (tmp_path / "picard" / "picard_distances.csv").read_text()
    assert len(dist.splitlines()) >= 5     # rho needs two ratios
    assert np.all(runs["picard"] <= 2.0 * runs["selfconsistent"]), runs


def test_meanfield_picard_nonconvergence_exit_3(tmp_path):
    cfg = _write_cfg(tmp_path,
                     MF_CFG + "mode=picard\npicard_tol=1e-15\n"
                              "picard_max_iters=1\n")
    out = tmp_path / "stuck"
    rc = main(["meanfield", "--config", cfg, "--out", str(out), "--quiet"])
    assert rc == 3
    assert read_manifest(out)["status"] == "picard-not-converged"
    assert (out / "solution_meta.txt").exists()   # partial result still saved


def test_picard_floor_needs_two_runs(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, MF_CFG + "mode=picard\nfloor_runs=1\n")
    rc = main(["meanfield", "--config", cfg, "--out", str(tmp_path / "x"),
               "--quiet"])
    assert rc == 2 and "at least 2 runs" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("line", ["picard_max_iters=0", "picard_tol=-0.001"])
def test_out_of_range_picard_keys_exit_2_before_any_solve(
        tmp_path, capsys, monkeypatch, line):
    """No iteration at all would write the frozen start as the limit, and a
    negative tolerance would quietly select the noise-floor stop.  A refused
    config leaves no output directory behind."""
    def no_work(*args, **kwargs):
        raise AssertionError("a solve started before the keys were checked")

    for name in ("solve_selfconsistent", "seed_resampled_floor",
                 "picard_iterate"):
        monkeypatch.setattr(cli, name, no_work)
    cfg = _write_cfg(tmp_path, MF_CFG + f"mode=picard\n{line}\n")
    rc = main(["meanfield", "--config", cfg, "--out", str(tmp_path / "x"),
               "--quiet"])
    assert rc == 2 and "mode=picard needs" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command,line,why", [
    ("meanfield", "mf_snapshots=1", "mf_snapshots=1"),
    ("verify", "mf_snapshots=-1", "mf_snapshots=-1"),
    ("train", "model=polynomial\nd=-1", "d=-1"),
    ("meanfield", "model=polynomial\nd=0", "d=0"),
    ("meanfield", "model=polynomial\nd=13\nquad_mode=fixed-grid", "2**d"),
    ("verify", "model=polynomial\nd=40\nquad_mode=fixed-grid", "2**d"),
])
def test_degenerate_shapes_exit_2_before_any_solve(
        tmp_path, capsys, monkeypatch, command, line, why):
    """Fewer than two snapshot slices, a polynomial model without an input
    dimension, and a fixed grid with fewer than 2 points per axis (2**d
    above quad_nodes) are config errors: one error line naming the cause,
    exit 2, no output directory, and no solve or training begun."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    monkeypatch.setattr(cli, "run_default", no_work)
    monkeypatch.setattr(meanfield, "_evolve", no_work)
    cfg = _write_cfg(tmp_path, f"m=8\ndt=0.1\n{line}\n")
    out = tmp_path / "x"
    rc = main([command, "--config", cfg, "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error:") and why in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "meanfield", "verify",
                                     "mnist-hist"])
def test_negative_alpha_exits_2_before_any_work(
        idx_files, tmp_path, capsys, monkeypatch, command):
    """A negative learning rate is refused by every command with exit 2
    before the corpus is read, the limit solved or a replica trained, and
    before the output directory is made."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before alpha was checked")

    for name in ("run_default", "_solve_limit", "_build_model", "_load_mnist"):
        monkeypatch.setattr(cli, name, no_work)
    images, labels = idx_files
    cfg = _write_cfg(tmp_path, MF_CFG + f"images={images}\nlabels={labels}\n"
                                        "alpha=-1\n")
    out = tmp_path / "x"
    rc = main([command, "--config", cfg, "--out", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: alpha=-1.0")
    assert not out.exists()


def test_meanfield_unknown_mode_exit_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "mode=magic\n")
    rc = main(["meanfield", "--config", cfg, "--out", str(tmp_path / "x"),
               "--quiet"])
    assert rc == 2 and "unknown meanfield mode" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# verify


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("verify")
    cfg = _write_cfg(base, MF_CFG)
    mf_out = base / "mf"
    assert main(["meanfield", "--config", cfg, "--seed", "11",
                 "--out", str(mf_out), "--quiet"]) == 0
    out = base / "ver"
    rc = main(["verify", "--config", cfg, "--seed", "11", "--out", str(out),
               "--quiet"])
    return base, cfg, mf_out, out, rc


def test_verify_report_lines_match_exit_code(verify_run):
    _, _, _, out, rc = verify_run
    lines = (out / "report.txt").read_text().splitlines()
    # 3 lln + moment + martingale + residual + 3 limit gaps + chaos
    assert len(lines) == 10
    assert all(ln.startswith(("PASS ", "FAIL ")) for ln in lines)
    all_pass = all(ln.startswith("PASS") for ln in lines)
    assert rc == (0 if all_pass else 4)
    status = read_manifest(out)["status"]
    assert status == ("ok" if all_pass else "failed")
    for stem in ("moment_bound", "martingale", "weak_residual",
                 "limit_distance", "chaos"):
        assert (out / f"{stem}.csv").exists()


def test_verify_reuses_meanfield_artifacts(verify_run, tmp_path):
    """Pointing verify at a meanfield run directory must not change the
    config hash (it is an operational key), so the artifacts load."""
    base, cfg, mf_out, _, _ = verify_run
    reuse_cfg = _write_cfg(tmp_path, MF_CFG + f"meanfield_dir={mf_out}\n")
    out = tmp_path / "ver2"
    rc = main(["verify", "--config", reuse_cfg, "--seed", "11",
               "--out", str(out), "--quiet"])
    assert rc in (0, 4)
    assert (out / "report.txt").exists()


def test_verify_rejects_artifacts_from_other_config(verify_run, tmp_path,
                                                    capsys):
    base, cfg, mf_out, _, _ = verify_run
    mixed = _write_cfg(tmp_path,
                       MF_CFG + f"alpha=0.7\nmeanfield_dir={mf_out}\n",
                       name="mixed.cfg")
    rc = main(["verify", "--config", mixed, "--out", str(tmp_path / "vx"),
               "--quiet"])
    assert rc == 2
    assert "config_hash" in capsys.readouterr().err


def test_verify_rejects_artifacts_from_other_seed(verify_run, tmp_path,
                                                  capsys):
    base, cfg, mf_out, _, _ = verify_run
    reuse_cfg = _write_cfg(tmp_path, MF_CFG + f"meanfield_dir={mf_out}\n")
    out = tmp_path / "v12"
    rc = main(["verify", "--config", reuse_cfg, "--seed", "12",
               "--out", str(out), "--quiet"])
    assert rc == 2
    assert "seed=11" in capsys.readouterr().err
    assert not out.exists()


def test_verify_refuses_unconverged_limit(tmp_path, capsys):
    """An unconverged Picard limit exits 3 before any training, whether
    verify solves it or finds it in meanfield_dir=."""
    keys = MF_CFG + "mode=picard\npicard_tol=1e-15\npicard_max_iters=1\n"
    cfg = _write_cfg(tmp_path, keys)
    stuck = tmp_path / "stuck"
    assert main(["meanfield", "--config", cfg, "--seed", "5",
                 "--out", str(stuck), "--quiet"]) == 3
    reuse = _write_cfg(tmp_path, keys + f"meanfield_dir={stuck}\n", "reuse.cfg")
    for name, path in (("solved", cfg), ("cached", reuse)):
        out = tmp_path / name
        assert main(["verify", "--config", path, "--seed", "5",
                     "--out", str(out), "--quiet"]) == 3
        assert "picard-not-converged" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("grids", [("n_grid=16,32,64", "n_grid=64,32,16"),
                                   ("n_grid=16,32,64", "n_grid=16,16,64"),
                                   ("mart_n_grid=16,64", "mart_n_grid=64,16"),
                                   ("mart_n_grid=16,64", "mart_n_grid=64"),
                                   ("mart_n_grid=16,64", "mart_n_grid=")])
def test_verify_rejects_grid_out_of_order(tmp_path, capsys, grids):
    """The limit-gap, chaos and martingale verdicts read the widths in
    order, so a grid that is not strictly increasing exits 2 up front; so
    does a one-width martingale grid, whose ratio of a width to itself is 1
    and would pass its window [0.625, 1.5]."""
    cfg = _write_cfg(tmp_path, MF_CFG.replace(*grids))
    out = tmp_path / "x"
    rc = main(["verify", "--config", cfg, "--out", str(out), "--quiet"])
    assert rc == 2 and "strictly increasing" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("keys", [("replicas=20", "replicas=19"),
                                  ("chaos_replicas=50", "chaos_replicas=49"),
                                  ("n_grid=16,32,64", "n_grid=16,64"),
                                  ("n_grid=16,32,64", "n_grid=1,32,64"),
                                  ("mart_n_grid=16,64", "mart_n_grid=0,64"),
                                  ("mart_replicas=8", "mart_replicas=0")])
def test_verify_rejects_too_few_replicas_or_widths_up_front(
        tmp_path, capsys, monkeypatch, keys):
    """The slope and chaos statistics' minimums, and the least width of
    each grid, are checked before the limit is solved or a replica trained,
    so such a config exits 2 at once and writes no output directory."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the config was checked")

    monkeypatch.setattr(cli, "_solve_limit", no_work)
    monkeypatch.setattr(cli, "run_study", no_work)
    cfg = _write_cfg(tmp_path, MF_CFG.replace(*keys))
    out = tmp_path / "x"
    rc = main(["verify", "--config", cfg, "--out", str(out), "--quiet"])
    assert rc == 2 and "verify needs at least" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["selfconsistent", "picard"])
def test_verify_solves_the_meanfield_limit(tmp_path, monkeypatch, mode):
    """meanfield_dir= is a cache: verify without it solves the same limit as
    ``mfsgd meanfield`` for the config and seed, so both runs write the
    same bytes, report and manifest included.  The cached run takes its
    weak residuals from the solution directory and never computes them,
    yet writes the same ``weak_residual.csv`` and ``weak-residual`` line."""
    def no_residuals(*args, **kwargs):
        raise AssertionError("verify recomputed the cached weak residuals")

    keys = MF_CFG + f"mode={mode}\npicard_max_iters=8\n"
    cfg = _write_cfg(tmp_path, keys)
    mf = tmp_path / "mf"
    assert main(["meanfield", "--config", cfg, "--seed", "5",
                 "--out", str(mf), "--quiet"]) == 0
    reuse = _write_cfg(tmp_path, keys + f"meanfield_dir={mf}\n", "reuse.cfg")
    runs = []
    for name, path in (("solved", cfg), ("cached", reuse)):
        if name == "cached":
            monkeypatch.setattr(cli, "weak_residuals", no_residuals)
        out = tmp_path / name
        rc = main(["verify", "--config", path, "--seed", "5",
                   "--out", str(out), "--quiet"])
        runs.append((rc, {f.name: f.read_bytes() for f in out.iterdir()}))
    (rc_solved, solved), (rc_cached, cached) = runs
    assert rc_solved == rc_cached and rc_solved in (0, 4)
    assert {"report.txt", "manifest.txt", "weak_residual.csv",
            "limit_distance.csv"} <= set(solved)
    assert sorted(solved) == sorted(cached)
    for name in solved:
        assert solved[name] == cached[name], name


def test_verify_detects_artifact_corruption(verify_run, tmp_path, capsys):
    base, cfg, mf_out, _, _ = verify_run
    victim = mf_out / "solution_000.csv"
    good = victim.read_bytes()
    try:
        victim.write_bytes(good.replace(b"0", b"1", 1))
        bad_cfg = _write_cfg(tmp_path, MF_CFG + f"meanfield_dir={mf_out}\n",
                             name="bad.cfg")
        rc = main(["verify", "--config", bad_cfg, "--out",
                   str(tmp_path / "v3"), "--quiet"])
        assert rc == 2
        assert "checksum mismatch" in capsys.readouterr().err
    finally:
        victim.write_bytes(good)


def _run_child(*argv: str) -> subprocess.CompletedProcess:
    """``mfsgd *argv`` in a fresh process with a 60 s timeout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-m", "meanfield_sgd.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)


def _drop_line(prefix: str):
    return lambda lines: [ln for ln in lines if not ln.startswith(prefix)]


def _set_line(i: int, line: str):
    return lambda lines: lines[:i] + [line] + lines[i + 1:]


@pytest.mark.parametrize("victim,edit,why", [
    ("solution_meta.txt", _drop_line("max_rate="), "missing key 'max_rate'"),
    ("solution_meta.txt", _set_line(1, "alpha=one\n"), "'one'"),
    ("solution_001.csv", _set_line(2, "x,0.5,0.5\n"), "'x'"),
    ("solution_001.csv", lambda lines: lines[:-1], "199 atoms"),
    ("solution_001.csv", _set_line(3, "0.1,0.2,0.3,0.4\n"),
     "solution_001.csv:4: expected 3 columns, found 4"),
    ("weak_residual.csv", _set_line(3, "psi(c^1*w1^1),0.1,0.2,oops\n"),
     "'oops'"),
], ids=["meta-missing-key", "meta-not-a-number", "slice-not-a-number",
        "slice-shape", "slice-ragged-row", "residual-row"])
def test_verify_refuses_a_malformed_cache_with_exit_2(verify_run, tmp_path,
                                                      victim, edit, why):
    """A ``meanfield_dir=`` whose checksums match its files, but whose
    metadata lacks a key, holds a cell that is not a number, has a slice
    shaped unlike the first or a malformed weak-residual row (another
    package version could write one under the same config hash), is a
    config error: exit 2 with one ``error:`` line naming the file (and a
    CSV's line, without numpy's advice on its own arguments), before any
    training and before the output directory is made."""
    base, cfg, mf_out, _, _ = verify_run
    cache = tmp_path / "cache"
    shutil.copytree(mf_out, cache)
    lines = (cache / victim).read_text().splitlines(keepends=True)
    (cache / victim).write_text("".join(edit(lines)))
    entries = read_manifest(cache)
    write_manifest(cache, entries["config_hash"], int(entries["seed"]),
                   {"status": entries["status"]})
    reuse = _write_cfg(tmp_path, MF_CFG + f"meanfield_dir={cache}\n")
    out = tmp_path / "v"
    proc = _run_child("verify", "--config", reuse, "--seed", "11",
                      "--out", str(out), "--quiet")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert victim in proc.stderr and why in proc.stderr, proc.stderr
    assert "usecols" not in proc.stderr
    assert not out.exists()


# ---------------------------------------------------------------------------
# mnist-hist


def test_mnist_hist_artifacts(idx_files, tmp_path):
    images, labels = idx_files
    cfg = _write_cfg(
        tmp_path,
        f"images={images}\nlabels={labels}\ndigit_pair=3,5\n"
        "mnist_n_grid=20,40\nt_horizon=0.1\nbins=10\ninit_w_scale=0.05\n")
    out = tmp_path / "mnist"
    assert main(["mnist-hist", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    assert (out / "hist_c_n20.csv").exists()
    assert (out / "hist_c_n40.csv").exists()
    w1 = (out / "hist_w1.csv").read_text().splitlines()
    assert w1[1] == "n_small,n_large,w1" and len(w1) == 3
    assert w1[2].startswith("20,40,")
    check_manifest(out)


def test_mnist_hist_honours_init_c(idx_files, tmp_path):
    """init_c=0.5,0.5 starts every c at 0.5; after a short run the c
    histogram must stay far narrower than the default law's [-1, 1]."""
    images, labels = idx_files
    cfg = _write_cfg(
        tmp_path,
        f"images={images}\nlabels={labels}\nmnist_n_grid=20\nt_horizon=0.1\n"
        "bins=10\ninit_w_scale=0.05\ninit_c=0.5,0.5\n")
    out = tmp_path / "mnist"
    assert main(["mnist-hist", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    hist = read_histogram_csv(out / "hist_c_n20.csv")
    assert hist.edges[-1] - hist.edges[0] < 0.5


def test_mnist_hist_row_text_is_pinned(idx_files, tmp_path, monkeypatch):
    """hist_w1.csv rows are two int widths and a float distance."""
    images, labels = idx_files
    distances = iter([2.0, -0.0])
    monkeypatch.setattr(cli, "histogram_w1", lambda a, b: next(distances))
    cfg = _write_cfg(tmp_path, f"images={images}\nlabels={labels}\n"
                               "mnist_n_grid=20,40,80\nt_horizon=0.1\n")
    out = tmp_path / "mnist"
    assert main(["mnist-hist", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    assert (out / "hist_w1.csv").read_text() == (
        f"# config_hash={config_hash(parse_config(cfg))}\n"
        "n_small,n_large,w1\n20,40,2.0\n40,80,-0.0\n")


def test_mnist_hist_idx_size_claim_beyond_the_file_exits_2(idx_files,
                                                           tmp_path):
    """An image header claiming (2**32 - 1)**3 bytes in a 16-byte file is a
    truncated file: exit 2 with one line, no traceback."""
    _, labels = idx_files
    images = tmp_path / "claims.idx3-ubyte"
    images.write_bytes(struct.pack(">IIII", 0x00000803, *[2**32 - 1] * 3))
    cfg = _write_cfg(tmp_path, f"images={images}\nlabels={labels}\n")
    proc = _run_child("mnist-hist", "--config", cfg, "--out",
                      str(tmp_path / "x"), "--quiet")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1 and "truncated" in proc.stderr
    assert "got 0" in proc.stderr


def test_mnist_hist_missing_paths_exit_2(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "mnist_n_grid=20,40\n")
    rc = main(["mnist-hist", "--config", cfg, "--out", str(tmp_path / "x"),
               "--quiet"])
    assert rc == 2 and "images=" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the exit-code contract over drawn configs

_HUGE = 10 ** 18
#: keys whose work grows with their value: a huge one is a long run, not an
#: edge case, so they draw small values only
_WORK_KEYS = {"replicas", "chaos_replicas", "mart_replicas", "floor_runs",
              "picard_max_iters", "workers"}
_STR_VALUES = {
    "model": ["teacher", "polynomial", "mnist", "", "bogus"],
    "activation": ["tanh", "logistic", "smooth-bump", "relu", ""],
    "init_c": ["0,0", "1,-1", "", "1", "x", "-1e300,1e300"],
    "snapshot_times": ["0", "-1", "0.1,0.25", "0.25,0.1", "1e300"],
    "n_grid": ["", "0", "4,8", "-1,4,8", "0,4,8", "1,2,3", f"4,8,{_HUGE}"],
    "mart_n_grid": ["", "4", "0,8", "8,4", f"1,{_HUGE}"],
    "mnist_n_grid": ["", "0", "4", "-1,4", f"{_HUGE}"],
    "digit_pair": ["", "3,3", "3", "-1,5", "3,9"],
    "quad_mode": ["fixed-grid", "", "bogus"],
    "mode": ["picard", "", "bogus"],
    "meanfield_dir": ["nowhere"],
    "images": ["", "nowhere"],
    "labels": ["", "nowhere"],
}
#: tiny sizes for every command; a drawn key overrides one of them
_TINY = {"n": 8, "t_horizon": 0.25, "bins": 4, "n_grid": "4,8,16",
         "replicas": 20, "m": 16, "dt": 0.05, "quad_nodes": 16,
         "mf_snapshots": 3, "chaos_replicas": 50, "mart_n_grid": "4,8",
         "mart_replicas": 2, "floor_runs": 2, "picard_max_iters": 3,
         "mnist_n_grid": "4,8"}
#: the command in a child that may map at most 2 GiB, so a huge allocation
#: fails at once instead of taking the machine's memory
_CHILD = ("import resource, sys\n"
          "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
          "from meanfield_sgd.cli import main\n"
          "sys.exit(main(sys.argv[1:]))\n")


#: the manifest statuses each exit code may end a run directory with
_STATUSES = {0: ("ok",), 3: ("diverged", "picard-not-converged"),
             4: ("failed",)}


def _drawn_values(key: str) -> list:
    parse = cli._SCHEMA[key][0]
    if parse is int:
        return [-1, 0, 1, 2, 3] + ([] if key in _WORK_KEYS else [_HUGE])
    if parse is float:
        return [-1.0, 0.0, 1e-300, 0.5, 1.0, 1e300]
    return _STR_VALUES[key]


_overrides = st.lists(st.sampled_from(sorted(cli._SCHEMA)), min_size=1,
                      max_size=3, unique=True).flatmap(
    lambda keys: st.tuples(*[st.sampled_from(_drawn_values(k))
                             for k in keys]).map(
        lambda values: dict(zip(keys, values))))


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(command=st.sampled_from(["train", "meanfield", "verify", "mnist-hist"]),
       overrides=_overrides)
@example(command="train", overrides={"alpha": -1.0})
@example(command="verify", overrides={"mart_replicas": 0})
@example(command="meanfield", overrides={"quad_nodes": _HUGE})
@example(command="train", overrides={"bins": _HUGE})
@example(command="mnist-hist", overrides={"bins": _HUGE})
@example(command="mnist-hist", overrides={"alpha": 1e300})
@example(command="meanfield", overrides={"alpha": 1e300})
def test_drawn_configs_keep_the_exit_code_contract(idx_files, contract_dir,
                                                   command, overrides):
    """Every command, on tiny sizes with one to three keys of ``_SCHEMA``
    set to a boundary value, 0, a negative, an empty list or a huge value,
    exits 0, 2, 3 or 4 without a traceback.  A config it refuses (exit 2
    other than out of memory, which may stop a run midway) leaves no output
    directory, and no CSV it writes holds nan or inf.  Any other run that
    makes its output directory ends it with a manifest whose checksums hold
    and whose status names the exit code, and with DIVERGED exactly when it
    diverged.  A huge ``bins`` is refused before ``train`` or
    ``mnist-hist`` trains or makes its output directory.  Each run is a
    child process with a 60 s timeout, so a hang fails the test."""
    images, labels = idx_files
    keys = {**_TINY, "images": images, "labels": labels, **overrides}
    for key in ("meanfield_dir", "images", "labels"):
        if keys.get(key) == "nowhere":
            keys[key] = contract_dir / "nowhere"
    run = contract_dir / f"run{len(list(contract_dir.iterdir()))}"
    run.mkdir()
    cfg = _write_cfg(run, "".join(f"{k}={v}\n" for k, v in keys.items()))
    out = run / "out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _CHILD, command, "--config",
                           cfg, "--out", str(out), "--quiet"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode in (0, 2, 3, 4), proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr
    if proc.returncode == 2 and "out of memory" not in proc.stderr:
        assert not out.exists(), proc.stderr
    if proc.returncode != 2 and out.exists():
        status = check_manifest(out)["status"]
        assert status in _STATUSES[proc.returncode], proc.stderr
        assert (out / "DIVERGED").exists() == (status == "diverged")
    if command in ("train", "mnist-hist") and overrides.get("bins") == _HUGE:
        assert proc.returncode == 2 and not out.exists(), proc.stderr
        assert [ln for ln in proc.stderr.splitlines()
                if ln.startswith("error:")] == [proc.stderr.strip()]
    for csv in (out.rglob("*.csv") if out.exists() else ()):
        assert not re.search(r"\b(nan|inf)\b", csv.read_text(), re.I), csv
