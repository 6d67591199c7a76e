"""The benchmark's traced flows write what the ``mfsgd`` commands write.

``perfbench/trace.py`` repeats ``mfsgd meanfield``, ``verify`` and
``mnist-hist`` as direct calls into the package, so its per-layer numbers
only describe the commands while the two flows do the same work.  On tiny
configs each traced flow and its command write into separate directories,
and every file must come out byte for byte the same.  The one exception is
verify's ``manifest.txt``: the traced flow writes no ``report.txt`` and
records ``status=traced``, by design.
"""

from pathlib import Path

from meanfield_sgd import cli
from tests.conftest import make_idx_pair
from tests.test_perfbench_contract import trace_module  # noqa: F401

# the initial law is moved off its defaults so a flow that drops a key
# shows; the mnist flow reads init_w_scale but not init_c
TINY_MEANFIELD = {"m": 64, "quad_nodes": 64, "dt": 0.05, "t_horizon": 0.2,
                  "mf_snapshots": 3, "init_c": "-0.5,1.5",
                  "init_w_scale": 0.8}
TINY_VERIFY = {**TINY_MEANFIELD, "t_horizon": 0.25, "n_grid": "8,16,32",
               "replicas": 20, "chaos_replicas": 50, "mart_n_grid": "8,16",
               "mart_replicas": 1}
TINY_MNIST = {"mnist_n_grid": "10,20,40", "t_horizon": 0.5, "bins": 10,
              "init_w_scale": 0.8}


def _config(path: Path, keys: dict) -> Path:
    path.write_text("".join(f"{k}={v}\n" for k, v in keys.items()))
    return path


def _files(out: Path) -> dict:
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _run_both(trace_module, workload, command, cfg_path, seed, tmp_path):
    """Run the command and the traced flow; return their files by name."""
    by_cli, traced = tmp_path / "cli", tmp_path / "traced"
    rc = cli.main([command, "--config", str(cfg_path), "--seed", str(seed),
                   "--out", str(by_cli), "--quiet"])
    assert rc in (0, 4), rc          # 4: a verify check failed at tiny sizes
    trace_module.PIPELINES[workload](
        trace_module.Tracer(), cli.parse_config(str(cfg_path)), seed, traced)
    return _files(by_cli), _files(traced)


def _assert_same(want: dict, got: dict):
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


def test_meanfield_trace_writes_the_command_artifacts(trace_module, tmp_path):
    cfg = _config(tmp_path / "run.cfg", TINY_MEANFIELD)
    want, got = _run_both(trace_module, "meanfield-ref", "meanfield", cfg, 11,
                          tmp_path)
    assert "weak_residual.csv" in want and "solution_002.csv" in want
    _assert_same(want, got)


def test_verify_trace_writes_the_command_artifacts(trace_module, tmp_path):
    mf_dir = tmp_path / "limit"
    cfg = _config(tmp_path / "run.cfg",
                  {**TINY_VERIFY, "meanfield_dir": mf_dir})
    assert cli.main(["meanfield", "--config", str(cfg), "--seed", "21",
                     "--out", str(mf_dir), "--quiet"]) == 0
    want, got = _run_both(trace_module, "verify-d2", "verify", cfg, 21,
                          tmp_path)
    for name in ("report.txt", "manifest.txt"):
        want.pop(name)
    assert got.pop("manifest.txt").count(b"status=traced") == 1
    assert {"chaos.csv", "limit_distance.csv", "martingale.csv",
            "moment_bound.csv", "weak_residual.csv"} <= set(want)
    _assert_same(want, got)


def test_mnist_trace_writes_the_command_artifacts(trace_module, tmp_path):
    images, labels = make_idx_pair(tmp_path, n_per_class=40)
    cfg = _config(tmp_path / "run.cfg",
                  {**TINY_MNIST, "images": images, "labels": labels})
    want, got = _run_both(trace_module, "mnist-wide", "mnist-hist", cfg, 31,
                          tmp_path)
    assert "hist_w1.csv" in want and "hist_c_n40.csv" in want
    _assert_same(want, got)
