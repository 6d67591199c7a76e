"""The repository's own tools."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from meanfield_sgd.cli import main

ROOT = Path(__file__).resolve().parents[1]
TOOLS, SRC = ROOT / "tools", ROOT / "src"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_lines_holding_a_code_token(tmp_path, capsys):
    """Comments, blank lines and docstrings do not count; every line a code
    token spans does, a multi-line string that is not a docstring
    included."""
    src = tmp_path / "pkg"
    src.mkdir()
    (src / "a.py").write_text(
        '"""Module\n'
        'docstring."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # trailing comment\n"
        '    """Function docstring."""\n'
        "    text = '''two\n"
        "    lines'''\n"
        "    return (x +\n"
        "            1)\n")
    (src / "b.py").write_text("X = 1\n")
    code_lines = _load("code_lines")
    assert code_lines.code_lines(src / "a.py") == 5
    assert code_lines.main([str(src)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["6", "total"]


def test_command_traffic_lists_the_statements_no_run_reached(tmp_path):
    """One tiny ``train`` runs every statement of ``cmd_train`` and never
    reaches ``histogram``'s refusal of a selector other than "c"."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("n=8\nt_horizon=0.25\nbins=4\n")
    codes, report = _load("command_traffic").traffic([("train", str(cfg))])
    assert codes == [0]
    assert [s for s in report["meanfield_sgd/cli.py"] if s[1] == "cmd_train"] == []
    unrun = [text for _, name, text in report["meanfield_sgd/measure.py"]
             if name == "histogram"]
    assert any("unknown selector" in text for text in unrun), unrun


#: the functions no ``mfsgd`` command calls, as "<module>.<qualified name>"
#: (an entry covers the methods and nested functions under it), each with
#: the caller outside the commands that keeps it
KEPT_UNCALLED = {
    "core._poly_of_value": "tanh's act.deriv, which perfbench/trace.py "
                           "times as core.act_deriv_ms",
    "core.constant_one": "acceptance criterion 10's exact weak residual",
    "data.default_model": "the acceptance studies' teacher",
    "data.default_init": "the acceptance studies' initial law",
    "data.from_network": "acceptance criterion 10's self-teacher",
    "diagnostics.reconcile_decomposition": "acceptance criterion 10's "
                                           "decomposition identity",
    "diagnostics.chaos_test": "acceptance criterion 05 and perfbench/trace.py",
    "meanfield.weak_residual": "acceptance criteria 03 and 10, and "
                               "perfbench/trace.py",
    "measure.wasserstein_bruteforce": "acceptance criterion 07's oracle",
    "measure._permutations": "wasserstein_bruteforce's permutations",
    "sgd.Ensemble": "acceptance criterion 10 and perfbench/trace.py's "
                    "sgd_step and train",
    "sgd.sgd_step": "perfbench/trace.py's sgd.sgd_step_us",
    "sgd.train": "acceptance criterion 10 and perfbench/trace.py",
}


def _traffic_runs(tmp_path, idx_files) -> list[tuple[str, str]]:
    """Tiny configs that take every command down each of its paths: train
    with snapshots, on a polynomial model and diverging; self-consistent
    meanfield with logistic and smooth-bump, and Picard; verify solving its
    own limit and reading it from ``meanfield_dir=``; mnist-hist."""
    limit = "m=32\nquad_nodes=32\ndt=0.05\nt_horizon=0.25\nmf_snapshots=3\n"
    study = (limit + "n_grid=8,16,32\nreplicas=20\nchaos_replicas=50\n"
             "mart_n_grid=8,16\nmart_replicas=2\n")
    images, labels = idx_files
    texts = {
        "train": "n=8\nt_horizon=0.25\nsnapshot_times=0.125,0.25\nbins=4\n",
        "polynomial": "model=polynomial\nd=3\nn=8\nt_horizon=0.25\nbins=4\n",
        "diverging": "n=32\nt_horizon=0.5\nalpha=1e16\n",
        "logistic": "activation=logistic\n" + limit,
        "smooth-bump": "activation=smooth-bump\n" + limit,
        "picard": "mode=picard\n" + limit,
        "verify": study,
        "verify-cached": study + f"meanfield_dir={tmp_path / 'limit'}\n",
        "mnist": (f"images={images}\nlabels={labels}\nmnist_n_grid=8,16\n"
                  "t_horizon=0.1\nbins=4\n"),
    }
    for name, text in texts.items():
        (tmp_path / f"{name}.cfg").write_text(text)
    # the cached limit is solved untraced: only verify's read of it counts
    assert main(["meanfield", "--config", str(tmp_path / "verify.cfg"),
                 "--out", str(tmp_path / "limit"), "--quiet"]) == 0
    return [(command, str(tmp_path / f"{name}.cfg")) for command, name in (
        ("train", "train"), ("train", "polynomial"), ("train", "diverging"),
        ("meanfield", "logistic"), ("meanfield", "smooth-bump"),
        ("meanfield", "picard"), ("verify", "verify"),
        ("verify", "verify-cached"), ("mnist-hist", "mnist"))]


def test_every_function_no_command_calls_is_kept_for_a_reason(tmp_path,
                                                             idx_files):
    """Code that no command calls goes, unless the acceptance tests or
    ``perfbench/trace.py`` call it: tiny runs down every command path leave
    uncalled exactly the functions of ``KEPT_UNCALLED``."""
    # a fresh interpreter, as a command starts: in this one, caches that
    # earlier tests filled would skip the functions behind them
    code = ("import json, sys\n"
            f"sys.path.insert(0, {str(TOOLS)!r})\n"
            "import command_traffic\n"
            "print(json.dumps(command_traffic.traffic("
            f"{_traffic_runs(tmp_path, idx_files)!r})))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True, timeout=120)
    codes, report = json.loads(child.stdout.splitlines()[-1])
    # the tiny verify studies fail their statistical checks (exit 4)
    assert codes == [0, 0, 3, 0, 0, 0, 4, 4, 0]
    uncalled = {f"{Path(module).stem}.{name}"
                for module, statements in report.items()
                for _, name, text in statements if text == "never called"}

    def under(name, kept):
        return name == kept or name.startswith(kept + ".")

    unlisted = {name for name in uncalled
                if not any(under(name, kept) for kept in KEPT_UNCALLED)}
    called = {kept for kept in KEPT_UNCALLED
              if not any(under(name, kept) for name in uncalled)}
    assert unlisted == set(), "no command calls these"
    assert called == set(), "a command calls these now"
