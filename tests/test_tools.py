"""The repository's own tools."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


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
    reaches ``measure._select``'s branch for a w coordinate."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("n=8\nt_horizon=0.25\nbins=4\n")
    codes, report = _load("command_traffic").traffic([("train", str(cfg))])
    assert codes == [0]
    assert [s for s in report["meanfield_sgd/cli.py"] if s[1] == "cmd_train"] == []
    select = [text for _, name, text in report["meanfield_sgd/measure.py"]
              if name == "_select"]
    assert any('selector.startswith("w")' in text for text in select), select
