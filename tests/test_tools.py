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
