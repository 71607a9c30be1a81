"""tools/count_lines.py: how a module's lines split into code, docstring, comment and blank."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "count_lines", Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"
)
count_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment after code leaves a code line


def path():
    """Function docstring."""
    # a comment-only line
    text = """a multi-line string
is code on every line"""
    return os.path.join(text, "")
'''


def test_split_kinds_of_a_sample():
    assert count_lines.split(SAMPLE) == {"code": 5, "docstring": 3, "comment": 1, "blank": 3}


def test_main_rows_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    assert count_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "lines", "code", "docstring", "comment", "blank"],
        ["a.py", "12", "5", "3", "1", "3"],
        ["b.py", "3", "1", "0", "1", "1"],
        ["total", "15", "6", "3", "2", "4"],
    ]
