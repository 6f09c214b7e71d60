"""tools/loc.py, the code-line count that CHANGES.md quotes per module."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "loc.py"
spec = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

SNIPPET = '''"""A module docstring,
over two lines."""

import os  # a comment on a code line

# a comment alone


def f(x):
    """A docstring."""
    y = """not a docstring,
    but a value"""
    return (x +
            y)


class C:
    "a one-line docstring"
    z = "a string that is a value"
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    # import; def, the assignment over two lines, the return over two; class, z
    assert loc.code_lines(SNIPPET) == 1 + 1 + 2 + 2 + 1 + 1
    assert loc.code_lines("") == 0
    assert loc.code_lines('"""only a docstring"""\n') == 0


def test_the_tool_counts_every_module_and_the_total(capsys, tmp_path):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert loc.main(["loc.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "    8  a.py\n    1  b.py\n    9  total\n"
