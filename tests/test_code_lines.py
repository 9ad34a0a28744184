"""tools/code_lines.py counts code lines, leaving out docstrings,
comments and blank lines."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from code_lines import code_lines  # noqa: E402

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment does not hide the code


def f(a,
      b):
    """Function docstring."""
    # a comment line
    text = """a string that is
not a docstring"""
    return a + b


class C:
    "Class docstring."

    x = 1
'''


def test_counts_code_and_leaves_out_docstrings_comments_and_blanks():
    # import; def over two lines; the assigned string's two lines;
    # return; class; x = 1
    assert code_lines(SOURCE) == 8


def test_empty_source_has_no_code():
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n# and a comment\n') == 0
