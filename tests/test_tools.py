"""Smoke tests of the repository's tools."""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_src_lines_counts_code_outside_docstrings_and_comments():
    # run_path compiles the script from source, so no bytecode is
    # written into tools/
    count = runpy.run_path(str(ROOT / "tools" / "src_lines.py"),
                           run_name="src_lines")["count"]
    text = ('"""doc."""\n\n# comment\nx = 1\n\ndef f():\n'
            '    """doc\n    more."""\n    return x  # tail\n')
    # 9 lines; code: x = 1, def f():, return x
    assert count(text) == (9, 3)
