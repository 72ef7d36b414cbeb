"""Count the lines of each src/vortexlab module: total and code.

A line is code when it holds a token other than a comment and is not
part of a module, class or function docstring.  Run from anywhere:

    python tools/src_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vortexlab"
#: tokens that hold no code
LAYOUT = frozenset((tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER))


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers of the module's, classes' and functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text: str) -> tuple:
    """(total lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstring_lines(ast.parse(text)))


def main():
    totals = [0, 0]
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        totals = [totals[0] + lines, totals[1] + code]
        print(f"{path.name:<16}{lines:>7}{code:>7}")
    print(f"{'total':<16}{totals[0]:>7}{totals[1]:>7}")


if __name__ == "__main__":
    main()
