"""Count the code lines of Python sources: the lines that hold a token other than a comment
or a module, class or function docstring.  Blank lines, comment lines and docstrings do not
count; a line that holds code and a comment counts once, and a string that is not a
docstring counts every line it spans.

    python tests/code_lines.py [PATH ...]

prints the count summed over every `.py` file under each path (default: `src`).  Not a
test module: pytest collects only `test_*.py`.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_starts(tree: ast.Module) -> set:
    """(line, column) where each module, class or function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(path: Path) -> int:
    """The code lines of one source file."""
    source = path.read_bytes()
    docstrings = docstring_starts(ast.parse(source, str(path)))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(paths) -> int:
    files = [f for p in map(Path, paths or ["src"])
             for f in ([p] if p.is_file() else sorted(p.rglob("*.py")))]
    print(sum(map(code_lines, files)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
