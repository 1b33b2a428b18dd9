"""Count the lines of code in the Python modules of a directory.

A line counts when it holds part of a statement: blank lines,
comment-only lines and docstrings (the leading string literal of a
module, class or function) are skipped.  Prints one ``<count>  <module>``
row per module, in path order, and a ``<count>  total`` row.

Run from the repository root:  python tools/count_code_lines.py src/pairpois
"""
import ast
import io
import pathlib
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, _SCOPES) or not node.body:
            continue
        first = node.body[0]
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Lines of ``source`` that hold code, docstrings excluded."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not pathlib.Path(args[0]).is_dir():
        print("usage: count_code_lines.py <dir>", file=sys.stderr)
        return 2
    root = pathlib.Path(args[0])
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = count_code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
