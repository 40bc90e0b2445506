#!/usr/bin/env python3
"""Count the lines of each src/shgff module: all lines, and code lines, those
that are not blank, comments or docstrings (a line that holds code and a
comment is code). Then print the totals and the number of public names in
shgff.__all__, read without importing the package.

    python scripts/src_lines.py"""
import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "shgff"
_NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER)


def count(text: str) -> tuple:
    """(all lines, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docstrings)


def public_names(src: Path) -> int:
    """len(__all__) in the package's __init__.py."""
    for node in ast.parse((src / "__init__.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return len(ast.literal_eval(node.value))
    raise SystemExit(f"no __all__ in {src / '__init__.py'}")


def main() -> None:
    total = code = 0
    print("module,lines,code")
    for path in sorted(SRC.glob("*.py")):
        lines, loc = count(path.read_text())
        total, code = total + lines, code + loc
        print(f"{path.stem},{lines},{loc}")
    print(f"total,{total},{code}")
    print(f"__all__,{public_names(SRC)}")


if __name__ == "__main__":
    main()
