"""Count code lines of the package: lines that are not blank, not comments, not docstrings.

Usage::

    python scripts/code_lines.py [PACKAGE_DIR]

``PACKAGE_DIR`` defaults to ``src/rigidmarket`` next to this script.
Prints one line per module, then the totals, as ``code`` and ``lines``
columns.  Docstrings are the string statements that open a module,
class or function, found with :mod:`ast`.
"""

import argparse
import ast
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rigidmarket"


def docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(code lines, all lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text, filename=str(path)))
    code = sum(
        1
        for number, line in enumerate(lines, start=1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )
    return code, len(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path, default=DEFAULT_PACKAGE)
    args = parser.parse_args(argv)
    total_code = total_lines = 0
    print(f"{'module':<20} {'code':>6} {'lines':>6}")
    for path in sorted(args.package.glob("*.py")):
        code, lines = count(path)
        total_code += code
        total_lines += lines
        print(f"{path.name:<20} {code:>6} {lines:>6}")
    print(f"{'total':<20} {total_code:>6} {total_lines:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
