"""Rules on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "trajquad"


def test_no_assert_in_src():
    # invariants raise MethodError so that they survive python -O
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/trajquad: {found}"



def test_every_public_function_is_used():
    # a public library function that no src/ code calls and the package
    # does not export is a test-only reference; it belongs in its test.
    # cli.py's public functions are the command-line front end.
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    exported = {alias.asname or alias.name for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    # (module, top-level statement, every name and attribute it references)
    statements = [(name, node, {n.id if isinstance(n, ast.Name) else n.attr
                                for n in ast.walk(node)
                                if isinstance(n, (ast.Name, ast.Attribute))})
                  for name, tree in trees.items() for node in tree.body]
    unused = [f"{name}:{node.name}" for name, node, _ in statements
              if name not in ("__init__.py", "cli.py")
              and isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_") and node.name not in exported
              and not any(node.name in refs for _, other, refs in statements
                          if other is not node)]
    assert not unused, f"public functions nothing in src/trajquad uses: {unused}"
