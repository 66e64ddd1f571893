"""The runtime is stdlib-only: every module that src/repring imports is in
the standard library or is repring itself (relative imports included)."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repring"


def imported_top_levels(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "repring" if node.level else node.module.split(".")[0]


def test_every_runtime_import_is_stdlib_or_repring():
    files = sorted(SRC.glob("*.py"))
    assert files
    allowed = set(sys.stdlib_module_names) | {"repring"}
    for path in files:
        outside = sorted(set(imported_top_levels(path)) - allowed)
        assert not outside, (path.name, outside)
