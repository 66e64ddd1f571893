"""The runtime is stdlib-only: every module that src/repring imports is in
the standard library or is repring itself (relative imports included).
Its records are named tuples, so no module imports `dataclasses`, and a
fresh `import repring.cli`, which every CLI process pays for, loads
neither `dataclasses` nor `inspect`."""

import ast
import os
import pathlib
import subprocess
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


def test_no_module_imports_dataclasses():
    for path in sorted(SRC.glob("*.py")):
        assert "dataclasses" not in set(imported_top_levels(path)), path.name


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S keeps site hooks from loading modules that repring does not.
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = "import sys, repring.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
