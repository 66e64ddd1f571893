"""The README's examples, run as written.

Every `$ repring ...` line of README.md goes through `cli.run`, and its
stdout must equal the line printed below it.  The Python block of the
Library section runs statement by statement, and each expression whose
comment starts with a Python literal must evaluate to that literal.
"""

import ast
import pathlib
import shlex

from repring.cli import run

README = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_cli_examples_print_what_the_readme_shows(capsys):
    lines = README.splitlines()
    examples = [(line, lines[i + 1]) for i, line in enumerate(lines)
                if line.startswith("$ repring ")]
    assert len(examples) == 3
    for command, shown in examples:
        assert run(shlex.split(command)[2:]) == 0, command
        assert capsys.readouterr().out == shown + "\n", command


def test_library_block_gives_its_commented_values():
    block = README.split("```python\n", 1)[1].split("\n```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        comment = lines[stmt.lineno - 1].partition("#")[2].split()
        try:
            expected = ast.literal_eval(comment[0])
        except (IndexError, ValueError, SyntaxError):
            continue
        assert value == expected, lines[stmt.lineno - 1]
        checked.append(value)
    assert checked == [8, True, True, 3]
