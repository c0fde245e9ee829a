"""README's `verify` table and audit list, read against the program table."""

import ast
import json
import re
from pathlib import Path

import numpy.testing as npt

from mvgear import cli
from mvgear.solvers import PROGRAMS, Program

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
HEADER = "| program | required flags | audits |"


def table_rows():
    """{program: (flag cell, audit cell)} of the README's verify table."""
    lines = [line.strip() for line in README.splitlines()]
    start = lines.index(HEADER) + 2  # past the header and its rule
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        name, flags, audits = (cell.strip() for cell in line.strip("|").split("|"))
        rows[Program(name.split()[0])] = flags, audits
    return rows


def test_readme_table_lists_every_program_with_its_flags_and_audits():
    rows = table_rows()
    assert set(rows) == set(PROGRAMS)
    for program, (flags, audits) in rows.items():
        entry = PROGRAMS[program]
        assert re.findall(r"--(\w+)", flags) == [
            *entry.required, *entry.optional, *entry.one_of], program
        assert tuple(re.findall(r"`(\w+)`", audits)) == entry.audits, program


def test_readme_names_the_check_of_each_audit_in_order():
    listed = re.findall(r"^\s*- `(\w+)` — `(\w+)`:", README, flags=re.MULTILINE)
    assert listed == [(name, check) for name, (check, _, _) in cli.AUDITS.items()
                      if name != "bound"]


def test_readme_library_example_gives_the_weights_its_comments_state():
    # The Library example runs as written; each statement whose comment
    # states weights ("# [0.45, 0.55]") binds a portfolio with those weights,
    # and the bound report it computes has the slack it states, within the
    # rounding the bound audit of `verify` allows.
    section = README[README.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    lines = code.splitlines()
    stated = {}
    for node in ast.parse(code).body:
        text = "\n".join(lines[node.lineno - 1:node.end_lineno])
        weights = re.search(r"#\s*(\[[^\]]*\])", text)
        if isinstance(node, ast.Assign) and weights:
            stated[node.targets[0].id] = json.loads(weights.group(1))
    assert stated == {"port": [0.45, 0.55], "limit": [0.45, 0.55]}
    for name, weights in stated.items():
        npt.assert_allclose(namespace[name].weights, weights, rtol=1e-13)
    assert namespace["report"].slack >= -1e-10
