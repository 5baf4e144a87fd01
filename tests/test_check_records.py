"""tests/check_records.py re-derives classify's records from stdout alone."""

import ast
import json
from pathlib import Path

import pytest

import check_records
from isoprod.cli import main


def sweep_lines(capsys, *argv):
    assert main(["classify", *argv]) == 0
    return capsys.readouterr().out.splitlines()


def test_checker_imports_nothing_from_isoprod():
    """The checker shares no code with what it checks: no import names
    isoprod, and none is relative."""
    imported = []
    for node in ast.walk(ast.parse(Path(check_records.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported and not [m for m in imported if m.startswith((".", "isoprod"))]


@pytest.mark.parametrize(
    "argv, checked, unchecked",
    [
        # the default sweep, order <= 16: its nontrivial records only
        ((), 408, 0),
        # a record for every bucket pair, so a record wrongly left out
        # shows as a wrong Aut_0
        (("--full", "--max-group-order", "8"), 1384, 756),
    ],
)
def test_checker_accepts_the_sweep(capsys, argv, checked, unchecked):
    assert check_records.check_lines(sweep_lines(capsys, *argv)) == (
        checked,
        unchecked,
        [],
    )


@pytest.mark.parametrize(
    "field, edit",
    [
        ("weight", lambda rec: rec["weight"] + 1),
        ("aut0", lambda rec: [0]),
        ("aut0_labels", lambda rec: rec["aut0_labels"][::-1]),
        ("chi", lambda rec: rec["chi"] + 1),
        ("genus_C", lambda rec: rec["genus_C"] + 2),
        ("conforms", lambda rec: False),
        ("vD", lambda rec: {**rec["vD"], "gammas": rec["vC"]["gammas"]}),
    ],
)
def test_checker_refuses_an_edited_record(capsys, field, edit):
    """Each edited field of a true record is a failure on its line; an
    edited weight also breaks the summary's total."""
    lines = sweep_lines(capsys, "--groups", "ab:2,2", "--max-r", "2", "--max-s", "2")
    rec = json.loads(lines[0])
    rec[field] = edit(rec)
    _, _, failures = check_records.check_lines([json.dumps(rec), *lines[1:]])
    assert failures and failures[0][0] == 1
