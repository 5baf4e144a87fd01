"""tests/check_records.py re-derives classify's records from stdout alone."""

import ast
import json
from pathlib import Path

import pytest

import check_records
from check_records import Bounds
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


# the two sweeps of tier-1 and their bounds, at which the checker also
# shows by the closed-form total that no nontrivial pair is missing
FULL_ORDER_8 = ("--full", "--max-group-order", "8")
SWEEP_BOUNDS = {(): Bounds(), FULL_ORDER_8: Bounds(max_group_order=8)}


@pytest.mark.parametrize(
    "argv, checked, unchecked",
    [
        # the default sweep, order <= 16: its nontrivial records only
        ((), 408, 0),
        # a record for every bucket pair, so a record wrongly left out
        # shows as a wrong Aut_0
        (FULL_ORDER_8, 1384, 756),
    ],
)
def test_checker_accepts_the_sweep(capsys, argv, checked, unchecked):
    lines = sweep_lines(capsys, *argv)
    assert check_records.check_lines(lines, SWEEP_BOUNDS[argv]) == (
        checked,
        unchecked,
        [],
    )


@pytest.mark.parametrize(
    "bounds, total",
    [
        (Bounds(), 2_275_200),
        (Bounds(max_group_order=8, max_r=3, max_s=3), 34_272),
        # r = 4 at order 16 gives genus 17, over the cap
        (Bounds(genus_cap=16), 837_504),
        (Bounds(base_genera=((1, 2), (2, 2))), 0),
        (Bounds(branch_order_cap=1), 0),
    ],
)
def test_closed_form_total(bounds, total):
    """The totals at these bounds; the first three are those
    ``classify`` prints."""
    assert check_records.closed_form_total(bounds) == total


def test_closed_form_refuses_a_sweep_that_lost_its_nontrivial_pairs(capsys):
    """A sweep that finds no nontrivial Aut_0, as one whose kernel test
    reads the characters of either factor (maskC | maskD) would, passes
    every record check but not the closed-form total."""
    argv = ("--max-group-order", "8", "--max-r", "3", "--max-s", "3")
    summary = json.loads(sweep_lines(capsys, *argv)[-1])
    lost = [json.dumps({**summary, "nontrivial_aut0": 0})]
    bounds = Bounds(max_group_order=8, max_r=3, max_s=3)
    assert check_records.check_lines(lost) == (0, 0, [])
    assert check_records.check_lines(lost, bounds) == (
        0,
        0,
        [(1, "the summary's nontrivial_aut0 0 is not the closed form's 34272")],
    )


def test_invariant_chains_count_the_abelian_groups():
    """One chain per abelian group: the numbers of abelian groups of
    orders 1 to 16 and 32, 64."""
    counts = [len(check_records.invariant_chains(n)) for n in range(1, 17)]
    assert counts == [1, 1, 1, 2, 1, 1, 1, 3, 2, 1, 1, 2, 1, 1, 1, 5]
    assert len(check_records.invariant_chains(32)) == 7
    assert len(check_records.invariant_chains(64)) == 11


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
