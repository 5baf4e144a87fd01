"""Checks on the test suite itself: its time guard, the independence of
the oracles, and that the library keeps only code it calls."""

import ast
import inspect
import signal
import time
from pathlib import Path

import pytest

import oracles
from conftest import TEST_TIME_LIMIT_S, time_limit

SRC = Path(__file__).resolve().parent.parent / "src" / "isoprod"

# Functions and methods of src/isoprod that nothing inside it calls, each
# with the reason it stays; dunder methods are called by Python itself.
UNREFERENCED_ALLOWED = {
    "main": "the console-script entry point (pyproject.toml)",
    "find_constituent_avoiding": "criterion 8's induced-character lemma, "
    "the public API that perfbench's lemma workload calls",
}


def test_time_limit_interrupts_a_long_test():
    """A block that runs past its limit fails with TimeoutError at the
    limit, and the per-test guard around this very test is still armed
    afterwards."""
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        with time_limit(1):
            time.sleep(2)
    assert time.monotonic() - start < 1.9
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0] <= TEST_TIME_LIMIT_S


def _names_reached(fn):
    """Every name ``fn`` reads, imports or looks up as an attribute,
    following the other functions of ``oracles`` that it calls."""
    seen, todo, names = set(), [fn.__name__], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        tree = ast.parse(inspect.getsource(getattr(oracles, name)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found = [node.id]
            elif isinstance(node, ast.Attribute):
                found = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                found = [alias.name for alias in node.names]
            else:
                continue
            names.update(found)
            todo += [n for n in found if inspect.isfunction(getattr(oracles, n, None))]
    return names


@pytest.mark.parametrize("oracle", ["automorphisms", "automorphisms_by_leaves"])
def test_automorphism_oracles_do_not_use_the_map_test_they_check(oracle):
    """The automorphism oracles extend and check their maps on their own,
    so a fault in the library's map builder cannot reach them."""
    names = _names_reached(getattr(oracles, oracle))
    assert not names & {"_extend_map", "_is_multiplicative"}


def test_every_library_function_is_referenced_in_the_library():
    """Each function and method of src/isoprod is called or named
    somewhere in src/isoprod, so code that only the tests call lives
    with the tests; the exceptions are dunders and UNREFERENCED_ALLOWED."""
    defined, referenced = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = {
        name: where
        for name, where in defined.items()
        if name not in referenced
        and name not in UNREFERENCED_ALLOWED
        and not (name.startswith("__") and name.endswith("__"))
    }
    assert unreferenced == {}
    assert set(UNREFERENCED_ALLOWED) <= set(defined)
