"""Checks on the test suite itself: its time guard, the independence of
the oracles, and that the library keeps only code it calls."""

import ast
import inspect
import os
import signal
import subprocess
import sys
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
    """(names, attributes): every name ``fn`` reads or imports, and every
    name it looks up as an attribute, following the other functions of
    ``oracles`` that it calls; the names of those functions are left
    out."""
    seen, todo, names, attrs = set(), [fn.__name__], set(), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        tree = ast.parse(inspect.getsource(getattr(oracles, name)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found, into = [node.id], names
            elif isinstance(node, ast.Attribute):
                found, into = [node.attr], attrs
            elif isinstance(node, ast.ImportFrom):
                found, into = [alias.name for alias in node.names], names
            else:
                continue
            into.update(found)
            todo += [n for n in found if n in ORACLES]
    return names - seen, attrs


# the functions of tests/oracles.py, by name
ORACLES = {
    name: fn
    for name, fn in vars(oracles).items()
    if inspect.isfunction(fn) and fn.__module__ == oracles.__name__
}


@pytest.mark.parametrize("oracle", ["automorphisms", "automorphisms_by_leaves"])
def test_automorphism_oracles_do_not_use_the_map_test_they_check(oracle):
    """The automorphism oracles extend and check their maps on their own,
    so a fault in the library's map builder cannot reach them."""
    names, attrs = _names_reached(ORACLES[oracle])
    assert not (names | attrs) & {"_extend_map", "_is_multiplicative"}


def _library_functions():
    """(functions, methods): the names of src/isoprod's module-level
    functions and of its classes' methods, without dunders and
    properties, which read data."""
    functions, methods = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            into, defs = functions, [node]
            if isinstance(node, ast.ClassDef):
                into, defs = methods, node.body
            for f in defs:
                if (
                    isinstance(f, ast.FunctionDef)
                    and not f.name.startswith("__")
                    and not any(
                        isinstance(d, ast.Name) and d.id == "property"
                        for d in f.decorator_list
                    )
                ):
                    into.add(f.name)
    return functions, methods


_REGISTRY = {
    "subgroup_registry": "prunes images by generated-subgroup size; "
    "registry_by_saturation checks the registry",
    "extend": "the same registry",
}
_SIMS_BASE = {
    "_greedy_generators": "the base of the search, the generators "
    "validation picks",
    "_word_tree": "the words along which a map is extended; the map "
    "itself is extended and checked by _automorphism_from_images",
    **_REGISTRY,
}
_RAW_LISTING = {
    "_raw_tuples": "the full listing, orbit filter off, which "
    "test_raw_tuples_match_bruteforce checks; the filter it checks runs "
    "only with dedup on",
}

# The library functions each public oracle of tests/oracles.py may
# reach, each with the reason; an oracle not listed reaches none.
ORACLE_REACH = {
    "abelian_invariants": {
        "_memo": "keeps the invariants on G, as the library keeps what it "
        "derives",
        "cyclic_subgroup": "the powers of one element",
        "is_abelian": "its domain check",
    },
    "acts_trivially": {
        "center": "its domain check: sigma must be central",
        "compute_aut0": "not an oracle: the package's criterion read per "
        "element; aut0_complex is the oracle of compute_aut0",
    },
    "aut0_complex": {
        "character_table": "the exact table, which its own check() "
        "certifies; the criterion it checks, compute_aut0, is not reached",
    },
    "automorphisms": _SIMS_BASE,
    "automorphisms_by_leaves": _SIMS_BASE,
    "commutator_subgroup": {
        "_memo": "keeps the subgroup on G",
        "commutator": "three table lookups per pair of elements",
    },
    "cover_of_row": {
        "validate_vector": "not an oracle: makes the cover a test reads "
        "from a listed row, the one way the library makes one",
    },
    "dedup_by_marking": _SIMS_BASE,
    "first_constituent_by_scan": {
        "restriction_multiplicity": "checked against restriction_complex "
        "on its own; it checks the memo and kernel test of "
        "find_constituent_avoiding",
    },
    "fold_orthogonality_failures": {
        "conjugacy_classes": "the class sizes that weight the sums",
    },
    "invariant_signature": {
        "conjugacy_classes": "class sizes and element orders",
    },
    "lefschetz_numbers": {
        "conjugacy_classes": "reads the representatives of the classes M "
        "names; conjugacy and centralizers come from the table",
    },
    "lattice_by_every_element": {
        "extend": "a fresh registry extended by every element: it checks "
        "all_subgroups' choice of generators, and registry_by_saturation "
        "checks extend",
    },
    "listing_kept_by_multiset": {
        "_branch_plan": "the allowed gammas",
        "_counted_multisets": "the multiset keep rule; it checks the "
        "per-row weight filter of enumerate_vectors",
        "class_index": "the class of each gamma",
        **_RAW_LISTING,
    },
    "table_by_entries": {
        "_cycle_label": "labels the permutations as the library does, so "
        "that labels compare",
        "_parse_perm_gens": "reads a perm: spec's generators; it checks "
        "the table filled from them",
    },
}


@pytest.mark.parametrize("oracle", [n for n in ORACLES if not n.startswith("_")])
def test_oracles_reach_only_the_library_functions_listed(oracle):
    """Each oracle reaches exactly the library functions ORACLE_REACH
    gives it: module-level functions it names or imports, and functions
    and methods it looks up as attributes."""
    functions, methods = _library_functions()
    names, attrs = _names_reached(ORACLES[oracle])
    reached = names & functions | attrs & (functions | methods)
    assert reached == set(ORACLE_REACH.get(oracle, {}))


def test_oracle_reach_names_only_oracles():
    """ORACLE_REACH has no entry for an oracle that is gone."""
    assert set(ORACLE_REACH) <= set(ORACLES)


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


def _makes_a_cover(node):
    """Whether ``node`` calls ``BranchedCover``, ``module.BranchedCover``
    or one of its methods, such as ``BranchedCover._make``."""
    if not isinstance(node, ast.Call):
        return False
    f, names = node.func, []
    while isinstance(f, ast.Attribute):
        names.append(f.attr)
        f = f.value
    if isinstance(f, ast.Name):
        names.append(f.id)
    return "BranchedCover" in names


def test_only_validate_vector_makes_a_branched_cover():
    """Every call that makes a ``BranchedCover`` in src/isoprod lies
    inside ``validate_vector``, so every cover the library hands out
    has been validated."""
    calls, inside = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "validate_vector":
                inside |= {
                    (path.name, n.lineno) for n in ast.walk(node) if _makes_a_cover(n)
                }
            if _makes_a_cover(node):
                calls.add((path.name, node.lineno))
    assert inside and calls == inside


def test_start_up_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter that imports the CLI and the character layer
    has loaded neither ``dataclasses`` nor the ``inspect`` it pulls in:
    every record is a NamedTuple.  ``-S`` keeps site-packages hooks from
    loading them first."""
    probe = (
        "import sys, isoprod.cli, isoprod.characters; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"
