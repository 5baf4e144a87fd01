import argparse
import ast
import hashlib
import itertools
import json
import os
import shlex
import subprocess
import sys

import pytest

import corpus
import isoprod
from isoprod import cli
from isoprod.cli import main, make_parser
from isoprod.covers import (
    CoverStream,
    GeneratingVector,
    enumerate_vectors,
    validate_vector,
)
from isoprod.errors import (
    ConsistencyError,
    DomainError,
    GroupSpecError,
    IsoprodError,
    SizeError,
)
from isoprod.groups import build_group, builtin_groups_upto


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_chartab_ab2_json(capsys):
    code, out, _ = run(capsys, "chartab", "ab:2")
    assert code == 0
    data = json.loads(out)
    assert data["group"] == "ab:2"
    assert len(data["characters"]) == 2
    degrees = [c["degree"] for c in data["characters"]]
    assert degrees == [1, 1]


def test_chartab_ab2_values(capsys):
    code, out, _ = run(capsys, "chartab", "ab:2", "--format", "table")
    assert code == 0
    body = out.splitlines()
    assert any("-1" in line for line in body)


def test_chartab_sym3(capsys):
    code, out, _ = run(capsys, "chartab", "sym:3")
    data = json.loads(out)
    assert sorted(c["degree"] for c in data["characters"]) == [1, 1, 2]
    assert code == 0


def test_chartab_missing_cayley(capsys):
    code, _, err = run(capsys, "chartab", "cayley:missing.json")
    assert code == 1
    assert "missing.json" in err


@pytest.mark.parametrize(
    "table, code, message",
    [
        (5, 1, "list of rows"),
        ([[1, 0], [0]], 2, "row 1 has length 1, expected 2"),
        # x * y = -x - y mod 3: a Latin square without an identity
        ([[0, 2, 1], [2, 1, 0], [1, 0, 2]], 2, "no identity"),
        # JSON booleans are not integers, though isinstance(True, int) holds
        ([[True, False], [False, True]], 1, "list of rows of integers"),
    ],
)
def test_chartab_malformed_cayley(capsys, tmp_path, table, code, message):
    """A malformed cayley file is an error message and an exit code, not
    a traceback: a table that is not a list of rows is a bad spec (1), a
    ragged one a bad table (2)."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"table": table}))
    got, out, err = run(capsys, "chartab", f"cayley:{path}")
    assert (got, out) == (code, "")
    assert message in err


@pytest.mark.parametrize(
    "spec, error, code",
    [
        ("dih:1", GroupSpecError, 1),
        ("quat:6", GroupSpecError, 1),
        ("ab:x", GroupSpecError, 1),
        ("perm:", GroupSpecError, 1),
        ("perm:abc", GroupSpecError, 1),
        ("perm:(0 1)", GroupSpecError, 1),
        ("perm:(1 2)(3 4", GroupSpecError, 1),
        ("perm:(1 a)", GroupSpecError, 1),
        # S_6: the closure stops at the default order cap of 128
        ("perm:(1 2 3 4 5 6);(1 2)", SizeError, 2),
    ],
)
def test_chartab_rejects_bad_specs(capsys, spec, error, code):
    """A spec that ``build_group`` refuses is an error message and its
    class's exit code, with nothing on stdout: 1 for a spec that does not
    parse, 2 for a group above the order cap."""
    with pytest.raises(error):
        build_group(spec)
    got, out, err = run(capsys, "chartab", spec)
    assert (got, out) == (code, "") and err.startswith("error: ")


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("{not json", GroupSpecError, "invalid JSON"),
        ("[[0]]", GroupSpecError, "cayley file must be"),
        ('{"order": 3, "table": [[0, 1], [1, 0]]}', GroupSpecError, "does not match"),
    ],
)
def test_chartab_rejects_bad_cayley_files(capsys, tmp_path, text, error, message):
    """A cayley file that is not JSON, not an object or of the wrong
    order is refused with its error class, and through the CLI with that
    class's exit code and no stdout."""
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(error, match=message):
        build_group(f"cayley:{path}")
    got, out, err = run(capsys, "chartab", f"cayley:{path}")
    assert (got, out) == (error.exit_code, "") and message in err


def test_chartab_csv(capsys):
    code, out, _ = run(capsys, "chartab", "ab:4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("chi,degree")
    assert len(lines) == 5


def test_covers_klein(capsys):
    code, out, _ = run(
        capsys, "covers", "ab:2,2", "--b", "1", "--branch", "2,2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    genera = [json.loads(ln)["genus"] for ln in lines[:-1]]
    assert 3 in genera
    summary = json.loads(lines[-1])
    assert summary["count"] == len(genera)


def test_covers_bad_branch(capsys):
    """A --branch that does not parse, that lists no order, that lists
    an order below 2, or that lists more orders than --max-r allows is a
    usage error, and so is a base genus or cap out of range."""
    cases = [
        (("ab:2", "--branch", "x"), "bad --branch value"),
        (("ab:2,2", "--branch", ","), "--branch is empty"),
        (("ab:2,2", "--branch", "0"), "exact branch orders must be >= 2"),
        (("ab:2,2", "--branch", "2,-2"), "exact branch orders must be >= 2"),
        (("ab:2,2", "--branch", "2,2", "--max-r", "1"), "below the 2 branch orders"),
        (("ab:2", "--max-r", "-1"), "max_r must be >= 0"),
        (("ab:2", "--genus-cap", "0"), "genus_cap must be >= 1"),
        (("ab:2", "--b", "3"), "base genus must be 0, 1 or 2"),
        (("ab:2,2", "--branch-order-cap", "0"), "branch_order_cap must be >= 1"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, "covers", *argv)
        assert code == 1 and out == "" and message in err, argv


def test_covers_trivial_group(capsys):
    code, out, _ = run(capsys, "covers", "ab:1", "--b", "1", "--max-r", "2")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["count"] == 0


def test_covers_dedup_above_limit(capsys):
    """dih:17 (order 34) lies above the order-32 limit that dedup once
    had; it now dedups, one vector per orbit of |Aut| = 272, and
    --no-dedup still lists all of them."""
    argv = ["covers", "dih:17", "--b", "1", "--max-r", "2"]
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert json.loads(out.splitlines()[-1])["count"] == 123
    code, out, _ = run(capsys, *argv, "--no-dedup")
    assert code == 0
    assert json.loads(out.splitlines()[-1])["count"] == 33456 == 123 * 272


def test_covers_json_rows_match_json_dumps(capsys):
    """Each JSON row of ``covers`` is the sorted-key ``json.dumps`` of the
    vector's ``to_json()`` and its genus, for every built-in group of
    order <= 16 at b = 0, 1 and 2 (at b = 2 under genus cap 9, which
    keeps the run short: uncapped, the cyclic groups alone emit about
    40,000 rows)."""
    for spec in builtin_groups_upto(16):
        G = build_group(spec)
        for b, max_r, cap in ((0, 4, 65), (1, 2, 65), (2, 1, 9)):
            argv = ("--b", str(b), "--max-r", str(max_r), "--genus-cap", str(cap))
            code, out, _ = run(capsys, "covers", spec, *argv)
            want = [
                json.dumps(
                    {
                        "vector": GeneratingVector(G, b, ab[:b], ab[b:], gam).to_json(),
                        "genus": g,
                    },
                    sort_keys=True,
                )
                for ab, gam, g in enumerate_vectors(G, b, max_r, genus_cap=cap)
            ]
            assert code == 0 and out.splitlines()[:-1] == want, (spec, b)


def test_covers_csv_and_table_rows_match_records(capsys):
    """Each csv and table row of ``covers`` is built from the listed
    row's alphas, betas, gammas and genus, for every built-in group of
    order <= 16 at the settings of the JSON twin above; the csv output
    has a header and no summary, the table output a summary."""
    for spec in builtin_groups_upto(16):
        G = build_group(spec)
        for b, max_r, cap in ((0, 4, 65), (1, 2, 65), (2, 1, 9)):
            argv = ("--b", str(b), "--max-r", str(max_r), "--genus-cap", str(cap))
            covers = list(enumerate_vectors(G, b, max_r, genus_cap=cap))
            parts = [(ab[:b], ab[b:], gam, g) for ab, gam, g in covers]
            code, out, _ = run(capsys, "covers", spec, *argv, "--format", "csv")
            want = ["b,alphas,betas,gammas,genus"] + [
                f"{b},{' '.join(map(str, a))},{' '.join(map(str, be))},"
                f"{' '.join(map(str, ga))},{g}"
                for a, be, ga, g in parts
            ]
            assert code == 0 and out.splitlines() == want, (spec, b, "csv")
            code, out, _ = run(capsys, "covers", spec, *argv, "--format", "table")
            want = [
                f"b={b} alphas={list(a)} betas={list(be)} gammas={list(ga)} genus={g}"
                for a, be, ga, g in parts
            ]
            assert code == 0 and out.splitlines()[:-1] == want, (spec, b, "table")
            assert out.splitlines()[-1].startswith(f"{len(covers)} covers "), spec


@pytest.mark.parametrize(
    "argv",
    [
        ("covers", "ab:2,2", "--b", "1", "--max-r", "3", "--no-dedup", "--format", "table"),
        ("covers", "dih:4", "--b", "1", "--max-r", "3", "--no-dedup"),
        ("covers", "quat:8", "--b", "0", "--max-r", "4", "--no-dedup", "--format", "csv"),
    ],
)
def test_covers_prints_rows_listed_before_an_error(capsys, monkeypatch, argv):
    """When the listing raises ConsistencyError after k rows, stdout holds
    exactly the first k rows of the golden output (after the csv header),
    with no summary, stderr names the error and the exit code is 3."""
    code, full, _ = run(capsys, *argv)
    assert hashlib.sha256(full.encode()).hexdigest() == golden(argv)
    lines = full.splitlines(keepends=True)
    header = 1 if "csv" in argv else 0
    listed = enumerate_vectors

    for k in (0, 1, 128, 129, len(lines) - header - 2):

        def failing(*args, **kwargs):
            stream = listed(*args, **kwargs)

            def cut():
                yield from itertools.islice(stream, k)
                raise ConsistencyError("listing cut")

            return CoverStream(cut, stream.truncated)

        monkeypatch.setattr(cli, "enumerate_vectors", failing)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (3, "error: listing cut\n"), (argv, k)
        assert out == "".join(lines[: header + k]), (argv, k)


# commands whose stdout sha256 is pinned in tests/corpus.json; a change to
# any of these bytes must be deliberate
GOLDEN_STDOUT = (
    ("covers", "dih:4", "--b", "1", "--max-r", "3"),
    ("covers", "quat:8", "--max-r", "3", "--format", "table"),
    ("classify", "--groups", "ab:2,2,dih:4", "--max-r", "3", "--max-s", "3"),
    ("chartab", "sym:4", "--format", "table"),
    ("chartab", "alt:5", "--format", "table"),
    ("chartab", "dih:5", "--format", "csv"),
    ("covers", "ab:2,2", "--b", "1", "--max-r", "4", "--genus-cap", "3"),
    ("covers", "sym:3", "--b", "1", "--branch", "2,2"),
    ("covers", "dih:4", "--b", "1", "--max-r", "4"),
    (
        "classify", "--groups", "ab:2,4,quat:8", "--max-r", "3", "--max-s", "3",
        "--genus-cap", "9", "--full",
    ),
    (
        "classify", "--groups", "sym:3,ab:2,2", "--max-r", "2", "--max-s", "2",
        "--base-genera", "1,2;2,2", "--full",
    ),
    (
        "classify", "--groups", "ab:4,8", "--max-group-order", "32",
        "--max-r", "4", "--max-s", "4",
    ),
    ("covers", "dih:4", "--b", "1", "--max-r", "3", "--format", "csv"),
    (
        "surfaces", "ab:2,2", "--vc", "1|2|1|2,2", "--vd", "1|2|1|1,1",
        "--format", "table",
    ),
    ("verify-example", "1", "1", "1", "1", "1", "--format", "table"),
    ("covers", "dih:8", "--b", "1", "--max-r", "3", "--genus-cap", "65"),
    ("covers", "ab:2,2,2,2", "--b", "1", "--max-r", "3", "--genus-cap", "65"),
    # the default sweep: the 33 built-ins of order <= 16 at r, s <= 4
    ("classify",),
    # JSON, csv and table rows at b = 0 and b = 2, deduped and not
    ("covers", "dih:4", "--b", "0", "--max-r", "4"),
    ("covers", "sym:3", "--b", "2", "--max-r", "2"),
    ("covers", "dih:4", "--b", "1", "--max-r", "3", "--no-dedup"),
    ("covers", "dih:4", "--b", "0", "--max-r", "4", "--no-dedup"),
    ("covers", "ab:2,2", "--b", "2", "--max-r", "2", "--format", "csv"),
    ("covers", "quat:8", "--b", "0", "--max-r", "4", "--no-dedup", "--format", "csv"),
    ("covers", "ab:2,2", "--b", "2", "--max-r", "2", "--format", "table"),
    ("covers", "dih:4", "--b", "0", "--max-r", "4", "--format", "table"),
    ("covers", "dih:5", "--b", "0", "--max-r", "4", "--format", "csv"),
    ("covers", "ab:2,2", "--b", "1", "--max-r", "3", "--no-dedup", "--format", "table"),
    # two-digit element indices in the alphas and betas
    ("covers", "dih:6", "--b", "2", "--max-r", "1"),
    # rows kept by their Riemann-Hurwitz genus: the cap cuts inside one r
    # (69 rows, truncated), walked order multisets other than --branch
    # are dropped (3 rows), and 720 undeduped rows
    ("covers", "dih:6", "--b", "1", "--max-r", "3", "--genus-cap", "9"),
    ("covers", "ab:2,6", "--b", "0", "--branch", "2,6,6", "--format", "table"),
    (
        "covers", "dih:6", "--b", "0", "--max-r", "4", "--genus-cap", "6",
        "--no-dedup", "--format", "csv",
    ),
    # character tables of groups built from permutation, metacyclic and
    # abelian generator rows; Dixon at orders 120, 60 and 16
    ("chartab", "sym:5", "--format", "json"),
    ("chartab", "dih:30", "--format", "json"),
    ("chartab", "ab:2,2,2,2,2,2", "--format", "json"),
    ("chartab", "quat:16", "--format", "table"),
    ("chartab", "perm:(1 2 3 4);(1 2)", "--format", "table"),
)
_MANIFEST = corpus.load(corpus.MANIFEST)


def golden(argv):
    """The stdout sha256 that the manifest pins for ``argv``, a command
    that exits 0."""
    code, digest = _MANIFEST[shlex.join(argv)]
    assert code == 0, argv
    return digest


def test_golden_stdout(capsys):
    """Byte-identical stdout for fixed commands: pins the emission order
    of generating vectors, the bucket representatives and the table
    layout."""
    for argv in GOLDEN_STDOUT:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == golden(argv), argv


def test_covers_builds_no_records(capsys, monkeypatch):
    """``covers`` prints every format from the stream's raw rows, and a
    listing makes no record: with the record types replaced by ones that
    raise, each format still prints its golden bytes and a stream still
    iterates."""
    import isoprod.covers

    def refuse(*args):
        raise AssertionError("covers built a record")

    monkeypatch.setattr(isoprod.covers, "GeneratingVector", refuse)
    monkeypatch.setattr(isoprod.covers, "BranchedCover", refuse)
    pinned = [argv for argv in GOLDEN_STDOUT if argv[0] == "covers"]
    assert {"json", "csv", "table"} <= {
        argv[argv.index("--format") + 1] if "--format" in argv else "json"
        for argv in pinned
    }
    for argv in pinned:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == golden(argv), argv
    assert list(enumerate_vectors(build_group("dih:4"), 1, 2))


class _IterOnlyStream:
    """A stream with nothing but iteration and ``truncated``, the shape
    of a hook that times a listing's iteration; it counts the rows taken."""

    def __init__(self, stream):
        self._stream, self.truncated, self.taken = stream, stream.truncated, 0

    def __iter__(self):
        for row in self._stream:
            self.taken += 1
            yield row


def test_covers_reads_its_stream_only_by_iterating_it(capsys, monkeypatch):
    """``covers`` needs of its stream only iteration and ``truncated``:
    given a stream with nothing else, each format prints its golden
    bytes, and the printed count is the number of rows iterated."""
    streams = []

    def iter_only(*args, **kwargs):
        streams.append(_IterOnlyStream(enumerate_vectors(*args, **kwargs)))
        return streams[-1]

    monkeypatch.setattr(cli, "enumerate_vectors", iter_only)
    for argv in [argv for argv in GOLDEN_STDOUT if argv[0] == "covers"]:
        streams.clear()
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == golden(argv), argv
        lines = out.splitlines()
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
        if fmt == "json":
            count = json.loads(lines[-1])["count"]
        elif fmt == "table":
            count = int(lines[-1].split()[0])
        else:
            count = len(lines) - 1  # the csv header, and no summary
        (stream,) = streams
        assert count == stream.taken > 0, argv


def test_classify_error_records(capsys, monkeypatch):
    """A surface that fails to build is an error record naming the group,
    the message and both vectors, counted in "errors", with exit 3.  Every
    record names its group by the normalised spec its vectors carry, also
    when the typed spec (ab:1,2,2) is not normalised."""
    argv = ("classify", "--groups", "ab:1,2,2,ab:2,4", "--max-r", "2", "--max-s", "2")
    code, out, _ = run(capsys, *argv)
    *good, summary = map(json.loads, out.splitlines())
    assert code == 0 and summary["errors"] == 0 and good

    def fail(vC, vD):
        raise IsoprodError("no surface")

    monkeypatch.setattr("isoprod.classify.build_surface", fail)
    code, out, _ = run(capsys, *argv)
    *bad, summary = map(json.loads, out.splitlines())
    assert code == 3 and summary["errors"] == len(good)
    expected = [
        {"group": r["group"], "error": "no surface", "vC": r["vC"], "vD": r["vD"]}
        for r in good
    ]
    assert sorted(bad, key=json.dumps) == sorted(expected, key=json.dumps)
    assert {r["group"] for r in good} == {"ab:2,2", "ab:2,4"}
    for r in good + bad:
        assert r["group"] == r["vC"]["group"] == r["vD"]["group"]


@pytest.mark.parametrize(
    "argv",
    [
        ("covers", "ab:2", "--cache-dir", "x"),
        ("surfaces", "ab:2,2", "--vc", "1|2|1|2,2", "--vd", "1|2|1|1,1",
         "--cache-dir", "x"),
        ("verify-example", "1", "1", "1", "1", "1", "--cache-dir", "x"),
        ("classify", "--groups", "ab:2", "--format", "json"),
        ("surfaces", "ab:2,2", "--vc", "1|2|1|2,2", "--vd", "1|2|1|1,1",
         "--format", "csv"),
        ("verify-example", "1", "1", "1", "1", "1", "--format", "csv"),
        ("chartab", "sym:3", "--cache-dir", "x"),
        ("classify", "--groups", "ab:2", "--cache-dir", "x"),
    ],
)
def test_flags_without_effect_are_rejected(capsys, argv):
    """No subcommand takes --cache-dir (character tables live in
    memory only), classify has no --format, and csv exists only where it
    differs from the table format (chartab, covers)."""
    code, out, _ = run(capsys, *argv)
    assert code == 1 and out == ""


def test_covers_sym3_genus4(capsys):
    code, out, _ = run(capsys, "covers", "sym:3", "--b", "1", "--branch", "2,2")
    assert code == 0
    lines = out.strip().splitlines()
    genera = {json.loads(ln)["genus"] for ln in lines[:-1]}
    assert genera == {4}


def test_surfaces_roundtrip(capsys):
    code, out, _ = run(
        capsys, "surfaces", "ab:2,2", "--vc", "1|2|1|2,2", "--vd", "1|2|1|1,1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["q"] == 2 and data["K2"] == 8 and data["b2"] == 10
    assert len(data["aut0"]) == 2


def test_surfaces_not_free(capsys):
    code, _, err = run(
        capsys, "surfaces", "ab:2,2", "--vc", "1|2|1|2,2", "--vd", "1|2|1|2,2"
    )
    assert code == 2
    assert "not free" in err


def test_surfaces_bad_vector_syntax(capsys):
    code, _, err = run(capsys, "surfaces", "ab:2,2", "--vc", "1|2", "--vd", "x")
    assert code == 1
    code, _, err = run(
        capsys, "surfaces", "ab:2,2", "--vc", "1|a|1|2,2", "--vd", "1|2|1|1,1"
    )
    assert code == 1 and "bad integer in vector" in err


@pytest.mark.parametrize(
    "vc, message",
    [
        ("-1|||2,2", "base genus must be >= 0"),
        ("1|2,1|1|2,2", "need exactly 1 alphas and betas"),
        ("1|4|1|2,2", "element index 4 out of range"),
    ],
)
def test_surfaces_rejects_vectors_out_of_domain(capsys, vc, message):
    """A vector with a negative base genus, the wrong number of alphas or
    an element index out of range is a DomainError, and through the CLI
    a validation error (2) with no stdout."""
    with pytest.raises(DomainError, match=message):
        validate_vector(cli._parse_vector(build_group("ab:2,2"), vc))
    # one token, so that argparse takes "-1|..." for a value
    code, out, err = run(capsys, "surfaces", "ab:2,2", f"--vc={vc}", "--vd", "1|2|1|1,1")
    assert (code, out) == (2, "") and message in err


def test_classify_small(capsys):
    code, out, _ = run(
        capsys, "classify", "--groups", "ab:2,2", "--max-r", "2", "--max-s", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["conformance_failures"] == 0
    assert summary["errors"] == 0
    assert summary["nontrivial_aut0"] > 0
    for ln in lines[:-1]:
        rec = json.loads(ln)
        assert rec["conforms"] is True


def test_classify_nonabelian_control(capsys):
    code, out, _ = run(
        capsys, "classify", "--groups", "sym:3,dih:3,quat:8",
        "--max-r", "3", "--max-s", "3",
    )
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])
    assert summary["nontrivial_aut0"] == 0


def test_classify_usage_error(capsys):
    code, _, err = run(capsys, "classify", "--max-group-order", "0")
    assert code == 1


@pytest.mark.parametrize(
    "flags",
    [
        ("--max-group-order", "0"),
        ("--base-genera", "0,1"),
        ("--base-genera", "1,x"),
        ("--max-r", "-1"),
        ("--max-s", "-1"),
        ("--genus-cap", "1"),
        ("--base-genera", "1,1;1,1"),
        ("--base-genera", "1"),
        ("--branch-order-cap", "0"),
        ("--workers", "0"),
        ("--workers", "-3"),
    ],
)
def test_classify_bad_bounds_are_usage_errors(capsys, flags):
    """Every bad classify bound exits 1 with a message, whether it fails
    to parse or fails ``SearchBounds.validate``."""
    code, out, err = run(capsys, "classify", "--groups", "ab:2", *flags)
    assert code == 1 and out == "" and err.startswith("error: ")


SPEC_CASES = [
    ("ab:2,foo:3", 1, "unknown group family 'foo'"),
    ("ab:2,2,dih:4,ab:2,2", 1, "'ab:2,2' is listed twice"),
    ("ab:1,2,2,ab:2,2", 1, "'ab:2,2' is listed twice: as 'ab:1,2,2' and"),
    # one Cayley table under two perm: spellings
    (
        "perm:(1 2);(3 4),perm:(3 4);(1 2)",
        1,
        "is listed twice: as 'perm:(1 2);(3 4)' and 'perm:(3 4);(1 2)'",
    ),
    (",", 1, "--groups is empty"),
    ("ab:2,2,2,2,2,2,2,2", 0, None),
    ("sym:5", 0, None),
    ("ab:2,sym:5", 0, None),
    ("sym:5,sym:5", 1, "'sym:5' is listed twice"),
]


@pytest.mark.parametrize(
    "groups, code, message",
    SPEC_CASES,
    ids=[f"{groups}-{code}" for groups, code, _ in SPEC_CASES],
)
def test_classify_bad_and_oversized_specs(capsys, groups, code, message):
    """A spec that does not parse, an empty list, or one group listed
    twice, also under two spellings, is a usage error with its message; a
    group above --max-group-order is skipped, not counted as an error."""
    got, out, err = run(
        capsys, "classify", "--groups", groups, "--max-r", "1", "--max-s", "1"
    )
    assert got == code
    if code:
        assert out == "" and message in err
    else:
        assert json.loads(out)["errors"] == 0 and err == ""


def test_classify_checks_bounds_before_making_the_catalogue(capsys, monkeypatch):
    """A bad bound is refused before any group list is made: the
    catalogue of order <= 20,000 alone would take seconds."""

    def refuse(max_order):
        raise AssertionError(f"builtin_groups_upto({max_order}) was called")

    for module in (cli, isoprod.classify):
        monkeypatch.setattr(module, "builtin_groups_upto", refuse, raising=False)
    code, out, err = run(
        capsys, "classify", "--max-group-order", "20000", "--genus-cap", "1"
    )
    assert code == 1 and out == "" and "genus_cap must be >= 2" in err


def test_classify_builds_each_spec_once(capsys, monkeypatch):
    """``classify --groups`` with k distinct specs builds k groups: the
    duplicate check reads the groups the sweep builds."""
    built = []

    def counting(spec, *args, **kwargs):
        built.append(spec)
        return build_group(spec, *args, **kwargs)

    for module in (cli, isoprod.classify):
        monkeypatch.setattr(module, "build_group", counting, raising=False)
    specs = builtin_groups_upto(16)
    code, _, _ = run(
        capsys, "classify", "--groups", ",".join(specs), "--max-r", "1", "--max-s", "1"
    )
    assert code == 0 and built == specs


def test_classify_deterministic_output(capsys):
    argv = ["classify", "--groups", "ab:2,4", "--max-r", "2", "--max-s", "2"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_cache_dir_environment_is_ignored(capsys, tmp_path, monkeypatch):
    """ISOPROD_CACHE_DIR is not read: with it naming a directory that
    holds a corrupted table file for sym:4, under the name the on-disk
    table cache used, chartab prints the golden table and leaves
    the directory as it was."""
    name = "chartab-e4aba24b12c379a7bdeedb8c-v0.1.0.json"
    (tmp_path / name).write_text("{not json")
    monkeypatch.setenv("ISOPROD_CACHE_DIR", str(tmp_path))
    argv = ("chartab", "sym:4", "--format", "table")
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == golden(argv)
    assert [(p.name, p.read_text()) for p in tmp_path.iterdir()] == [
        (name, "{not json")
    ]


def test_verify_example_family1(capsys):
    code, out, _ = run(capsys, "verify-example", "1", "1", "1", "1", "1")
    assert code == 0
    data = json.loads(out)
    assert data["pg"] == 2 and data["q"] == 2 and data["K2"] == 8
    assert len(data["aut0"]) == 2 and data["conforms"] is True


def test_verify_example_family1_m2(capsys):
    code, out, _ = run(capsys, "verify-example", "1", "2", "1", "1", "1")
    data = json.loads(out)
    assert data["pg"] == 5 and data["K2"] == 32


def test_verify_example_family2_notes_delta(capsys):
    code, out, _ = run(capsys, "verify-example", "2", "1", "1", "1", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("# note")
    data = json.loads(lines[0])
    assert len(data["aut0"]) == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("3", "1", "1", "1", "1"), "unknown family '3'"),
        (("1", "1", "0", "1", "1"), "m, n, k, l must be >= 1"),
    ],
)
def test_verify_example_bad_input_is_usage(capsys, argv, message):
    """An unknown family or a parameter below 1 is a usage error (1),
    like a bad bound for covers or classify."""
    code, out, err = run(capsys, "verify-example", *argv)
    assert code == 1 and out == "" and message in err


def test_verify_example_exits_3_when_the_family_does_not_conform(
    capsys, monkeypatch
):
    """``verify-example`` tests Aut_0 = {1, gamma * gamma'} through the
    conformance check: when that check fails, nothing is printed and the
    exit code is 3, an internal consistency violation."""
    monkeypatch.setattr(cli, "check_conformance", lambda S, aut0: (False, "broken"))
    code, out, err = run(capsys, "verify-example", "1", "1", "1", "1", "1")
    assert (code, out) == (3, "") and "broken" in err


def test_bad_subcommand(capsys):
    assert main(["frobnicate"]) == 1


def test_version(capsys):
    assert main(["--version"]) == 0


def test_classify_starts_at_most_one_worker_per_group(capsys, monkeypatch):
    """``classify --workers 100000`` over the 33 built-ins of order <= 16
    asks for no pool and prints what ``--workers 1`` prints: the flag is
    accepted and ignored.  The ``multiprocessing`` context is a fake that
    records any pool size asked for, so no process is started."""
    import multiprocessing

    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(job) for job in jobs]

    class FakeContext:
        Pool = FakePool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: FakeContext)
    serial = run(capsys, "classify", "--workers", "1")
    assert run(capsys, "classify", "--workers", "100000") == serial
    assert sizes == []


def test_parser_is_built_once():
    assert make_parser() is make_parser()


def test_cli_options_are_pinned():
    """Every subcommand's 21 options, so that adding or removing a flag
    is an edit to this list."""
    (subparsers,) = [
        a for a in make_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    options = {
        name: [
            s
            for a in parser._actions
            for s in a.option_strings
            if s not in ("-h", "--help")
        ]
        for name, parser in subparsers.choices.items()
    }
    assert options == {
        "chartab": ["--format"],
        "covers": [
            "--b", "--max-r", "--branch", "--genus-cap", "--branch-order-cap",
            "--no-dedup", "--format",
        ],
        "surfaces": ["--vc", "--vd", "--format"],
        "classify": [
            "--groups", "--max-group-order", "--max-r", "--max-s",
            "--genus-cap", "--branch-order-cap", "--base-genera", "--workers",
            "--full",
        ],
        "verify-example": ["--format"],
    }


STDLIB_ONLY = """
import sys
# any import of numpy or multiprocessing now raises ImportError
sys.modules["numpy"] = None
sys.modules["multiprocessing"] = None
from isoprod.cli import main
sys.exit(
    main(["chartab", "sym:5"])
    or main([
        "classify", "--groups", "ab:2,2,sym:3", "--max-r", "2", "--max-s", "2",
        "--workers", "4",
    ])
)
"""


def test_runs_without_numpy():
    src = os.path.dirname(os.path.dirname(isoprod.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", STDLIB_ONLY],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(json.loads(lines[0])["characters"]) == 7
    assert json.loads(lines[-1])["nontrivial_aut0"] > 0


def test_library_keeps_no_file_state():
    """No module of the library imports os, and the one call to open()
    reads a cayley table file (groups._load_cayley): character tables
    and every other derived structure live in memory only.  No module
    assigns a dict, list or set at module level either, and no function
    that takes a group or a table (a parameter named G, mult, target or
    table) is wrapped in ``functools.lru_cache`` or ``functools.cache``:
    what is derived from a group is kept on that group (``_memo``), not
    in a global that outlives it."""
    root = os.path.dirname(isoprod.__file__)
    opens = []
    cached = []
    group_params = {"G", "mult", "target", "table"}
    mutable = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)

    def is_mutable(value):
        return isinstance(value, mutable) or (
            isinstance(value, ast.Call)
            and getattr(value.func, "id", None) in ("dict", "list", "set")
        )

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = getattr(target, "id", None) or getattr(target, "attr", None)
                if name in ("lru_cache", "cache") and params & group_params:
                    cached.append(where)
        if isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "os" for a in node.names), where
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[0] != "os", where
        if isinstance(node, ast.Call) and "open" in (
            getattr(node.func, "id", None),
            getattr(node.func, "attr", None),
        ):
            opens.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name)) as fh:
                module = ast.parse(fh.read())
            visit(module, name[:-3])
            for node in module.body:
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    assert not is_mutable(node.value), (name, node.lineno)
    assert opens == ["groups._load_cayley"]
    assert cached == []
