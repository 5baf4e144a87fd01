"""Differential corpus: a fixed list of CLI commands whose exit codes and
stdout digests pin the program's output.

    python tests/corpus.py run OUT.json [--src DIR]   # digests of a checkout
    python tests/corpus.py compare A.json B.json      # exit 1 on a difference
    python tests/corpus.py check [--src DIR]          # run, compare with corpus.json

Every command runs in-process through ``isoprod.cli.main``, in list
order, and gives ``{argv: [exit code, stdout sha256]}`` with argv written
by ``shlex.join``.  ``--src`` names the ``src`` directory of the checkout
to run (by default the one beside this file), so a parent checkout
without this script can be run too.  ``corpus.json`` beside this file is
the committed manifest.  Re-pin it only for an intended output change,
and log the old and new digests.  ``pytest --corpus tests/test_corpus.py``
runs the full check; without ``--corpus`` only the command list is
checked against the manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "corpus.json"


def commands():
    """The corpus, in run order.  The group lists are the checkout's
    built-ins, so a change to the catalogue shows as a changed list."""
    from isoprod.groups import builtin_groups_upto

    out = []
    for spec in builtin_groups_upto(16):
        for b, max_r in ((0, 4), (1, 3), (2, 1)):
            argv = ("covers", spec, "--b", str(b), "--max-r", str(max_r))
            for extra in ((), ("--no-dedup",), ("--genus-cap", "7"), ("--format", "csv")):
                out.append(argv + extra)
    out += [
        ("covers", "sym:3", "--b", "1", "--branch", "2,2"),
        ("covers", "ab:2,6", "--b", "0", "--branch", "2,6,6", "--format", "table"),
        ("covers", "dih:6", "--b", "0", "--branch", "2,2,2,6"),
        ("covers", "dih:6", "--b", "0", "--branch", "2,2,2,6", "--no-dedup"),
        ("covers", "dih:4", "--b", "0", "--branch", "2,2,2,2", "--format", "csv"),
        ("covers", "quat:8", "--b", "0", "--branch", "4,4,4"),
        ("covers", "dih:5", "--b", "1", "--branch", "5", "--format", "table"),
        ("covers", "alt:4", "--b", "0", "--branch", "2,3,3", "--max-r", "4"),
        ("covers", "dih:8", "--b", "0", "--max-r", "4", "--branch-order-cap", "2"),
        ("covers", "dih:6", "--b", "1", "--max-r", "3", "--genus-cap", "9"),
        ("covers", "sym:3", "--branch", "1,2"),
        ("covers", "sym:3", "--branch", "2,x"),
        ("covers", "sym:3", "--branch", ","),
        ("covers", "sym:3", "--branch", "2,2", "--max-r", "1"),
        ("covers", "sym:3", "--b", "3"),
        ("covers", "sym:3", "--genus-cap", "0"),
        ("covers", "sym:3", "--branch-order-cap", "0"),
        ("covers", "nope:3"),
        ("classify",),
        ("classify", "--max-group-order", "64"),
        (
            "classify", "--full", "--base-genera", "1,1;1,2;2,1;2,2",
            "--max-r", "3", "--max-s", "3",
        ),
    ]
    extras = ("sym:5", "perm:(1 2 3 4);(1 2)", "perm:(1 2 3 4 5);(1 2)", "quat:16")
    for spec in builtin_groups_upto(64) + list(extras):
        for fmt in ("json", "table"):
            out.append(("chartab", spec, "--format", fmt))
    for fmt in ("json", "table"):
        for vc, vd in (
            ("1|2|1|2,2", "1|2|1|1,1"),
            ("1|1|2|3,3", "1|1|2|2,2"),
            ("1|2|1|2", "1|2|1|1,1"),  # the long relation fails
            ("1|2|1|2,2", "1|2|1"),  # three parts
            ("1|2|1|2,x", "1|2|1|1,1"),  # not an integer
            ("1|1|1|1,1", "1|2|1|1,1"),  # does not generate
        ):
            out.append(("surfaces", "ab:2,2", "--vc", vc, "--vd", vd, "--format", fmt))
        out.append(("surfaces", "sym:3", "--vc", "1|1|2|4", "--vd", "1|0|1|2,2", "--format", fmt))
        for family in ("1", "2"):
            for params in (("1", "1", "1", "1"), ("2", "1", "1", "2"), ("1", "2", "2", "1")):
                out.append(("verify-example", family, *params, "--format", fmt))
    out += [
        ("verify-example", "3", "1", "1", "1", "1"),
        ("verify-example", "1", "0", "1", "1", "1"),
        ("verify-example", "z2_z2m_z2mn", "1", "1", "1", "1"),
    ]
    # the rest of test_cli.GOLDEN_STDOUT
    out += [
        ("covers", "quat:8", "--max-r", "3", "--format", "table"),
        ("classify", "--groups", "ab:2,2,dih:4", "--max-r", "3", "--max-s", "3"),
        ("chartab", "dih:5", "--format", "csv"),
        ("covers", "ab:2,2", "--b", "1", "--max-r", "4", "--genus-cap", "3"),
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
        ("covers", "dih:8", "--b", "1", "--max-r", "3", "--genus-cap", "65"),
        ("covers", "ab:2,2,2,2", "--b", "1", "--max-r", "3", "--genus-cap", "65"),
        ("covers", "sym:3", "--b", "2", "--max-r", "2"),
        ("covers", "ab:2,2", "--b", "2", "--max-r", "2", "--format", "csv"),
        ("covers", "quat:8", "--b", "0", "--max-r", "4", "--no-dedup", "--format", "csv"),
        ("covers", "ab:2,2", "--b", "2", "--max-r", "2", "--format", "table"),
        ("covers", "dih:4", "--b", "0", "--max-r", "4", "--format", "table"),
        ("covers", "ab:2,2", "--b", "1", "--max-r", "3", "--no-dedup", "--format", "table"),
        (
            "covers", "dih:6", "--b", "0", "--max-r", "4", "--genus-cap", "6",
            "--no-dedup", "--format", "csv",
        ),
    ]
    # perm: specs whose points have gaps, and a cayley: table whose
    # identity is not at index 0; the fixture path is relative to the
    # repository root, where run_corpus runs
    for spec in (
        "perm:(2 5)(7 9);(5 7)",
        "perm:(3 6)(4 8 5)",
        "cayley:tests/fixtures/s3_identity_at_3.json",
    ):
        for fmt in ("json", "table"):
            out.append(("chartab", spec, "--format", fmt))
        out.append(("covers", spec, "--b", "1", "--max-r", "2"))
    # inputs that classify_all and enumerate_vectors refuse or skip
    out += [
        ("classify", "--groups", "ab:1,2,2,ab:2,2"),
        ("classify", "--groups", "ab:2,foo:3"),
        ("classify", "--groups", "ab:2,sym:5"),
        ("classify", "--groups", "sym:5,sym:5"),
        ("classify", "--max-group-order", "0"),
        ("classify", "--genus-cap", "1"),
        ("covers", "sym:3", "--branch", "0"),
    ]
    # sweeps whose Aut_0 the central-involution rule decides: every free
    # bucket pair a record, the other base genera, involutions only, and
    # abelian groups next to a non-abelian one
    out += [
        ("classify", "--full", "--max-r", "3", "--max-s", "3"),
        ("classify", "--base-genera", "1,2;2,1;2,2"),
        ("classify", "--branch-order-cap", "2"),
        (
            "classify", "--groups", "ab:2,2,2,ab:2,4,dih:4", "--full",
            "--max-r", "2", "--max-s", "4",
        ),
    ]
    return out


def run_corpus(src=None):
    """``{argv: [exit code, stdout sha256]}`` of every command, run on the
    ``isoprod`` under ``src`` (default: this checkout's) from the root of
    this checkout, which relative file paths in the commands start at."""
    sys.path.insert(0, str(src or HERE.parent / "src"))
    from isoprod.cli import main

    results = {}
    cwd = os.getcwd()
    os.chdir(HERE.parent)
    try:
        for argv in commands():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(list(argv))
            results[shlex.join(argv)] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
    finally:
        os.chdir(cwd)
    return results


def compare(old, new):
    """The argvs whose results differ or that one side lacks, in order."""
    return [k for k in {**old, **new} if old.get(k) != new.get(k)]


def load(path):
    return json.loads(Path(path).read_text())


def dump(results, path):
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in results.items()]
    Path(path).write_text("{\n" + ",\n".join(lines) + "\n}\n")


def _report(old, new):
    diff = compare(old, new)
    for k in diff:
        print(f"differs: {k}  {old.get(k)} -> {new.get(k)}")
    print(f"{len(diff)} of {len({**old, **new})} commands differ")
    return 1 if diff else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    q = sub.add_parser("run", help="write the digests of a checkout")
    q.add_argument("out")
    q.add_argument("--src", default=None)
    q = sub.add_parser("compare", help="compare two digest files")
    q.add_argument("old")
    q.add_argument("new")
    q = sub.add_parser("check", help="run, and compare with the manifest")
    q.add_argument("--src", default=None)
    args = p.parse_args(argv)
    if args.cmd == "run":
        dump(run_corpus(args.src), args.out)
        return 0
    if args.cmd == "compare":
        return _report(load(args.old), load(args.new))
    return _report(load(MANIFEST), run_corpus(args.src))


if __name__ == "__main__":
    sys.exit(main())
