"""Command-line front end.

Subcommands: chartab, covers, surfaces, classify, verify-example.
Exit codes: 0 success, 1 usage error, 2 validation error, 3 internal
consistency violation (a bug, not bad input).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .characters import character_table
from .classify import SearchBounds, check_conformance, classify_all, compute_aut0
from .covers import GeneratingVector, enumerate_vectors
from .errors import ConsistencyError, DomainError, IsoprodError, UsageError
from .groups import build_group
from .surfaces import (
    EXAMPLE_FAMILIES,
    build_surface,
    example46_construct,
    example_family,
)


def _out(line=""):
    sys.stdout.write(line + "\n")


def _parse_vector(G, text):
    """``b|alphas|betas|gammas`` with comma-separated element indices,
    e.g. ``1|1|2|3,3``; empty parts for empty tuples."""
    parts = text.split("|")
    if len(parts) != 4:
        raise UsageError(
            f"vector {text!r} must have 4 '|'-separated parts: b|alphas|betas|gammas"
        )
    try:
        b = int(parts[0])
        tup = [
            tuple(int(t) for t in p.split(",") if t.strip() != "")
            for p in parts[1:]
        ]
    except ValueError as exc:
        raise UsageError(f"bad integer in vector {text!r}") from exc
    return GeneratingVector(G, b, tup[0], tup[1], tup[2])


# -- chartab -----------------------------------------------------------


def cmd_chartab(args):
    G = build_group(args.group)
    table = character_table(G)
    if args.format == "json":
        _out(json.dumps(table.to_json(), sort_keys=True))
        return 0
    e = table.exponent
    headers = ["chi", "degree"] + [
        f"{G.labels[c.representative]}[{len(c.members)}]" for c in table.classes
    ]
    rows = []
    for i, c in enumerate(table.characters):
        rendered = [
            table.value(i, cl.representative).render() for cl in table.classes
        ]
        rows.append([f"chi_{i}", str(c.degree)] + rendered)
    if args.format == "csv":
        _out(",".join(headers))
        for row in rows:
            _out(",".join('"%s"' % x if "," in x else x for x in row))
    else:
        _print_table(headers, rows)
        _out(f"exponent {e}, {len(table.classes)} classes, |G| = {G.order}")
    return 0


def _print_table(headers, rows):
    widths = [
        max(len(headers[j]), *(len(r[j]) for r in rows)) if rows else len(headers[j])
        for j in range(len(headers))
    ]
    _out("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for r in rows:
        _out("  ".join(x.ljust(w) for x, w in zip(r, widths)))


# -- covers ------------------------------------------------------------


def cmd_covers(args):
    G = build_group(args.group)
    exact = None
    if args.branch is not None:
        try:
            exact = [int(t) for t in args.branch.split(",") if t.strip()]
        except ValueError as exc:
            raise UsageError(f"bad --branch value {args.branch!r}") from exc
        if not exact:
            raise UsageError("--branch is empty")
    max_r = args.max_r if args.max_r is not None else (len(exact) if exact else 4)
    try:
        stream = enumerate_vectors(
            G,
            args.b,
            max_r,
            genus_cap=args.genus_cap,
            dedup=not args.no_dedup,
            branch_order_cap=args.branch_order_cap,
            exact_branch_orders=exact,
        )
    except DomainError as exc:
        # a bound out of range is bad user input, like a flag that does not parse
        raise UsageError(str(exc)) from exc
    # Rows are written from the raw (ab, gammas, genus) listing: every
    # entry is an element index, printed from one string made per index.
    # The listing fixes the alphas and betas outermost, so a row template
    # holding them is made once per run of rows sharing them; each row
    # then formats only its gammas and genus.  JSON rows are the
    # sorted-key json.dumps of {"vector": v.to_json(), "genus": g},
    # whose one string field is the spec.
    b, idx = args.b, [str(x) for x in range(G.order)]
    if args.format == "json":
        sep, genus_first = ", ", True
        pattern = (
            '{"genus": %%d, "vector": {"alphas": [%s], "b": ' + str(b)
            + ', "betas": [%s], "gammas": [%%s], "group": '
            + json.dumps(G.spec).replace("%", "%%%%") + "}}\n"
        )
    elif args.format == "csv":
        _out("b,alphas,betas,gammas,genus")
        sep, genus_first, pattern = " ", False, str(b) + ",%s,%s,%%s,%%d\n"
    else:
        sep, genus_first = ", ", False
        pattern = "b=" + str(b) + " alphas=[%s] betas=[%s] gammas=[%%s] genus=%%d\n"
    # one write per row, so the rows listed before an error reach stdout
    write, item, count = sys.stdout.write, idx.__getitem__, 0
    last_ab, row = None, None
    for count, (ab, gam, g) in enumerate(stream, 1):
        if ab != last_ab:
            last_ab = ab
            row = pattern % (
                sep.join(map(item, ab[:b])),
                sep.join(map(item, ab[b:])),
            )
        gammas = sep.join(map(item, gam))
        write(row % ((g, gammas) if genus_first else (gammas, g)))
    truncated = stream.truncated > 0
    if args.format == "json":
        _out(json.dumps({"count": count, "truncated": truncated}, sort_keys=True))
    elif args.format == "table":
        _out(f"{count} covers (truncated={truncated})")
    return 0


# -- surfaces ----------------------------------------------------------


def _print_record(data, fmt):
    """One JSON line, or sorted ``key: value`` lines."""
    if fmt == "json":
        _out(json.dumps(data, sort_keys=True))
    else:
        for k in sorted(data):
            _out(f"{k}: {data[k]}")


def cmd_surfaces(args):
    G = build_group(args.group)
    vC = _parse_vector(G, args.vc)
    vD = _parse_vector(G, args.vd)
    S = build_surface(vC, vD)
    aut0 = compute_aut0(S)
    data = S.to_json()
    data["aut0"] = sorted(aut0)
    data["aut0_labels"] = [G.labels[g] for g in sorted(aut0)]
    _print_record(data, args.format)
    return 0


# -- classify ----------------------------------------------------------


def cmd_classify(args):
    base_genera = []
    for tok in args.base_genera.split(";"):
        parts = tok.split(",")
        if len(parts) != 2:
            raise UsageError(f"bad base genus pair {tok!r}")
        try:
            pair = (int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise UsageError(f"bad base genus pair {tok!r}") from exc
        base_genera.append(pair)
    bounds = SearchBounds(
        max_group_order=args.max_group_order,
        max_branch_points_r=args.max_r,
        max_branch_points_s=args.max_s,
        genus_cap=args.genus_cap,
        base_genera=tuple(base_genera),
        branch_order_cap=args.branch_order_cap,
    )
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    groups = None
    if args.groups:
        # comma-separated specs; commas inside "ab:d1,d2" belong to the
        # preceding spec (tokens without ':' are continuations)
        groups = []
        for tok in args.groups.split(","):
            tok = tok.strip()
            if not tok:
                continue
            if ":" not in tok and groups:
                groups[-1] += "," + tok
            else:
                groups.append(tok)
        if not groups:
            raise UsageError("--groups is empty")
    try:
        records, summary = classify_all(bounds, groups, full=args.full)
    except DomainError as exc:
        # a bad bound or a group listed twice is bad user input, like a
        # flag that does not parse
        raise UsageError(str(exc)) from exc
    for rec in records:
        _out(json.dumps(rec, sort_keys=True))
    _out(json.dumps(summary, sort_keys=True))
    if summary["conformance_failures"] or summary["errors"]:
        return 3
    return 0


# -- verify-example ----------------------------------------------------


def cmd_verify_example(args):
    try:
        family = example_family(args.family)
        S = example46_construct(family, args.m, args.n, args.k, args.l)
    except DomainError as exc:
        # an unknown family or a parameter below 1 is bad user input
        raise UsageError(str(exc)) from exc
    aut0 = compute_aut0(S)
    if len(aut0) != 2:
        raise ConsistencyError(f"expected |Aut_0| = 2, got {len(aut0)}")
    # the family's gammas are uniform: conformance tests Aut_0 = {1, gC * gD}
    ok, reason = check_conformance(S, aut0)
    if not ok:
        raise ConsistencyError(f"the family does not conform: {reason}")
    gC = S.cover_C.vector.gammas[0]
    gD = S.cover_D.vector.gammas[0]
    sigma = S.group.mult[gC][gD]
    data = S.to_json()
    data["aut0"] = sorted(aut0)
    data["aut0_generator"] = S.group.labels[sigma]
    data["conforms"] = ok
    _print_record(data, args.format)
    if family == "z2_z2m_z2mn":
        _out(
            "# note: genus constants for this family follow Riemann-Hurwitz "
            "(g(C) = 4 m^2 n k + 1)"
        )
    return 0


# -- argument parsing --------------------------------------------------


@functools.cache
def make_parser():
    """The argument parser, built once per process."""
    p = argparse.ArgumentParser(
        prog="isoprod",
        description="Exact computation with surfaces isogenous to a product "
        "of curves (unmixed type).",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    q = sub.add_parser("chartab", help="exact character table of a group")
    q.add_argument("group")
    q.add_argument("--format", choices=("json", "csv", "table"), default="json")
    q.set_defaults(fn=cmd_chartab)

    q = sub.add_parser("covers", help="enumerate generating vectors / covers")
    q.add_argument("group")
    q.add_argument("--b", type=int, default=1, help="base genus")
    q.add_argument("--max-r", type=int, default=None)
    q.add_argument("--branch", default=None, help="exact branch orders, e.g. 2,2")
    q.add_argument("--genus-cap", type=int, default=65)
    q.add_argument("--branch-order-cap", type=int, default=None)
    q.add_argument("--no-dedup", action="store_true")
    q.add_argument("--format", choices=("json", "csv", "table"), default="json")
    q.set_defaults(fn=cmd_covers)

    q = sub.add_parser("surfaces", help="build one surface from two vectors")
    q.add_argument("group")
    q.add_argument("--vc", required=True, help="vector as b|alphas|betas|gammas")
    q.add_argument("--vd", required=True)
    q.add_argument("--format", choices=("json", "table"), default="json")
    q.set_defaults(fn=cmd_surfaces)

    q = sub.add_parser("classify", help="exhaustive sweep for nontrivial Aut_0")
    q.add_argument("--groups", default=None, help="comma-separated group specs")
    q.add_argument("--max-group-order", type=int, default=16)
    q.add_argument("--max-r", type=int, default=4)
    q.add_argument("--max-s", type=int, default=4)
    q.add_argument("--genus-cap", type=int, default=33)
    q.add_argument("--branch-order-cap", type=int, default=8)
    q.add_argument("--base-genera", default="1,1", help='pairs like "1,1;1,2"')
    q.add_argument(
        "--workers",
        type=int,
        default=1,
        help="accepted and ignored (must be >= 1); the sweep runs in one process",
    )
    q.add_argument(
        "--full",
        action="store_true",
        help="emit a record for every free bucket pair, standing for its "
        "`weight` vector pairs, not only for nontrivial Aut_0",
    )
    q.set_defaults(fn=cmd_classify)

    q = sub.add_parser("verify-example", help="check the explicit family")
    q.add_argument("family", help=f"1|2 or one of {EXAMPLE_FAMILIES}")
    q.add_argument("m", type=int)
    q.add_argument("n", type=int)
    q.add_argument("k", type=int)
    q.add_argument("l", type=int)
    q.add_argument("--format", choices=("json", "table"), default="json")
    q.set_defaults(fn=cmd_verify_example)
    return p


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags; our contract says usage = 1
        code = exc.code or 0
        return 0 if code == 0 else 1
    try:
        return args.fn(args)
    except IsoprodError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
