"""Re-derive the records of ``isoprod classify`` from its stdout alone.

    python tests/check_records.py [STDOUT_FILE]    # default: stdin
    python tests/check_records.py --max-group-order 8 [STDOUT_FILE]

This imports nothing from isoprod.  For a record over an ``ab:`` group
it rebuilds G = Z_d1 + ... + Z_dk itself, with element i the mixed-radix
number of its coordinates (the last coordinate fastest), and checks:

- the labels in ``aut0_labels`` are those coordinates
- each vector is over the record's group, its gammas sum to 0 (the
  commutators of an abelian group vanish) and its entries generate G
- the genera follow from Riemann-Hurwitz, and the two stabilizer unions
  (the union of the <gamma_i>) meet in {0}, so G acts freely
- chi = (g_C - 1)(g_D - 1)/|G|, with q, pg, K2 and b2 derived from it
- Aut_0 is the set of sigma whose Lefschetz number on S,
  (1/|G|) sum_g L_C(sigma + g) L_D(g), equals its value at sigma = 0;
  L(h) is 2 - 2g at h = 0 and otherwise the integer fixed-point count
  sum_i [h in <gamma_i>] |G|/m_i (G is abelian, so a gamma's class is
  itself and every centralizer is G)
- a nontrivial Aut_0 has the classified shape: the gammas of C are all
  one involution s, those of D one involution t != s, Aut_0 = {0, s + t},
  and the record says it conforms
- such a record's ``weight`` is N_bC(s) N_bD(t), N_b(s) being the number
  of 2b-tuples of G that generate G together with s

The weights of the nontrivial records must sum to the summary's
``nontrivial_aut0``.  A record over any other group is counted as
unchecked; a nontrivial one is a failure, since Lemma B rules out a
nontrivial Aut_0 over a non-abelian group and this checker cannot tell
whether the group is abelian.

Given any of classify's bound flags (the rest default as in classify),
the stdout must be that of a sweep over the built-in catalogue
(``classify`` without ``--groups``) at those bounds, and the summary's
``nontrivial_aut0`` must equal a closed form, so that no nontrivial
pair is missing from the records.  Over every abelian G of
order <= the order cap, listed from its own invariant-factor chains, it
sums (sum_s U_C(s)) (sum_t U_D(t)) - sum_s U_C(s) U_D(s), s and t
running over the involutions of G, with

    U(s) = #{even r <= max_r : |G| r / 4 + 1 <= genus cap} N_1(s),

max_r being --max-r for C and --max-s for D.  The total is 0 unless the
base genera hold (1, 1) and the branch-order cap is >= 2.  The closed
form rests on Lemma B's shape, which the central-involution rule proves
inside the calculator's model (README); tier-1 tests the proof's steps
one by one.  The exit status is 1 on any failure.
"""

import argparse
import json
import sys
from itertools import product
from math import gcd, lcm, prod
from typing import NamedTuple


class RecordError(Exception):
    """A record, or the summary, that its own data contradicts."""


class Bounds(NamedTuple):
    """The bounds of a ``classify`` sweep, with classify's defaults."""

    max_group_order: int = 16
    max_r: int = 4
    max_s: int = 4
    genus_cap: int = 33
    branch_order_cap: int | None = 8
    base_genera: tuple = ((1, 1),)


def _require(condition, message):
    if not condition:
        raise RecordError(message)


def abelian_group(spec):
    """(add, labels, orders) of the group ``ab:d1,...,dk``: the addition
    table, the coordinate labels and the element orders, element i being
    the mixed-radix number of its coordinates, the last one fastest."""
    factors = [int(d) for d in spec[3:].split(",") if int(d) > 1]
    coords = list(product(*map(range, factors)))
    index = {c: i for i, c in enumerate(coords)}
    add = [
        [index[tuple((a + b) % d for a, b, d in zip(x, y, factors))] for y in coords]
        for x in coords
    ]
    labels = [str(c) for c in coords] if factors else ["1"]
    orders = [lcm(*(d // gcd(d, c) for c, d in zip(x, factors))) for x in coords]
    return add, labels, orders


def generated(add, gens, start=(0,)):
    """The subgroup generated by ``start`` (a subgroup) and ``gens``."""
    seen, todo = set(start), list(start)
    while todo:
        x = todo.pop()
        for g in gens:
            y = add[x][g]
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return frozenset(seen)


def completions(add, H, k, memo):
    """The number of k-tuples of G that generate G together with the
    subgroup H."""
    if k == 0:
        return int(len(H) == len(add))
    if (H, k) not in memo:
        memo[H, k] = sum(
            completions(add, generated(add, [g], H), k - 1, memo)
            for g in range(len(add))
        )
    return memo[H, k]


def invariant_chains(n, least=1):
    """The chains d_1 | ... | d_k of integers >= 2 with product n and d_1
    a multiple of ``least``; at least = 1, one per abelian group of
    order n."""
    if n == 1:
        return [()]
    return [
        (d, *rest)
        for d in range(2, n + 1)
        if n % d == 0 and d % least == 0
        for rest in invariant_chains(n // d, d)
    ]


def closed_form_total(bounds, groups=None):
    """The ``nontrivial_aut0`` of a catalogue sweep at ``bounds`` if every
    nontrivial pair has the classified shape: over each abelian G, the
    pairs of uniform vectors at base genus 1 (an even number of branch
    points, all gammas one involution) whose involutions s of C and t of
    D differ, N_1(s) N_1(t) for each admissible number of branch points
    on each side.  ``groups`` is a cache as in ``check_record``."""
    cap = bounds.branch_order_cap
    if (1, 1) not in bounds.base_genera or (cap is not None and cap < 2):
        return 0
    groups = {} if groups is None else groups
    total = 0
    # a group of odd order has no involution
    for n in range(2, bounds.max_group_order + 1, 2):
        # genus |G| r / 4 + 1 for r branch points of order 2 at base genus 1
        rC, rD = (
            sum(n * r // 4 + 1 <= bounds.genus_cap for r in range(2, max_r + 1, 2))
            for max_r in (bounds.max_r, bounds.max_s)
        )
        for chain in invariant_chains(n):
            spec = "ab:" + ",".join(map(str, chain))
            if spec not in groups:
                groups[spec] = abelian_group(spec), {}
            (add, _labels, orders), memo = groups[spec]
            N = [
                completions(add, generated(add, [s]), 2, memo)
                for s in range(n)
                if orders[s] == 2
            ]
            total += rC * rD * (sum(N) ** 2 - sum(x * x for x in N))
    return total


def _side(group, rec, side):
    """(gammas, genus, stabilizer union, Lefschetz numbers) of one
    factor's vector, after checking the vector and its genus."""
    add, _labels, orders = group
    n, v = len(add), rec["v" + side]
    b, gammas = v["b"], v["gammas"]
    entries = v["alphas"] + v["betas"] + gammas
    _require(v["group"] == rec["group"], f"v{side} is over another group")
    _require(len(v["alphas"]) == len(v["betas"]) == b, f"v{side}: not b alphas, betas")
    _require(all(0 <= x < n for x in entries), f"v{side}: an entry is out of range")
    _require(all(gammas), f"v{side}: a gamma is the identity")
    total = 0
    for g in gammas:
        total = add[total][g]
    _require(total == 0, f"v{side}: the gammas do not sum to 0")
    _require(len(generated(add, entries)) == n, f"v{side}: the entries miss G")
    # Riemann-Hurwitz: 2g - 2 = |G| (2b - 2 + sum_i (1 - 1/m_i))
    twice = n * (2 * b - 2) + sum(n - n // orders[g] for g in gammas)
    genus = twice // 2 + 1
    _require(
        twice % 2 == 0 and genus == rec["genus_" + side],
        f"genus_{side} is not {twice / 2 + 1}",
    )
    cyclic = [generated(add, [g]) for g in gammas]
    L = [2 - 2 * genus] + [
        sum(n // orders[g] for g, C in zip(gammas, cyclic) if h in C)
        for h in range(1, n)
    ]
    return gammas, genus, frozenset().union(*cyclic), L


def check_record(rec, groups):
    """Check one record over an ``ab:`` group; RecordError on the first
    contradiction.  ``groups`` keeps each group's data and a memo of its
    N_b counts between records, by spec."""
    spec = rec["group"]
    if spec not in groups:
        groups[spec] = abelian_group(spec), {}
    group, memo = groups[spec]
    add, labels, orders = group
    n = len(add)
    gC, genus_C, stab_C, LC = _side(group, rec, "C")
    gD, genus_D, stab_D, LD = _side(group, rec, "D")
    _require((stab_C & stab_D) == {0}, "the stabilizer unions meet outside {0}")
    num = (genus_C - 1) * (genus_D - 1)
    chi, q = num // n, rec["vC"]["b"] + rec["vD"]["b"]
    _require(num % n == 0 and rec["chi"] == chi, f"chi is not {num / n}")
    expected = {"q": q, "pg": chi + q - 1, "K2": 8 * chi, "b2": 4 * chi - 2 + 4 * q}
    _require(
        all(rec[k] == v for k, v in expected.items()), f"invariants are not {expected}"
    )
    euler = sum(map(prod, zip(LC, LD)))
    aut0 = [
        s for s in range(n) if sum(LC[add[s][g]] * LD[g] for g in range(n)) == euler
    ]
    _require(rec["aut0"] == aut0, f"aut0 is not {aut0}")
    _require(rec["aut0_order"] == len(aut0), f"aut0_order is not {len(aut0)}")
    _require(
        rec["aut0_labels"] == [labels[g] for g in aut0], "aut0_labels name others"
    )
    if len(aut0) == 1:
        return
    s, t = gC[0], gD[0]
    _require(
        set(gC) == {s} and set(gD) == {t} and orders[s] == orders[t] == 2 and s != t,
        "the gammas are not one involution per side, two distinct ones",
    )
    _require(aut0 == sorted({0, add[s][t]}), "Aut_0 is not {0, s + t}")
    _require(rec["conforms"] is True, "the record does not conform")
    weight = completions(add, generated(add, [s]), 2 * rec["vC"]["b"], memo)
    weight *= completions(add, generated(add, [t]), 2 * rec["vD"]["b"], memo)
    _require(rec["weight"] == weight, f"weight is not N(s) N(t) = {weight}")


def check_lines(lines, bounds=None):
    """Check the stdout of ``isoprod classify``, one JSON object a line,
    the summary last; with ``bounds`` (a ``Bounds``), that of a catalogue
    sweep, whose ``nontrivial_aut0`` must be ``closed_form_total``.
    Returns (checked, unchecked, failures), failures a list of (line
    number, message)."""
    rows = [json.loads(line) for line in lines if line.strip()]
    if not rows:
        return 0, 0, [(0, "no output")]
    *records, summary = rows
    checked, unchecked, failures = 0, 0, []
    groups, weights = {}, 0
    for number, rec in enumerate(records, 1):
        try:
            _require("error" not in rec, f"an error record: {rec.get('error')}")
            if rec["aut0_order"] > 1:
                weights += rec["weight"]
            if rec["group"].startswith("ab:"):
                check_record(rec, groups)
                checked += 1
            else:
                unchecked += 1
                _require(
                    rec["aut0_order"] == 1,
                    f"nontrivial Aut_0 over {rec['group']}, which Lemma B "
                    "rules out if the group is not abelian",
                )
        except (RecordError, LookupError, TypeError, ValueError) as exc:
            failures.append((number, f"{type(exc).__name__}: {exc}"))
    total = summary.get("nontrivial_aut0")
    if weights != total:
        message = f"the nontrivial weights sum to {weights}, not to the summary's"
        failures.append((len(rows), f"{message} {total}"))
    if bounds is not None and total != (want := closed_form_total(bounds, groups)):
        message = f"the summary's nontrivial_aut0 {total} is not the closed form's"
        failures.append((len(rows), f"{message} {want}"))
    return checked, unchecked, failures


def _base_genera(text):
    return tuple(tuple(int(x) for x in pair.split(",")) for pair in text.split(";"))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("stdout", nargs="?", help="a saved classify stdout (default: stdin)")
    # classify's bound flags; giving any of them checks the closed form
    p.add_argument("--max-group-order", type=int)
    p.add_argument("--max-r", type=int)
    p.add_argument("--max-s", type=int)
    p.add_argument("--genus-cap", type=int)
    p.add_argument("--branch-order-cap", type=int)
    p.add_argument("--base-genera", type=_base_genera)
    args = p.parse_args(argv)
    given = {f: v for f in Bounds._fields if (v := getattr(args, f)) is not None}
    bounds = Bounds(**given) if given else None
    if args.stdout:
        with open(args.stdout) as fh:
            lines = fh.readlines()
    else:
        lines = sys.stdin.readlines()
    checked, unchecked, failures = check_lines(lines, bounds)
    for number, message in failures:
        print(f"line {number}: {message}")
    print(f"{checked} checked, {unchecked} unchecked, {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
