"""One pass of a benchmark workload, in a fresh interpreter.

Reads a job as JSON on stdin::

    {"setup": "isoprod.cli", "kind": "classify", "trace": false,
     "ops": [["ab:2,2", ["classify", "--groups", "ab:2,2", ...]], ...]}

imports the setup module, runs every operation in the order given and
prints one JSON object: the time the import finished, each operation's
seconds and output facts (or its error), the reference slices timed
before the first operation and after each one, the peak RSS, and with
``trace`` the per-layer metrics of the pass.  A fresh interpreter per
pass keeps module-level caches (character tables, group data) cold, as
they are for a command-line user.
"""

import importlib
import json
import sys
import time
from fractions import Fraction


def main():
    job = json.load(sys.stdin)
    importlib.import_module(job["setup"])
    ready = time.perf_counter()

    import contextlib
    import io
    import os
    import resource

    import isoprod

    src = os.path.realpath(os.environ["PYTHONPATH"])
    if os.path.dirname(os.path.dirname(os.path.realpath(isoprod.__file__))) != src:
        sys.exit(f"isoprod was imported from {isoprod.__file__}, not from {src}")

    tracer = None
    if job["trace"]:
        from tracer import ENTRY, Tracer

        tracer = Tracer()
        tracer.install()

    kind = job["kind"]
    references = [reference_s()]
    ops = []
    for name, arg in job["ops"]:
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                if tracer is None:
                    result = RUNNERS[kind](arg)
                else:
                    result = tracer.call(ENTRY, RUNNERS[kind], arg)[1]
            seconds = time.perf_counter() - t0
            facts = FACTS[kind](result, out.getvalue())
        except Exception as exc:  # one failed operation must not end the pass
            ops.append({"name": name, "error": f"{type(exc).__name__}: {exc}"})
        else:
            ops.append({"name": name, "seconds": seconds, "facts": facts})
        references.append(reference_s())

    report = {
        "ready": ready,
        "reference_s": references,
        "ops": ops,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracer import layer_metrics

        report["layers"] = layer_metrics(tracer)
        report["absent"] = tracer.absent
    sys.stdout.write(json.dumps(report) + "\n")


def reference_s():
    """Seconds for a fixed slice of pure-Python work like the program's
    inner loops: table lookups, tuple keys and dict updates, then exact
    Fraction sums.  The harness divides by these to take out the host's
    changing speed."""
    n = 32
    mult = [[(i * j + 3 * i + j) % n for j in range(n)] for i in range(n)]
    t0 = time.perf_counter()
    seen = {}
    for a in range(n):
        row = mult[a]
        for b in range(n):
            x = row[b]
            for c in range(n):
                key = (a, mult[x][c])
                seen[key] = seen.get(key, 0) + 1
    acc = Fraction(0)
    for k in range(1, 1200):
        acc += Fraction(k % 7 - 3, k % 11 + 1)
    return time.perf_counter() - t0


# -- running one operation -------------------------------------------------


def _run_cli(argv):
    from isoprod import cli

    return cli.main(argv)


def _run_lemma(spec):
    """Criterion 8, parts (i) and (ii), over every subgroup of one group:
    for each irreducible chi of H and each h in H outside Ker(chi), some
    constituent of chi^G has h outside its kernel; where chi^G vanishes
    at g, one also has g outside its kernel.  Returns the instances
    checked."""
    from isoprod import characters, groups

    G = groups.build_group(spec)
    tG = characters.character_table(G)
    checked = 0
    for elems in groups.all_subgroups(G):
        if len(elems) == 1:
            continue
        sc = characters.SubgroupChars(G, elems, parent_table=tG)
        for i in range(len(sc.table.characters)):
            outside = sorted(sc.elements - sc.kernel_in_parent(i))
            if not outside:
                continue
            vals = characters.induced_character(tG, sc, i)
            zero_reps = [
                cl.representative for cl, v in zip(tG.classes, vals) if v.is_zero()
            ]
            for h in outside:
                phi = characters.find_constituent_avoiding(tG, sc, i, [h])
                if h in tG.kernel(tG.index_of(phi)):
                    raise RuntimeError(f"part (i) fails: {spec}, chi_{i}, avoid {h}")
                checked += 1
            if zero_reps:
                g, h = zero_reps[0], outside[0]
                phi = characters.find_constituent_avoiding(tG, sc, i, [h], extra=g)
                if g in tG.kernel(tG.index_of(phi)):
                    raise RuntimeError(f"part (ii) fails: {spec}, chi_{i}, extra {g}")
                checked += 1
    return checked


RUNNERS = {
    "classify": _run_cli,
    "covers": _run_cli,
    "chartab": _run_cli,
    "lemma": _run_lemma,
}


# -- facts that do not depend on which representative is emitted -----------


def _classify_facts(code, text):
    lines = text.splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    keys = ("aut0_order", "weight", "conforms", "q", "pg", "K2", "b2")
    return {
        "exit": code,
        "summary": json.loads(lines[-1]),
        "records": sorted([r.get(k) for k in keys] for r in records),
    }


def _covers_facts(code, text):
    from collections import Counter

    from isoprod.groups import build_group

    lines = [json.loads(line) for line in text.splitlines()]
    tail = lines.pop()
    orders = {}
    signatures = Counter()
    for row in lines:
        spec = row["vector"]["group"]
        if spec not in orders:
            orders[spec] = build_group(spec).element_order
        branch = sorted(orders[spec][g] for g in row["vector"]["gammas"])
        signatures[json.dumps([row["genus"], branch])] += 1
    return {
        "exit": code,
        "count": tail["count"],
        "truncated": tail["truncated"],
        "rows": len(lines),
        "signatures": sorted([json.loads(k), n] for k, n in signatures.items()),
    }


def _chartab_facts(code, text):
    table = json.loads(text)
    degrees = sorted(c["degree"] for c in table["characters"])
    return {
        "exit": code,
        "order": sum(table["classes"]),
        "classes": len(table["classes"]),
        "degrees": degrees,
        "burnside": sum(d * d for d in degrees) == sum(table["classes"]),
    }


def _lemma_facts(checked, _text):
    return {"checked": checked}


FACTS = {
    "classify": _classify_facts,
    "covers": _covers_facts,
    "chartab": _chartab_facts,
    "lemma": _lemma_facts,
}


if __name__ == "__main__":
    main()
