"""isoprod benchmark: exact workloads, each pass in a fresh interpreter.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Runs passes of one workload until ``--seconds`` have gone by.  A pass is
one child interpreter (``child.py``) that imports isoprod and runs every
operation of the workload once, in an order drawn from the seed; the seed
changes nothing else.  Every operation's output is checked against facts
pinned in ``expected.json`` that do not depend on which representative
the program emits.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under ``--trace 0`` and the per-layer metrics
under ``--trace 1`` (traced passes alternate with untraced ones, which
give the tracing overhead).  The line before it records the environment.
See README.md for the metrics and why each workload is there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The 33 specs builtin_groups_upto(16) returned when the benchmark was
# defined, pinned so that a change to the built-in list leaves the
# workload alone.
SWEEP_GROUPS = (
    "ab:2", "ab:3", "ab:2,2", "ab:4", "ab:5", "ab:6", "ab:7", "ab:2,2,2",
    "ab:2,4", "ab:8", "ab:3,3", "ab:9", "ab:10", "ab:11", "ab:2,6", "ab:12",
    "ab:13", "ab:14", "ab:15", "ab:2,2,2,2", "ab:2,2,4", "ab:4,4", "ab:2,8",
    "ab:16", "dih:3", "dih:4", "dih:5", "dih:6", "dih:7", "dih:8", "quat:8",
    "sym:3", "alt:4",
)
SWEEP_BOUNDS = (
    "--max-r", "3", "--max-s", "3", "--genus-cap", "33",
    "--branch-order-cap", "8", "--base-genera", "1,1", "--workers", "1",
)


def sweep_op(spec, bounds=SWEEP_BOUNDS):
    return [spec, ["classify", "--groups", spec, *bounds]]


def covers_op(spec, max_r):
    return [spec, ["covers", spec, "--b", "1", "--max-r", str(max_r),
                   "--genus-cap", "65"]]


def chartab_op(spec):
    return [spec, ["chartab", spec, "--format", "json"]]


WORKLOADS = {
    "sweep": {
        "kind": "classify",
        "setup": "isoprod.cli",
        "ops": [sweep_op(spec) for spec in SWEEP_GROUPS],
    },
    "covers": {
        "kind": "covers",
        "setup": "isoprod.cli",
        "ops": [
            covers_op("dih:8", 3), covers_op("ab:2,2,2,2", 3), covers_op("dih:5", 4),
            covers_op("ab:3,3", 4), covers_op("dih:4", 4), covers_op("quat:8", 4),
            covers_op("ab:2,2,2", 4),
        ],
    },
    "chartab": {
        "kind": "chartab",
        "setup": "isoprod.cli",
        "ops": [chartab_op(s) for s in ("sym:5", "alt:5", "dih:30", "ab:2,2,2,2,2,2")],
    },
    "lemma": {
        "kind": "lemma",
        "setup": "isoprod.characters",
        "ops": [[s, s] for s in ("dih:6", "ab:9", "ab:2,2,2", "alt:4")],
    },
}

# The scale of reported times: seconds the reference slice in child.py
# takes on a quiet 2.0 GHz Xeon vCPU.  The child times a slice before the
# first operation and after each one; an operation's time is multiplied
# by this over the mean of the two slices around it, which takes out the
# host's speed swings (up to 2x within a second on a shared machine).
# Setup and traced layer times are scaled by the pass's overall factor.
# The raw figures go to the info line.
REFERENCE_NOMINAL_S = 0.012

# A run ends before this many seconds even if a child hangs.
RUN_LIMIT_S = 170.0
CHILD_LIMIT_S = 120.0


def run_pass(workload, ops, traced, timeout):
    """One child interpreter over ``ops``.  Returns (report, setup_s,
    numpy_import_s, error); report is None when the child failed."""
    job = {
        "setup": workload["setup"],
        "kind": workload["kind"],
        "trace": traced,
        "ops": ops,
    }
    cmd = [sys.executable]
    if traced:
        cmd += ["-X", "importtime"]
    cmd.append(str(HERE / "child.py"))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, input=json.dumps(job), capture_output=True, text=True,
            timeout=timeout, cwd=ROOT, env=env,
        )
    except subprocess.TimeoutExpired:
        return None, None, None, f"pass exceeded {timeout:.0f} s"
    if proc.returncode != 0:
        return None, None, None, (proc.stderr.strip().splitlines() or ["?"])[-1]
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return None, None, None, "child printed no report"
    return report, report["ready"] - start, _numpy_import_s(proc.stderr), None


def _numpy_import_s(stderr):
    """Cumulative import time of numpy from ``-X importtime``; 0 when the
    program no longer imports it."""
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                return int(parts[1]) / 1e6
    return 0.0


def check_op(kind, op, expected):
    """An operation passes when it raised nothing and its facts match the
    pinned ones; a chartab must also satisfy sum chi(1)^2 = |G|."""
    if "error" in op or op["name"] not in expected:
        return False
    if kind == "chartab" and not op["facts"]["burnside"]:
        return False
    return op["facts"] == expected[op["name"]]


def run_workload(workload, expected, seed, seconds, trace):
    """Passes until ``seconds`` have gone by.  Returns (result, info)."""
    rng = random.Random(seed)
    start = time.perf_counter()
    attempted = failed = 0
    plain, traced = [], []
    raw_walls, raw_setups, speeds = [], [], []
    op_times = {}
    errors = []
    absent = set()
    while True:
        elapsed = time.perf_counter() - start
        enough = plain and (traced or not trace)
        if enough and elapsed >= seconds:
            break
        use_trace = trace and len(traced) < len(plain)
        ops = list(workload["ops"])
        rng.shuffle(ops)
        timeout = min(CHILD_LIMIT_S, RUN_LIMIT_S - elapsed)
        report, setup_s, numpy_s, error = run_pass(workload, ops, use_trace, timeout)
        attempted += len(ops)
        if report is None:
            failed += len(ops)
            errors.append(error)
            if not enough and len(errors) > 2:
                break
            continue
        refs = report["reference_s"]
        scaled = {
            op["name"]: op["seconds"] * 2 * REFERENCE_NOMINAL_S / (refs[i] + refs[i + 1])
            for i, op in enumerate(report["ops"])
            if "seconds" in op
        }
        raw_wall = sum(op.get("seconds", 0.0) for op in report["ops"])
        speed = sum(scaled.values()) / raw_wall if raw_wall else 1.0
        speeds.append(speed)
        raw_walls.append(raw_wall)
        raw_setups.append(setup_s)
        bad = [op for op in report["ops"]
               if not check_op(workload["kind"], op, expected)]
        failed += len(bad) + len(ops) - len(report["ops"])
        errors += [op.get("error", f"{op['name']}: output differs") for op in bad]
        sample = {"setup_s": setup_s, "peak_rss_mb": report["rss_mb"]}
        if use_trace:
            sample.update(report["layers"])
            sample["setup.numpy_import_s"] = numpy_s
        for key in sample:
            if key.endswith("_s"):
                sample[key] *= speed
        sample["wall_s"] = sum(scaled.values())
        if use_trace:
            absent.update(report["absent"])
            traced.append(sample)
        else:
            plain.append(sample)
            for name, op_s in scaled.items():
                op_times.setdefault(name, []).append(op_s)

    def median(samples, key):
        return statistics.median(s[key] for s in samples)

    metrics = {}
    if plain and not trace:
        # the typical pass: each operation at its median over the passes
        wall = sum(statistics.median(t) for t in op_times.values())
        metrics["wall_s"] = {"value": wall, "unit": "s"}
        metrics["setup_s"] = {"value": median(plain, "setup_s"), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": median(plain, "peak_rss_mb"), "unit": "MB"}
    elif plain and traced:
        for key in traced[0]:
            if key in ("wall_s", "setup_s", "peak_rss_mb"):
                continue
            metrics[key] = {"value": median(traced, key), "unit": _unit(key)}
        metrics["trace.overhead_s"] = {
            "value": median(traced, "wall_s") - median(plain, "wall_s"),
            "unit": "s",
        }
    walls = sorted(s["wall_s"] for s in plain)
    info = {
        "passes": len(plain) + len(traced),
        "traced_passes": len(traced),
        "wall_s": {
            "samples": len(walls),
            "median": statistics.median(walls) if walls else None,
            "min": walls[0] if walls else None,
            "max": walls[-1] if walls else None,
        },
        "op_latency_s": tail_latency([t for ts in op_times.values() for t in ts]),
        "speed": speeds,
        "raw_wall_s": raw_walls,
        "raw_setup_s": raw_setups,
        "absent": sorted(absent),
        "errors": errors[:10],
    }
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, info


def tail_latency(samples):
    """Median and the highest of the 75th, 90th, 95th and 99th percentiles
    with at least ten samples beyond it."""
    out = {"samples": len(samples)}
    if samples:
        out["median"] = statistics.median(samples)
    cuts = statistics.quantiles(samples, n=100) if len(samples) > 1 else []
    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = cuts[p - 1]
            break
    return out


def _unit(key):
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def git_revision():
    """HEAD of the checkout, read from .git without running git; None
    outside a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    try:
        return (ROOT / ".git" / name).read_text().strip()
    except OSError:
        pass
    try:
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "loadavg_1m_start": os.getloadavg()[0],
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "isoprod" / "__init__.py").is_file():
        sys.exit(f"no isoprod sources under {SRC}")
    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    env = environment(args.seed)
    result, info = run_workload(
        WORKLOADS[args.workload], expected, args.seed, args.seconds, bool(args.trace)
    )
    env["loadavg_1m_end"] = os.getloadavg()[0]
    print(json.dumps({"environment": env, "workload": args.workload, **info}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
