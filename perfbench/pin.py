"""Write expected.json: the output facts of one pass of every workload.

    python3 perfbench/pin.py

Run it only when a change is meant to alter what the program outputs, and
say in the change which facts moved and why.  Facts never include a
representative vector, so a change of representative alone moves none.
"""

import json

from run import HERE, WORKLOADS, run_pass


def main():
    expected = {}
    for name, workload in WORKLOADS.items():
        report, _setup, _numpy, error = run_pass(
            workload, workload["ops"], False, 600.0
        )
        if report is None:
            raise SystemExit(f"{name}: {error}")
        facts = {}
        for op in report["ops"]:
            if "error" in op:
                raise SystemExit(f"{name} {op['name']}: {op['error']}")
            facts[op["name"]] = op["facts"]
        expected[name] = facts
    with open(HERE / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
