#!/usr/bin/env python3
"""Write perfbench/reference.json: the expected output of every benchmark operation.

    python3 perfbench/make_reference.py

Runs each operation of every workload (full and smoke passes) once through
``rankcrit.cli.main`` and stores the part of its output that run.py checks
(see workloads.project).  It refuses to write the file if an operation exits
non-zero, a verify row is not ok, or an oracle value disagrees with the
criterion route.  The file is frozen from a trusted commit; regenerate it only
when an output format changes on purpose, never to make a failing run pass.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    run.import_rankcrit()
    ops, errors = {}, []
    for workload, passes in workloads.WORKLOADS.items():
        all_ops = [argv for pass_ops in passes for argv in pass_ops]
        truth = workloads.criterion_truth(all_ops) if workload == "oracle" else None
        for argv in all_ops:
            rc, out, err = run.call(argv)
            if rc != 0:
                errors.append(f"{workloads.key(argv)}: exit {rc} {err.strip()}")
                continue
            proj = workloads.project(argv, out)
            error = (workloads.concordance_error(proj, truth) if truth
                     else None if proj.get("all_ok", True) else "a verify row is not ok")
            if error:
                errors.append(f"{workloads.key(argv)}: {error}")
            ops[workloads.key(argv)] = proj
            print(f"{workloads.key(argv)}: ok", file=sys.stderr)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    env = run.environment()
    doc = {
        "generated_by": "python3 perfbench/make_reference.py",
        "git_commit": env["git_commit"],
        "source_sha256": env["source_sha256"],
        "ops": ops,
    }
    (run.BENCH / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
