"""Pin the CLI output of every job on the default seed.

    python3 perfbench/pin.py

writes ``perfbench/pinned/<workload>.json`` ({job id: CLI stdout}).  The
benchmark then requires byte-identical output on the default seed, so run
this only on a commit whose output is known to be right.
"""

from __future__ import annotations

import json
import os
import sys

import jobs as J
import run


def main():
    sys.path.insert(0, run.SRC)
    os.makedirs(os.path.join(run.HERE, "pinned"), exist_ok=True)
    for workload in J.WORKLOADS:
        workdir = os.path.join(run.HERE, "out", f"pin-{workload}")
        env, _ = run.setup(workload, run.DEFAULT_SEED, workdir, corpus_only=False)
        outputs = {}
        for job in env.jobs:
            if job.kind == "flips":
                continue
            code, out = J.call_cli(env.lib.cli, job)
            if code != 0:
                sys.exit(f"{workload} {job.id}: exit code {code}\n{out}")
            outputs[job.id] = out
        with open(J.pinned_path(run.HERE, workload), "w", encoding="utf-8") as fh:
            json.dump(outputs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: pinned {len(outputs)} outputs")


if __name__ == "__main__":
    main()
