"""Benchmark of vlinkhom: exact homology of virtual links through its CLI.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``jobs.py``):

  gf2_graded    ``compute --theory manturov --graded`` on the corpus,
                T(2,3..10), the closures of (s1 s2^-1)^2..5 and four seeded
                random virtual codes of 8-10 crossings; largest job T(2,10)
  field_rank    ``compute --triple 1,0,1`` over Q and GF(1000003) on the
                corpus, T(2,3..6), (s1 s2^-1)^2..4 and seeded random codes
                of 6 crossings (Q) or 6-8 crossings (GF(p)); largest job Q
                on (s1 s2^-1)^4
  verify_sweep  ``invariance --moves 50 --seed N --theory f2_rowK`` for
                K = 1..8, then 100 seeded anchor flips per corpus diagram
                under f2_row7; largest job the flips of the cinquefoil

The seed picks the random codes, the invariance moves and the anchor flips;
random inputs are drawn so that every seed gives about the same work (see
``gen.random_ladder`` and ``jobs.invariance_seed``).

One process, one thread, one job at a time (a closed loop with one client).
Set-up imports ``vlinkhom`` from ``src/``, builds the theories and writes the
seeded diagram files under ``perfbench/out/``; it is repeated and its median
is ``setup_s``.  The untraced run (``--trace 0``) then makes passes over the
jobs, one at least and more while the next is expected to end within
``--seconds``, and reports

  setup_s        median set-up time (import, theories, diagram files)
  wall_s         time of one pass over the jobs: the sum over jobs of each
                 job's median time over the passes
  largest_job_s  the designated largest job's median time over the passes
  peak_rss_mb    peak resident set size of this process

Times are scaled to a reference machine speed (``speed.py``); the measured
wall times are printed on the summary line before the result.

The traced run (``--trace 1``) makes one pass in which each job runs
untraced and then traced, and reports the per-layer metrics of
``stages.py``; its spans go to
``perfbench/out/<workload>-<seed>/spans.jsonl``.

Every job's output is checked (exit code, Euler = Jones(1), graded Euler =
Kauffman-Jones, no invariance mismatch, flips keep the Betti numbers, and
on the default seed byte-identity with ``pinned/<workload>.json``).  A job
that fails a check, raises or runs past its cap counts as failed.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import types
from dataclasses import dataclass
from time import perf_counter

import jobs as J
import stages
from speed import Scaler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 1
SETUP_REPEATS = 5
JOB_CAP_S = 60.0     # per-job cap
RUN_LIMIT_S = 150.0  # no job may run past this point of the run
LAYERS = ("algebra", "fields", "diagram", "homology", "jones", "corpus", "cli")

@dataclass
class Env:
    lib: types.SimpleNamespace   # the vlinkhom modules, by layer name
    theories: dict
    jobs: list
    theory_s: float


def import_vlinkhom():
    """Import the program afresh from ``src/`` of this checkout."""
    for name in [m for m in sys.modules if m.split(".")[0] == "vlinkhom"]:
        del sys.modules[name]
    lib = types.SimpleNamespace(
        **{layer: importlib.import_module(f"vlinkhom.{layer}") for layer in LAYERS})
    if not os.path.abspath(lib.cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"vlinkhom was imported from {lib.cli.__file__}, not {SRC}")
    return lib


def setup(workload, seed, workdir, corpus_only):
    """Import, build the theories, write the diagram files; return (Env, s)."""
    t0 = perf_counter()
    lib = import_vlinkhom()
    t1 = perf_counter()
    theories = J.make_theories(lib, workload)
    t2 = perf_counter()
    jobs = J.make_jobs(lib, workload, seed, workdir, corpus_only)
    t3 = perf_counter()
    return Env(lib, theories, jobs, t2 - t1), t3 - t0


class Clock:
    """Caps each job at JOB_CAP_S and at what remains of RUN_LIMIT_S."""

    def __init__(self, start):
        self.start = start

    def cap(self):
        return min(JOB_CAP_S, RUN_LIMIT_S - (perf_counter() - self.start))


def run_pass(env, seed, clock, pinned, failures, scaler):
    """Run every job once, recording failures.

    Returns {job id: (reference seconds, measured seconds)}.
    """
    times = {}
    for job in env.jobs:
        cap = clock.cap()
        if cap <= 0:
            failures.append((job.id, f"exceeded cap: run limit of "
                                     f"{RUN_LIMIT_S:.0f} s reached"))
            continue
        seconds, result, error = J.run_job(env, job, seed, cap)
        times[job.id] = (seconds * scaler.factor(), seconds)
        if error is None:
            error = J.check(job, result, pinned)
        if error:
            failures.append((job.id, error))
    return times


def untraced(env, args, clock, pinned, failures, setup_times):
    """Whole passes while the next one is expected to end within --seconds."""
    passes = []
    scaler = Scaler()
    t0 = perf_counter()
    while True:
        t1 = perf_counter()
        passes.append(run_pass(env, args.seed, clock, pinned, failures, scaler))
        now = perf_counter()
        if clock.cap() <= 0 or (now - t0) + (now - t1) > args.seconds:
            break
    # each job's median (reference s, measured s) over the passes it ran in
    med = {}
    for job in env.jobs:
        runs = [p[job.id] for p in passes if job.id in p]
        if runs:
            med[job.id] = tuple(statistics.median(r[i] for r in runs) for i in (0, 1))
    big = J.LARGEST[args.workload]
    if big not in med:  # --corpus-only, or it never ran: the slowest job stands in
        big = max(med, key=lambda jid: med[jid][0])
    wall = [sum(m[i] for m in med.values()) for i in (0, 1)]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (wall[0], "s"),
        "largest_job_s": (med[big][0], "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }
    summary = (f"{len(passes)} passes, largest job {big}; measured wall "
               f"{wall[1]:.3f} s, largest job {med[big][1]:.3f} s, median speed "
               f"factor {statistics.median(scaler.factors):.3f}")
    return len(passes) * len(env.jobs), metrics, summary


def traced(env, args, clock, pinned, failures, theory_times, workdir):
    metrics, spans, errors = stages.traced_pass(
        env, args.seed, pinned, clock.cap, os.path.join(workdir, "spans.jsonl"))
    failures.extend(errors.items())
    metrics["algebra.theory_s"] = (statistics.median(theory_times), "s")
    return len(env.jobs), metrics, f"{spans} spans"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=J.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corpus-only", action="store_true",
                   help="run only the jobs on shipped corpus diagrams (smoke test)")
    args = p.parse_args(argv)
    start = perf_counter()

    if not os.path.isfile(os.path.join(SRC, "vlinkhom", "cli.py")):
        sys.stderr.write(f"perfbench: no vlinkhom sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(HERE, "out", f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    setup_times, theory_times = [], []
    scaler = Scaler()
    for _ in range(SETUP_REPEATS):
        env, seconds = setup(args.workload, args.seed, workdir, args.corpus_only)
        factor = scaler.factor()
        setup_times.append(seconds * factor)
        theory_times.append(env.theory_s * factor)
    pinned = J.load_pinned(HERE, args.workload) if args.seed == DEFAULT_SEED else None

    clock = Clock(start)
    failures = []
    if args.trace:
        attempted, metrics, summary = traced(env, args, clock, pinned, failures,
                                             theory_times, workdir)
    else:
        attempted, metrics, summary = untraced(env, args, clock, pinned, failures,
                                               setup_times)

    for job_id, reason in failures:
        sys.stderr.write(f"FAILED {job_id}: {reason}\n")
    failed = len(failures)
    print(f"# {args.workload} seed {args.seed}: {summary}; "
          f"failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
