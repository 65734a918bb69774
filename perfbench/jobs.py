"""The benchmark's workloads: their jobs, how a job runs, and its output checks.

Every job runs in this process.  ``compute`` and ``invariance`` jobs go
through the real entry point ``vlinkhom.cli.main``; ``flips`` jobs call the
library's ``betti_with_reversed_anchor`` directly, as the anchor-flip
acceptance check does.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import signal
from dataclasses import dataclass
from time import perf_counter

import gen

WORKLOADS = ("gf2_graded", "field_rank", "verify_sweep")

# The designated largest job of each workload: fixed inputs, whatever the seed.
LARGEST = {
    "gf2_graded": "t2_10",
    "field_rank": "q:s12_4",
    "verify_sweep": "flips:cinquefoil",
}

FP = "fp:1000003"
INVARIANCE_MOVES = 50
# The invariance jobs' --seed is the one, of SEED_CANDIDATES derived from the
# benchmark seed, whose moved corpus diagrams come nearest to the median
# total and largest chain dimension over seeds, so that every benchmark seed
# gives about the same work and peak memory.
SEED_CANDIDATES = 10
MOVED_TOTAL, MOVED_LARGEST = 17000, 5346
FLIPS_PER_DIAGRAM = 100
FLIP_THEORY = "f2_row7"


@dataclass(frozen=True)
class Job:
    id: str
    kind: str               # "compute" | "invariance" | "flips"
    theory: str             # key into the theories made by make_theories
    argv: tuple = ()        # CLI arguments of compute and invariance jobs
    path: str = ""          # diagram file of compute and flips jobs
    graded: bool = False


def make_theories(lib, workload):
    """The theories a workload's jobs use, built through the public API."""
    if workload == "gf2_graded":
        return {"manturov": lib.algebra.preset("manturov")}
    if workload == "field_rank":
        out = {}
        for key, name in (("q", "q"), ("fp", FP)):
            F = lib.fields.field_by_name(name)
            a, lam, mu = F.from_int(1), F.from_int(0), F.from_int(1)
            out[key] = lib.algebra.theory_from_triple(a, lam, mu, field=F)
        return out
    return {f"f2_row{n}": lib.algebra.preset(f"f2_row{n}") for n in range(1, 9)}


def invariance_rng(seed, d):
    """The random-move generator ``vlinkhom invariance --seed`` gives ``d``."""
    return random.Random(f"{seed}:{d.name or d.serialize()}")


def invariance_seed(lib, seed):
    """The --seed for the invariance jobs of a benchmark seed."""
    corpus = lib.corpus.load_corpus()

    def distance(s):
        dims = [gen.chain_dimension(lib.diagram.random_moves(
            d, INVARIANCE_MOVES, invariance_rng(s, d))[0].to_json_obj())
            for d in corpus]
        return (abs(sum(dims) - MOVED_TOTAL) / MOVED_TOTAL
                + abs(max(dims) - MOVED_LARGEST) / MOVED_LARGEST)

    return min(range(seed * SEED_CANDIDATES, (seed + 1) * SEED_CANDIDATES),
               key=distance)


def _crossings(obj):
    return sum(len(comp) for comp in obj["components"]) // 2


def make_jobs(lib, workload, seed, workdir, corpus_only=False):
    """Generate the workload's diagram files under ``workdir``; list its jobs."""
    corpus = [d.to_json_obj() for d in lib.corpus.load_corpus()]
    if workload == "gf2_graded":
        extra = ([gen.torus_2(k) for k in range(3, 11)]
                 + [gen.alternating_3(m) for m in range(2, 6)]
                 + gen.random_ladder(workload, seed, (8, 9, 10, 10)))
    elif workload == "field_rank":
        extra = ([gen.torus_2(k) for k in range(3, 7)]
                 + [gen.alternating_3(m) for m in range(2, 5)]
                 + gen.random_ladder(workload, seed, (6, 6, 7, 8)))
    elif workload == "verify_sweep":
        extra = []
    else:
        raise ValueError(f"unknown workload {workload!r}")
    diagrams = corpus + ([] if corpus_only else extra)
    paths = gen.write_diagrams(diagrams, workdir)

    jobs = []
    if workload == "gf2_graded":
        for obj in diagrams:
            name = obj["name"]
            jobs.append(Job(name, "compute", "manturov",
                            ("compute", "--diagram", paths[name],
                             "--theory", "manturov", "--graded"),
                            paths[name], graded=True))
    elif workload == "field_rank":
        for key, field in (("q", "q"), ("fp", FP)):
            for obj in diagrams:
                name = obj["name"]
                # dense elimination over Q takes 6-24 s per random code
                # above 6 crossings, so Q gets only the 6-crossing ones
                if key == "q" and name.startswith("rand") and _crossings(obj) > 6:
                    continue
                jobs.append(Job(f"{key}:{name}", "compute", key,
                                ("compute", "--diagram", paths[name],
                                 "--triple", "1,0,1", "--field", field),
                                paths[name]))
    else:
        moves_seed = str(invariance_seed(lib, seed))
        for n in range(1, 9):
            jobs.append(Job(f"invariance:f2_row{n}", "invariance", f"f2_row{n}",
                            ("invariance", "--moves", str(INVARIANCE_MOVES),
                             "--seed", moves_seed, "--theory", f"f2_row{n}")))
        for obj in corpus:
            jobs.append(Job(f"flips:{obj['name']}", "flips", FLIP_THEORY,
                            path=paths[obj["name"]]))
    return jobs


# ---------------------------------------------------------------------------
# running one job

class CapExceeded(Exception):
    """A job ran past its time cap."""


def _on_alarm(signum, frame):
    raise CapExceeded


@contextlib.contextmanager
def job_cap(seconds):
    """Raise CapExceeded in this thread once ``seconds`` of wall time pass."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def call_cli(cli, job):
    """Run ``vlinkhom.cli.main`` on the job's arguments; return (code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(job.argv))
    return code, buf.getvalue()


def flip_selectors(sms, rng, count):
    """``count`` random (state, circle key) anchor flips of a cube."""
    states = sorted(sms)
    out = []
    for _ in range(count):
        state = rng.choice(states)
        out.append((state, rng.choice(sms[state].circles).key))
    return out


def flip_rng(seed, diagram):
    return random.Random(f"{seed}:{diagram.name}")


def run_flips(lib, th, path, seed):
    """Betti numbers of a diagram, then under each of its seeded anchor flips."""
    d = lib.diagram.load_diagram(path)
    sms = lib.diagram.all_smoothings(d)
    base = lib.homology.homology_of(d, th).betti
    flipped = [lib.homology.betti_with_reversed_anchor(d, th, sel).betti
               for sel in flip_selectors(sms, flip_rng(seed, d), FLIPS_PER_DIAGRAM)]
    return base, flipped


def execute(env, job, seed):
    """Run a job, uncapped; its result is what ``check`` takes."""
    if job.kind == "flips":
        return run_flips(env.lib, env.theories[job.theory], job.path, seed)
    return call_cli(env.lib.cli, job)


def run_job(env, job, seed, cap_s):
    """Run a job under the cap; return (seconds, result or None, error or None)."""
    t0 = perf_counter()
    try:
        with job_cap(cap_s):
            result = execute(env, job, seed)
    except CapExceeded:
        return perf_counter() - t0, None, f"exceeded cap of {cap_s:.1f} s"
    except (Exception, SystemExit) as exc:  # a job that raises is a failed job
        return perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
    return perf_counter() - t0, result, None


# ---------------------------------------------------------------------------
# output checks

def check(job, result, pinned=None):
    """Return None if the job's output passes every check, else the reason."""
    if job.kind == "flips":
        base, flipped = result
        bad = sum(1 for b in flipped if b != base)
        if bad:
            return f"{bad} of {len(flipped)} anchor flips changed the Betti numbers"
        return None
    code, out = result
    if code != 0:
        return f"exit code {code}: {out.strip()[:300]}"
    try:
        payload = json.loads(out)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if job.kind == "compute":
        for rep in payload:
            if rep.get("euler_matches_jones") is not True:
                return f"{rep.get('diagram')}: Euler characteristic != Jones(1)"
            if job.graded and rep.get("graded_euler") != rep.get("kauffman_jones"):
                return f"{rep.get('diagram')}: graded Euler != Kauffman-Jones"
    elif payload.get("mismatches") != 0:
        return f"{payload.get('mismatches')} invariance mismatches"
    if pinned is not None:
        if job.id not in pinned:
            return "no pinned output for this job"
        if out != pinned[job.id]:
            return "output differs from the pinned copy"
    return None


def pinned_path(here, workload):
    return os.path.join(here, "pinned", f"{workload}.json")


def load_pinned(here, workload):
    with open(pinned_path(here, workload), encoding="utf-8") as fh:
        return json.load(fh)
