"""The traced run: each job's stages called one by one, inside recorded spans.

For every CLI job the traced run calls ``vlinkhom.cli.main`` once untraced
and once inside a ``cli.main`` span, then repeats the job's work stage by
stage through each module's public functions (the ``stages`` span).  Spans
are kept in memory and written out at the end.  A stage that a later call
repeats internally is timed on the same input and subtracted:

    homology.assemble_s  = build_complex(check=False) - smooth - classify
    homology.d2_guard_s  = build_complex(check=True) - build_complex(check=False)

During the traced CLI call the library stages that ``vlinkhom.cli`` calls
(CLI_STAGES) are wrapped in spans, so ``cli.self_s`` is the self time of the
``cli.main`` spans: argument parsing, file loading and JSON output.
``trace.overhead_s`` is the traced CLI calls' time minus the untraced ones'.

Times are scaled to reference speed by each job's factor (``speed.py``).
Counters are computed from the objects the stages return, so they repeat
exactly for a given seed.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from time import perf_counter

from jobs import (FLIPS_PER_DIAGRAM, CapExceeded, call_cli, check, flip_rng,
                  flip_selectors, invariance_rng, job_cap)
from speed import Scaler

# library functions the CLI calls, by name in ``vlinkhom.cli`` -> layer
CLI_STAGES = {
    "build_complex": "homology", "homology": "homology",
    "graded_homology": "homology", "jones_at_one": "jones",
    "kauffman_jones": "jones", "random_moves": "diagram",
}
COUNT_METRICS = (
    "diagram.states", "diagram.edges", "diagram.single_cycle_edges",
    "tqft.block_calls", "tqft.distinct_blocks",
    "homology.gens", "homology.nnz", "linalg.dense_cells",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index of the enclosing span, -1 at the top
    job: str


class Tracer:
    """Records spans in memory; nesting follows the ``with`` blocks."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name, job):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, job))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = perf_counter()

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path, factors):
        """One JSON line per span; ``factor`` is its job's speed factor."""
        with open(path, "w", encoding="utf-8") as fh:
            for s, own in zip(self.spans, self.self_times()):
                fh.write(json.dumps({"name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "job": s.job, "self": own,
                                     "factor": factors.get(s.job)}) + "\n")


class Counters:
    """Sizes of the cubes the stages build, summed over a pass."""

    def __init__(self):
        self.values = dict.fromkeys(COUNT_METRICS, 0)
        self.blocks = set()

    def add_cube(self, c, builds):
        v, edges = self.values, c.edges
        v["diagram.states"] += len(c.smoothings)
        v["diagram.edges"] += len(edges)
        v["diagram.single_cycle_edges"] += sum(
            1 for e in edges if e.kind == "single_cycle")
        # one elementary_map call per edge of every complex the job builds
        v["tqft.block_calls"] += len(edges) * builds
        self.blocks.update((e.kind, e.twist_in, e.twist_out) for e in edges)
        v["homology.gens"] += sum(c.dims())
        v["homology.nnz"] += sum(len(m.entries) for m in c.differentials.values())
        if c.theory.field.characteristic != 2:
            v["linalg.dense_cells"] += sum(
                len({r for (r, _), _ in m.entries}) * m.ncols
                for m in c.differentials.values() if m.entries)

    def result(self):
        return {**self.values, "tqft.distinct_blocks": len(self.blocks)}


def field_tag(field):
    return {2: "gf2", 0: "q"}.get(field.characteristic, "fp")


class StageRunner:
    """Runs one job's work stage by stage, recording spans and counters."""

    def __init__(self, env, tracer, counters, seed):
        self.env = env
        self.lib = env.lib
        self.tracer = tracer
        self.counters = counters
        self.seed = seed

    def cube(self, job_id, d, th, graded=False, jones=False, builds=1):
        """Time each stage of one cube, freeing what it returns outside the spans.

        Only the objects the CLI itself holds stay alive, so garbage
        collection walks the same heap as in the untraced run.
        """
        lib, span = self.lib, self.tracer.span
        with span("diagram.smooth", job_id):
            sms = lib.diagram.all_smoothings(d)
        with span("diagram.classify", job_id):
            edges = lib.diagram.cube_edges(d, sms)
        del sms, edges
        with span("homology.build", job_id):
            c = lib.homology.build_complex(d, th, check=False)
        del c
        with span("homology.build_checked", job_id):
            c = lib.homology.build_complex(d, th)
        with span(f"homology.rank.{field_tag(th.field)}", job_id):
            res = (lib.homology.graded_homology(c) if graded
                   else lib.homology.homology(c))
        if jones:
            with span("jones", job_id):
                lib.jones.jones_at_one(d, c.smoothings)
                if graded:
                    lib.jones.kauffman_jones(d, c.smoothings)
        self.counters.add_cube(c, builds)
        return c, res

    def compute(self, job, report):
        d = self.lib.diagram.load_diagram(job.path)
        c, res = self.cube(job.id, d, self.env.theories[job.theory],
                           graded=job.graded, jones=True)
        if report["betti"] != betti_json(res) or report["dims"] != c.dims():
            return "stage-by-stage homology differs from the CLI report"
        return None

    def invariance(self, job, payload):
        """The CLI's invariance command, stage by stage, with its move RNG."""
        lib, th = self.lib, self.env.theories[job.theory]
        moves = int(job.argv[job.argv.index("--moves") + 1])
        seed = int(job.argv[job.argv.index("--seed") + 1])
        for d, rep in zip(lib.corpus.load_corpus(), payload["diagrams"]):
            rng = invariance_rng(seed, d)
            before = self.cube(job.id, d, th)[1]
            with self.tracer.span("diagram.moves", job.id):
                moved, _ = lib.diagram.random_moves(d, moves, rng)
            after = self.cube(job.id, moved, th)[1]
            if (rep["final_crossings"] != moved.n
                    or rep["betti_before"] != betti_json(before)
                    or rep["betti_after"] != betti_json(after)):
                return f"{d.name}: stage-by-stage invariance differs from the CLI"
        for da, db in lib.corpus.load_r3_pairs():
            self.cube(job.id, da, th)
            self.cube(job.id, db, th)
        return None

    def flips(self, job):
        lib, th = self.lib, self.env.theories[job.theory]
        d = lib.diagram.load_diagram(job.path)
        c, base = self.cube(job.id, d, th, builds=1 + FLIPS_PER_DIAGRAM)
        selectors = flip_selectors(c.smoothings, flip_rng(self.seed, d),
                                   FLIPS_PER_DIAGRAM)
        del c
        bad = 0
        for sel in selectors:
            with self.tracer.span("homology.flip", job.id):
                res = lib.homology.betti_with_reversed_anchor(d, th, sel)
            bad += res.betti != base.betti
        return f"{bad} anchor flips changed the Betti numbers" if bad else None


@contextlib.contextmanager
def cli_stage_spans(cli, tracer, job_id):
    """Wrap the CLI's library stages in spans for the duration of the block."""
    originals = {name: getattr(cli, name) for name in CLI_STAGES if hasattr(cli, name)}

    def wrap(name, fn):
        span_name = f"{CLI_STAGES[name]}.{name}"

        def traced_stage(*args, **kwargs):
            with tracer.span(span_name, job_id):
                return fn(*args, **kwargs)
        return traced_stage

    try:
        for name, fn in originals.items():
            setattr(cli, name, wrap(name, fn))
        yield
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)


def betti_json(result):
    return {str(i): b for i, b in sorted(result.betti.items())}


def traced_job(runner, job, pinned, plain):
    """One job: untraced, then with spans (the CLI call, then its stages).

    The untraced call runs just before the traced one, so the two share the
    machine's state; its time goes to ``plain[job.id]``.
    """
    span, cli = runner.tracer.span, runner.lib.cli
    if job.kind == "flips":
        with span("job", job.id), span("stages", job.id):
            return runner.flips(job)
    t0 = perf_counter()
    untraced = call_cli(cli, job)
    plain[job.id] = perf_counter() - t0
    error = check(job, untraced, pinned)
    if error:
        return error
    with span("job", job.id):
        with span("cli.main", job.id), cli_stage_spans(cli, runner.tracer, job.id):
            result = call_cli(cli, job)
        if result != untraced:
            return "traced CLI output differs from the untraced output"
        payload = json.loads(result[1])
        with span("stages", job.id):
            if job.kind == "compute":
                return runner.compute(job, payload[0])
            return runner.invariance(job, payload)


def traced_pass(env, seed, pinned, cap_s, spans_path):
    """Run every job traced, write the spans; return (metrics, span count,
    errors by job id)."""
    tracer, counters = Tracer(), Counters()
    runner = StageRunner(env, tracer, counters, seed)
    scaler = Scaler()
    plain, factors, errors = {}, {}, {}
    for job in env.jobs:
        try:
            with job_cap(cap_s()):
                error = traced_job(runner, job, pinned, plain)
        except CapExceeded:
            error = "exceeded cap"
        except (Exception, SystemExit) as exc:  # a job that raises is a failed job
            error = f"raised {type(exc).__name__}: {exc}"
        factors[job.id] = scaler.factor()
        if error:
            errors[job.id] = error
    metrics = {k: (v, "s") for k, v in layer_metrics(tracer, plain, factors).items()}
    metrics.update({k: (v, "count") for k, v in counters.result().items()})
    tracer.write(spans_path, factors)
    return metrics, len(tracer.spans), errors


def layer_metrics(tracer, plain, factors):
    """Per-layer reference seconds from the spans of one traced pass.

    ``plain`` holds each CLI job's untraced seconds and ``factors`` each
    job's speed factor.
    """
    totals = {}
    cli_self = overhead = 0.0
    for s, own in zip(tracer.spans, tracer.self_times()):
        f = factors[s.job]
        totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start) * f
        if s.name == "cli.main":
            cli_self += own * f
            overhead += (s.end - s.start - plain[s.job]) * f
    t = lambda name: totals.get(name, 0.0)
    smooth, classify = t("diagram.smooth"), t("diagram.classify")
    return {
        "diagram.smooth_s": smooth,
        "diagram.classify_s": classify,
        "diagram.moves_s": t("diagram.moves"),
        "homology.assemble_s": t("homology.build") - smooth - classify,
        "homology.d2_guard_s": t("homology.build_checked") - t("homology.build"),
        "homology.rank_s.gf2": t("homology.rank.gf2"),
        "homology.rank_s.fp": t("homology.rank.fp"),
        "homology.rank_s.q": t("homology.rank.q"),
        "homology.flip_s": t("homology.flip"),
        "jones.s": t("jones"),
        "cli.self_s": cli_self,
        "trace.overhead_s": overhead,
    }
