"""Command-line front end.

Commands:
  compute     homology / graded homology and the Euler-Jones cross-check
  verify      axiom report and 4-Tu check for a theory
  invariance  randomized R1/R2 harness and the R3-pair corpus check
  surface     closed-surface evaluation

Every command takes the six shared flags (--theory/--params/--triple/--field
and --out/--format) from one parent parser, and returns its report as
(JSON payload, text lines, ok); ``main`` writes the report in the chosen
format and maps ok to exit code 0 or 2.  A bad flag or a missing command is
an input error too, reported as JSON like the others.

Exit codes: 0 all checks pass, 1 computation error, 2 assertion or
mismatch, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import corpus
from .algebra import (TheoryParams, preset, theory_from_params,
                      theory_from_triple, verify_4tu, verify_axioms)
from .diagram import load_diagram, random_moves
from .errors import InputError, MismatchError, VlinkhomError, cut
from .fields import QQ, field_by_name
from .homology import graded_euler_poly, homology_of, stream_homology
from .jones import kauffman_jones
from .tqft import evaluate_closed_surface

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_MISMATCH = 2
EXIT_INPUT = 3

# The largest --moves that invariance accepts.  At the cap, 65,536 moves per
# diagram took 30 s over the default input at 30 MB max RSS (`--theory
# manturov`, one run, Python 3.11, 2-vCPU Linux); time and the trail of
# moves grow with the count.
_MAX_MOVES = 1 << 16


def _split_kv(text):
    plain, keyed = [], {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" in item:
            k, v = item.split("=", 1)
            keyed[k.strip().lower()] = v.strip()
        else:
            plain.append(item)
    return plain, keyed


def _field(args, own, source):
    """The field a theory selector runs over.  ``own`` is the field name
    its ``source`` fixes, or None; it and --field must name the same field
    where both are given, and the field is q where neither is."""
    named = [field_by_name(x) for x in (own, args.field) if x is not None]
    if len(named) == 2 and named[0] != named[1]:
        raise InputError(f"--field {cut(args.field)} does not match {source}, "
                         f"which is over {named[0].name}")
    return named[0] if named else QQ


def resolve_theory(args, check_constraints=True):
    """Build (theory, selector-echo) from the CLI flags; exactly one selector.

    With ``check_constraints=False`` a --params theory is built even when
    it violates eq1/eq2, so that ``verify`` can report the failure.
    """
    chosen = [x for x in (args.theory, args.params, args.triple) if x]
    if len(chosen) != 1:
        raise InputError("exactly one of --theory / --params / --triple is required")
    if args.theory:
        th = preset(args.theory)
        _field(args, th.field.name, f"preset {cut(repr(args.theory))}")
        return th, {"preset": args.theory.strip().lower()}
    if args.params:
        plain, keyed = _split_kv(args.params)
        if plain:
            raise InputError(f"--params items must be key=value, got {cut(repr(plain))}")
        fld = _field(args, keyed.pop("field", None), "--params")
        try:
            vals = {k: fld.parse(keyed.pop(k)) for k in ("a", "t", "lambda", "mu", "beta")}
        except KeyError as exc:
            raise InputError(f"--params is missing {exc.args[0]!r}") from None
        if keyed:
            raise InputError(f"unknown --params keys {cut(repr(sorted(keyed)))}")
        params = tuple(vals.values())  # a, t, lambda, mu, beta
        th = (theory_from_params(*params, field=fld) if check_constraints
              else TheoryParams(fld, *params))
        return th, {"params": {k: fld.to_str(v) for k, v in vals.items()},
                    "field": fld.name}
    plain, keyed = _split_kv(args.triple)
    if len(plain) != 3:
        raise InputError("--triple needs exactly three values a,lambda,mu")
    fld = _field(args, keyed.pop("field", None), "--triple")
    if keyed:
        raise InputError(f"unknown --triple keys {cut(repr(sorted(keyed)))}")
    a, lam, mu = (fld.parse(x) for x in plain)
    th = theory_from_triple(a, lam, mu, field=fld)
    return th, {"triple": [fld.to_str(a), fld.to_str(lam), fld.to_str(mu)],
                "field": fld.name}


def _load_diagrams(args):
    if args.diagram:
        return [load_diagram(p) for p in args.diagram]
    return corpus.load_corpus()


def _emit(args, payload, text_lines):
    if args.format == "text":
        body = "\n".join(text_lines) + "\n"
    else:
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _betti_json(result):
    return {str(i): b for i, b in sorted(result.betti.items())}


def cmd_compute(args):
    th, echo = resolve_theory(args)
    reports, lines = [], []
    for d in _load_diagrams(args):
        cube, res = stream_homology(d, th, graded=args.graded)
        jones = kauffman_jones(d, cube.smoothings)
        j1 = jones.at_one()
        ok = res.euler == j1
        rep = {
            "diagram": d.name or d.serialize(),
            "theory": echo,
            "dims": cube.dims(),
            "betti": _betti_json(res),
            "euler": res.euler,
            "jones_at_one": j1,
            "euler_matches_jones": ok,
        }
        line = (f"{rep['diagram']}: dims={rep['dims']} betti={rep['betti']} "
                f"euler={res.euler} jones(1)={j1} match={ok}")
        if args.graded:
            graded = graded_euler_poly(res)
            rep["qtable"] = {f"{i},{q}": v for (i, q), v in sorted(res.qtable.items())}
            rep["graded_euler"] = graded.to_json()
            rep["kauffman_jones"] = jones.to_json()
            # the witness of a mismatch: the lowest q whose coefficients differ
            if graded != jones:
                q = min(set(graded.terms) ^ set(jones.terms))[0]
                rep["graded_euler_differs_at_q"] = q
                line += f" graded_euler_differs_at_q={q}"
        reports.append(rep)
        lines.append(line)
        if args.graded:
            lines.append(f"  qtable={rep['qtable']}")
    return reports, lines, all(r["euler_matches_jones"] and "graded_euler_differs_at_q" not in r
                               for r in reports)


def cmd_verify(args):
    th, echo = resolve_theory(args, check_constraints=False)
    report = verify_axioms(th)
    ok4, witness4 = verify_4tu(th)
    F = th.field
    resolved = {k: F.to_str(v) for k, v in
                (("a", th.a), ("t", th.t), ("lambda", th.lam), ("mu", th.mu),
                 ("beta", th.beta), ("f", th.f), ("h", th.h))}
    payload = {
        "theory": echo,
        "resolved": resolved,
        "axioms": [{"name": c.name, "passed": c.passed,
                    **({"witness": c.witness} if c.witness and not c.passed else {})}
                   for c in report.checks],
        "four_tu": {"passed": ok4, **({"witness": witness4} if not ok4 else {})},
        "passed": report.passed and ok4,
    }
    lines = [f"theory {json.dumps(echo, sort_keys=True)}"]
    for check in (*payload["axioms"], {"name": "four_tu", **payload["four_tu"]}):
        lines.append(f"  [{'ok' if check['passed'] else 'FAIL'}] {check['name']}"
                     + (f"  {check['witness']}" if "witness" in check else ""))
    return payload, lines, payload["passed"]


def cmd_invariance(args):
    if not 0 <= args.moves <= _MAX_MOVES:
        raise InputError(f"--moves must be between 0 and {_MAX_MOVES:,}, got {args.moves}")
    th, echo = resolve_theory(args)

    def betti(d):
        return _betti_json(homology_of(d, th))

    reports, pair_reports, lines = [], [], []
    for d in _load_diagrams(args):
        name = d.name or d.serialize()
        before = betti(d)
        rng = random.Random(f"{args.seed}:{name}")
        moved, trail = random_moves(d, args.moves, rng)
        after = betti(moved)
        ok = before == after
        reports.append({
            "diagram": name,
            "moves_applied": len(trail),
            "final_crossings": moved.n,
            "betti_before": before,
            "betti_after": after,
            "match": ok,
            **({} if ok else {"trail": trail}),
        })
        lines.append(f"{name}: {len(trail)} moves, "
                     f"n={moved.n}, betti {'unchanged' if ok else 'CHANGED'}")
    # the built-in R3 pairs are checked only on the default input
    for da, db in [] if args.diagram else corpus.load_r3_pairs():
        pair = [betti(da), betti(db)]
        ok = pair[0] == pair[1]
        pair_reports.append({
            "pair": [da.name, db.name],
            "betti": pair,
            "match": ok,
        })
        lines.append(f"pair {da.name}/{db.name}: betti "
                     f"{'equal' if ok else 'DIFFER'}")
    mismatches = sum(not r["match"] for r in reports + pair_reports)
    lines.append(f"mismatches: {mismatches}")
    payload = {"theory": echo, "seed": args.seed, "moves": args.moves,
               "diagrams": reports, "r3_pairs": pair_reports,
               "mismatches": mismatches}
    return payload, lines, mismatches == 0


def cmd_surface(args):
    th, echo = resolve_theory(args)
    value = th.field.to_str(evaluate_closed_surface(th, args.genus, args.crosscaps))
    payload = {"theory": echo, "genus": args.genus, "crosscaps": args.crosscaps,
               "value": value}
    lines = [f"surface genus={args.genus} crosscaps={args.crosscaps}: {value}"]
    return payload, lines, True


class _Parser(argparse.ArgumentParser):
    """The parser of ``build_parser`` and of its subcommands.  An error is an
    InputError for ``main`` to report, prefixed by the parser's name and
    ``cut`` like any echo of an outside value."""

    def error(self, message):
        raise InputError(cut(f"{self.prog}: {message}"))


def build_parser():
    parser = _Parser(
        prog="vlinkhom",
        description="Exact link homology for virtual links from rank-two "
                    "extended Frobenius algebras.")
    # the theory selector and output flags that every command accepts
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--theory", help="preset name (f2_row1..f2_row8, manturov)")
    shared.add_argument("--params", help="explicit a=..,t=..,lambda=..,mu=..,beta=..[,field=..]")
    shared.add_argument("--triple", help="a,lambda,mu[,field=..] with beta = 0 and t solved")
    shared.add_argument("--field", default=None, help="q | f2 | fp:P (default q)")
    shared.add_argument("--out", help="write the report to this path instead of stdout")
    shared.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", parents=[shared],
                       help="homology and the Euler/Jones cross-check")
    p.add_argument("--diagram", action="append",
                   help="diagram file (text or JSON); repeatable; "
                        "defaults to the built-in corpus")
    p.add_argument("--graded", action="store_true",
                   help="quantum-graded homology (manturov-compatible theories)")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", parents=[shared], help="axiom report and 4-Tu check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("invariance", parents=[shared], help="randomized R1/R2 harness")
    p.add_argument("--diagram", action="append",
                   help="diagram file; repeatable; defaults to the corpus plus R3 pairs")
    p.add_argument("--moves", type=int, default=50)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_invariance)

    p = sub.add_parser("surface", parents=[shared], help="evaluate a closed surface")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--crosscaps", type=int, default=0)
    p.set_defaults(func=cmd_surface)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        payload, lines, ok = args.func(args)
        _emit(args, payload, lines)
    except (VlinkhomError, OSError) as exc:
        kind = type(exc).__name__ if isinstance(exc, VlinkhomError) else "OSError"
        sys.stdout.write(json.dumps(
            {"error": {"kind": kind, "message": str(exc)}}) + "\n")
        if isinstance(exc, (InputError, OSError)):
            return EXIT_INPUT
        return EXIT_MISMATCH if isinstance(exc, MismatchError) else EXIT_COMPUTE
    return EXIT_OK if ok else EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
