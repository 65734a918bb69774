"""CLI behaviour: flags, report schema, determinism, exit codes."""

import importlib
import json
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from vlinkhom import corpus
from vlinkhom.algebra import PRESET_NAMES, constraint_residuals
from vlinkhom.cli import build_parser, main
from vlinkhom.diagram import braid_closure
from vlinkhom.fields import PRIME_LIMIT, QQ
from vlinkhom.jones import LaurentPoly
from vlinkhom.tqft import MAX_SURFACE_COUNT

GOLDEN_DIR = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_compute_trefoil_triple(tmp_path, capsys):
    path = tmp_path / "trefoil.gauss"
    path.write_text("O1+,U2+,O3+,U1+,O2+,U3+\n")
    code, out = run(capsys, "compute", "--diagram", str(path),
                    "--triple", "1,0,1", "--field", "q")
    assert code == 0
    (rep,) = json.loads(out)
    assert rep["dims"] == [4, 6, 12, 8]
    assert rep["betti"] == {"0": 2}
    assert rep["euler"] == 2 and rep["jones_at_one"] == 2
    assert rep["euler_matches_jones"] is True
    assert rep["theory"] == {"triple": ["1", "0", "1"], "field": "q"}


def test_compute_graded_unknot(tmp_path, capsys):
    path = tmp_path / "unknot.json"
    path.write_text(json.dumps({"name": "unknot", "components": [[]]}))
    code, out = run(capsys, "compute", "--diagram", str(path),
                    "--theory", "manturov", "--graded")
    assert code == 0
    (rep,) = json.loads(out)
    assert rep["qtable"] == {"0,-1": 1, "0,1": 1}
    assert rep["graded_euler"] == {"-1": 1, "1": 1}


def test_compute_corpus_default_all_match(capsys):
    code, out = run(capsys, "compute", "--theory", "f2_row8")
    assert code == 0
    reports = json.loads(out)
    assert all(r["euler_matches_jones"] for r in reports)


def test_compute_rejects_two_selectors(capsys):
    code, out = run(capsys, "compute", "--theory", "manturov", "--triple", "1,0,1")
    assert code == 3
    assert "error" in json.loads(out)


def test_compute_unknown_preset_is_input_error(capsys):
    code, out = run(capsys, "compute", "--theory", "nope")
    assert code == 3


def test_compute_bad_diagram_file(tmp_path, capsys):
    path = tmp_path / "bad.gauss"
    path.write_text("O1+,U1-\n")
    code, out = run(capsys, "compute", "--diagram", str(path),
                    "--theory", "manturov")
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "SignMismatch"


_KINK = '{"c": 1, "o": false, "s": 1}'


@pytest.mark.parametrize("body, message", [
    ('{"components": [[{"c": 1, "o": true}, %s]]}' % _KINK, "needs keys 'c', 'o' and 's'"),
    ('{"components": [[{"c": 1, "o": tr', "invalid JSON"),
    ('{"components": [[{"c": "a", "o": true, "s": 1}, %s]]}' % _KINK, "'c' must be an integer"),
    ('{"components": 5}', "list of lists of passages"),
    ('{"components": [[{"c": 1, "o": "no", "s": 1}, %s]]}' % _KINK, "'o' must be true or false"),
    ('{"components": [[{"c": true, "o": true, "s": 1}, %s]]}' % _KINK, "'c' must be an integer"),
    ('{"components": [[{"c": 1.5, "o": true, "s": 1}, %s]]}' % _KINK, "'c' must be an integer"),
    (b'{"name": "caf\xe9", "components": [[]]}', "not UTF-8"),
    # past int()'s digit limit and the parser's nesting limit
    ('{"components": [[{"c": %s, "o": true, "s": 1}]]}' % ("1" * 5000), "too many digits"),
    ('{"components": %s}' % ("[" * 100000 + "]" * 100000), "nested too deeply"),
], ids=["missing_s", "truncated", "c_string", "components_int", "o_string",
        "c_bool", "c_float", "not_utf8", "c_5000_digits", "nested_100000_deep"])
def test_compute_malformed_json_diagram(tmp_path, capsys, body, message):
    path = tmp_path / "bad.json"
    if isinstance(body, bytes):
        path.write_bytes(body)
    else:
        path.write_text(body)
    code, out = run(capsys, "compute", "--diagram", str(path),
                    "--theory", "manturov")
    assert code == 3
    error = json.loads(out)["error"]
    assert error["kind"] == "BadSyntax" and message in error["message"]


@pytest.mark.parametrize("text, position", [
    ("O%s+,U%s+" % ("1" * 5000, "1" * 5000), 0),  # past int()'s digit limit
    ("O1+,U\u00b2+", 4),  # a digit to str.isdigit, not to int()
    ("O1+,U\uff11+", 4),  # a digit to int(), but not ASCII
], ids=["label_5000_digits", "superscript_two", "fullwidth_one"])
def test_compute_refuses_a_label_int_cannot_read(tmp_path, capsys, text, position):
    path = tmp_path / "bad.gauss"
    path.write_text(text, encoding="utf-8")
    code, out = run(capsys, "compute", "--theory", "manturov", "--diagram", str(path))
    assert code == 3 and len(out.encode()) < 300
    error = json.loads(out)["error"]
    assert error["kind"] == "BadSyntax"
    assert error["message"].startswith(f"bad syntax at position {position}: ")


@pytest.mark.parametrize("body", [
    '{"components": [[{"c": "%s", "o": true, "s": 1}]]}' % ("x" * 5000),
    '{"components": [[{"c": %s, "o": true, "s": 1}, {"c": %s, "o": true, "s": 1}]]}'
    % ("1" * 4000, "1" * 4000),
    '{"name": [%s0], "components": [[]]}' % ("0," * 5000),
], ids=["c_5000_characters", "duplicate_4000_digit_label", "name_list"])
def test_an_echoed_diagram_value_is_cut(tmp_path, capsys, body):
    path = tmp_path / "long.json"
    path.write_text(body)
    code, out = run(capsys, "compute", "--theory", "manturov", "--diagram", str(path))
    assert code == 3 and len(out.encode()) < 300
    assert "..." in json.loads(out)["error"]["message"]


def test_compute_refuses_a_22_crossing_diagram(tmp_path, capsys, monkeypatch):
    def no_smoothing(d):
        raise AssertionError("smoothed a diagram above the cap")

    # the homology module, not the function that ``vlinkhom.homology`` names
    monkeypatch.setattr(importlib.import_module("vlinkhom.homology"),
                        "smoothings_from_both_ends", no_smoothing)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(braid_closure([1, -2] * 11).to_json_obj()))
    start = time.perf_counter()
    code, out = run(capsys, "compute", "--diagram", str(path), "--theory", "manturov")
    assert time.perf_counter() - start < 5
    assert code == 3
    assert json.loads(out) == {"error": {"kind": "InputError", "message": (
        "22 crossings: the chain complex has at least 2^23 = 8,388,608 "
        "generators, above the cap MAX_CHAIN_DIM = 1,048,576")}}


@pytest.mark.parametrize("command", ["compute", "invariance"])
def test_free_loops_past_the_digit_limit_are_refused(tmp_path, capsys, command):
    # 20,001 free loops give 2^20001 generators, more digits than str() writes
    path = tmp_path / "loops.gauss"
    path.write_text(";" * 20000)
    code, out = run(capsys, command, "--diagram", str(path), "--theory", "manturov")
    assert code == 3
    assert json.loads(out) == {"error": {"kind": "InputError", "message": (
        "0 crossings: the chain complex has at least 2^20001 generators, "
        "above the cap MAX_CHAIN_DIM = 1,048,576")}}


def test_surface_value_past_the_digit_limit_is_written_in_full(capsys):
    # for the triple 1,1,1 an odd genus g evaluates to 2 * (-4)^((g - 1) / 2)
    code, out = run(capsys, "surface", "--genus", "20001", "--triple", "1,1,1")
    assert code == 0
    value = json.loads(out)["value"]
    assert len(value) == 6021 and int(Decimal(value)) == 2 ** 20001


@pytest.mark.parametrize("argv", [
    ("surface", "--genus", "0", "--triple", "1e4301,0,1"),
    ("surface", "--genus", "0", "--triple", "1e-4301,0,1"),
    ("compute", "--params", "a=1e999999999,t=0,lambda=0,mu=1,beta=0"),
    ("verify", "--params", "a=1,t=0,lambda=0,mu=1E+99999999999,beta=0"),
])
def test_a_rational_exponent_past_the_limit_is_refused_at_once(capsys, argv):
    # Fraction would expand 10^exponent in full: 1e1000000 took over a minute
    start = time.perf_counter()
    code, out = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 3
    error = json.loads(out)["error"]
    assert error["kind"] == "InputError" and "MAX_EXPONENT = 4,300" in error["message"]


@pytest.mark.parametrize("argv", [
    ("surface", "--genus", "0", "--triple", "1" * 5000 + ",0,1"),
    ("surface", "--genus", "0", "--theory", "x" * 5000),
    ("compute", "--params", "a=1,t=0,lambda=0,mu=1,beta=0," + "k" * 5000 + "=1"),
    ("compute", "--triple", "1,0,1," + "k" * 5000 + "=1"),
    ("surface", "--genus", "0", "--triple", "1,0,1", "--field", "fp:" + "1" * 5000),
    ("surface", "--genus", "0", "--triple", "1,0,1", "--field", "fp:" + "7" * 300),
    ("surface", "--genus", "0", "--triple", "1,0,1", "--field", "fp:" + "7" * 300 + "x"),
    ("surface", "--genus", "0", "--triple", "1,0,1,field=" + "q" * 5000),
    ("surface", "--genus", "0", "--theory", "manturov", "--field", "q" + " " * 5000),
    ("surface", "--genus", "0", "--theory", "manturov" + " " * 5000, "--field", "q"),
    ("compute", "--params", "a=1,t=0,lambda=0,mu=1,beta=0," + "x" * 5000),
    ("invariance", "--format", "x" * 5000),
], ids=["triple_value", "theory", "params_key", "triple_key", "field_5000_digits",
        "field_300_digits", "field_not_an_int", "triple_field", "field_mismatch",
        "theory_mismatch", "params_item", "parser"])
def test_an_echoed_outside_value_is_cut(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 3 and out.endswith("\n") and len(out.encode()) < 300
    message = json.loads(out)["error"]["message"]
    assert "..." in message


@pytest.mark.parametrize("argv, named", [
    (("--triple", "1" * 5000 + ",0,1"), "rational '111"),
    (("--triple", "1/" + "1" * 5000 + ",0,1"), "rational '1/111"),
    (("--triple", "1" * 5000 + ",0,1", "--field", "fp:7"), "GF(7) element '111"),
    (("--triple", "1/" + "1" * 5000 + ",0,1", "--field", "fp:7"), "GF(7) element '1/111"),
], ids=["q_numerator", "q_denominator", "gf7_numerator", "gf7_denominator"])
def test_a_number_past_the_int_digit_limit_is_named(capsys, argv, named):
    code, out = run(capsys, "surface", "--genus", "0", *argv)
    assert code == 3 and len(out.encode()) < 300
    message = json.loads(out)["error"]["message"]
    assert message.startswith(named) and "more than 4,300 digits" in message, message


def test_a_prime_past_the_int_digit_limit_is_past_the_prime_limit(capsys):
    code, out = run(capsys, "surface", "--genus", "0", "--triple", "1,0,1",
                    "--field", "fp:" + "1" * 5000)
    assert code == 3 and len(out.encode()) < 300
    assert f"GF(p) needs p < {PRIME_LIMIT}," in json.loads(out)["error"]["message"]


def test_a_rational_exponent_at_the_limit_parses():
    assert QQ.parse("1e3") == 1000
    assert QQ.parse("1e4300") == 10 ** 4300
    assert QQ.parse(" -5E-4300 ") == Fraction(-5, 10 ** 4300)


def test_constraint_residual_past_the_digit_limit_is_written_in_full(capsys):
    lam = "7" * 3000
    params = f"a=1,t=0,lambda={lam},mu=1,beta=0"
    residual = constraint_residuals(QQ, Fraction(1), Fraction(0), Fraction(lam),
                                    Fraction(1), Fraction(0))["eq2"]
    code, out = run(capsys, "compute", "--params", params)
    assert code == 3
    error = json.loads(out)["error"]
    prefix = "constraint eq2 violated, residual "
    assert error["kind"] == "ConstraintViolated" and error["message"].startswith(prefix)
    assert Fraction(Decimal(error["message"][len(prefix):])) == residual
    code, out = run(capsys, "verify", "--params", params)
    assert code == 2
    (eq2,) = [c for c in json.loads(out)["axioms"] if c["name"] == "eq2"]
    assert Fraction(Decimal(eq2["witness"].removeprefix("residual "))) == residual


def test_verify_all_presets(capsys):
    for row in range(1, 9):
        code, out = run(capsys, "verify", "--theory", f"f2_row{row}")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] and payload["four_tu"]["passed"]


def test_verify_bad_params_reports_eq2(capsys):
    code, out = run(capsys, "verify", "--params",
                    "a=1,t=0,lambda=1,mu=1,beta=0,field=f2")
    assert code == 2
    payload = json.loads(out)
    failed = {c["name"] for c in payload["axioms"] if not c["passed"]}
    assert "eq2" in failed


def test_verify_triple_with_embedded_field(capsys):
    code, out = run(capsys, "verify", "--triple", "1,1,1,field=q")
    assert code == 0
    payload = json.loads(out)
    assert payload["theory"]["triple"] == ["1", "1", "1"]
    assert payload["resolved"]["t"] == "-1"  # solved from the constraint
    assert payload["resolved"]["h"] == "0"


def test_surface_values(capsys):
    code, out = run(capsys, "surface", "--genus", "0", "--crosscaps", "0",
                    "--theory", "f2_row1")
    assert code == 0 and json.loads(out)["value"] == "0"
    # torus value 2 reduces to 0 in F2
    code, out = run(capsys, "surface", "--genus", "1", "--crosscaps", "0",
                    "--theory", "f2_row1")
    assert code == 0 and json.loads(out)["value"] == "0"
    code, out = run(capsys, "surface", "--genus", "1", "--crosscaps", "0",
                    "--triple", "1,0,1", "--field", "q")
    assert code == 0 and json.loads(out)["value"] == "2"


def test_invariance_zero_moves(capsys):
    code, out = run(capsys, "invariance", "--moves", "0", "--seed", "42",
                    "--theory", "manturov")
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatches"] == 0
    assert all(r["match"] for r in payload["diagrams"])
    assert all(p["match"] for p in payload["r3_pairs"])


def test_invariance_negative_moves_is_input_error(capsys):
    code, out = run(capsys, "invariance", "--theory", "manturov", "--moves", "-3")
    assert code == 3
    message = json.loads(out)["error"]["message"]
    assert "--moves" in message and "-3" in message


@pytest.mark.parametrize("moves", ["65537", "1000000000"])
def test_invariance_moves_above_the_cap_is_input_error(capsys, monkeypatch, moves):
    def no_walk(d, count, rng):
        raise AssertionError("walked past the --moves cap")

    monkeypatch.setattr(importlib.import_module("vlinkhom.cli"), "random_moves", no_walk)
    code, out = run(capsys, "invariance", "--theory", "manturov", "--moves", moves)
    assert code == 3
    assert json.loads(out) == {"error": {"kind": "InputError", "message": (
        f"--moves must be between 0 and 65,536, got {moves}")}}


def test_invariance_deterministic_output(capsys):
    code1, out1 = run(capsys, "invariance", "--moves", "6", "--seed", "9",
                      "--theory", "f2_row5")
    code2, out2 = run(capsys, "invariance", "--moves", "6", "--seed", "9",
                      "--theory", "f2_row5")
    assert code1 == code2 == 0
    assert out1 == out2


def test_invariance_counts_each_mismatch(capsys, monkeypatch):
    # every walk ends on unlink2 and the one R3 pair is trefoil/unknot, so
    # the trefoil walk and the pair are the two mismatches
    load = corpus.load
    monkeypatch.setattr(corpus, "load_corpus", lambda: [load("trefoil"), load("unlink2")])
    monkeypatch.setattr(corpus, "load_r3_pairs", lambda: [(load("trefoil"), load("unknot"))])
    monkeypatch.setattr(importlib.import_module("vlinkhom.cli"), "random_moves",
                        lambda d, count, rng: (load("unlink2"), ["0: r1inv at (0, 0)"]))
    code, out = run(capsys, "invariance", "--theory", "manturov")
    assert code == 2
    payload = json.loads(out)
    assert payload["mismatches"] == 2
    assert [(r["match"], r.get("trail")) for r in payload["diagrams"]] == [
        (False, ["0: r1inv at (0, 0)"]), (True, None)]
    assert payload["r3_pairs"] == [{"pair": ["trefoil", "unknot"], "match": False,
                                    "betti": [{"0": 2, "2": 2, "3": 2}, {"0": 2}]}]
    code, out = run(capsys, "invariance", "--theory", "manturov", "--format", "text")
    assert code == 2
    assert out == ("trefoil: 1 moves, n=0, betti CHANGED\n"
                   "unlink2: 1 moves, n=0, betti unchanged\n"
                   "pair trefoil/unknot: betti DIFFER\n"
                   "mismatches: 2\n")


def test_compute_euler_jones_mismatch_exits_2(capsys, monkeypatch):
    # the CLI reads J(1) off the one Jones polynomial it builds
    monkeypatch.setattr(importlib.import_module("vlinkhom.cli"), "kauffman_jones",
                        lambda d, smoothings: LaurentPoly.make({}))
    code, out = run(capsys, "compute", "--theory", "manturov", "--format", "text")
    assert code == 2
    assert out.startswith("unknot: dims=[2] betti={'0': 2} euler=2 jones(1)=0 match=False\n")


def test_compute_graded_euler_mismatch_names_the_lowest_q(capsys, monkeypatch, tmp_path):
    # times q^2 leaves J(1) alone, so only the graded comparison sees it; the
    # lowest q that differs is the lowest term of the true polynomial
    cli = importlib.import_module("vlinkhom.cli")
    real = cli.kauffman_jones
    monkeypatch.setattr(cli, "kauffman_jones",
                        lambda d, smoothings: real(d, smoothings) * LaurentPoly.make({2: 1}))
    path = tmp_path / "trefoil.gauss"
    path.write_text("O1+,U2+,O3+,U1+,O2+,U3+\n")
    lowest = real(corpus.load("trefoil")).terms[0][0]
    argv = ("compute", "--theory", "manturov", "--graded", "--diagram", str(path))
    code, out = run(capsys, *argv)
    assert code == 2
    (rep,) = json.loads(out)
    assert rep["euler_matches_jones"] is True
    assert rep["graded_euler_differs_at_q"] == lowest
    assert rep["graded_euler"] != rep["kauffman_jones"]
    code, out = run(capsys, *argv, "--format", "text")
    assert code == 2
    assert out.splitlines()[0].endswith(f"match=True graded_euler_differs_at_q={lowest}")


def test_graded_on_inhomogeneous_theory_is_computation_error(capsys):
    code, out = run(capsys, "compute", "--theory", "f2_row7", "--graded")
    assert code == 1
    assert json.loads(out)["error"]["kind"] == "NotGraded"


def test_compute_byte_identical(capsys):
    _, out1 = run(capsys, "compute", "--theory", "manturov", "--graded")
    _, out2 = run(capsys, "compute", "--theory", "manturov", "--graded")
    assert out1 == out2


def test_out_file_and_text_format(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _ = run(capsys, "surface", "--genus", "1", "--triple", "1,0,1",
                  "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["value"] == "2"
    code, out = run(capsys, "surface", "--genus", "1", "--triple", "1,0,1",
                    "--format", "text")
    assert code == 0 and out.strip() == "surface genus=1 crosscaps=0: 2"


def test_verify_params_missing_key_is_input_error(capsys):
    code, out = run(capsys, "verify", "--params", "a=1,t=0")
    assert code == 3
    error = json.loads(out)["error"]
    assert error["kind"] == "InputError" and "'lambda'" in error["message"]


def test_verify_params_unknown_key_rejected(capsys):
    code, out = run(capsys, "verify", "--params",
                    "a=1,t=0,lambda=1,mu=1,beta=0,field=f2,bogus=3")
    assert code == 3
    assert "bogus" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("field", ["fp:abc", "fp:"])
def test_malformed_prime_field_is_input_error(capsys, field):
    code, out = run(capsys, "compute", "--triple", "1,0,1", "--field", field)
    assert code == 3
    assert repr(field) in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("argv, named", [
    (("--triple", "1/0,0,1", "--field", "fp:7"), "GF(7) element '1/0'"),
    (("--params", "a=1,t=0,lambda=0,mu=0,beta=1/2,field=f2"), "GF(2) element '1/2'"),
])
def test_zero_denominator_in_a_prime_field_is_input_error(capsys, argv, named):
    code, out = run(capsys, "verify", *argv)
    assert code == 3
    assert f"cannot parse {named}" in json.loads(out)["error"]["message"]


def test_surface_negative_genus_is_input_error(capsys):
    cap = MAX_SURFACE_COUNT + 1
    for counts, named in ((("--genus", "-1"), "genus=-1"),
                          (("--genus", str(cap)), "MAX_SURFACE_COUNT = 1,048,576"),
                          (("--genus", "0", "--crosscaps", str(cap)), f"crosscaps={cap}")):
        code, out = run(capsys, "surface", *counts, "--theory", "manturov")
        assert code == 3
        assert named in json.loads(out)["error"]["message"]


# compute reports pinned byte for byte; regenerate only for an intended
# change of the report, with the same flags and stdout redirected.  The
# corpus is the default input; GOLDEN_DIAGRAMS are written as JSON files
# and passed with --diagram, in this order.
GOLDEN = {
    "compute_manturov_graded": ("--theory", "manturov", "--graded"),
    "compute_manturov_graded_beyond_corpus": ("--theory", "manturov", "--graded"),
    "compute_f2_row2": ("--theory", "f2_row2"),
    "compute_f2_row7": ("--theory", "f2_row7"),
    "compute_triple_101_q": ("--triple", "1,0,1", "--field", "q"),
    "compute_triple_101_fp1000003": ("--triple", "1,0,1", "--field", "fp:1000003"),
    "compute_triple_101_fp1000033": ("--triple", "1,0,1", "--field", "fp:1000033"),
    # Q triples whose blocks have denominators in every basis of V
    "compute_triple_13_12_5_q": ("--triple", "1/3,1/2,5", "--field", "q"),
    "compute_triple_12_3_m23_q": ("--triple", "1/2,3,-2/3", "--field", "q"),
    "compute_triple_101_q_beyond_corpus": ("--triple", "1,0,1", "--field", "q"),
    "compute_triple_101_fp1000003_beyond_corpus": ("--triple", "1,0,1",
                                                   "--field", "fp:1000003"),
}
GOLDEN_DIAGRAMS = {
    "compute_manturov_graded_beyond_corpus": lambda: (
        braid_closure([1] * 7, name="t2_7"),          # T(2,7)
        braid_closure([1, -2] * 3, name="s12_3"),     # (s1 s2^-1)^3
        corpus.load("kishino")),
    **dict.fromkeys(
        ("compute_triple_101_q_beyond_corpus", "compute_triple_101_fp1000003_beyond_corpus"),
        lambda: (braid_closure([1, -2] * 5, name="s12_5"),  # (s1 s2^-1)^5
                 braid_closure([1] * 7, name="t2_7"),       # T(2,7)
                 corpus.load("kishino"))),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_compute_matches_golden(tmp_path, capsys, name):
    argv = list(GOLDEN[name])
    for d in GOLDEN_DIAGRAMS.get(name, lambda: ())():
        path = tmp_path / f"{d.name}.json"
        path.write_text(json.dumps(d.to_json_obj()))
        argv += ["--diagram", str(path)]
    code, out = run(capsys, "compute", *argv)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN_DIR / f"{name}.json").read_bytes()


def test_large_mersenne_prime_field_is_accepted(capsys):
    # 2^61 - 1: trial division up to its square root would never finish
    code, out = run(capsys, "surface", "--genus", "0", "--triple", "1,0,1",
                    "--field", "fp:2305843009213693951")
    assert code == 0
    assert json.loads(out)["theory"]["field"] == "fp:2305843009213693951"


@pytest.mark.parametrize("p", ["0", "1", "561", "3215031751"])
def test_composite_prime_field_is_input_error(capsys, p):
    code, out = run(capsys, "surface", "--genus", "0", "--triple", "1,0,1",
                    "--field", f"fp:{p}")
    assert code == 3
    assert json.loads(out)["error"]["message"] == f"{p} is not prime"


def test_leading_zeros_of_a_prime_do_not_count_toward_the_digit_limit(capsys):
    code, out = run(capsys, "surface", "--genus", "0", "--triple", "1,0,1",
                    "--field", "fp:" + "0" * 5000 + "7")
    assert code == 0
    assert json.loads(out)["theory"]["field"] == "fp:7"


@pytest.mark.parametrize("zeros", ["0", "000"])
def test_a_prime_of_only_zeros_gets_the_prime_fields_own_error(capsys, zeros):
    code, out = run(capsys, "surface", "--genus", "0", "--triple", "1,0,1",
                    "--field", f"fp:{zeros}")
    assert code == 3
    assert json.loads(out)["error"] == {"kind": "InputError", "message": "0 is not prime"}


def test_prime_field_above_the_exact_test_limit_is_refused(capsys):
    code, out = run(capsys, "surface", "--genus", "0", "--triple", "1,0,1",
                    "--field", f"fp:{2 ** 89 - 1}")
    assert code == 3
    assert "3317044064679887385961981" in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("field", ["fp:abc", "q", "fp:3"])
def test_field_contradicting_a_preset_is_input_error(capsys, field):
    code, out = run(capsys, "compute", "--theory", "manturov", "--field", field)
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "InputError"


def test_field_matching_a_preset_is_accepted(capsys):
    _, plain = run(capsys, "compute", "--theory", "f2_row2")
    code, out = run(capsys, "compute", "--theory", "f2_row2", "--field", "f2")
    assert code == 0
    assert out == plain


# selectors that may embed field=; t = -2 solves the constraints over q,
# f2 and fp:7 alike, so every matching field gives exit code 0
SELECTOR_WITH_FIELD = {
    "triple": ("surface", "--genus", "0", "--triple", "1,0,1"),
    "params": ("verify", "--params", "a=1,t=-2,lambda=0,mu=1,beta=0"),
}


@pytest.mark.parametrize("selector", sorted(SELECTOR_WITH_FIELD))
@pytest.mark.parametrize("own,flag", [("q", "fp:7"), ("f2", "fp:abc"),
                                      ("fp:7", "fp:"), ("fp:7", "q")])
def test_field_contradicting_an_embedded_field_is_input_error(capsys, selector, own, flag):
    *argv, spec = SELECTOR_WITH_FIELD[selector]
    code, out = run(capsys, *argv, f"{spec},field={own}", "--field", flag)
    assert code == 3
    assert json.loads(out)["error"]["kind"] == "InputError"


@pytest.mark.parametrize("selector", sorted(SELECTOR_WITH_FIELD))
@pytest.mark.parametrize("field", ["q", "f2", "fp:7"])
def test_field_matching_an_embedded_field_is_accepted(capsys, selector, field):
    *argv, spec = SELECTOR_WITH_FIELD[selector]
    _, embedded = run(capsys, *argv, f"{spec},field={field}")
    _, flagged = run(capsys, *argv, spec, "--field", field)
    code, out = run(capsys, *argv, f"{spec},field={field}", "--field", field)
    assert code == 0
    assert out == embedded == flagged


# verify reports pinned byte for byte: one transcript per format, each run
# headed by its command line and followed by its exit code.  Regenerate
# only for an intended change of the report, with verify_transcript.
VERIFY_SELECTORS = (
    *(("--theory", name) for name in PRESET_NAMES),
    ("--triple", "1,0,1"),
    ("--triple", "1,1,1"),
    ("--params", "a=1,t=0,lambda=1,mu=1,beta=0,field=f2"),  # klein, theta^2 action
    ("--params", "a=1,t=1,lambda=0,mu=1,beta=1,field=f2"),  # phi on tensors, theta^3
    ("--params", "a=2,t=1,lambda=1,mu=0,beta=1"),           # fractional tensor terms
)


def verify_transcript(capsys, fmt):
    parts = []
    for selector in VERIFY_SELECTORS:
        argv = ("verify", *selector, "--format", fmt)
        code, out = run(capsys, *argv)
        parts.append(f"$ vlinkhom {' '.join(argv)}\n{out}# exit {code}\n")
    return "".join(parts)


@pytest.mark.parametrize("fmt", ("json", "text"))
def test_verify_matches_golden(capsys, fmt):
    expected = (GOLDEN_DIR / f"verify_{fmt}.txt").read_bytes()
    assert verify_transcript(capsys, fmt).encode("utf-8") == expected


# text compute reports and invariance reports, pinned byte for byte like
# the compute goldens above; the argv is the whole command line.
CLI_GOLDEN = {
    "compute_manturov_graded.txt": (
        "compute", "--theory", "manturov", "--graded", "--format", "text"),
    "compute_triple_101_q.txt": (
        "compute", "--triple", "1,0,1", "--field", "q", "--format", "text"),
    **{f"invariance_{name}.{ext}": ("invariance", "--seed", "42", *selector,
                                    "--format", fmt)
       for name, selector in (
           ("manturov", ("--theory", "manturov")),
           ("triple_101_fp1000003", ("--triple", "1,0,1", "--field", "fp:1000003")))
       for fmt, ext in (("json", "json"), ("text", "txt"))},
    # homology_of over Q, which takes its reduction mod p
    "invariance_triple_101_q.json": ("invariance", "--seed", "42", "--triple", "1,0,1",
                                     "--field", "q"),
}


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
def test_cli_matches_golden(capsys, name):
    code, out = run(capsys, *CLI_GOLDEN[name])
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN_DIR / name).read_bytes()


_SELECTORS = {"theory": None, "params": None, "triple": None, "field": None}
_OUTPUT = {"out": None, "format": "json"}
_EVERY_SHARED_FLAG = ("--theory", "T", "--params", "P", "--triple", "X",
                      "--field", "F", "--out", "O", "--format", "text")
_SHARED_SET = {"theory": "T", "params": "P", "triple": "X", "field": "F",
               "out": "O", "format": "text"}

# every option of every command with its default, and with every option set
PARSED = [
    (("compute",), {"command": "compute", "diagram": None, "graded": False,
                    **_SELECTORS, **_OUTPUT}),
    (("compute", "--diagram", "a", "--diagram", "b", "--graded", *_EVERY_SHARED_FLAG),
     {"command": "compute", "diagram": ["a", "b"], "graded": True, **_SHARED_SET}),
    (("verify",), {"command": "verify", **_SELECTORS, **_OUTPUT}),
    (("verify", *_EVERY_SHARED_FLAG), {"command": "verify", **_SHARED_SET}),
    (("invariance",), {"command": "invariance", "diagram": None, "moves": 50,
                       "seed": 42, **_SELECTORS, **_OUTPUT}),
    (("invariance", "--diagram", "a", "--moves", "3", "--seed", "-7", *_EVERY_SHARED_FLAG),
     {"command": "invariance", "diagram": ["a"], "moves": 3, "seed": -7, **_SHARED_SET}),
    (("surface", "--genus", "1"), {"command": "surface", "genus": 1, "crosscaps": 0,
                                   **_SELECTORS, **_OUTPUT}),
    (("surface", "--genus", "2", "--crosscaps", "3", *_EVERY_SHARED_FLAG),
     {"command": "surface", "genus": 2, "crosscaps": 3, **_SHARED_SET}),
]


@pytest.mark.parametrize("argv, expected", PARSED, ids=[" ".join(a) for a, _ in PARSED])
def test_parser_options_and_defaults(argv, expected):
    parsed = vars(build_parser().parse_args(list(argv)))
    del parsed["func"]
    assert parsed == expected


# a bad flag is an input error like any other: exit 3 and a JSON report
# that names the flag, with nothing on stderr
@pytest.mark.parametrize("argv, flag", [
    pytest.param(argv, flag, id=" ".join(argv)) for argv, flag in (
        (("compute", "--format", "xml"), "--format"), (("surface",), "--genus"),
        (("verify", "--graded"), "--graded"), (("invariance", "--seed", "x"), "--seed"))])
def test_parser_rejects_bad_options(capsys, argv, flag):
    code, (out, err) = main(list(argv)), capsys.readouterr()
    assert code == 3 and err == ""
    error = json.loads(out)["error"]
    assert error["kind"] == "InputError"
    assert flag in error["message"] and len(error["message"]) < 200


@pytest.mark.parametrize("argv, message", [
    (("surface", "--genus", "abc", "--theory", "manturov"),
     "vlinkhom surface: argument --genus: invalid int value: 'abc'"),
    (("compute", "--bogus"), "vlinkhom: unrecognized arguments: --bogus"),
    ((), "vlinkhom: the following arguments are required: command"),
], ids=["surface --genus abc", "compute --bogus", "no command"])
def test_bad_flags_and_a_missing_command_exit_3(capsys, argv, message):
    code, (out, err) = main(list(argv)), capsys.readouterr()
    assert code == 3 and err == ""
    assert json.loads(out) == {"error": {"kind": "InputError", "message": message}}


def test_a_5000_digit_moves_is_cut_in_its_message(capsys):
    code, out = run(capsys, "invariance", "--theory", "manturov", "--moves", "9" * 5000)
    assert code == 3
    message = json.loads(out)["error"]["message"]
    assert message.startswith("vlinkhom invariance: argument --moves: invalid int value: '999")
    assert message.endswith("...") and len(message) < 200


@pytest.mark.parametrize("command", ["compute", "verify", "invariance", "surface"])
def test_help_still_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0 and "usage: vlinkhom" in capsys.readouterr().out
