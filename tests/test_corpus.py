"""Corpus integrity: shipped files match the in-package definitions."""

import json
import os

import pytest

from vlinkhom import corpus
from vlinkhom.diagram import cube_edges, load_diagram

CORPUS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


def test_corpus_files_match_package():
    for name in corpus.all_names():
        path = os.path.join(CORPUS_DIR, f"{name}.json")
        assert os.path.exists(path), f"missing corpus file {name}.json"
        assert load_diagram(path) == corpus.load(name)


def test_corpus_text_files_parse():
    assert load_diagram(os.path.join(CORPUS_DIR, "trefoil.gauss")) == \
        corpus.load("trefoil")
    assert load_diagram(os.path.join(CORPUS_DIR, "unknot.gauss")).n == 0


def test_corpus_json_files_carry_classical_flag():
    with open(os.path.join(CORPUS_DIR, "trefoil.json")) as fh:
        assert json.load(fh)["classical"] is True
    with open(os.path.join(CORPUS_DIR, "virtual_trefoil.json")) as fh:
        assert "classical" not in json.load(fh)


def test_corpus_has_required_members():
    names = set(corpus.CORPUS_NAMES)
    assert {"unknot", "unlink2", "trefoil", "figure_eight",
            "virtual_trefoil", "kishino"} <= names
    assert len(corpus.R3_PAIRS) >= 3
    with pytest.raises(KeyError, match="no corpus diagram named 'nope'"):
        corpus.load("nope")


def test_virtual_members_have_single_cycle_edges():
    for name in ("virtual_trefoil", "kishino"):
        kinds = {e.kind for e in cube_edges(corpus.load(name))}
        assert "single_cycle" in kinds


def test_r3_pairs_same_writhe_and_size():
    for da, db in corpus.load_r3_pairs():
        assert da.n == db.n
        assert da.n_plus == db.n_plus
        assert len(da.components) == len(db.components)
