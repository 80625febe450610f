"""Byte identity of the CLI output on the bundled corpora and on the
tests-only ``tests/data/figurative.conllu``.

The files under ``tests/golden/`` were written by ``itirel extract`` before
the refactors that must keep them: JSON and Turtle from ``--format both``
and JSON from ``--loose-toponyms``.  A refactor passes only if every byte
stays the same, on every way in (a file, stdin) and out (an out dir,
stdout).
"""

import io
import json
from pathlib import Path

import pytest

from itirel import (SpatialRelationKind, TemporalRelationKind,
                    bundled_lexicon_dir)
from itirel.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
CORPORA = {name: bundled_lexicon_dir().parent / "gold" / f"{name}.conllu"
           for name in ("gold", "taxonomy")}
CORPORA["figurative"] = Path(__file__).parent / "data" / "figurative.conllu"


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_both_formats_match_golden(corpus, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["extract", str(CORPORA[corpus]),
                 "--format", "both", "--base-iri", "https://example.org/iti",
                 "--out-dir", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert (out / "extraction.json").read_bytes() == \
        (GOLDEN / f"{corpus}.json").read_bytes()
    assert (out / "extraction.ttl").read_bytes() == \
        (GOLDEN / f"{corpus}.ttl").read_bytes()


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_loose_toponyms_match_golden(corpus, capsysbinary):
    assert main(["extract", str(CORPORA[corpus]),
                 "--loose-toponyms"]) == EXIT_OK
    assert capsysbinary.readouterr().out == \
        (GOLDEN / f"{corpus}.loose.json").read_bytes()


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_stdin_matches_golden(corpus, capsysbinary, monkeypatch):
    data = CORPORA[corpus].read_bytes()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data),
                                                      encoding="utf-8"))
    assert main(["extract", "-"]) == EXIT_OK
    assert capsysbinary.readouterr().out == \
        (GOLDEN / f"{corpus}.json").read_bytes()


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_turtle_to_stdout_matches_golden(corpus, capsysbinary):
    assert main(["extract", str(CORPORA[corpus]),
                 "--format", "turtle",
                 "--base-iri", "https://example.org/iti"]) == EXIT_OK
    assert capsysbinary.readouterr().out == \
        (GOLDEN / f"{corpus}.ttl").read_bytes()


def test_figurative_itineraries_hold_every_kind():
    """Each spatial and temporal kind reaches the JSON in an itinerary of
    the figurative corpus, so its golden pins how each kind is built."""
    doc = json.loads((GOLDEN / "figurative.json").read_text(encoding="utf-8"))
    itineraries = [r for s in doc["sentences"]
                   for r in s["itinerary_relations"]]
    spatial = {e["kind"] for r in itineraries
               for side in ("origin", "intermediate", "destination")
               for e in r[side]}
    temporal = {e["kind"] for r in itineraries for e in r["temporal"]}
    assert spatial == {k.value for k in SpatialRelationKind}
    assert temporal == {k.value for k in TemporalRelationKind}
