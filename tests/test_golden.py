"""Byte identity of the CLI output on the bundled corpora.

The files under ``tests/golden/`` were written by ``itirel extract`` before
the refactors that must keep them: JSON and Turtle from ``--format both``
and JSON from ``--loose-toponyms``.  A refactor passes only if every byte
stays the same, on every way in (a file, stdin) and out (an out dir,
stdout).
"""

import io
from pathlib import Path

import pytest

from itirel import bundled_lexicon_dir
from itirel.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
CORPORA = bundled_lexicon_dir().parent / "gold"


@pytest.mark.parametrize("corpus", ["gold", "taxonomy"])
def test_both_formats_match_golden(corpus, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["extract", str(CORPORA / f"{corpus}.conllu"),
                 "--format", "both", "--base-iri", "https://example.org/iti",
                 "--out-dir", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert (out / "extraction.json").read_bytes() == \
        (GOLDEN / f"{corpus}.json").read_bytes()
    assert (out / "extraction.ttl").read_bytes() == \
        (GOLDEN / f"{corpus}.ttl").read_bytes()


@pytest.mark.parametrize("corpus", ["gold", "taxonomy"])
def test_loose_toponyms_match_golden(corpus, capsysbinary):
    assert main(["extract", str(CORPORA / f"{corpus}.conllu"),
                 "--loose-toponyms"]) == EXIT_OK
    assert capsysbinary.readouterr().out == \
        (GOLDEN / f"{corpus}.loose.json").read_bytes()


@pytest.mark.parametrize("corpus", ["gold", "taxonomy"])
def test_stdin_matches_golden(corpus, capsysbinary, monkeypatch):
    data = (CORPORA / f"{corpus}.conllu").read_bytes()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data),
                                                      encoding="utf-8"))
    assert main(["extract", "-"]) == EXIT_OK
    assert capsysbinary.readouterr().out == \
        (GOLDEN / f"{corpus}.json").read_bytes()


@pytest.mark.parametrize("corpus", ["gold", "taxonomy"])
def test_turtle_to_stdout_matches_golden(corpus, capsysbinary):
    assert main(["extract", str(CORPORA / f"{corpus}.conllu"),
                 "--format", "turtle",
                 "--base-iri", "https://example.org/iti"]) == EXIT_OK
    assert capsysbinary.readouterr().out == \
        (GOLDEN / f"{corpus}.ttl").read_bytes()
