import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import itirel
from itirel import bundled_lexicon_dir, run_extract, to_json
from itirel.cli import EXIT_CONLLU, EXIT_LEXICON, EXIT_OK, main

from turtle_check import parse_turtle

BASE = "https://example.org/iti"


@pytest.fixture
def gold_file(tmp_path, gold_text):
    path = tmp_path / "gold.conllu"
    path.write_text(gold_text, encoding="utf-8")
    return path


def _stdin(data: bytes):
    """A text stdin over the given bytes, as the interpreter sets it up."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


# a sentence whose form "Pé" is a Latin-1 byte instead of UTF-8
_LATIN1_ROW = (b"# sent_id = latin1\n"
               b"1\tIl\til\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
               b"2\tva\taller\tVERB\t_\t_\t0\troot\t_\t_\n"
               b"3\tP\xe9\tP\xe9\tPROPN\t_\t_\t2\tobl\t_\t_\n")


@pytest.fixture
def lexicon_copy(tmp_path):
    """A writable copy of the bundled lexicon directory."""
    return Path(shutil.copytree(bundled_lexicon_dir(), tmp_path / "lex"))


class TestExtract:
    def test_json_to_stdout(self, gold_file, capsys):
        assert main(["extract", str(gold_file)]) == EXIT_OK
        out = capsys.readouterr().out
        obj = json.loads(out)
        assert len(obj["sentences"]) == 8
        assert out == to_json(run_extract(gold_file.read_text(),
                                          bundled_lexicon_dir()))

    def test_stdin_default(self, gold_text, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", _stdin(gold_text.encode("utf-8")))
        assert main(["extract"]) == EXIT_OK
        assert len(json.loads(capsys.readouterr().out)["sentences"]) == 8

    def test_empty_stdin_is_zero_sentences(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", _stdin(b""))
        assert main(["extract"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["sentences"] == []

    def test_turtle_to_stdout(self, gold_file, capsys):
        assert main(["extract", str(gold_file), "--format", "turtle",
                     "--base-iri", BASE]) == EXIT_OK
        captured = capsys.readouterr()
        assert parse_turtle(captured.out)
        assert "itirel" not in captured.out  # logs stay on stderr

    def test_digit_string_too_long_for_int(self, tmp_path, capsys):
        # longer than the 4,300 digits int() converts by default
        digits = "7" * 5000
        path = tmp_path / "long.conllu"
        path.write_text(
            "# sent_id = long\n"
            f"1\t{digits}\t{digits}\tNUM\t_\t_\t2\tnsubj\t_\t_\n"
            "2\tpart\tpartir\tVERB\t_\t_\t0\troot\t_\t_\n"
            "3\tde\tde\tADP\t_\t_\t4\tcase\t_\t_\n"
            "4\tPau\tPau\tPROPN\t_\t_\t2\tobl\t_\t_\n"
            "5\tvers\tvers\tADP\t_\t_\t6\tcase\t_\t_\n"
            "6\tLaruns\tLaruns\tPROPN\t_\t_\t2\tobl\t_\t_\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["extract", str(path), "--format", "both", "--base-iri",
                     BASE, "--out-dir", str(out)]) == EXIT_OK
        obj = json.loads((out / "extraction.json").read_text(encoding="utf-8"))
        assert len(obj["sentences"][0]["itinerary_relations"]) == 1
        assert parse_turtle((out / "extraction.ttl").read_text(
            encoding="utf-8"))

    def test_turtle_requires_base_iri(self, gold_file, capsys):
        assert main(["extract", str(gold_file), "--format", "turtle"]) \
            == EXIT_LEXICON
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--base-iri" in captured.err

    def test_both_requires_out_dir(self, gold_file, capsys):
        assert main(["extract", str(gold_file), "--format", "both",
                     "--base-iri", BASE]) == EXIT_LEXICON
        assert "--out-dir" in capsys.readouterr().err

    def test_both_writes_files(self, gold_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["extract", str(gold_file), "--format", "both",
                     "--base-iri", BASE, "--out-dir", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        json_text = (out / "extraction.json").read_text(encoding="utf-8")
        ttl_text = (out / "extraction.ttl").read_text(encoding="utf-8")
        assert len(json.loads(json_text)["sentences"]) == 8
        assert parse_turtle(ttl_text)

    @pytest.mark.parametrize("where", ["a-file", "under-a-file"])
    def test_out_dir_that_cannot_be_created_exits_2(self, gold_file,
                                                    tmp_path, capsys, where):
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"kept\n")
        out = blocker if where == "a-file" else blocker / "out"
        reason = "File exists" if where == "a-file" else "Not a directory"
        assert main(["extract", str(gold_file), "--format", "both",
                     "--base-iri", BASE, "--out-dir", str(out)]) \
            == EXIT_LEXICON
        assert capsys.readouterr() == (
            "", f"itirel: cannot create --out-dir {out}: {reason}\n")
        assert [p.name for p in tmp_path.iterdir()] == \
            sorted(["blocker", gold_file.name])
        assert blocker.read_bytes() == b"kept\n"

    @pytest.mark.parametrize("other_exists", [False, True],
                             ids=["other-new", "other-kept"])
    @pytest.mark.parametrize("name", ["extraction.json", "extraction.ttl"])
    def test_output_name_that_is_a_directory_exits_2(
            self, gold_file, tmp_path, capsys, name, other_exists):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        other = out / ({"extraction.json", "extraction.ttl"} - {name}).pop()
        if other_exists:
            other.write_bytes(b"kept\n")
        assert main(["extract", str(gold_file), "--format", "both",
                     "--base-iri", BASE, "--out-dir", str(out)]) \
            == EXIT_LEXICON
        assert capsys.readouterr() == (
            "", f"itirel: cannot write {out / name}: Is a directory\n")
        # neither file is written: the other one is as it was
        assert sorted(p.name for p in out.iterdir()) == \
            sorted([name] + [other.name] * other_exists)
        assert list((out / name).iterdir()) == []
        if other_exists:
            assert other.read_bytes() == b"kept\n"

    def test_corrupt_conllu_exits_3_without_partial_output(
            self, tmp_path, capsys):
        bad = tmp_path / "bad.conllu"
        bad.write_text("1\tPau\tPau\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["extract", str(bad), "--out-dir", str(out)]) \
            == EXIT_CONLLU
        captured = capsys.readouterr()
        assert "conllu" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_structure_error_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.conllu"
        bad.write_text("1\ta\ta\tNOUN\t_\t_\t0\troot\t_\t_\n"
                       "2\tb\tb\tNOUN\t_\t_\t0\troot\t_\t_\n",
                       encoding="utf-8")
        assert main(["extract", str(bad)]) == EXIT_CONLLU

    @pytest.mark.parametrize("rows, reason", [
        (["1\tIl\til\tPRON\t_\t_\t2\tnsubj\t_\t_",
          "2\tpart\tpartir\tVERB\t_\t_\t0\troot\t_\t_",
          "0\t.\t.\tPUNCT\t_\t_\t2\tpunct\t_\t_"],
         "token id 0 is below 1"),
        (["1\tIl\til\tPRON\t_\t_\t2\tnsubj\t_\t_",
          "2\tpart\tpartir\tVERB\t_\t_\t0\troot\t_\t_",
          "2\t.\t.\tPUNCT\t_\t_\t1\tpunct\t_\t_"],
         "token id 2 is duplicated"),
        (["1\tIl\til\tPRON\t_\t_\t2\tnsubj\t_\t_",
          "2\tpart\tpartir\tVERB\t_\t_\t0\troot\t_\t_",
          "4\t.\t.\tPUNCT\t_\t_\t2\tpunct\t_\t_"],
         "token id 4 where 3 was expected"),
        (["2\tpart\tpartir\tVERB\t_\t_\t0\troot\t_\t_",
          "1\tIl\til\tPRON\t_\t_\t2\tnsubj\t_\t_"],
         "token id 2 where 1 was expected"),
        (["-1\tIl\til\tPRON\t_\t_\t2\tnsubj\t_\t_",
          "2\tpart\tpartir\tVERB\t_\t_\t0\troot\t_\t_"],
         "token id -1 is below 1"),
    ], ids=["id-zero", "duplicate-id", "id-gap", "id-out-of-order",
            "id-negative"])
    def test_bad_token_ids_exit_3(self, tmp_path, capsys, rows, reason):
        bad = tmp_path / "bad.conllu"
        bad.write_text("\n".join(["# sent_id = bad"] + rows) + "\n",
                       encoding="utf-8")
        assert main(["extract", str(bad)]) == EXIT_CONLLU
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"itirel: conllu: sentence 'bad': {reason}\n"

    def test_invalid_utf8_file_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "latin1.conllu"
        bad.write_bytes(_LATIN1_ROW)
        assert main(["extract", str(bad)]) == EXIT_CONLLU
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "itirel: conllu: line 4: invalid UTF-8 byte 0xe9\n"

    def test_invalid_utf8_stdin_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", _stdin(_LATIN1_ROW))
        assert main(["extract"]) == EXIT_CONLLU
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "itirel: conllu: line 4: invalid UTF-8 byte 0xe9\n"

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_other_line_ends_read_as_lf(self, gold_text, gold_file, tmp_path,
                                        capsys, monkeypatch, newline):
        data = gold_text.replace("\n", newline).encode("utf-8")
        (tmp_path / "other.conllu").write_bytes(data)
        main(["extract", str(gold_file)])
        expected = capsys.readouterr().out
        main(["extract", str(tmp_path / "other.conllu")])
        assert capsys.readouterr().out == expected
        monkeypatch.setattr("sys.stdin", _stdin(data))
        main(["extract"])
        assert capsys.readouterr().out == expected

    def test_invalid_utf8_lexicon_exits_2(self, gold_file, lexicon_copy,
                                          capsys):
        (lexicon_copy / "gazetteer.tsv").write_bytes(b"Pau\tcity\nB\xe9arn\n")
        assert main(["extract", str(gold_file), "--lexicons",
                     str(lexicon_copy)]) == EXIT_LEXICON
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("itirel: lexicon: gazetteer.tsv:2: "
                                "invalid UTF-8 byte 0xe9\n")

    def test_toponym_without_words_exits_2(self, gold_file, lexicon_copy,
                                           capsys):
        with (lexicon_copy / "gazetteer.tsv").open("a") as fh:
            fh.write("'\tcity\n")
        assert main(["extract", str(gold_file), "--lexicons",
                     str(lexicon_copy)]) == EXIT_LEXICON
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "empty toponym" in captured.err

    def test_missing_input_file_exits_3(self, tmp_path, capsys):
        assert main(["extract", str(tmp_path / "nope.conllu")]) == EXIT_CONLLU
        assert "no such input file" in capsys.readouterr().err

    def test_missing_lexicons_exit_2(self, gold_file, tmp_path, capsys):
        assert main(["extract", str(gold_file),
                     "--lexicons", str(tmp_path / "empty")]) == EXIT_LEXICON
        assert "missing lexicon file" in capsys.readouterr().err

    def test_loose_toponyms_flag(self, tmp_path, capsys):
        conllu = ("# sent_id = x\n"
                  "1\tIl\til\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
                  "2\tquitte\tquitter\tVERB\t_\t_\t0\troot\t_\t_\n"
                  "3\tBayonne\tBayonne\tPROPN\t_\t_\t2\tobj\t_\t_\n"
                  "4\tvers\tvers\tADP\t_\t_\t5\tcase\t_\t_\n"
                  "5\tOloron\tOloron\tPROPN\t_\t_\t2\tobl\t_\t_\n"
                  "6\tdepuis\tdepuis\tADP\t_\t_\t7\tcase\t_\t_\n"
                  "7\thier\thier\tNOUN\t_\t_\t2\tobl\t_\t_\n")
        path = tmp_path / "loose.conllu"
        path.write_text(conllu, encoding="utf-8")
        main(["extract", str(path)])
        strict = json.loads(capsys.readouterr().out)
        main(["extract", str(path), "--loose-toponyms"])
        loose = json.loads(capsys.readouterr().out)
        assert strict["sentences"][0]["itinerary_relations"] == []
        assert loose["sentences"][0]["itinerary_relations"] != []


# a sentence whose second line has only its id: a malformed line
_MALFORMED_TAIL = ("\n# sent_id = late\n"
                   "1\tIl\til\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
                   "2\n")


def _late_failures(gold_text):
    """Inputs whose last sentence fails after valid gold sentences, with the
    error each gives."""
    lines = gold_text.count("\n")
    return {
        "malformed": ((gold_text + _MALFORMED_TAIL).encode("utf-8"),
                      f"itirel: conllu: line {lines + 4}: expected 10 "
                      "tab-separated columns, got 1\n"),
        "invalid-utf8": (gold_text.encode("utf-8") + b"\n" + _LATIN1_ROW,
                         f"itirel: conllu: line {lines + 5}: invalid UTF-8 "
                         "byte 0xe9\n"),
    }


@pytest.mark.parametrize("failure", ["malformed", "invalid-utf8"])
class TestLateFailure:
    """A sentence or byte that fails after valid sentences leaves no output:
    nothing on stdout, no out dir, and an existing out dir unchanged."""

    def _input(self, tmp_path, gold_text, failure):
        data, error = _late_failures(gold_text)[failure]
        path = tmp_path / "late.conllu"
        path.write_bytes(data)
        return path, error

    def test_stdout_stays_empty(self, tmp_path, gold_text, capsys, failure):
        path, error = self._input(tmp_path, gold_text, failure)
        assert main(["extract", str(path)]) == EXIT_CONLLU
        assert capsys.readouterr() == ("", error)

    def test_stdin_gives_the_same_error(self, tmp_path, gold_text, capsys,
                                        monkeypatch, failure):
        path, error = self._input(tmp_path, gold_text, failure)
        monkeypatch.setattr("sys.stdin", _stdin(path.read_bytes()))
        assert main(["extract", "--format", "turtle",
                     "--base-iri", BASE]) == EXIT_CONLLU
        assert capsys.readouterr() == ("", error)

    def test_no_out_dir_is_created(self, tmp_path, gold_text, capsys,
                                   failure):
        path, error = self._input(tmp_path, gold_text, failure)
        out = tmp_path / "out"
        assert main(["extract", str(path), "--format", "both",
                     "--base-iri", BASE, "--out-dir", str(out)]) \
            == EXIT_CONLLU
        assert capsys.readouterr() == ("", error)
        assert not out.exists()

    def test_existing_out_dir_is_unchanged(self, tmp_path, gold_text,
                                           capsys, failure):
        path, error = self._input(tmp_path, gold_text, failure)
        out = tmp_path / "out"
        out.mkdir()
        before = {"extraction.json": b'{"old": true}\n',
                  "extraction.ttl": b"# old\n", "other.txt": b"kept\n"}
        for name, data in before.items():
            (out / name).write_bytes(data)
        assert main(["extract", str(path), "--format", "both",
                     "--base-iri", BASE, "--out-dir", str(out)]) \
            == EXIT_CONLLU
        assert capsys.readouterr() == ("", error)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


_TOKENS = ["1\tIl\til\tPRON\t_\t_\t2\tnsubj\t_\t_",
           "2\tpart\tpartir\tVERB\t_\t_\t0\troot\t_\t_",
           "3\t.\t.\tPUNCT\t_\t_\t2\tpunct\t_\t_"]


@pytest.mark.parametrize("blank", ["\t", " ", "\x0c", "\u2028", "\x85"],
                         ids=["tab", "space", "form-feed", "u2028", "u0085"])
@pytest.mark.parametrize("at", [2, 4], ids=["before-tokens", "between-tokens"])
def test_whitespace_only_line_exits_3(tmp_path, capsys, blank, at):
    lines = ["# sent_id = a", "# text = Il part."] + _TOKENS
    lines.insert(at, blank)
    path = tmp_path / "blank.conllu"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["extract", str(path)]) == EXIT_CONLLU
    assert capsys.readouterr() == (
        "", f"itirel: conllu: line {at + 1}: line of whitespace only (only "
        "an empty line ends a sentence)\n")


class TestErrorOrder:
    """Lexicon and --base-iri errors come before any input error."""

    def test_lexicon_error_before_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.conllu"
        bad.write_bytes(_LATIN1_ROW)
        assert main(["extract", str(bad), "--lexicons",
                     str(tmp_path / "none")]) == EXIT_LEXICON
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "missing lexicon file" in captured.err

    def test_invalid_base_iri_before_input_error(self, tmp_path, capsys):
        assert main(["extract", str(tmp_path / "nope.conllu"), "--format",
                     "turtle", "--base-iri", "not an iri"]) == EXIT_LEXICON
        assert capsys.readouterr() == (
            "", "itirel: invalid base IRI: 'not an iri'\n")

    @pytest.mark.parametrize("base", [BASE + "\n", BASE + "/\x01iti"])
    def test_base_iri_with_a_control_character_exits_2(self, gold_file,
                                                         capsys, base):
        assert main(["extract", str(gold_file), "--format", "turtle",
                     "--base-iri", base]) == EXIT_LEXICON
        assert capsys.readouterr() == (
            "", f"itirel: invalid base IRI: {base!r}\n")


def _replicated(text: str, copies: int) -> str:
    return "\n".join(text.replace("# sent_id = ", f"# sent_id = r{k}-")
                     for k in range(copies))


def test_peak_memory_does_not_grow_with_the_corpus(tmp_path, gold_text,
                                                   taxonomy_text):
    """The CLI holds one sentence at a time: its peak traced memory on a
    corpus eight times larger stays within the 1x peak plus slack."""
    block = gold_text + "\n" + taxonomy_text

    def peak(copies: int) -> int:
        path = tmp_path / f"corpus{copies}.conllu"
        path.write_text(_replicated(block, copies), encoding="utf-8")
        out = tmp_path / f"out{copies}"
        tracemalloc.start()
        try:
            code = main(["extract", str(path), "--format", "both",
                         "--base-iri", BASE, "--out-dir", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert len(json.loads((out / "extraction.json").read_text(
            encoding="utf-8"))["sentences"]) == 16 * copies
        return peak

    peak(1)  # warm-up: imports and caches filled on first use
    small, large = peak(5), peak(40)
    assert large <= 1.25 * small + 2 ** 20, (small, large)


class TestLexiconValidate:
    def test_bundled_ok(self, capsys):
        assert main(["lexicon", "validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "result: OK" in out
        assert "notice:" in out

    def test_explicit_directory(self, capsys):
        assert main(["lexicon", "validate",
                     str(bundled_lexicon_dir())]) == EXIT_OK

    def test_invalid_utf8_lexicon_is_invalid(self, lexicon_copy, capsys):
        (lexicon_copy / "units.tsv").write_bytes(b"km\tspatial\n\xff\n")
        assert main(["lexicon", "validate", str(lexicon_copy)]) \
            == EXIT_LEXICON
        assert capsys.readouterr().out == (
            "error: units.tsv:2: invalid UTF-8 byte 0xff\n"
            "result: INVALID\n")

    def test_every_problem_is_reported(self, lexicon_copy, capsys):
        units = lexicon_copy / "units.tsv"
        verbs = lexicon_copy / "motion_verbs.tsv"
        n_units = len(units.read_text(encoding="utf-8").splitlines())
        n_verbs = len(verbs.read_text(encoding="utf-8").splitlines())
        with units.open("a", encoding="utf-8") as fh:
            fh.write("pied\nverge\n")
        with verbs.open("a", encoding="utf-8") as fh:
            fh.write("x\tbogus\n")
        assert main(["lexicon", "validate", str(lexicon_copy)]) \
            == EXIT_LEXICON
        assert capsys.readouterr().out == (
            f"error: motion_verbs.tsv:{n_verbs + 1}: unknown value 'bogus' "
            "(expected one of ['final', 'initial', 'median'])\n"
            f"error: units.tsv:{n_units + 1}: expected 2 columns, got 1\n"
            f"error: units.tsv:{n_units + 2}: expected 2 columns, got 1\n"
            "result: INVALID\n")

    def test_toponym_without_words_is_invalid(self, lexicon_copy, capsys):
        with (lexicon_copy / "gazetteer.tsv").open("a") as fh:
            fh.write("'\tcity\n")
        assert main(["lexicon", "validate", str(lexicon_copy)]) \
            == EXIT_LEXICON
        out = capsys.readouterr().out
        assert "empty toponym" in out and "result: INVALID" in out

    def test_toponyms_with_the_same_words_notice(self, lexicon_copy,
                                                 capsys):
        with (lexicon_copy / "gazetteer.tsv").open("a") as fh:
            fh.write("PAU\tairport\n")
        assert main(["lexicon", "validate", str(lexicon_copy)]) == EXIT_OK
        out = capsys.readouterr().out
        assert ("notice: gazetteer entry 'Pau' has the same words as 'PAU'; "
                "'PAU' is matched") in out
        assert "result: OK" in out

    def test_missing_directory_is_invalid(self, tmp_path, capsys):
        assert main(["lexicon", "validate", str(tmp_path / "none")]) \
            == EXIT_LEXICON
        assert "result: INVALID" in capsys.readouterr().out


class TestEntrypoint:
    def test_entrypoint_raises_system_exit(self, gold_file, monkeypatch,
                                           capsys):
        import sys

        from itirel.cli import entrypoint
        monkeypatch.setattr(sys, "argv",
                            ["itirel", "extract", str(gold_file)])
        with pytest.raises(SystemExit) as exc:
            entrypoint()
        assert exc.value.code == EXIT_OK

    @staticmethod
    def _run_module(args, **env):
        """``python -m itirel.cli`` in a child process, on this checkout."""
        src = str(Path(itirel.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                               if p)
        return subprocess.run(
            [sys.executable, "-m", "itirel.cli", *args], capture_output=True,
            env={**os.environ, "PYTHONPATH": path, **env})

    def test_python_m_runs_the_cli(self, gold_file, capsys):
        assert main(["extract", str(gold_file)]) == EXIT_OK
        expected = capsys.readouterr().out.encode("utf-8")
        proc = self._run_module(["extract", str(gold_file)])
        assert proc.returncode == EXIT_OK
        assert proc.stdout == expected

    @pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
    def test_stdout_is_utf8_whatever_its_encoding(self, encoding):
        proc = self._run_module(
            ["extract", str(bundled_lexicon_dir().parent / "gold"
                            / "gold.conllu")],
            PYTHONIOENCODING=encoding)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
        assert proc.stdout == (Path(__file__).parent / "golden"
                               / "gold.json").read_bytes()
