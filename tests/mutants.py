"""Mutation check: each one-line slip in MUTANTS must fail a test.

Run from the repository root, with pytest and hypothesis installed:

    python tests/mutants.py

Each entry of MUTANTS is (file, old text, new text, test file).  The script
copies ``src``, ``tests`` and ``pyproject.toml`` into a temporary directory
and first runs every named test file there unchanged: they must pass.  Then,
for each entry, it replaces the one occurrence of the old text with the new
one, runs ``python -m pytest -x -q`` on the test file, and restores the
file.  A mutant whose tests pass survives.  The script lists every mutant
and exits 1 when one survives, when an old text does not occur exactly
once, or when the unchanged tests fail.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # a bare date's day is at most 31
    ("src/itirel/entities.py", "or 0) <= 31", "or 0) <= 32",
     "tests/test_entities.py"),
    # a rectangle or a square needs two anchors, a triangle three
    ("src/itirel/entities.py",
     'minimum = 3 if figure_noun == "triangle" else 2', "minimum = 3",
     "tests/test_entities.py"),
    # the evidence of a temporal reference stops at a verb
    ("src/itirel/entities.py", 'upos in ("PUNCT", "VERB") or (',
     'upos in ("PUNCT",) or (', "tests/test_entities.py"),
    # « ; » and « ou » separate a figure's anchors
    ("src/itirel/entities.py", '_SEPARATOR_FORMS = {",", ";", "et", "ou"}',
     '_SEPARATOR_FORMS = {",", "et"}', "tests/test_entities.py"),
    # « dès » marks an origin
    ("src/itirel/itinerary.py", '"dès": "origin",', "",
     "tests/test_itinerary.py"),
    # a relation needs an argument besides those of its subject
    ("src/itirel/nary.py",
     "            if len(args) == alone:\n"
     "                continue  # nor is the subject alone, or nothing\n", "",
     "tests/test_nary.py"),
    # of two toponyms with the same words the smaller is matched
    ("src/itirel/lexicon.py", "kept is None or name < kept",
     "kept is None or name > kept", "tests/test_lexicon.py"),
    # a toponym with the words of a unit is reported
    ("src/itirel/lexicon.py",
     "phrase in marker_phrases or phrase in lex.units",
     "phrase in marker_phrases", "tests/test_lexicon.py"),
    # a lexicon line's key must keep a word, and its value must be known
    ("src/itirel/lexicon.py", "        if not k:\n", "        if False:\n",
     "tests/test_lexicon_errors.py"),
    ("src/itirel/lexicon.py", "if value not in value_table:", "if False:",
     "tests/test_lexicon_errors.py"),
    # a toponym must keep a word after normalization
    ("src/itirel/lexicon.py", "        if not words:\n",
     "        if False:\n", "tests/test_lexicon_errors.py"),
    # a phrase index key is the words joined with one space
    ("src/itirel/lexicon.py", 'key = key + " " + fold(word)',
     "key = key + fold(word)", "tests/test_lexicon.py"),
    # a form of two words ("l'Ouest") ends a key
    ("src/itirel/lexicon.py", 'if " " in word:', "if False:",
     "tests/test_properties.py"),
    # the gazetteer index's start words are its keys' first words, and its
    # longest key is counted as the file is read
    ("src/itirel/lexicon.py", "first_words.add(words[0])",
     "first_words.add(words[-1])", "tests/test_properties.py"),
    ("src/itirel/lexicon.py", "if len(words) > max_len:", "if False:",
     "tests/test_properties.py"),
    # NFC follows the case fold, which can undo it
    ("src/itirel/lexicon.py",
     'return unicodedata.normalize(\n'
     '        "NFC", unicodedata.normalize("NFC", lemma).casefold())',
     'return unicodedata.normalize("NFC", lemma).casefold()',
     "tests/test_properties.py"),
    # the number words read as their values
    ("src/itirel/entities.py", '"trois": 3,', '"trois": 4,',
     "tests/test_entities.py"),
    ("src/itirel/entities.py", '"douze": 12,', '"douze": 13,',
     "tests/test_entities.py"),
    ("src/itirel/entities.py", '"dix-huit": 18,', '"dix-huit": 19,',
     "tests/test_entities.py"),
    ("src/itirel/entities.py", '"mille": 1000,', '"mille": 1001,',
     "tests/test_entities.py"),
    # a figure's next anchor may start right after the last one
    ("src/itirel/entities.py", "p = last_end + 1", "p = last_end + 2",
     "tests/test_entities.py"),
    # a bare date's day may be 1
    ("src/itirel/entities.py", "and 1 <= (_number(", "and 2 <= (_number(",
     "tests/test_entities.py"),
    # an id past the last token has no children
    ("src/itirel/depgraph.py", "0 <= token_id < len(self._kids)",
     "0 <= token_id <= len(self._kids)", "tests/test_depgraph.py"),
    # one U+FEFF at the start of a string is not text
    ("src/itirel/depgraph.py", r'_lf_ends(text.removeprefix("\ufeff"))',
     "_lf_ends(text)", "tests/test_depgraph.py"),
    # a CRLF is one line end, for bytes and strings alike
    ("src/itirel/depgraph.py",
     r'text.replace("\r\n", "\n").replace("\r", "\n")',
     r'text.replace("\r", "\n")', "tests/test_depgraph.py"),
    # the lines before an invalid byte's line are read before its error
    ("src/itirel/depgraph.py", "while start < len(text):",
     "while start < len(text) and bad is None:", "tests/test_cli.py"),
    # a lexicon file is decoded a block at a time, never whole
    ("src/itirel/lexicon.py", "read_blocks(io.BytesIO(data)),", "[data],",
     "tests/test_lexicon.py"),
    # a block is completed by the rest of the line it cuts, at an LF
    ("src/itirel/depgraph.py", "block += binary.readline()", "pass",
     "tests/test_cli.py"),
    ("src/itirel/depgraph.py", r'block.endswith(b"\n")',
     r'block.endswith(b"\r")', "tests/test_cli.py"),
    # a token line has ten columns, on the parser's fast path too
    ("src/itirel/depgraph.py", "len(cols) == 10", "len(cols) >= 10",
     "tests/test_depgraph.py"),
    # no space before punctuation, nor after a form ending in an elision
    ("src/itirel/depgraph.py", 'tok.upos != "PUNCT"', "True",
     "tests/test_properties.py"),
    ("src/itirel/depgraph.py", "prev.endswith(_ELIDED)", "False",
     "tests/test_properties.py"),
    # a magnitude is ASCII digits: « depuis ٣ jours » has none
    ("src/itirel/entities.py", "if form.isascii() and form.isdigit():",
     "if form.isdigit():", "tests/test_entities.py"),
    # the scan gives its rules the loose indexes it was given
    ("src/itirel/entities.py", "ent = fallback(toks, words, i, lex, loose_at)",
     "ent = fallback(toks, words, i, lex, ())", "tests/test_entities.py"),
    ("src/itirel/entities.py", "match,\n" + " " * 53 + "lex, loose_at)",
     "match,\n" + " " * 53 + "lex, ())", "tests/test_entities.py"),
    # UC3 needs two obliques, and UC2 and UC4 one object
    ("src/itirel/nary.py", "if len(obliques) >= 2 and sum(",
     "if len(obliques) >= 3 and sum(", "tests/test_nary.py"),
    ("src/itirel/nary.py", "if objects:  # UC2", "if objects[1:]:  # UC2",
     "tests/test_nary.py"),
    # an argument leaves out its case marker, which is its role, and a
    # subject's role is « subj »
    ("src/itirel/nary.py", "cut = [*cases, *items[:1],", "cut = [*items[:1],",
     "tests/test_acceptance.py"),
    ("src/itirel/nary.py", 'role, case_marker = "subj", None',
     "role, case_marker = rel, None", "tests/test_nary.py"),
    # an argument starts after its leading punctuation
    ("src/itirel/nary.py",
     '    while kept and toks[kept[0] - 1].upos == "PUNCT":\n'
     "        kept.pop(0)\n", "", "tests/test_nary.py"),
    # the pipeline's n-ary stage starts from the main verb, which is not the
    # root under an auxiliary root (« a quitté »)
    ("src/itirel/serialize.py", "extract_nary(g, verb)",
     "extract_nary(g, g.root_id)", "tests/test_nary.py"),
]


def _pytest(work: Path, test_file: str) -> bool:
    """Whether ``pytest -x`` passes on one test file of the copy."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         test_file], cwd=work, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main() -> int:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        failing = [t for t in sorted({m[3] for m in MUTANTS})
                   if not _pytest(work, t)]
        if failing:
            print("the unchanged tests fail:", *failing)
            return 1
        bad = 0
        for n, (file, old, new, test_file) in enumerate(MUTANTS, 1):
            path = work / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"{n}: {file}: the old text occurs {text.count(old)} "
                      f"times: {old!r}")
                bad += 1
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            start = time.perf_counter()
            killed = not _pytest(work, test_file)
            path.write_text(text, encoding="utf-8")
            print(f"{n}: {'killed' if killed else 'SURVIVED'} in "
                  f"{time.perf_counter() - start:.1f} s by {test_file}: "
                  f"{file}: {old.strip()!r} -> {new.strip()!r}")
            bad += not killed
    print(f"{len(MUTANTS)} mutants, {bad} not killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
