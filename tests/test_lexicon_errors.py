"""The exact problems ``load_lexicons`` reports for broken lexicon files.

Each case copies the bundled lexicons, mutates them in a fixed, seeded way
(conflicting duplicates, an invalid UTF-8 byte, CRLF and lone-CR line ends,
an empty toponym, a wrong column count, an empty file) and records
``LexiconError.problems`` in order.  ``tests/golden/lexicon_errors.txt``
holds that record as the loader gave it before the one-pass reading, but
for one line: a lone-CR file's invalid byte on its last line is reported
on that line (``units.tsv:17``), no longer on line 1, since every line end
is counted alike.  Every message, line number and order must stay the
same.  To rewrite it:

    PYTHONPATH=src:tests python tests/test_lexicon_errors.py \
        > tests/golden/lexicon_errors.txt
"""

from __future__ import annotations

import random
import shutil
import tempfile
from pathlib import Path

from itirel import (LexiconError, bundled_lexicon_dir, depgraph,
                    load_lexicons)

GOLDEN = Path(__file__).parent / "golden" / "lexicon_errors.txt"
SEED = 13


def _data_lines(data: bytes) -> list[int]:
    """0-based indexes of the LF-split lines that hold an entry."""
    return [i for i, line in enumerate(data.split(b"\n"))
            if line.strip() and not line.startswith(b"#")]


def _entries(data: bytes) -> list[tuple[bytes, bytes]]:
    return [tuple(data.split(b"\n")[i].split(b"\t") + [b""])[:2]
            for i in _data_lines(data)]


def _append(data: bytes, *lines: bytes) -> bytes:
    return data + b"".join(line + b"\n" for line in lines)


def _cases(rng: random.Random, files: dict[str, bytes]):
    """(case name, {file name: new bytes}) in a fixed order."""
    gaz = files["gazetteer.tsv"]
    spatial = files["spatial_markers.tsv"]
    toponyms = _entries(gaz)
    markers = _entries(spatial)
    name, ftype = rng.choice(toponyms)
    other, _ = rng.choice([t for t in toponyms if t[0] != name])
    marker, kind = rng.choice(markers)
    new_kind = b"inclusion" if kind != b"inclusion" else b"metric"

    yield "conflicting duplicate toponym", {"gazetteer.tsv": _append(
        gaz, name + b"\t" + ftype, name + b"\tbogus-" + ftype)}
    yield "conflicting duplicates of two toponyms, first line padded", {
        "gazetteer.tsv": _append(
            gaz, b"  Ossau \tisland", b"Ossau\tisland", name + b"\tpeak",
            b"Ossau\tcity", b"NewOssau\tcity", name + b"\tpeak")}
    yield "toponym first seen on a wrong-column line", {
        "gazetteer.tsv": _append(b"# types\n", b"Ossau\tvalley\textra",
                                 b"Ossau\tvalley", b"Ossau\tpeak")}
    yield "conflicting duplicate marker", {"spatial_markers.tsv": _append(
        spatial, marker.upper() + b"\t" + new_kind)}
    yield "conflicting duplicate verb and unit", {
        "motion_verbs.tsv": _append(files["motion_verbs.tsv"],
                                    b"QUITTER\tfinal", b"fuir\tweird",
                                    b"fuir\tinitial", b"FUIR\tfinal"),
        "units.tsv": _append(files["units.tsv"], b"km\ttemporal")}
    for file_name in ("gazetteer.tsv", "units.tsv"):
        data = files[file_name]
        lines = data.split(b"\n")
        k = rng.choice(_data_lines(data))
        lines[k] = lines[k][:1] + b"\xe8" + lines[k][1:]
        yield f"invalid UTF-8 byte on line {k + 1} of {file_name}", {
            file_name: b"\n".join(lines)}
    for end, label in ((b"\r\n", "CRLF"), (b"\r", "lone-CR")):
        yield f"{label} ends with a conflicting duplicate and a short line", {
            "gazetteer.tsv": _append(gaz, name + b"\tbogus").replace(
                b"\n", end),
            "units.tsv": _append(files["units.tsv"], b"pied").replace(
                b"\n", end)}
        yield f"{label} ends with an invalid byte on the last line", {
            "units.tsv": _append(files["units.tsv"], b"m\xe8tre\tspatial"
                                 ).replace(b"\n", end)}
    yield "mixed LF, CRLF and lone-CR ends", {"gazetteer.tsv": _append(
        gaz, b"A\tcity\rB\tcity\r\nA\ttown\rC", b"\r", b"B\ttown")}
    yield "empty toponyms", {"gazetteer.tsv": _append(
        gaz, b"'\tcity", b"\xe2\x80\x99 `\t", b" \xc2\xa0\x1c' \tcity")}
    yield "wrong column counts", {
        "gazetteer.tsv": _append(gaz, name + b"\tcity\tFR"),
        "spatial_markers.tsv": _append(spatial, marker),
        "temporal_markers.tsv": _append(files["temporal_markers.tsv"],
                                        b"a\tb\tc\td")}
    yield "problems in every file, in file order", {
        "motion_verbs.tsv": _append(files["motion_verbs.tsv"], b"\tinitial",
                                    b"fuir\tweird"),
        "spatial_markers.tsv": _append(spatial, marker + b"\t" + new_kind),
        "temporal_markers.tsv": _append(files["temporal_markers.tsv"],
                                        b"'\tinclusion"),
        "gazetteer.tsv": _append(gaz, b"'", name + b"\tx", other),
        "units.tsv": _append(files["units.tsv"], b"km\tspatial\textra")}
    for file_name in ("gazetteer.tsv", "motion_verbs.tsv"):
        yield f"empty {file_name}", {file_name: b""}


def _case_dirs(tmp: Path):
    """(case name, lexicon directory) of each case in order, the directory
    under tmp rewritten for each case."""
    bundled = bundled_lexicon_dir()
    files = {p.name: p.read_bytes() for p in bundled.iterdir()
             if p.suffix == ".tsv"}
    for case, changes in _cases(random.Random(SEED), files):
        lexdir = tmp / "lex"
        shutil.rmtree(lexdir, ignore_errors=True)
        shutil.copytree(bundled, lexdir)
        for file_name, data in changes.items():
            (lexdir / file_name).write_bytes(data)
        yield case, lexdir


def render() -> str:
    """The golden text: each case's name, then its problems in order."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        for case, lexdir in _case_dirs(Path(tmp)):
            try:
                load_lexicons(lexdir)
                problems = ["(no problems)"]
            except LexiconError as err:
                problems = err.problems
            out.append(f"## {case}")
            out += problems
    return "\n".join(out) + "\n"


def test_lexicon_errors_match_golden():
    assert render() == GOLDEN.read_text(encoding="utf-8")


def _outcome(lexdir: Path):
    """The set, its fingerprint and its gazetteer index's entries that
    ``load_lexicons`` gives, or the problems it raises."""
    try:
        lex = load_lexicons(lexdir)
    except LexiconError as err:
        return err.problems
    return lex, lex.fingerprint, lex.gazetteer_index.entries


def test_the_load_does_not_depend_on_the_block_size(tmp_path, monkeypatch):
    """Each lexicon file is read in blocks of ``depgraph._BLOCK_BYTES``
    bytes and the rest of the line each cuts.  Blocks of one line (a read
    of 1 byte), of a few lines (7 bytes) and of the default size give the
    same set, fingerprint and problems: on the bundled lexicons, on their
    CRLF and lone-CR copies and on every case of the golden record."""
    def copies():
        yield "bundled", bundled_lexicon_dir()
        for end in (b"\r\n", b"\r"):
            lexdir = shutil.copytree(bundled_lexicon_dir(),
                                     tmp_path / f"ends{len(end)}")
            for path in lexdir.iterdir():
                path.write_bytes(path.read_bytes().replace(b"\n", end))
            yield f"{end!r} ends", lexdir
        yield from _case_dirs(tmp_path)

    for case, lexdir in copies():
        outcomes = []
        for size in (1, 7, depgraph._BLOCK_BYTES):
            monkeypatch.setattr(depgraph, "_BLOCK_BYTES", size)
            outcomes.append(_outcome(lexdir))
        monkeypatch.undo()
        assert outcomes[0] == outcomes[1] == outcomes[2], case


if __name__ == "__main__":
    print(render(), end="")
