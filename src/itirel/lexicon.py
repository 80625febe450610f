"""Lexicon loading, validation and lookup.

Five TSV files drive the extraction patterns: motion verbs with aspectual
polarity, spatial relation markers, temporal relation markers, a toponym
gazetteer, and measure units.  All of them are data, not code: the bundled
files under ``itirel/data/lexicons`` are a seed that users can amend.

``load_lexicons`` reads each file in one pass: it decodes the bytes in the
blocks of ``depgraph.read_blocks``, so no file's whole text is held beside
its bytes, and the loop over the gazetteer's rows normalizes each toponym
once and fills the gazetteer's phrase index with its words.  The marker
indexes are built on first use.  A phrase index is keyed by strings: a
phrase's normalized, folded words joined with one space.  The words come
from ``str.split()``, so none holds a space and the join loses nothing.
"""

from __future__ import annotations

import io
import unicodedata
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Mapping, Optional, Sequence

from .depgraph import Record, decode_lines, read_blocks

try:
    # hashlib is pretty heavy to load (OpenSSL), try lean internal module first
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


class VerbPolarity(str, Enum):
    INITIAL = "initial"
    MEDIAN = "median"
    FINAL = "final"


class SpatialRelationKind(str, Enum):
    METRIC = "metric"
    ORIENTATION = "orientation"
    GEOMETRIC_FIGURE = "figure"
    ADJACENCY = "adjacency"
    INCLUSION = "inclusion"
    # a bare gazetteer toponym with no relational marker around it
    ABSOLUTE = "absolute"


class TemporalRelationKind(str, Enum):
    ADJACENCY = "adjacency"
    INCLUSION = "inclusion"
    DISTANCE = "distance"
    ABSOLUTE = "absolute"


class LexiconError(Exception):
    """Missing lexicon file(s) or invalid lexicon contents."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


# French contracted prepositions, folded for marker matching only.
_CONTRACTIONS = {"au": "à", "aux": "à", "du": "de", "des": "de", "d": "de"}


def lemma_key(lemma: str) -> str:
    """The key of a motion-verb or unit lemma: NFC, case-folded, and NFC
    again, as the fold can undo NFC ("ß\\u0301" folds to "ss\\u0301"); an
    ASCII lemma is its lower()."""
    if lemma.isascii():
        return lemma.lower()
    return unicodedata.normalize(
        "NFC", unicodedata.normalize("NFC", lemma).casefold())


def _words(phrase: str) -> list[str]:
    # each apostrophe is a space; str.split() splits where re's \s does;
    # NFC keeps ASCII, and casefold() is lower() there
    if phrase.isascii():
        return phrase.lower().replace("'", " ").replace("`", " ").split()
    return (lemma_key(phrase).replace("'", " ").replace("’", " ")
            .replace("‘", " ").replace("ʼ", " ").replace("`", " ").split())


def normalize(phrase: str) -> str:
    """Case-fold and elision-normalize a phrase ("l'Ouest" -> "l ouest");
    NFC keeps an ASCII word of letters and digits, and lower() folds it."""
    if phrase.isascii() and phrase.isalnum():
        return phrase.lower()
    return " ".join(_words(phrase))


def canon_word(word: str) -> str:
    """Normalized word with contracted prepositions folded (du -> de)."""
    return _CONTRACTIONS.get(word, word)


def phrase_key(phrase: str, fold=str) -> str:
    """The key a phrase is indexed by: its normalized words, each folded,
    joined with one space; unfolded, it is ``normalize(phrase)``."""
    return " ".join(map(fold, _words(phrase)))


class PhraseIndex:
    """Longest-match lookup of phrases by their folded, normalized words;
    of phrases with the same words, the smallest in code-point order wins.

    ``values`` is a phrase -> value table, and ``entries`` maps each key,
    ``phrase_key(phrase, fold)`` of a phrase of the table (``fold`` being
    ``str`` or ``canon_word``), to the phrase kept for it.  A key is a
    string, not a tuple of words: its words come from ``str.split()``, so
    each space in it separates two words and no two word lists join to the
    same key.  ``first_words`` holds each key's first word and ``max_len``
    the most words of a key.  ``match`` reads normalized words and folds
    them itself; a word not in ``starts``, the words whose fold begins a
    phrase, costs one set lookup."""

    def __init__(self, values: Mapping[str, object], entries: dict[str, str],
                 first_words: set[str], max_len: int, fold=str):
        self.values, self.entries, self.fold = values, entries, fold
        self.first_words, self.max_len = first_words, max_len
        # canon_word folds the contractions only: they may start a phrase too
        self.starts = first_words if fold is str else frozenset(
            w for w in (*first_words, *_CONTRACTIONS)
            if fold(w) in first_words)

    def match(self, words: Sequence[str], i: int):
        """Longest phrase at words[i:], for i < len(words)
        -> (n_words, its key, phrase, value)."""
        if words[i] not in self.starts:
            return None
        fold, entries = self.fold, self.entries
        key = fold(words[i])
        phrase = entries.get(key)
        found = None if phrase is None else (1, key, phrase)
        for n, word in enumerate(words[i + 1:i + self.max_len], 2):
            if " " in word:  # one form of two words ("l'Ouest") ends a key
                break
            key = key + " " + fold(word)
            phrase = entries.get(key)
            if phrase is not None:
                found = n, key, phrase
        if found is None:
            return None
        n, key, phrase = found
        return n, key, phrase, self.values[phrase]


def phrase_index(phrases: Mapping[str, object], fold=str) -> PhraseIndex:
    """The PhraseIndex of a phrase -> value table."""
    entries: dict[str, str] = {}
    for phrase in phrases:
        key = phrase_key(phrase, fold)
        kept = entries.get(key)
        if kept is None or phrase < kept:
            entries[key] = phrase
    # a phrase without words ("'") has the key "", which starts nothing
    keys = [key for key in entries if key]
    return PhraseIndex(phrases, entries,
                       {key.partition(" ")[0] for key in keys},
                       max((key.count(" ") + 1 for key in keys), default=0),
                       fold)


FILE_NAMES = ("motion_verbs.tsv", "spatial_markers.tsv",
              "temporal_markers.tsv", "gazetteer.tsv", "units.tsv")

_POLARITIES = {p.value: p for p in VerbPolarity}
_SPATIAL_KINDS = {k.value: k for k in SpatialRelationKind
                  if k is not SpatialRelationKind.ABSOLUTE}
_TEMPORAL_KINDS = {k.value: k for k in TemporalRelationKind
                   if k is not TemporalRelationKind.ABSOLUTE}
_UNIT_CLASSES = {"spatial", "temporal"}


class LexiconSet(Record):
    """The five lexicons, keys already normalized: ``gazetteer`` maps each
    display toponym to its feature type ('' if none), ``units`` each unit
    lemma to 'spatial' or 'temporal'.  ``fingerprint``, the digest of the
    file bytes the set was parsed from ('' if built directly), takes no part
    in equality.  A ``__dict__`` holds the indexes built on first use."""

    _fields = ("motion_verbs", "spatial_markers", "temporal_markers",
               "gazetteer", "units")

    def __init__(self, motion_verbs, spatial_markers, temporal_markers,
                 gazetteer, units, fingerprint=""):
        self.motion_verbs, self.spatial_markers = motion_verbs, spatial_markers
        self.temporal_markers, self.gazetteer = temporal_markers, gazetteer
        self.units, self.fingerprint = units, fingerprint

    @cached_property
    def spatial_marker_index(self) -> PhraseIndex:
        return phrase_index(self.spatial_markers, fold=canon_word)

    @cached_property
    def temporal_marker_index(self) -> PhraseIndex:
        return phrase_index(self.temporal_markers, fold=canon_word)

    @cached_property
    def gazetteer_index(self) -> PhraseIndex:
        # load_lexicons sets the index it built while reading the file
        return phrase_index(self.gazetteer)

    @cached_property
    def figure_nouns(self) -> frozenset[str]:
        return frozenset(p for p, k in self.spatial_markers.items()
                         if k is SpatialRelationKind.GEOMETRIC_FIGURE)


def files_digest(files: Mapping[str, bytes]) -> str:
    """SHA-256 over the lexicon files' names and bytes, in FILE_NAMES order."""
    digest = sha256()
    for name in FILE_NAMES:
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(files[name])
        digest.update(b"\x00")
    return digest.hexdigest()


def _read_tsv(name: str, data: bytes, problems: list[str],
              optional_second: bool = False):
    """Yield (line_no, key, value) for data lines of two columns; '#'
    comments and blanks skipped.  LF, CRLF and CR end lines alike.  A line
    with the wrong number of columns is added to problems and skipped.  Of a
    file that is not UTF-8 only the lines before its first bad byte's line
    are read; that byte is one more problem."""
    lines = decode_lines(
        read_blocks(io.BytesIO(data)),
        lambda message, at: LexiconError([f"{name}:{at}: {message}"]))
    try:
        for line_no, raw in enumerate(lines, 1):
            line = raw.rstrip()
            if not line or ("#" in line and line.lstrip().startswith("#")):
                continue
            first, tab, second = line.partition("\t")
            if "\t" in second or not (tab or optional_second):
                got = line.count("\t") + 1
                problems.append(
                    f"{name}:{line_no}: expected 2 columns, got {got}")
                continue
            yield line_no, first.strip(), second.strip()
    except LexiconError as err:
        problems += err.problems


def _load_map(name: str, data: bytes, value_table: Mapping[str, object],
              key_norm, problems: list[str]) -> dict:
    out: dict = {}
    lines: dict[str, int] = {}
    for line_no, key, value in _read_tsv(name, data, problems):
        k = key_norm(key)
        if not k:
            problems.append(f"{name}:{line_no}: empty key")
            continue
        if value not in value_table:
            problems.append(
                f"{name}:{line_no}: unknown value {value!r} "
                f"(expected one of {sorted(value_table)})")
            continue
        v = value_table[value]
        if k in out and out[k] != v:
            problems.append(
                f"{name}:{line_no}: duplicate key {k!r} conflicts with "
                f"line {lines[k]}")
            continue
        out[k] = v
        lines.setdefault(k, line_no)
    return out


def load_lexicons(directory) -> LexiconSet:
    """Load the five TSV lexicons from a directory.

    Raises :class:`LexiconError` listing every missing or unreadable file,
    file that is not UTF-8 (at its first bad byte), line with the wrong
    number of columns, duplicate key with a conflicting value, or unknown
    polarity/kind token.  Each file is read once; ``fingerprint`` is the
    digest of the bytes parsed.
    """
    directory = Path(directory)
    files: dict[str, bytes] = {}
    problems: list[str] = []
    for n in FILE_NAMES:
        try:
            files[n] = (directory / n).read_bytes()
        except FileNotFoundError:
            problems.append(f"missing lexicon file: {n}")
        except OSError as err:  # a directory, a denied or failed read
            problems.append(f"cannot read lexicon file {n}: "
                            f"{err.strerror or err}")
    if problems:
        raise LexiconError(problems)

    motion = _load_map("motion_verbs.tsv", files["motion_verbs.tsv"],
                       _POLARITIES, lemma_key, problems)
    spatial = _load_map("spatial_markers.tsv", files["spatial_markers.tsv"],
                        _SPATIAL_KINDS, normalize, problems)
    temporal = _load_map("temporal_markers.tsv", files["temporal_markers.tsv"],
                         _TEMPORAL_KINDS, normalize, problems)
    units = _load_map("units.tsv", files["units.tsv"],
                      {u: u for u in _UNIT_CLASSES}, lemma_key, problems)
    gazetteer, gazetteer_index = _load_gazetteer(files["gazetteer.tsv"],
                                                 problems)
    if problems:
        raise LexiconError(problems)
    lex = LexiconSet(motion_verbs=motion, spatial_markers=spatial,
                     temporal_markers=temporal, gazetteer=gazetteer,
                     units=units, fingerprint=files_digest(files))
    lex.gazetteer_index = gazetteer_index  # in place of the cached property
    return lex


def _load_gazetteer(data: bytes, problems: list[str]
                    ) -> tuple[dict[str, str], PhraseIndex]:
    """The toponym -> type table of gazetteer.tsv and its PhraseIndex, whose
    entries, first words and longest word count are filled from each new
    toponym's words as the file is read."""
    tsv = "gazetteer.tsv"
    gazetteer: dict[str, str] = {}
    entries: dict[str, str] = {}
    first_words: set[str] = set()
    max_len = 0
    types: dict[str, str] = {}  # one string of each feature type
    # (index in problems, toponym) of each conflict whose message still
    # lacks the number of the line it conflicts with
    conflicts: list[tuple[int, str]] = []
    for line_no, name, ftype in _read_tsv(tsv, data, problems,
                                          optional_second=True):
        seen = gazetteer.get(name)
        if seen is not None:
            if seen != ftype:
                conflicts.append((len(problems), name))
                problems.append(f"{tsv}:{line_no}: duplicate toponym "
                                f"{name!r} conflicts with line ")
            continue
        words = _words(name)
        if not words:
            problems.append(f"{tsv}:{line_no}: empty toponym {name!r} "
                            "(no words after normalization)")
            continue
        gazetteer[name] = types.setdefault(ftype, ftype)
        key = " ".join(words)
        kept = entries.get(key)
        if kept is None or name < kept:
            entries[key] = name
        first_words.add(words[0])
        if len(words) > max_len:
            max_len = len(words)
    if conflicts:
        # found again on this path only, so that no toponym -> line table
        # stays beside the index: a toponym was kept from the first line of
        # two columns that gives it, as a line refused as empty has no words
        # and a conflict needs an earlier line
        names = {name for _, name in conflicts}
        first: dict[str, int] = {}
        for line_no, name, _ in _read_tsv(tsv, data, [], optional_second=True):
            if name in names:
                first.setdefault(name, line_no)
        for at, name in conflicts:
            problems[at] += str(first[name])
    return gazetteer, PhraseIndex(gazetteer, entries, first_words, max_len)


class ValidationReport(Record):
    __slots__ = _fields = ("notices", "counts")

    def __init__(self, notices, counts):
        self.notices, self.counts = notices, counts

    def render(self) -> str:
        lines = [f"{name}: {n} entries" for name, n in self.counts.items()]
        lines += [f"notice: {n}" for n in self.notices]
        lines.append("result: OK")
        return "\n".join(lines)


def _overlap_notices(name: str, phrases) -> list[str]:
    """Markers contained in longer markers: longest-match ambiguity notices."""
    out = []
    words = sorted((tuple(normalize(p).split()), p) for p in phrases)
    for wa, pa in words:
        for wb, pb in words:
            if len(wa) >= len(wb):
                continue
            if any(wb[i:i + len(wa)] == wa
                   for i in range(len(wb) - len(wa) + 1)):
                kind = "a prefix of" if wb[:len(wa)] == wa else "contained in"
                out.append(f"{name}: marker {pa!r} is {kind} {pb!r} "
                           "(longest match wins)")
    return out


def validate_lexicons(lex: LexiconSet) -> ValidationReport:
    """The entry counts of a LexiconSet and the notices of what loading
    cannot see: markers contained in longer markers, markers both spatial
    and temporal, an empty gazetteer, toponyms with the words of a marker
    or unit, and toponyms with the same words.  Every rule of a single
    line is the loader's (``load_lexicons`` refuses a file that breaks
    one), and a hand-built set is taken as given."""
    notices = _overlap_notices("spatial_markers", lex.spatial_markers)
    notices += _overlap_notices("temporal_markers", lex.temporal_markers)

    both = set(lex.spatial_markers) & set(lex.temporal_markers)
    for phrase in sorted(both):
        notices.append(
            f"marker {phrase!r} is both spatial and temporal; resolved at "
            "classification time by the governed phrase")

    if not lex.gazetteer:
        notices.append("gazetteer empty: Absolute spatial entities cannot "
                       "be recognized")
    marker_phrases = set(lex.spatial_markers) | set(lex.temporal_markers)
    toponyms = lex.gazetteer_index.entries
    for name in sorted(lex.gazetteer):
        phrase = normalize(name)  # its key in the index
        if phrase in marker_phrases or phrase in lex.units:
            notices.append(f"gazetteer entry {name!r} collides with a "
                           "common-noun marker or unit")
        kept = toponyms[phrase]
        if kept != name:
            notices.append(f"gazetteer entry {name!r} has the same words as "
                           f"{kept!r}; {kept!r} is matched")

    counts = {name: len(getattr(lex, name)) for name in LexiconSet._fields}
    return ValidationReport(tuple(notices), counts)


def motion_polarity(lex: LexiconSet, lemma: str) -> Optional[VerbPolarity]:
    """Polarity of a motion verb, or None.  Lookup is by lemma only."""
    return lex.motion_verbs.get(lemma_key(lemma))


def bundled_lexicon_dir() -> Path:
    """Directory of the seed lexicons shipped with the package."""
    return Path(__file__).parent / "data" / "lexicons"
