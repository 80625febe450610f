"""Extraction document assembly and the JSON / Turtle serializers.

JSON is the canonical machine format and round-trips exactly; Turtle is a
one-way projection using the n-ary reification pattern: one instance node
per itinerary relation, one property per role.  Both are written one
sentence at a time by :class:`JsonWriter` and :class:`TurtleWriter`, which
render text straight from the result objects, with no intermediate dicts;
``to_json`` and ``to_turtle`` run them over a whole document.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from . import __version__
from .depgraph import (NoMainVerb, SentenceGraph, TokenSpan, iter_conllu,
                       root_verb)
from .entities import SpatialEntity, TemporalEntity
from .itinerary import ItineraryRelation, detect_displacement
from .lexicon import (FILE_NAMES, LexiconSet, SpatialRelationKind,
                      TemporalRelationKind, VerbPolarity, files_digest,
                      load_lexicons)
from .nary import Argument, NaryRelation, UseCaseKind, extract_nary


@dataclass(frozen=True)
class SentenceResult:
    sent_id: str
    text: str
    nary_relations: tuple[NaryRelation, ...]
    itinerary_relations: tuple[ItineraryRelation, ...]
    skips: tuple[str, ...]


@dataclass(frozen=True)
class SkipRecord:
    sent_id: str
    reason: str


@dataclass(frozen=True)
class ExtractionDocument:
    tool_version: str
    lexicon_fingerprint: str
    sentences: tuple[SentenceResult, ...]


def lexicon_fingerprint(directory) -> str:
    """Content hash of the five lexicon files; changes iff any byte does.
    Equal to ``load_lexicons(directory).fingerprint`` for unchanged files."""
    directory = Path(directory)
    return files_digest({n: (directory / n).read_bytes() for n in FILE_NAMES})


def extract_sentence(g: SentenceGraph, lex: LexiconSet,
                     loose: bool = False) -> SentenceResult:
    """The pipeline on one sentence: its n-ary relations, the itinerary
    relations read from them, or the reason it was skipped."""
    try:
        root_verb(g)
    except NoMainVerb:
        return SentenceResult(g.sent_id, g.text, (), (), ("no main verb",))
    narys = tuple(extract_nary(g))
    itins: list[ItineraryRelation] = []
    for r in narys:
        found = detect_displacement(r, g, lex, loose)
        if found is not None:
            itins.append(found)
    return SentenceResult(g.sent_id, g.text, narys, tuple(itins), ())


def build_document(graphs: Iterable[SentenceGraph], lex: LexiconSet,
                   loose: bool = False,
                   fingerprint: str = "") -> ExtractionDocument:
    return ExtractionDocument(
        tool_version=__version__, lexicon_fingerprint=fingerprint,
        sentences=tuple([extract_sentence(g, lex, loose) for g in graphs]))


def extract_itineraries(corpus: Sequence[SentenceGraph], lex: LexiconSet,
                        loose: bool = False,
                        report: Optional[list[SkipRecord]] = None
                        ) -> list[ItineraryRelation]:
    """Itinerary relations over a corpus, sentence granularity, input order.

    Per-sentence problems (no main verb) go into ``report`` when given and
    never abort the corpus.
    """
    out: list[ItineraryRelation] = []
    for g in corpus:
        result = extract_sentence(g, lex, loose)
        out.extend(result.itinerary_relations)
        if report is not None:
            report.extend(SkipRecord(g.sent_id, r) for r in result.skips)
    return out


def run_extract(conllu_text: str, lexicon_dir,
                loose: bool = False) -> ExtractionDocument:
    """End-to-end driver: CoNLL-U text + lexicon directory -> document."""
    lex = load_lexicons(lexicon_dir)
    return build_document(iter_conllu(conllu_text), lex, loose=loose,
                          fingerprint=lex.fingerprint)


# --- JSON ------------------------------------------------------------------
# One template per record type, laid out at the depth the record has in the
# document: keys in a fixed order, two spaces per level, strings escaped by
# the json module's own encoder with non-ASCII written raw.  The text is what
# the json module writes for the same values with ensure_ascii=False and
# indent=2, which tests/oracles.py keeps as the reference.

_str = encode_basestring


def _str_or_null(value: Optional[str]) -> str:
    return "null" if value is None else _str(value)


def _int_or_null(value: Optional[int]) -> str:
    return "null" if value is None else str(value)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _array(items: list[str], pad: str) -> str:
    """A JSON array of rendered items, one a line at indent ``pad``; its
    closing bracket sits one level out."""
    if not items:
        return "[]"
    return "[\n" + pad + (",\n" + pad).join(items) + "\n" + pad[:-2] + "]"


def _argument(a: Argument, pad: str) -> str:
    # ``pad`` indents the keys: an argument sits in a relation's list, or one
    # level further out as an itinerary's actor
    return f'''{{
{pad}"role": {_str(a.role)},
{pad}"text": {_str(a.text)},
{pad}"first": {a.span.first},
{pad}"last": {a.span.last},
{pad}"pivot": {a.pivot},
{pad}"order": {_int_or_null(a.order)},
{pad}"case_marker": {_int_or_null(a.case_marker)},
{pad}"flagged": {_bool(a.flagged)}
{pad[:-2]}}}'''


def _magnitude(m: Optional[tuple[int, str]]) -> str:
    if not m:
        return "null"
    return f'''{{
                "value": {m[0]},
                "unit": {_str(m[1])}
              }}'''


def _spatial(e: SpatialEntity) -> str:
    anchors = _array([_str(a) for a in e.anchors], " " * 16)
    return f'''{{
              "kind": {_str(e.kind.value)},
              "text": {_str(e.text)},
              "first": {e.span.first},
              "last": {e.span.last},
              "anchors": {anchors},
              "magnitude": {_magnitude(e.magnitude)},
              "direction": {_str_or_null(e.direction)},
              "loose": {_bool(e.loose)}
            }}'''


def _temporal(e: TemporalEntity) -> str:
    return f'''{{
              "kind": {_str(e.kind.value)},
              "text": {_str(e.text)},
              "first": {e.span.first},
              "last": {e.span.last},
              "magnitude": {_magnitude(e.magnitude)},
              "anchor_text": {_str(e.anchor_text)}
            }}'''


def _nary(r: NaryRelation) -> str:
    arguments = _array([_argument(a, " " * 14) for a in r.arguments], " " * 12)
    return f'''{{
          "use_case": {_str(r.use_case.value)},
          "predicate_lemma": {_str(r.predicate_lemma)},
          "predicate_token": {r.predicate_token},
          "arguments": {arguments}
        }}'''


def _itinerary(r: ItineraryRelation, source_nary: int) -> str:
    pad = " " * 12
    actor = "null" if r.actor is None else _argument(r.actor, pad)
    return f'''{{
          "verb_lemma": {_str(r.verb_lemma)},
          "polarity": {_str(r.polarity.value)},
          "actor": {actor},
          "origin": {_array([_spatial(e) for e in r.origin], pad)},
          "intermediate": {_array([_spatial(e) for e in r.intermediate], pad)},
          "destination": {_array([_spatial(e) for e in r.destination], pad)},
          "temporal": {_array([_temporal(e) for e in r.temporal], pad)},
          "source_nary": {source_nary}
        }}'''


def _sentence(s: SentenceResult) -> str:
    narys = s.nary_relations
    pad = " " * 8
    itineraries = _array([_itinerary(r, narys.index(r.source_nary))
                          for r in s.itinerary_relations], pad)
    return f'''{{
      "sent_id": {_str(s.sent_id)},
      "text": {_str(s.text)},
      "nary_relations": {_array([_nary(r) for r in narys], pad)},
      "itinerary_relations": {itineraries},
      "skips": {_array([_str(x) for x in s.skips], pad)}
    }}'''


class JsonWriter:
    """Writes a document's JSON one sentence at a time, each rendered
    straight from its result objects at its final depth, without holding
    the document."""

    def __init__(self, write: Callable[[str], object], fingerprint: str,
                 tool_version: str = __version__):
        self._write = write
        self._added = False
        write('{\n  "tool_version": ' + _str(tool_version)
              + ',\n  "lexicon_fingerprint": ' + _str(fingerprint)
              + ',\n  "sentences": [')

    def add(self, s: SentenceResult) -> None:
        self._write((",\n    " if self._added else "\n    ") + _sentence(s))
        self._added = True

    def finish(self) -> None:
        self._write("\n  ]\n}\n" if self._added else "]\n}\n")


def _render(doc: ExtractionDocument, make_writer) -> str:
    """The text a writer, given a ``write`` function, writes for a document."""
    parts: list[str] = []
    writer = make_writer(parts.append)
    for s in doc.sentences:
        writer.add(s)
    writer.finish()
    return "".join(parts)


def to_json(doc: ExtractionDocument) -> str:
    """Stable-order, exact-round-trip JSON rendering of a document."""
    return _render(doc, lambda write: JsonWriter(
        write, doc.lexicon_fingerprint, doc.tool_version))


def _argument_from(d: dict) -> Argument:
    return Argument(span=TokenSpan(d["first"], d["last"]), text=d["text"],
                    role=d["role"], pivot=d["pivot"], order=d["order"],
                    case_marker=d["case_marker"], flagged=d["flagged"])


def _magnitude_from(d: Optional[dict]):
    return (d["value"], d["unit"]) if d else None


def _spatial_from(d: dict) -> SpatialEntity:
    return SpatialEntity(span=TokenSpan(d["first"], d["last"]),
                         kind=SpatialRelationKind(d["kind"]),
                         anchors=tuple(d["anchors"]),
                         magnitude=_magnitude_from(d["magnitude"]),
                         direction=d["direction"], text=d["text"],
                         loose=d["loose"])


def _temporal_from(d: dict) -> TemporalEntity:
    return TemporalEntity(span=TokenSpan(d["first"], d["last"]),
                          kind=TemporalRelationKind(d["kind"]),
                          magnitude=_magnitude_from(d["magnitude"]),
                          anchor_text=d["anchor_text"], text=d["text"])


def _nary_from(d: dict, sent_id: str) -> NaryRelation:
    return NaryRelation(use_case=UseCaseKind(d["use_case"]),
                        predicate_lemma=d["predicate_lemma"],
                        predicate_token=d["predicate_token"],
                        arguments=tuple(_argument_from(a)
                                        for a in d["arguments"]),
                        sent_id=sent_id)


def from_json(text: str) -> ExtractionDocument:
    """Inverse of :func:`to_json`."""
    obj = json.loads(text)
    sentences = []
    for s in obj["sentences"]:
        narys = tuple(_nary_from(d, s["sent_id"]) for d in s["nary_relations"])
        itins = []
        for d in s["itinerary_relations"]:
            itins.append(ItineraryRelation(
                verb_lemma=d["verb_lemma"],
                polarity=VerbPolarity(d["polarity"]),
                actor=_argument_from(d["actor"]) if d["actor"] else None,
                origin=tuple(_spatial_from(e) for e in d["origin"]),
                intermediate=tuple(_spatial_from(e) for e in d["intermediate"]),
                destination=tuple(_spatial_from(e) for e in d["destination"]),
                temporal=tuple(_temporal_from(e) for e in d["temporal"]),
                source_nary=narys[d["source_nary"]],
                sent_id=s["sent_id"]))
        sentences.append(SentenceResult(
            sent_id=s["sent_id"], text=s["text"], nary_relations=narys,
            itinerary_relations=tuple(itins), skips=tuple(s["skips"])))
    return ExtractionDocument(tool_version=obj["tool_version"],
                              lexicon_fingerprint=obj["lexicon_fingerprint"],
                              sentences=tuple(sentences))


# --- Turtle ----------------------------------------------------------------

# A scheme, then only characters an IRIREF admits unescaped.
_IRI_OK = re.compile(r'[A-Za-z][A-Za-z0-9+.\-]*:[^\x00-\x20<>"{}|^`\\]*')

# Percent-encoded in verb IRIs: what an IRIREF forbids (all ASCII), the
# delimiters "#", "/" and "?", so that a lemma is one path segment, and a "%"
# that would read as the start of an escape, so that distinct lemmas give
# distinct IRIs ("a b" -> "a%20b", "a%20b" -> "a%2520b", "a%j" unchanged).
_IRI_ESCAPED = re.compile(r'[\x00-\x20<>"{}|^`\\#/?]|%(?=[0-9A-Fa-f]{2})')

_TTL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r",
                "\t": "\\t"}


def _lit(value: str) -> str:
    return '"' + "".join(_TTL_ESCAPES.get(c, c) for c in value) + '"'


def _entity_node(e, indent: str) -> str:
    pairs = [("itx:kind", _lit(e.kind.value)), ("itx:text", _lit(e.text))]
    if isinstance(e, SpatialEntity):
        pairs += [("itx:anchor", _lit(a)) for a in e.anchors]
        if e.direction:
            pairs.append(("itx:direction", _lit(e.direction)))
    else:
        pairs.append(("itx:reference", _lit(e.anchor_text)))
    if e.magnitude:
        pairs.append(("itx:magnitudeValue", str(e.magnitude[0])))
        pairs.append(("itx:magnitudeUnit", _lit(e.magnitude[1])))
    inner = (" ;\n" + indent + "  ").join(f"{p} {o}" for p, o in pairs)
    return "[ " + inner + " ]"


class TurtleWriter:
    """Writes the reified Turtle projection one sentence at a time: one
    instance node per itinerary relation, numbered in document order, one
    property per role, spatial/temporal entities as nested nodes."""

    def __init__(self, write: Callable[[str], object], base_iri: str):
        if not _IRI_OK.fullmatch(base_iri):
            raise ValueError(f"invalid base IRI: {base_iri!r}")
        self._write = write
        self._base = base_iri + ("" if base_iri.endswith(("/", "#")) else "/")
        self._counter = 0
        write("\n".join([
            "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .",
            f"@prefix itx: <{self._base}vocab#> .",
            "",
            "# Project-defined role vocabulary:",
            "#   itx:actor            subject argument text of the displacement",
            "#   itx:origin           spatial entity the motion starts from",
            "#   itx:intermediate     spatial entity passed through",
            "#   itx:destination      spatial entity the motion heads to",
            "#   itx:temporal         temporal entity anchoring the displacement",
            "#   itx:sourceSentence   sentence id the relation was read from",
            ""]))

    def add(self, s: SentenceResult) -> None:
        indent = "    "
        for r in s.itinerary_relations:
            self._counter += 1
            verb = _IRI_ESCAPED.sub(lambda m: f"%{ord(m.group()):02X}",
                                    r.verb_lemma)
            pairs: list[tuple[str, str]] = [
                ("a", f"<{self._base}verb/{verb}>"),
                ("itx:verb", _lit(r.verb_lemma)),
                ("itx:polarity", _lit(r.polarity.value)),
            ]
            if r.actor is not None:
                pairs.append(("itx:actor", _lit(r.actor.text)))
            for prop, entities in (("itx:origin", r.origin),
                                   ("itx:intermediate", r.intermediate),
                                   ("itx:destination", r.destination),
                                   ("itx:temporal", r.temporal)):
                for e in entities:
                    pairs.append((prop, _entity_node(e, indent)))
            pairs.append(("itx:sourceSentence", _lit(s.sent_id)))
            body = (" ;\n" + indent).join(f"{p} {o}" for p, o in pairs)
            self._write(f"\n<{self._base}relation/{self._counter}> {body} .\n")

    def finish(self) -> None:
        """Nothing follows the last relation; here so that both writers
        end the same way."""


def to_turtle(doc: ExtractionDocument, base_iri: str) -> str:
    """Reified Turtle projection of a document; see :class:`TurtleWriter`."""
    return _render(doc, lambda write: TurtleWriter(write, base_iri))
