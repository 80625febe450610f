"""Recognition and classification of spatial and temporal entities.

Both recognizers normalize the forms of a token span once (``words``, one
per token) and scan it left to right, asking the lexicon's phrase indexes
(``lexicon.PhraseIndex``) for the longest marker or toponym at each word:
markers with French contractions folded (du ~ de, aux ~ à), toponyms
without.  The helpers read ``words`` and never normalize a form again.
Matched tokens are consumed, so entities never overlap and a relational
entity suppresses the bare toponym inside it ("près de Lyon" hides a
separate absolute "Lyon").
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .depgraph import SentenceGraph, Token, TokenSpan, span_text
from .lexicon import (LexiconSet, SpatialRelationKind, TemporalRelationKind,
                      canon_word, normalize)


class NotAMarker(KeyError):
    """Phrase absent from the relevant marker lexicon."""


MONTHS = frozenset("""janvier février mars avril mai juin juillet août
septembre octobre novembre décembre""".split())

# Closed list of French number words accepted next to digit strings.
FRENCH_NUMBERS = {
    "un": 1, "une": 1, "deux": 2, "trois": 3, "quatre": 4, "cinq": 5,
    "six": 6, "sept": 7, "huit": 8, "neuf": 9, "dix": 10, "onze": 11,
    "douze": 12, "treize": 13, "quatorze": 14, "quinze": 15, "seize": 16,
    "dix-sept": 17, "dix-huit": 18, "dix-neuf": 19, "vingt": 20,
    "cent": 100, "mille": 1000,
}

_DIGITS = re.compile(r"\d+")
_SEPARATOR_FORMS = {",", ";", "et", "ou"}


@dataclass(frozen=True)
class SpatialEntity:
    span: TokenSpan
    kind: SpatialRelationKind
    anchors: tuple[str, ...]
    magnitude: Optional[tuple[int, str]]  # (value, unit lemma), Metric only
    direction: Optional[str]              # Orientation only
    text: str
    loose: bool = False                   # an anchor came from loose matching

    def __post_init__(self):
        if not self.anchors:
            raise ValueError("spatial entity needs at least one anchor")
        if self.kind is SpatialRelationKind.METRIC and self.magnitude is None:
            raise ValueError("metric entity needs a magnitude")
        if self.kind is SpatialRelationKind.ORIENTATION and not self.direction:
            raise ValueError("orientation entity needs a direction")
        if (self.kind is SpatialRelationKind.GEOMETRIC_FIGURE
                and len(self.anchors) < 2):
            raise ValueError("geometric figure needs at least two anchors")


@dataclass(frozen=True)
class TemporalEntity:
    span: TokenSpan
    kind: TemporalRelationKind
    magnitude: Optional[tuple[int, str]]  # (value, unit lemma), Distance only
    anchor_text: str
    text: str

    def __post_init__(self):
        if self.kind is TemporalRelationKind.DISTANCE and self.magnitude is None:
            raise ValueError("temporal distance entity needs a magnitude")


def classify_spatial_marker(marker: str, lex: LexiconSet) -> SpatialRelationKind:
    kind = lex.spatial_markers.get(normalize(marker))
    if kind is None:
        raise NotAMarker(marker)
    return kind


def classify_temporal_marker(marker: str, lex: LexiconSet) -> TemporalRelationKind:
    kind = lex.temporal_markers.get(normalize(marker))
    if kind is None:
        raise NotAMarker(marker)
    return kind


def number_value(tok: Token) -> Optional[int]:
    return _number(tok.form, normalize(tok.form))


def _number(form: str, word: str) -> Optional[int]:
    """Value of a digit string or French number word, given its form and
    normalized word."""
    if _DIGITS.fullmatch(form):
        try:
            return int(form)
        except ValueError:  # more digits than the interpreter converts
            return None
    return FRENCH_NUMBERS.get(word)


def _unit_class(tok: Token, lex: LexiconSet) -> Optional[str]:
    return lex.units.get(tok.lemma.casefold())


def _match_toponym(toks, words, i, lex, loose):
    """Longest gazetteer match at i -> (n_tokens, display name, loose?)."""
    hit = lex.gazetteer_index.match(words, i)
    if hit is not None:
        return hit[0], hit[2], False
    tok = toks[i]
    if loose and tok.upos == "PROPN" and tok.form[:1].isupper():
        return 1, tok.form, True
    return None


def _temporal_evidence(tok: Token, word: str, lex: LexiconSet) -> bool:
    return (word in MONTHS
            or bool(_DIGITS.fullmatch(tok.form))
            or _unit_class(tok, lex) == "temporal")


def _make_spatial(g, toks, start, end, kind, anchors, magnitude, direction,
                  loose):
    span = TokenSpan(toks[start].id, toks[end].id)
    return SpatialEntity(span=span, kind=kind, anchors=tuple(anchors),
                         magnitude=magnitude, direction=direction,
                         text=span_text(g, span), loose=loose)


def _figure_entity(g, toks, words, start, anchors_from, figure_noun, lex,
                   loose):
    """Coordinated gazetteer anchors after a figure noun."""
    anchors: list[str] = []
    loose_any = False
    last_end = None
    p = anchors_from
    while p < len(toks):
        if toks[p].upos in ("PUNCT", "CCONJ", "DET") or \
                words[p] in _SEPARATOR_FORMS:
            p += 1
            continue
        hit = _match_toponym(toks, words, p, lex, loose)
        if hit is None:
            break
        n, display, lo = hit
        anchors.append(display)
        loose_any = loose_any or lo
        last_end = p + n - 1
        p = last_end + 1
    minimum = 3 if figure_noun == "triangle" else 2
    if len(anchors) < minimum:
        return None
    ent = _make_spatial(g, toks, start, last_end,
                        SpatialRelationKind.GEOMETRIC_FIGURE, anchors,
                        None, None, loose_any)
    return ent, last_end + 1


def _spatial_from_marker(g, toks, words, i, match, lex, loose):
    n, marker, phrase, kind = match
    j = i + n
    if kind is SpatialRelationKind.METRIC:
        # <marker> <number> <spatial unit> de <toponym>
        if j + 3 >= len(toks):
            return None
        value = _number(toks[j].form, words[j])
        if value is None or _unit_class(toks[j + 1], lex) != "spatial":
            return None
        if canon_word(words[j + 2]) != "de":
            return None
        hit = _match_toponym(toks, words, j + 3, lex, loose)
        if hit is None:
            return None
        hn, display, lo = hit
        end = j + 3 + hn - 1
        ent = _make_spatial(g, toks, i, end, kind, [display],
                            (value, toks[j + 1].lemma.casefold()), None, lo)
        return ent, end + 1

    if kind is SpatialRelationKind.GEOMETRIC_FIGURE:
        return _figure_entity(g, toks, words, i, j, phrase, lex, loose)

    # relational kinds: skip determiners between marker and complement
    k = j
    while k < len(toks) and toks[k].upos == "DET":
        k += 1
    if k >= len(toks):
        return None
    if words[k] in lex.figure_nouns:
        return _figure_entity(g, toks, words, i, k + 1, words[k], lex, loose)
    hit = _match_toponym(toks, words, k, lex, loose)
    if hit is None:
        return None
    hn, display, lo = hit
    end = k + hn - 1
    # the direction is the word before the preposition ("au nord de"); a
    # one-word orientation marker is its own direction
    direction = (marker[-2:][0] if kind is SpatialRelationKind.ORIENTATION
                 else None)
    ent = _make_spatial(g, toks, i, end, kind, [display], None, direction, lo)
    return ent, end + 1


def recognize_spatial(g: SentenceGraph, within: TokenSpan, lex: LexiconSet,
                      loose: bool = False) -> list[SpatialEntity]:
    """All maximal, non-overlapping spatial entities inside a span."""
    toks = g.span_tokens(within)
    words = [normalize(t.form) for t in toks]
    out: list[SpatialEntity] = []
    i = 0
    while i < len(toks):
        match = lex.spatial_marker_index.match(words, i)
        if match is not None:
            made = _spatial_from_marker(g, toks, words, i, match, lex, loose)
            if made is not None:
                ent, nxt = made
                out.append(ent)
                i = nxt
                continue
        hit = _match_toponym(toks, words, i, lex, loose)
        if hit is not None:
            n, display, lo = hit
            out.append(_make_spatial(g, toks, i, i + n - 1,
                                     SpatialRelationKind.ABSOLUTE,
                                     [display], None, None, lo))
            i += n
            continue
        i += 1
    return out


def _reference_window(toks, words, j, lex):
    """Index of the last token with temporal evidence (month, digits,
    temporal unit) from j to the next punctuation, verb or temporal marker."""
    evidence = None
    for w in range(j, len(toks)):
        if toks[w].upos in ("PUNCT", "VERB") or \
                lex.temporal_marker_index.match(words, w):
            break
        if _temporal_evidence(toks[w], words[w], lex):
            evidence = w
    return evidence


def _temporal_from_marker(g, toks, words, i, match, lex):
    n, marker, phrase, kind = match
    j = i + n
    if kind is TemporalRelationKind.DISTANCE:
        # magnitude after the marker: "depuis deux semaines"
        if j + 1 < len(toks):
            value = _number(toks[j].form, words[j])
            if value is not None and _unit_class(toks[j + 1], lex) == "temporal":
                unit = toks[j + 1].lemma.casefold()
                span = TokenSpan(toks[i].id, toks[j + 1].id)
                anchor = span_text(g, TokenSpan(toks[j].id, toks[j + 1].id))
                return TemporalEntity(span, kind, (value, unit), anchor,
                                      span_text(g, span)), j + 2
        # magnitude before the marker: "20 ans après le début du siècle"
        if i >= 2:
            value = _number(toks[i - 2].form, words[i - 2])
            if value is not None and _unit_class(toks[i - 1], lex) == "temporal":
                evidence = _reference_window(toks, words, j, lex)
                if evidence is not None:
                    unit = toks[i - 1].lemma.casefold()
                    span = TokenSpan(toks[i - 2].id, toks[evidence].id)
                    anchor = span_text(
                        g, TokenSpan(toks[j].id, toks[evidence].id))
                    return TemporalEntity(span, kind, (value, unit), anchor,
                                          span_text(g, span)), evidence + 1
        return None

    evidence = _reference_window(toks, words, j, lex)
    if evidence is None:
        return None
    span = TokenSpan(toks[i].id, toks[evidence].id)
    anchor = span_text(g, TokenSpan(toks[j].id, toks[evidence].id))
    return TemporalEntity(span, kind, None, anchor,
                          span_text(g, span)), evidence + 1


def _bare_date(g, toks, words, i):
    """Unmarked calendar reference: [day] <month> [year]."""
    month = None
    start = i
    if words[i] in MONTHS:
        month = i
    elif (_DIGITS.fullmatch(toks[i].form)
          and 1 <= (_number(toks[i].form, words[i]) or 0) <= 31
          and i + 1 < len(toks) and words[i + 1] in MONTHS):
        month = i + 1
    if month is None:
        return None
    end = month
    if end + 1 < len(toks) and re.fullmatch(r"\d{4}", toks[end + 1].form):
        end += 1
    span = TokenSpan(toks[start].id, toks[end].id)
    text = span_text(g, span)
    return TemporalEntity(span, TemporalRelationKind.ABSOLUTE, None,
                          text, text), end + 1


def recognize_temporal(g: SentenceGraph, within: TokenSpan,
                       lex: LexiconSet) -> list[TemporalEntity]:
    """All maximal, non-overlapping temporal entities inside a span."""
    toks = g.span_tokens(within)
    words = [normalize(t.form) for t in toks]
    out: list[TemporalEntity] = []
    i = 0
    while i < len(toks):
        match = lex.temporal_marker_index.match(words, i)
        if match is not None:
            made = _temporal_from_marker(g, toks, words, i, match, lex)
            if made is not None:
                ent, nxt = made
                out.append(ent)
                i = nxt
                continue
        made = _bare_date(g, toks, words, i)
        if made is not None:
            ent, nxt = made
            out.append(ent)
            i = nxt
            continue
        i += 1
    return out
