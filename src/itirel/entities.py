"""Recognition and classification of spatial and temporal entities.

Both recognizers run one scan over a span's normalized forms (``words``, one
per token; a sentence's forms are normalized once, on the first call on its
graph), left to right, asking the lexicon's phrase indexes
(``lexicon.PhraseIndex``) for the longest marker or toponym at a word:
markers with French contractions folded (du ~ de, aux ~ à), toponyms
without; no form is normalized again.  At each token the scan takes the
longest marker's entity, or else a bare toponym or bare date, calling a rule
only where it can start: a marker at a word of its index's ``starts``, a
fallback where the start rule stated next to it holds.  Any other token
costs set lookups (and a digit test for dates).  An entity consumes its
tokens and no rule takes back a consumed token (a distance marker's
look-back at "3 jours" included), so entities never overlap and a relational
entity hides the bare toponym inside it ("près de Lyon" gives no separate
absolute "Lyon").  Magnitudes, days and years are ASCII digits, as CoNLL-U
ids and heads are.
"""

from __future__ import annotations

from typing import Optional

from .depgraph import Record, SentenceGraph, TokenSpan, _surface
from .lexicon import (LexiconSet, SpatialRelationKind, TemporalRelationKind,
                      canon_word, lemma_key, normalize)


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

_SEPARATOR_FORMS = {",", ";", "et", "ou"}


class SpatialEntity(Record):
    """``magnitude`` is (value, unit lemma), of a Metric only; ``direction``
    that of an Orientation only; ``loose`` says an anchor came from loose
    matching."""

    __slots__ = _fields = ("span", "kind", "anchors", "magnitude",
                           "direction", "text", "loose")

    def __init__(self, span, kind, anchors, magnitude, direction, text,
                 loose=False):
        if not anchors:
            raise ValueError("spatial entity needs at least one anchor")
        if kind is SpatialRelationKind.METRIC and magnitude is None:
            raise ValueError("metric entity needs a magnitude")
        if kind is SpatialRelationKind.ORIENTATION and not direction:
            raise ValueError("orientation entity needs a direction")
        if kind is SpatialRelationKind.GEOMETRIC_FIGURE and len(anchors) < 2:
            raise ValueError("geometric figure needs at least two anchors")
        self.span, self.kind, self.anchors = span, kind, anchors
        self.magnitude, self.direction = magnitude, direction
        self.text, self.loose = text, loose


class TemporalEntity(Record):
    """``magnitude`` is (value, unit lemma), of a Distance only."""

    __slots__ = _fields = ("span", "kind", "magnitude", "anchor_text", "text")

    def __init__(self, span, kind, magnitude, anchor_text, text):
        if kind is TemporalRelationKind.DISTANCE and magnitude is None:
            raise ValueError("temporal distance entity needs a magnitude")
        self.span, self.kind, self.magnitude = span, kind, magnitude
        self.anchor_text, self.text = anchor_text, text


def _number(form: str, word: str) -> Optional[int]:
    """Value of a digit string or French number word, given its form and
    normalized word."""
    if form.isascii() and form.isdigit():  # isdigit() alone reads "٣"
        try:
            return int(form)
        except ValueError:  # more digits than the interpreter converts
            return None
    return FRENCH_NUMBERS.get(word)


def _measure(toks, words, at, unit_class, lex):
    """(value, unit lemma) of a number at ``at`` followed by a unit of
    ``unit_class``, or None; an ``at`` outside the tokens reads nothing."""
    if not 0 <= at < len(toks) - 1:
        return None
    value = _number(toks[at].form, words[at])
    unit = lemma_key(toks[at + 1].lemma)
    if value is None or lex.units.get(unit) != unit_class:
        return None
    return value, unit


def _match_toponym(toks, words, i, lex, loose_at):
    """Longest gazetteer match at i, or else the one token at an index of
    ``loose_at`` -> (n_tokens, display name, loose?)."""
    hit = lex.gazetteer_index.match(words, i)
    if hit is not None:
        return hit[0], hit[2], False
    if i in loose_at:
        return 1, toks[i].form, True
    return None


def _make_spatial(toks, start, end, kind, anchors, magnitude, direction,
                  loose):
    """The entity of ``toks[start..end]``, whose text is that of its span."""
    return SpatialEntity(TokenSpan(toks[start].id, toks[end].id), kind,
                         tuple(anchors), magnitude, direction,
                         _surface(toks[start:end + 1]), loose)


def _make_temporal(toks, start, anchor, end, kind, magnitude):
    """The entity of ``toks[start..end]``, anchored on ``toks[anchor..end]``."""
    return TemporalEntity(TokenSpan(toks[start].id, toks[end].id), kind,
                          magnitude, _surface(toks[anchor:end + 1]),
                          _surface(toks[start:end + 1]))


def _scan(g, within, lex, loose_at, marker_index, from_marker, fallback,
          fallback_words, digits):
    """The entities of a span by the module's scan rule: a marker's entity
    that starts on a consumed token is refused for the fallback's, which
    runs at a word of ``fallback_words``, an index of ``loose_at`` or, with
    ``digits``, a word of ASCII digits.  Each rule is called as ``rule(toks,
    words, i, lex, loose_at)``, a marker's with its match after ``i``."""
    if g.words is None:  # filled on the first call on the graph
        g.words = tuple([normalize(t.form) for t in g.tokens])
    toks = g.span_tokens(within)
    words = g.words[within.first - 1:within.last]
    starts = marker_index.starts
    out = []
    free = 0  # index of the first token not consumed
    for i, word in enumerate(words):
        if i < free:
            continue
        match = marker_index.match(words, i) if word in starts else None
        ent = None if match is None else from_marker(toks, words, i, match,
                                                     lex, loose_at)
        if ent is not None and ent.span.first - within.first < free:
            ent = None  # it would take back a consumed token
        if ent is None and (word in fallback_words or i in loose_at or (
                digits and word.isascii() and word.isdigit())):
            ent = fallback(toks, words, i, lex, loose_at)
        if ent is not None:
            out.append(ent)
            free = ent.span.last - within.first + 1
    return out


def _toponym_entity(toks, words, start, at, kind, magnitude, direction, lex,
                    loose_at):
    """The entity of ``toks[start..]`` that ends on the toponym at ``at``."""
    hit = _match_toponym(toks, words, at, lex, loose_at)
    if hit is None:
        return None
    n, display, lo = hit
    return _make_spatial(toks, start, at + n - 1, kind, [display], magnitude,
                         direction, lo)


def _figure_entity(toks, words, start, anchors_from, figure_noun, lex,
                   loose_at):
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
        hit = _match_toponym(toks, words, p, lex, loose_at)
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
    return _make_spatial(toks, start, last_end,
                         SpatialRelationKind.GEOMETRIC_FIGURE, anchors,
                         None, None, loose_any)


def _spatial_from_marker(toks, words, i, match, lex, loose_at):
    n, marker, phrase, kind = match
    j = i + n
    if kind is SpatialRelationKind.METRIC:
        # <marker> <number> <spatial unit> de <toponym>
        measure = _measure(toks, words, j, "spatial", lex)
        if measure is None or j + 3 >= len(toks) \
                or canon_word(words[j + 2]) != "de":
            return None
        return _toponym_entity(toks, words, i, j + 3, kind, measure, None,
                               lex, loose_at)

    if kind is SpatialRelationKind.GEOMETRIC_FIGURE:
        return _figure_entity(toks, words, i, j, phrase, lex, loose_at)

    # relational kinds: skip determiners between marker and complement
    k = j
    while k < len(toks) and toks[k].upos == "DET":
        k += 1
    if k >= len(toks):
        return None
    if words[k] in lex.figure_nouns:
        return _figure_entity(toks, words, i, k + 1, words[k], lex,
                              loose_at)
    # the direction is the word before the preposition ("au nord de"); a
    # one-word orientation marker is its own direction
    direction = (marker.split()[-2:][0]
                 if kind is SpatialRelationKind.ORIENTATION else None)
    return _toponym_entity(toks, words, i, k, kind, None, direction, lex,
                           loose_at)


def _bare_toponym(toks, words, i, lex, loose_at):
    """A toponym without a marker, the spatial scan's fallback."""
    return _toponym_entity(toks, words, i, i, SpatialRelationKind.ABSOLUTE,
                           None, None, lex, loose_at)


def recognize_spatial(g: SentenceGraph, within: TokenSpan, lex: LexiconSet,
                      loose: bool = False) -> list[SpatialEntity]:
    """All maximal, non-overlapping spatial entities inside a span."""
    # a bare toponym starts at a gazetteer start word or an index of loose_at
    loose_at = {i for i, t in enumerate(g.span_tokens(within))
                if t.upos == "PROPN" and t.form[:1].isupper()} if loose else ()
    return _scan(g, within, lex, loose_at, lex.spatial_marker_index,
                 _spatial_from_marker, _bare_toponym,
                 lex.gazetteer_index.starts, False)


def _reference_window(toks, words, j, lex):
    """Index of the last token with temporal evidence (month, digits,
    temporal unit) from j to the next punctuation, verb or temporal marker."""
    evidence = None
    markers = lex.temporal_marker_index
    for w in range(j, len(toks)):
        if toks[w].upos in ("PUNCT", "VERB") or (
                words[w] in markers.starts and markers.match(words, w)):
            break
        form = toks[w].form
        if (words[w] in MONTHS or form.isascii() and form.isdigit()
                or lex.units.get(lemma_key(toks[w].lemma)) == "temporal"):
            evidence = w
    return evidence


def _temporal_from_marker(toks, words, i, match, lex, loose_at):
    n, marker, phrase, kind = match
    j = i + n
    start, measure = i, None
    if kind is TemporalRelationKind.DISTANCE:
        # magnitude after the marker: "depuis deux semaines"
        measure = _measure(toks, words, j, "temporal", lex)
        if measure is not None:
            return _make_temporal(toks, i, j, j + 1, kind, measure)
        # magnitude before the marker: "20 ans après le début du siècle"
        start = i - 2
        measure = _measure(toks, words, start, "temporal", lex)
        if measure is None:
            return None
    evidence = _reference_window(toks, words, j, lex)
    if evidence is None:
        return None
    return _make_temporal(toks, start, j, evidence, kind, measure)


def _bare_date(toks, words, i, lex, loose_at):
    """Unmarked calendar reference: [day] <month> [year], so it starts at a
    month or a number of ASCII digits."""
    month = None
    if words[i] in MONTHS:
        month = i
    elif (toks[i].form.isascii() and toks[i].form.isdigit()
          and 1 <= (_number(toks[i].form, words[i]) or 0) <= 31
          and i + 1 < len(toks) and words[i + 1] in MONTHS):
        month = i + 1
    if month is None:
        return None
    end = month
    year = toks[end + 1].form if end + 1 < len(toks) else ""
    if len(year) == 4 and year.isascii() and year.isdigit():
        end += 1
    return _make_temporal(toks, i, i, end, TemporalRelationKind.ABSOLUTE,
                          None)


def recognize_temporal(g: SentenceGraph, within: TokenSpan,
                       lex: LexiconSet) -> list[TemporalEntity]:
    """All maximal, non-overlapping temporal entities inside a span."""
    return _scan(g, within, lex, (), lex.temporal_marker_index,
                 _temporal_from_marker, _bare_date, MONTHS, True)
