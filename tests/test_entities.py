from collections import Counter
from dataclasses import replace

import pytest

from itirel import (NotAMarker, SpatialEntity, SpatialRelationKind,
                    TemporalEntity, TemporalRelationKind, TokenSpan,
                    classify_spatial_marker, classify_temporal_marker,
                    extract_sentence, recognize_spatial, recognize_temporal)
from itirel import entities, lexicon
from itirel.depgraph import Token
from itirel.entities import number_value

from conftest import build


class TestClassifiers:
    def test_spatial_kinds(self, lex):
        assert classify_spatial_marker("près de", lex) \
            is SpatialRelationKind.ADJACENCY
        assert classify_spatial_marker("à l'ouest de", lex) \
            is SpatialRelationKind.ORIENTATION
        assert classify_spatial_marker("Au Centre De", lex) \
            is SpatialRelationKind.INCLUSION
        assert classify_spatial_marker("à", lex) is SpatialRelationKind.METRIC
        assert classify_spatial_marker("triangle", lex) \
            is SpatialRelationKind.GEOMETRIC_FIGURE

    def test_temporal_kinds(self, lex):
        assert classify_temporal_marker("depuis", lex) \
            is TemporalRelationKind.DISTANCE
        assert classify_temporal_marker("aux alentours de", lex) \
            is TemporalRelationKind.ADJACENCY
        assert classify_temporal_marker("au milieu de", lex) \
            is TemporalRelationKind.INCLUSION

    def test_unknown_marker_raises(self, lex):
        with pytest.raises(NotAMarker):
            classify_spatial_marker("sur", lex)
        with pytest.raises(NotAMarker):
            classify_temporal_marker("lorsque", lex)


class TestNumbers:
    def test_digit_and_word_numbers(self):
        assert number_value(Token(1, "3", "3", "NUM", 0, "root")) == 3
        assert number_value(Token(1, "deux", "deux", "NUM", 0, "root")) == 2
        assert number_value(Token(1, "Vingt", "vingt", "NUM", 0, "root")) == 20
        assert number_value(Token(1, "bleu", "bleu", "ADJ", 0, "root")) is None


# Longer than the 4,300 digits int() converts by default: not a number.
LONG_DIGITS = "7" * 5000


def long_number_sentence(case: str, number: str = LONG_DIGITS):
    """A UC3 'partir de Pau ...' sentence with a number as its subject
    ("subject"), as a metric magnitude ("metric") or as a temporal distance
    ("distance")."""
    rows = [(1, "Il", "il", "PRON", 2, "nsubj"),
            (2, "part", "partir", "VERB", 0, "root"),
            (3, "de", "de", "ADP", 4, "case"),
            (4, "Pau", "Pau", "PROPN", 2, "obl")]
    if case == "subject":
        rows[0] = (1, number, number, "NUM", 2, "nsubj")
    if case == "metric":
        rows += [(5, "à", "à", "ADP", 7, "case"),
                 (6, number, number, "NUM", 7, "nummod"),
                 (7, "km", "km", "NOUN", 2, "obl"),
                 (8, "de", "de", "ADP", 9, "case"),
                 (9, "Laruns", "Laruns", "PROPN", 7, "nmod")]
    else:
        rows += [(5, "vers", "vers", "ADP", 6, "case"),
                 (6, "Laruns", "Laruns", "PROPN", 2, "obl")]
    if case == "distance":
        rows += [(7, "depuis", "depuis", "ADP", 9, "case"),
                 (8, number, number, "NUM", 9, "nummod"),
                 (9, "jours", "jour", "NOUN", 2, "obl")]
    return build(rows)


class TestLongDigitStrings:
    def test_is_not_a_number(self):
        assert number_value(
            Token(1, LONG_DIGITS, LONG_DIGITS, "NUM", 0, "root")) is None

    @pytest.mark.parametrize("case", ["subject", "metric", "distance"])
    def test_gives_no_magnitude_or_date(self, lex, case):
        def magnitudes(number):
            result = extract_sentence(long_number_sentence(case, number), lex)
            (itin,) = result.itinerary_relations
            entities = (itin.origin + itin.intermediate + itin.destination
                        + itin.temporal)
            assert all(e.kind is not TemporalRelationKind.ABSOLUTE
                       for e in itin.temporal)
            return [e.magnitude for e in entities if e.magnitude]

        assert magnitudes(LONG_DIGITS) == []
        if case != "subject":  # the same sentence with a short number
            assert [m[0] for m in magnitudes("12")] == [12]


class TestEntityInvariants:
    def test_spatial_entity_needs_anchor(self):
        with pytest.raises(ValueError):
            SpatialEntity(span=TokenSpan(1, 1),
                          kind=SpatialRelationKind.ABSOLUTE, anchors=(),
                          magnitude=None, direction=None, text="x")

    def test_metric_needs_magnitude(self):
        with pytest.raises(ValueError):
            SpatialEntity(span=TokenSpan(1, 1),
                          kind=SpatialRelationKind.METRIC, anchors=("Pau",),
                          magnitude=None, direction=None, text="x")

    def test_orientation_needs_direction(self):
        with pytest.raises(ValueError):
            SpatialEntity(span=TokenSpan(1, 1),
                          kind=SpatialRelationKind.ORIENTATION,
                          anchors=("Pau",), magnitude=None, direction=None,
                          text="x")

    def test_figure_needs_two_anchors(self):
        with pytest.raises(ValueError):
            SpatialEntity(span=TokenSpan(1, 1),
                          kind=SpatialRelationKind.GEOMETRIC_FIGURE,
                          anchors=("Pau",), magnitude=None, direction=None,
                          text="x")

    def test_temporal_distance_needs_magnitude(self):
        with pytest.raises(ValueError):
            TemporalEntity(span=TokenSpan(1, 1),
                           kind=TemporalRelationKind.DISTANCE,
                           magnitude=None, anchor_text="x", text="x")


class TestSpatialRecognition:
    def test_bare_toponym_is_absolute(self, gold, lex):
        (ent,) = recognize_spatial(gold["gold-01"], TokenSpan(8, 8), lex)
        assert ent.kind is SpatialRelationKind.ABSOLUTE
        assert ent.anchors == ("Pau",) and not ent.loose

    def test_adjacency_suppresses_inner_absolute(self, gold, lex):
        ents = recognize_spatial(gold["gold-01"], TokenSpan(11, 15), lex)
        assert len(ents) == 1
        ent = ents[0]
        assert ent.kind is SpatialRelationKind.ADJACENCY
        assert ent.anchors == ("Lyon",)
        assert ent.text == "près de Lyon"
        assert ent.span == TokenSpan(13, 15)

    def test_non_spatial_noun_yields_nothing(self, gold, lex):
        assert recognize_spatial(gold["gold-06"], TokenSpan(4, 5), lex) == []

    def test_metric(self, taxonomy, lex):
        g = taxonomy["tax-metric"]
        (ent,) = recognize_spatial(g, g.span(), lex)
        assert ent.kind is SpatialRelationKind.METRIC
        assert ent.magnitude == (10, "km")
        assert ent.anchors == ("Pau",)
        assert ent.text == "à 10 km de Pau"

    def test_metric_requires_full_pattern(self, lex):
        # "à Pau" is not metric: bare toponym wins instead
        g = build([(1, "Je", "je", "PRON", 2, "nsubj"),
                   (2, "vais", "aller", "VERB", 0, "root"),
                   (3, "à", "à", "ADP", 4, "case"),
                   (4, "Pau", "Pau", "PROPN", 2, "obl")])
        (ent,) = recognize_spatial(g, g.span(), lex)
        assert ent.kind is SpatialRelationKind.ABSOLUTE

    def test_metric_cut_before_its_toponym(self, taxonomy, lex):
        # a span ending at "de" has no toponym to read; it ended in an
        # IndexError when the gazetteer was asked for the word after it
        g = taxonomy["tax-metric"]
        assert recognize_spatial(g, TokenSpan(3, 6), lex) == []
        assert recognize_spatial(g, TokenSpan(3, 6), lex, loose=True) == []

    def test_orientation_with_multiword_toponym(self, taxonomy, lex):
        g = taxonomy["tax-orientation"]
        (ent,) = recognize_spatial(g, g.span(), lex)
        assert ent.kind is SpatialRelationKind.ORIENTATION
        assert ent.direction == "ouest"
        assert ent.anchors == ("Pic de la Fourcade",)
        assert ent.span == TokenSpan(5, 12)

    def test_one_word_orientation_marker_is_its_own_direction(self, lex):
        # a lexicon may list a one-word orientation marker; recognition of
        # it ended in an IndexError when the direction was read from the
        # word before the marker's last
        one_word = replace(lex, spatial_markers={
            **lex.spatial_markers, "nord": SpatialRelationKind.ORIENTATION})
        g = build([(1, "Il", "il", "PRON", 2, "nsubj"),
                   (2, "va", "aller", "VERB", 0, "root"),
                   (3, "nord", "nord", "ADV", 4, "advmod"),
                   (4, "Pau", "Pau", "PROPN", 2, "obl")])
        (ent,) = recognize_spatial(g, g.span(), one_word)
        assert ent.kind is SpatialRelationKind.ORIENTATION
        assert (ent.direction, ent.anchors, ent.text) == \
            ("nord", ("Pau",), "nord Pau")

    def test_figure_with_three_anchors(self, taxonomy, lex):
        g = taxonomy["tax-figure"]
        (ent,) = recognize_spatial(g, g.span(), lex)
        assert ent.kind is SpatialRelationKind.GEOMETRIC_FIGURE
        assert ent.anchors == ("Pau", "Bordeaux", "Toulouse")
        assert ent.magnitude is None and ent.direction is None

    def test_triangle_needs_three_anchors(self, lex):
        g = build([(1, "dans", "dans", "ADP", 3, "case"),
                   (2, "un", "un", "DET", 3, "det"),
                   (3, "triangle", "triangle", "NOUN", 0, "root"),
                   (4, "Pau", "Pau", "PROPN", 3, "nmod"),
                   (5, "Bordeaux", "Bordeaux", "PROPN", 4, "conj")])
        ents = recognize_spatial(g, g.span(), lex)
        # the figure fails (2 < 3 anchors); the bare toponyms remain
        assert [e.kind for e in ents] == [SpatialRelationKind.ABSOLUTE] * 2

    def test_adjacency_and_inclusion(self, taxonomy, lex):
        (adj,) = recognize_spatial(taxonomy["tax-adjacency"],
                                   taxonomy["tax-adjacency"].span(), lex)
        assert adj.kind is SpatialRelationKind.ADJACENCY
        (inc,) = recognize_spatial(taxonomy["tax-inclusion"],
                                   taxonomy["tax-inclusion"].span(), lex)
        assert inc.kind is SpatialRelationKind.INCLUSION
        assert inc.anchors == ("Laruns",)

    def test_loose_mode_flags_unknown_propn(self, lex):
        g = build([(1, "Je", "je", "PRON", 2, "nsubj"),
                   (2, "visite", "visiter", "VERB", 0, "root"),
                   (3, "Bayonne", "Bayonne", "PROPN", 2, "obj")])
        assert recognize_spatial(g, g.span(), lex) == []
        (ent,) = recognize_spatial(g, g.span(), lex, loose=True)
        assert ent.kind is SpatialRelationKind.ABSOLUTE
        assert ent.anchors == ("Bayonne",) and ent.loose

    def test_entities_never_overlap(self, all_graphs, lex):
        for g in all_graphs:
            for loose in (False, True):
                ents = recognize_spatial(g, g.span(), lex, loose)
                for i, a in enumerate(ents):
                    for b in ents[i + 1:]:
                        assert not a.span.overlaps(b.span)


class TestTemporalRecognition:
    def test_distance_magnitude_after_marker(self, gold, lex):
        (ent,) = recognize_temporal(gold["gold-01"], TokenSpan(17, 19), lex)
        assert ent.kind is TemporalRelationKind.DISTANCE
        assert ent.magnitude == (2, "semaine")
        assert ent.anchor_text == "deux semaines"
        assert ent.text == "depuis deux semaines"

    def test_distance_digit_magnitude(self, gold, lex):
        (ent,) = recognize_temporal(gold["gold-05"], TokenSpan(8, 10), lex)
        assert ent.magnitude == (3, "jour")

    def test_distance_magnitude_before_marker(self, taxonomy, lex):
        g = taxonomy["tax-t-distance"]
        (ent,) = recognize_temporal(g, g.span(), lex)
        assert ent.kind is TemporalRelationKind.DISTANCE
        assert ent.magnitude == (20, "an")
        assert ent.anchor_text == "le début du siècle"

    def test_adjacency_with_full_date(self, taxonomy, lex):
        g = taxonomy["tax-t-adjacency"]
        (ent,) = recognize_temporal(g, g.span(), lex)
        assert ent.kind is TemporalRelationKind.ADJACENCY
        assert ent.anchor_text == "10 juillet 1990"

    def test_inclusion(self, taxonomy, lex):
        g = taxonomy["tax-t-inclusion"]
        (ent,) = recognize_temporal(g, g.span(), lex)
        assert ent.kind is TemporalRelationKind.INCLUSION
        assert ent.anchor_text == "années 60"

    def test_bare_date_is_absolute(self, lex):
        g = build([(1, "Il", "il", "PRON", 2, "nsubj"),
                   (2, "arrive", "arriver", "VERB", 0, "root"),
                   (3, "le", "le", "DET", 5, "det"),
                   (4, "10", "10", "NUM", 5, "nummod"),
                   (5, "juillet", "juillet", "NOUN", 2, "obl"),
                   (6, "1990", "1990", "NUM", 5, "nmod")])
        (ent,) = recognize_temporal(g, g.span(), lex)
        assert ent.kind is TemporalRelationKind.ABSOLUTE
        assert ent.text == "10 juillet 1990"

    def test_marker_without_evidence_yields_nothing(self, lex):
        g = build([(1, "Il", "il", "PRON", 2, "nsubj"),
                   (2, "part", "partir", "VERB", 0, "root"),
                   (3, "avant", "avant", "ADP", 4, "case"),
                   (4, "nous", "nous", "PRON", 2, "obl")])
        assert recognize_temporal(g, g.span(), lex) == []

    def test_spatial_marker_does_not_fire_temporally(self, gold, lex):
        # "près de Lyon" carries no temporal entity
        assert recognize_temporal(gold["gold-01"], TokenSpan(11, 15), lex) == []

    def test_cross_map_dans_resolved_by_complement(self, lex):
        spatial = build([(1, "dans", "dans", "ADP", 3, "case"),
                         (2, "la", "le", "DET", 3, "det"),
                         (3, "Lyon", "Lyon", "PROPN", 0, "root")])
        temporal = build([(1, "dans", "dans", "ADP", 3, "case"),
                          (2, "deux", "deux", "NUM", 3, "nummod"),
                          (3, "semaines", "semaine", "NOUN", 0, "root")])
        assert [e.kind for e in recognize_spatial(spatial, spatial.span(), lex)] \
            == [SpatialRelationKind.INCLUSION]
        assert recognize_spatial(temporal, temporal.span(), lex) == []
        assert [e.kind for e in recognize_temporal(temporal, temporal.span(), lex)] \
            == [TemporalRelationKind.DISTANCE]
        assert recognize_temporal(spatial, spatial.span(), lex) == []

    def test_entities_never_overlap(self, all_graphs, lex):
        for g in all_graphs:
            ents = recognize_temporal(g, g.span(), lex)
            for i, a in enumerate(ents):
                for b in ents[i + 1:]:
                    assert not a.span.overlaps(b.span)


class TestNormalizeOnce:
    def test_each_form_is_normalized_once_per_call(self, all_graphs, lex,
                                                   monkeypatch):
        """A recognizer call normalizes each form of its span once, through
        ``entities.normalize``; the phrase indexes normalize nothing."""
        # built first: building an index normalizes its phrases
        for index in (lex.spatial_marker_index, lex.temporal_marker_index,
                      lex.gazetteer_index):
            assert index.entries
        calls: Counter = Counter()
        real = lexicon.normalize

        def counting(module):
            def normalize(phrase):
                calls[module] += 1
                return real(phrase)
            return normalize

        monkeypatch.setattr(entities, "normalize", counting("entities"))
        monkeypatch.setattr(lexicon, "normalize", counting("lexicon"))
        recognizers = (
            lambda g, span: recognize_spatial(g, span, lex),
            lambda g, span: recognize_spatial(g, span, lex, loose=True),
            lambda g, span: recognize_temporal(g, span, lex))
        for g in all_graphs:
            n = len(g.tokens)
            for first in range(1, n + 1):
                for last in range(first, n + 1):
                    span = TokenSpan(first, last)
                    for recognize in recognizers:
                        calls.clear()
                        recognize(g, span)
                        assert calls == {"entities": len(span)}
