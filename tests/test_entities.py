import unicodedata
from collections import Counter

import pytest

from itirel import (SentenceGraph, SpatialEntity, SpatialRelationKind,
                    TemporalEntity, TemporalRelationKind, TokenSpan,
                    extract_sentence, recognize_spatial, recognize_temporal)
from itirel import entities, lexicon
from itirel.lexicon import normalize

from conftest import build, rebuilt
from oracles import overlaps, whole_span


class TestClassifiers:
    def test_spatial_kinds(self, lex):
        kinds = lex.spatial_markers
        assert kinds[normalize("près de")] is SpatialRelationKind.ADJACENCY
        assert kinds[normalize("à l'ouest de")] \
            is SpatialRelationKind.ORIENTATION
        assert kinds[normalize("Au Centre De")] \
            is SpatialRelationKind.INCLUSION
        assert kinds[normalize("à")] is SpatialRelationKind.METRIC
        assert kinds[normalize("triangle")] \
            is SpatialRelationKind.GEOMETRIC_FIGURE

    def test_temporal_kinds(self, lex):
        kinds = lex.temporal_markers
        assert kinds[normalize("depuis")] is TemporalRelationKind.DISTANCE
        assert kinds[normalize("aux alentours de")] \
            is TemporalRelationKind.ADJACENCY
        assert kinds[normalize("au milieu de")] \
            is TemporalRelationKind.INCLUSION

    def test_unknown_marker_raises(self, lex):
        with pytest.raises(KeyError):
            lex.spatial_markers[normalize("sur")]
        with pytest.raises(KeyError):
            lex.temporal_markers[normalize("lorsque")]


def distance_magnitudes(lex, number: str) -> list:
    """Magnitudes of the temporal entities of « depuis <number> jours »."""
    g = build([(1, "depuis", "depuis", "ADP", 3, "case"),
               (2, number, number.lower(), "NUM", 3, "nummod"),
               (3, "jours", "jour", "NOUN", 0, "root")])
    return [e.magnitude for e in recognize_temporal(g, whole_span(g), lex)]


class TestNumbers:
    def test_digit_and_word_numbers(self, lex):
        assert distance_magnitudes(lex, "3") == [(3, "jour")]
        assert distance_magnitudes(lex, "deux") == [(2, "jour")]
        assert distance_magnitudes(lex, "Vingt") == [(20, "jour")]
        for word, n in (("trois", 3), ("douze", 12), ("dix-huit", 18),
                        ("mille", 1000)):
            assert distance_magnitudes(lex, word) == [(n, "jour")]
        assert distance_magnitudes(lex, "bleu") == []

    # Magnitudes, days and years are ASCII digits, as CoNLL-U ids are: an
    # Arabic-Indic digit string is no number.
    def test_a_magnitude_is_ascii_digits(self, lex):
        g = run("depuis ٣ jours")
        assert recognize_temporal(g, whole_span(g), lex) == []

    def test_a_day_and_a_year_are_ascii_digits(self, lex):
        g = run("5 mai ١٩٩٠")
        assert kinds_and_texts(recognize_temporal(g, whole_span(g), lex)) == [
            (TemporalRelationKind.ABSOLUTE, "5 mai")]
        g = run("٥ mai 1990")
        assert kinds_and_texts(recognize_temporal(g, whole_span(g), lex)) == [
            (TemporalRelationKind.ABSOLUTE, "mai 1990")]


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
    def test_is_not_a_number(self, lex):
        assert distance_magnitudes(lex, LONG_DIGITS) == []

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
        (ent,) = recognize_spatial(g, whole_span(g), lex)
        assert ent.kind is SpatialRelationKind.METRIC
        assert ent.magnitude == (10, "km")
        assert ent.anchors == ("Pau",)
        assert ent.text == "à 10 km de Pau"

    @pytest.mark.parametrize("form", ["NFC", "NFD"])
    def test_metric_unit_lemma_in_either_normal_form(self, lex, form):
        # « à 10 kilomètres de Pau », the unit lemma composed or decomposed
        unit = unicodedata.normalize(form, "kilomètre")
        g = build([(1, "à", "à", "ADP", 3, "case"),
                   (2, "10", "10", "NUM", 3, "nummod"),
                   (3, "kilomètres", unit, "NOUN", 0, "root"),
                   (4, "de", "de", "ADP", 5, "case"),
                   (5, "Pau", "Pau", "PROPN", 3, "nmod")])
        (ent,) = recognize_spatial(g, whole_span(g), lex)
        assert ent.kind is SpatialRelationKind.METRIC
        assert ent.magnitude == (10, "kilomètre")
        assert ent.anchors == ("Pau",)

    def test_metric_requires_full_pattern(self, lex):
        # "à Pau" is not metric: bare toponym wins instead
        g = build([(1, "Je", "je", "PRON", 2, "nsubj"),
                   (2, "vais", "aller", "VERB", 0, "root"),
                   (3, "à", "à", "ADP", 4, "case"),
                   (4, "Pau", "Pau", "PROPN", 2, "obl")])
        (ent,) = recognize_spatial(g, whole_span(g), lex)
        assert ent.kind is SpatialRelationKind.ABSOLUTE

    def test_metric_cut_before_its_toponym(self, taxonomy, lex):
        # a span ending at "de" has no toponym to read; it ended in an
        # IndexError when the gazetteer was asked for the word after it
        g = taxonomy["tax-metric"]
        assert recognize_spatial(g, TokenSpan(3, 6), lex) == []
        assert recognize_spatial(g, TokenSpan(3, 6), lex, loose=True) == []

    def test_metric_without_de_leaves_the_toponym_absolute(self, lex):
        # « à 10 km vers Pau »: no « de » after the unit
        g = build([(1, "à", "à", "ADP", 3, "case"),
                   (2, "10", "10", "NUM", 3, "nummod"),
                   (3, "km", "km", "NOUN", 0, "root"),
                   (4, "vers", "vers", "ADP", 5, "case"),
                   (5, "Pau", "Pau", "PROPN", 3, "nmod")])
        (ent,) = recognize_spatial(g, whole_span(g), lex)
        assert ent.kind is SpatialRelationKind.ABSOLUTE
        assert (ent.anchors, ent.span) == (("Pau",), TokenSpan(5, 5))

    def test_metric_without_a_toponym_after_de(self, lex):
        # « à 10 km de la ville »
        g = build([(1, "à", "à", "ADP", 3, "case"),
                   (2, "10", "10", "NUM", 3, "nummod"),
                   (3, "km", "km", "NOUN", 0, "root"),
                   (4, "de", "de", "ADP", 6, "case"),
                   (5, "la", "le", "DET", 6, "det"),
                   (6, "ville", "ville", "NOUN", 3, "nmod")])
        assert recognize_spatial(g, whole_span(g), lex) == []

    def test_orientation_with_multiword_toponym(self, taxonomy, lex):
        g = taxonomy["tax-orientation"]
        (ent,) = recognize_spatial(g, whole_span(g), lex)
        assert ent.kind is SpatialRelationKind.ORIENTATION
        assert ent.direction == "ouest"
        assert ent.anchors == ("Pic de la Fourcade",)
        assert ent.span == TokenSpan(5, 12)

    def test_one_word_orientation_marker_is_its_own_direction(self, lex):
        # a lexicon may list a one-word orientation marker; recognition of
        # it ended in an IndexError when the direction was read from the
        # word before the marker's last
        one_word = rebuilt(lex, spatial_markers={
            **lex.spatial_markers, "nord": SpatialRelationKind.ORIENTATION})
        g = build([(1, "Il", "il", "PRON", 2, "nsubj"),
                   (2, "va", "aller", "VERB", 0, "root"),
                   (3, "nord", "nord", "ADV", 4, "advmod"),
                   (4, "Pau", "Pau", "PROPN", 2, "obl")])
        (ent,) = recognize_spatial(g, whole_span(g), one_word)
        assert ent.kind is SpatialRelationKind.ORIENTATION
        assert (ent.direction, ent.anchors, ent.text) == \
            ("nord", ("Pau",), "nord Pau")

    def test_figure_with_three_anchors(self, taxonomy, lex):
        g = taxonomy["tax-figure"]
        (ent,) = recognize_spatial(g, whole_span(g), lex)
        assert ent.kind is SpatialRelationKind.GEOMETRIC_FIGURE
        assert ent.anchors == ("Pau", "Bordeaux", "Toulouse")
        assert ent.magnitude is None and ent.direction is None

    def test_triangle_needs_three_anchors(self, lex):
        g = build([(1, "dans", "dans", "ADP", 3, "case"),
                   (2, "un", "un", "DET", 3, "det"),
                   (3, "triangle", "triangle", "NOUN", 0, "root"),
                   (4, "Pau", "Pau", "PROPN", 3, "nmod"),
                   (5, "Bordeaux", "Bordeaux", "PROPN", 4, "conj")])
        ents = recognize_spatial(g, whole_span(g), lex)
        # the figure fails (2 < 3 anchors); the bare toponyms remain
        assert [e.kind for e in ents] == [SpatialRelationKind.ABSOLUTE] * 2

    @pytest.mark.parametrize("noun", ["rectangle", "carré"])
    def test_two_anchors_make_a_rectangle_or_a_square(self, lex, noun):
        # « rectangle Pau et Lyon »: only a triangle needs three anchors
        g = build([(1, noun, noun, "NOUN", 0, "root"),
                   (2, "Pau", "Pau", "PROPN", 1, "nmod"),
                   (3, "et", "et", "CCONJ", 4, "cc"),
                   (4, "Lyon", "Lyon", "PROPN", 2, "conj")])
        (ent,) = recognize_spatial(g, whole_span(g), lex)
        assert ent.kind is SpatialRelationKind.GEOMETRIC_FIGURE
        assert ent.anchors == ("Pau", "Lyon")

    def test_figure_anchors_stop_at_a_word_that_is_no_toponym(self, lex):
        # « triangle Pau , Lyon et maison Laruns »: the anchors stop at
        # « maison », so the triangle has two of its three
        g = build([(1, "triangle", "triangle", "NOUN", 0, "root"),
                   (2, "Pau", "Pau", "PROPN", 1, "nmod"),
                   (3, ",", ",", "PUNCT", 4, "punct"),
                   (4, "Lyon", "Lyon", "PROPN", 2, "conj"),
                   (5, "et", "et", "CCONJ", 6, "cc"),
                   (6, "maison", "maison", "NOUN", 2, "conj"),
                   (7, "Laruns", "Laruns", "PROPN", 6, "nmod")])
        ents = recognize_spatial(g, whole_span(g), lex)
        assert [(e.kind, e.anchors) for e in ents] == [
            (SpatialRelationKind.ABSOLUTE, (name,))
            for name in ("Pau", "Lyon", "Laruns")]

    def test_figure_anchors_may_be_adjacent(self, lex):
        # « un triangle Pau Lyon Bordeaux »: each anchor starts right after
        # the last one ends
        g = build([(1, "un", "un", "DET", 2, "det"),
                   (2, "triangle", "triangle", "NOUN", 0, "root"),
                   (3, "Pau", "Pau", "PROPN", 2, "nmod"),
                   (4, "Lyon", "Lyon", "PROPN", 3, "flat"),
                   (5, "Bordeaux", "Bordeaux", "PROPN", 3, "flat")])
        (ent,) = recognize_spatial(g, whole_span(g), lex)
        assert ent.kind is SpatialRelationKind.GEOMETRIC_FIGURE
        assert ent.anchors == ("Pau", "Lyon", "Bordeaux")

    def test_figure_anchors_listed_with_a_semicolon_or_ou(self, lex):
        # « triangle Pau ; Lyon ou Laruns », the separators tagged neither
        # PUNCT nor CCONJ: their forms alone make them separators
        g = build([(1, "triangle", "triangle", "NOUN", 0, "root"),
                   (2, "Pau", "Pau", "PROPN", 1, "nmod"),
                   (3, ";", ";", "SYM", 4, "dep"),
                   (4, "Lyon", "Lyon", "PROPN", 2, "conj"),
                   (5, "ou", "ou", "X", 6, "dep"),
                   (6, "Laruns", "Laruns", "PROPN", 2, "conj")])
        (ent,) = recognize_spatial(g, whole_span(g), lex)
        assert ent.kind is SpatialRelationKind.GEOMETRIC_FIGURE
        assert ent.anchors == ("Pau", "Lyon", "Laruns")

    def test_adjacency_and_inclusion(self, taxonomy, lex):
        (adj,) = recognize_spatial(taxonomy["tax-adjacency"],
                                   whole_span(taxonomy["tax-adjacency"]), lex)
        assert adj.kind is SpatialRelationKind.ADJACENCY
        (inc,) = recognize_spatial(taxonomy["tax-inclusion"],
                                   whole_span(taxonomy["tax-inclusion"]), lex)
        assert inc.kind is SpatialRelationKind.INCLUSION
        assert inc.anchors == ("Laruns",)

    def test_loose_mode_flags_unknown_propn(self, lex):
        g = build([(1, "Je", "je", "PRON", 2, "nsubj"),
                   (2, "visite", "visiter", "VERB", 0, "root"),
                   (3, "Bayonne", "Bayonne", "PROPN", 2, "obj")])
        assert recognize_spatial(g, whole_span(g), lex) == []
        (ent,) = recognize_spatial(g, whole_span(g), lex, loose=True)
        assert ent.kind is SpatialRelationKind.ABSOLUTE
        assert ent.anchors == ("Bayonne",) and ent.loose

    def test_loose_mode_reads_the_toponym_after_a_marker(self, lex):
        g = build([(1, "Je", "je", "PRON", 2, "nsubj"),
                   (2, "passe", "passer", "VERB", 0, "root"),
                   (3, "près", "près", "ADV", 5, "case"),
                   (4, "de", "de", "ADP", 3, "fixed"),
                   (5, "Bayonne", "Bayonne", "PROPN", 2, "obl")])
        assert recognize_spatial(g, whole_span(g), lex) == []
        (ent,) = recognize_spatial(g, whole_span(g), lex, loose=True)
        assert ent.kind is SpatialRelationKind.ADJACENCY
        assert ent.text == "près de Bayonne"
        assert ent.anchors == ("Bayonne",) and ent.loose

    def test_entities_never_overlap(self, all_graphs, lex):
        for g in all_graphs:
            for loose in (False, True):
                ents = recognize_spatial(g, whole_span(g), lex, loose)
                for i, a in enumerate(ents):
                    for b in ents[i + 1:]:
                        assert not overlaps(a.span, b.span)


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
        (ent,) = recognize_temporal(g, whole_span(g), lex)
        assert ent.kind is TemporalRelationKind.DISTANCE
        assert ent.magnitude == (20, "an")
        assert ent.anchor_text == "le début du siècle"

    def test_adjacency_with_full_date(self, taxonomy, lex):
        g = taxonomy["tax-t-adjacency"]
        (ent,) = recognize_temporal(g, whole_span(g), lex)
        assert ent.kind is TemporalRelationKind.ADJACENCY
        assert ent.anchor_text == "10 juillet 1990"

    def test_inclusion(self, taxonomy, lex):
        g = taxonomy["tax-t-inclusion"]
        (ent,) = recognize_temporal(g, whole_span(g), lex)
        assert ent.kind is TemporalRelationKind.INCLUSION
        assert ent.anchor_text == "années 60"

    def test_bare_date_is_absolute(self, lex):
        g = build([(1, "Il", "il", "PRON", 2, "nsubj"),
                   (2, "arrive", "arriver", "VERB", 0, "root"),
                   (3, "le", "le", "DET", 5, "det"),
                   (4, "10", "10", "NUM", 5, "nummod"),
                   (5, "juillet", "juillet", "NOUN", 2, "obl"),
                   (6, "1990", "1990", "NUM", 5, "nmod")])
        (ent,) = recognize_temporal(g, whole_span(g), lex)
        assert ent.kind is TemporalRelationKind.ABSOLUTE
        assert ent.text == "10 juillet 1990"

    @pytest.mark.parametrize("day, text", [("1", "1 mai"), ("31", "31 mai"),
                                           ("32", "mai")])
    def test_a_bare_date_s_day_is_at_most_31(self, lex, day, text):
        # « le 32 mai »: 32 is no day, so the date is the month alone; the
        # day runs from 1
        g = build([(1, "le", "le", "DET", 3, "det"),
                   (2, day, day, "NUM", 3, "nummod"),
                   (3, "mai", "mai", "NOUN", 0, "root")])
        (ent,) = recognize_temporal(g, whole_span(g), lex)
        assert ent.kind is TemporalRelationKind.ABSOLUTE
        assert ent.text == text

    def test_marker_without_evidence_yields_nothing(self, lex):
        g = build([(1, "Il", "il", "PRON", 2, "nsubj"),
                   (2, "part", "partir", "VERB", 0, "root"),
                   (3, "avant", "avant", "ADP", 4, "case"),
                   (4, "nous", "nous", "PRON", 2, "obl")])
        assert recognize_temporal(g, whole_span(g), lex) == []

    def test_reference_window_stops_at_a_verb(self, lex):
        # « pendant les vacances 1990 revient en 1991 »: the evidence after
        # the verb belongs to another clause
        g = build([(1, "pendant", "pendant", "ADP", 3, "case"),
                   (2, "les", "le", "DET", 3, "det"),
                   (3, "vacances", "vacance", "NOUN", 5, "obl"),
                   (4, "1990", "1990", "NUM", 3, "nmod"),
                   (5, "revient", "revenir", "VERB", 0, "root"),
                   (6, "en", "en", "ADP", 7, "case"),
                   (7, "1991", "1991", "NUM", 5, "obl")])
        (ent,) = recognize_temporal(g, whole_span(g), lex)
        assert ent.kind is TemporalRelationKind.INCLUSION
        assert ent.text == "pendant les vacances 1990"

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
        assert [e.kind for e in recognize_spatial(
            spatial, whole_span(spatial), lex)] == [
                SpatialRelationKind.INCLUSION]
        assert recognize_spatial(temporal, whole_span(temporal), lex) == []
        assert [e.kind for e in recognize_temporal(
            temporal, whole_span(temporal), lex)] == [
                TemporalRelationKind.DISTANCE]
        assert recognize_temporal(spatial, whole_span(spatial), lex) == []

    def test_entities_never_overlap(self, all_graphs, lex):
        for g in all_graphs:
            ents = recognize_temporal(g, whole_span(g), lex)
            for i, a in enumerate(ents):
                for b in ents[i + 1:]:
                    assert not overlaps(a.span, b.span)


_LEMMAS = {"jours": "jour", "ans": "an", "la": "le"}


def run(text):
    """A flat graph of the words of ``text``, each after the first under
    it; "la" is a determiner, any other word is tagged X."""
    return build([(i, w, _LEMMAS.get(w, w), "DET" if w == "la" else "X",
                   int(i > 1), "dep" if i > 1 else "root")
                  for i, w in enumerate(text.split(), 1)])


def kinds_and_texts(ents):
    return [(e.kind, e.text) for e in ents]


class TestScan:
    def test_no_entity_starts_on_a_consumed_token(self, lex):
        # « après » would read back « 3 jours », which « depuis » took
        g = run("depuis 3 jours après le 5 mai")
        assert kinds_and_texts(recognize_temporal(g, whole_span(g), lex)) == [
            (TemporalRelationKind.DISTANCE, "depuis 3 jours"),
            (TemporalRelationKind.ABSOLUTE, "5 mai")]

    @pytest.mark.parametrize("text, within", [
        ("après le 5 mai 3 jours", None), ("jours après le 5 mai 3", None),
        ("3 jours après le 5 mai", TokenSpan(3, 6)),
        ("3 jours après le 5 mai", TokenSpan(2, 6))])
    def test_distance_look_back_stays_in_its_span(self, lex, text, within):
        # a distance marker at span position 0 or 1 has no magnitude before
        # it: a negative index does not wrap to the span's end
        g = run(text)
        ents = recognize_temporal(g, within or whole_span(g), lex)
        assert kinds_and_texts(ents) == [
            (TemporalRelationKind.ABSOLUTE, "5 mai")]

    @pytest.mark.parametrize("text", ["à", "à 3", "à 3 km", "à 3 km de"])
    def test_metric_marker_with_no_toponym_in_reach(self, lex, text):
        g = run(text)
        for loose in (False, True):
            assert recognize_spatial(g, whole_span(g), lex, loose) == []

    def test_a_failed_marker_leaves_its_token_to_the_fallback(self, lex):
        # « pic de » and « mai » as markers find no complement, so the bare
        # toponym and the bare date at their first token are found
        marked = rebuilt(
            lex,
            spatial_markers={**lex.spatial_markers,
                             "pic de": SpatialRelationKind.ADJACENCY},
            temporal_markers={**lex.temporal_markers,
                              "mai": TemporalRelationKind.DISTANCE})
        g = run("Pic de la Fourcade")
        assert kinds_and_texts(
            recognize_spatial(g, whole_span(g), marked)) == [
            (SpatialRelationKind.ABSOLUTE, "Pic de la Fourcade")]
        g = run("mai 2010")
        assert kinds_and_texts(
            recognize_temporal(g, whole_span(g), marked)) == [
            (TemporalRelationKind.ABSOLUTE, "mai 2010")]


class TestNormalizeOnce:
    def test_each_form_is_normalized_once_per_graph(self, all_graphs, lex,
                                                    monkeypatch):
        """The first recognizer call on a graph normalizes each form of the
        sentence once, through ``entities.normalize``; every later call on
        the graph normalizes nothing, and the phrase indexes never do."""
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
            spans = [TokenSpan(first, last) for first in range(1, n + 1)
                     for last in range(first, n + 1)]
            for recognize in recognizers:
                for span in spans:
                    fresh = SentenceGraph(g.sent_id, g.text, g.tokens)
                    calls.clear()
                    recognize(fresh, span)
                    assert calls == {"entities": n}
            assert fresh.words == tuple(real(t.form) for t in g.tokens)
            for span in spans:
                for recognize in recognizers:
                    calls.clear()
                    recognize(fresh, span)
                    assert calls == {}
