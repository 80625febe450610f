import pytest

from itirel import (ItineraryRelation, NaryRelation, NoMainVerb,
                    SpatialRelationKind, TemporalRelationKind, UseCaseKind,
                    VerbPolarity, assign_roles, build_document,
                    detect_displacement, extract_nary, extract_sentence,
                    motion_polarity, recognize_spatial, root_verb)

from itirel.itinerary import _SIDES
from itirel.lexicon import normalize

from conftest import build, figurative_sentence
from oracles import main_arguments, whole_span


def _relation(g, lex, lemma=None):
    """A UC3-shaped relation of the main clause's real arguments, for
    sentences that do not match a use-case pattern on their own."""
    verb = root_verb(g)
    args = tuple(main_arguments(g))
    return NaryRelation(use_case=UseCaseKind.UC3_NO_PRIMARY_ARGUMENT,
                        predicate_lemma=lemma or g.token(verb).lemma,
                        predicate_token=verb, arguments=args)


class TestAssignRoles:
    def test_prepositions_override_polarity(self, gold, lex):
        g = gold["gold-05"]
        pau = recognize_spatial(g, whole_span(g), lex)[0]
        laruns = recognize_spatial(g, whole_span(g), lex)[1]
        assert assign_roles(VerbPolarity.FINAL,
                            [("de", [pau]), ("vers", [laruns])]) \
            == ((pau,), (), (laruns,))

    def test_bare_object_falls_to_polarity_default(self, gold, lex):
        g = gold["gold-01"]
        (pau,) = recognize_spatial(g, whole_span(g), lex)[:1]
        # (origin, intermediate, destination)
        for polarity, side in ((VerbPolarity.INITIAL, 0),
                               (VerbPolarity.MEDIAN, 1),
                               (VerbPolarity.FINAL, 2)):
            assigned = assign_roles(polarity, [("obj", [pau])])
            assert assigned[side] == (pau,)
            assert sum(map(len, assigned)) == 1

    def test_unknown_preposition_falls_to_polarity_default(self, gold, lex):
        g = gold["gold-01"]
        (pau,) = recognize_spatial(g, whole_span(g), lex)[:1]
        assert assign_roles(VerbPolarity.INITIAL, [("chez", [pau])]) \
            == ((pau,), (), ())

    def test_intermediate_prepositions(self, gold, lex):
        g = gold["gold-01"]
        (pau,) = recognize_spatial(g, whole_span(g), lex)[:1]
        assert assign_roles(VerbPolarity.FINAL, [("par", [pau])]) \
            == ((), (pau,), ())

    def test_des_reads_as_origin(self, gold, lex):
        # « dès Pau »: a final verb's default side is the destination
        g = gold["gold-01"]
        (pau,) = recognize_spatial(g, whole_span(g), lex)[:1]
        assert assign_roles(VerbPolarity.FINAL, [("dès", [pau])]) \
            == ((pau,), (), ())

    def test_a_role_is_normalized_only_when_it_is_no_key(self, gold, lex):
        # a role that is a key is looked up as it is: every key is normalized
        assert all(normalize(k) == k for k in _SIDES)
        g = gold["gold-01"]
        (pau,) = recognize_spatial(g, whole_span(g), lex)[:1]
        assert assign_roles(VerbPolarity.INITIAL, [("Jusqu'à", [pau])]) \
            == ((), (), (pau,))


class TestPolysemyFilter:
    def test_motion_verb_with_spatial_entity_fires(self, gold, lex):
        (rel,) = extract_nary(gold["gold-01"])
        assert detect_displacement(rel, gold["gold-01"], lex) is not None

    def test_motion_verb_without_spatial_entity_does_not(self, gold, lex):
        g = gold["gold-06"]
        rel = _relation(g, lex)  # quitter, but "sa femme" is not a place
        assert motion_polarity(lex, rel.predicate_lemma) is not None
        assert detect_displacement(rel, g, lex) is None

    def test_figurative_motion_reaches_the_filter_and_is_rejected(self, lex):
        g = figurative_sentence()
        result = extract_sentence(g, lex)
        (rel,) = result.nary_relations
        assert rel.use_case is UseCaseKind.UC3_NO_PRIMARY_ARGUMENT
        assert rel.predicate_lemma == "quitter"
        assert [a.text for a in rel.arguments] == [
            "Il", "sa femme", "une autre", "deux semaines"]
        assert motion_polarity(lex, rel.predicate_lemma) is not None
        assert detect_displacement(rel, g, lex) is None
        assert result.itinerary_relations == ()
        assert result.skips == ()

    def test_non_motion_verb_with_spatial_entity_does_not(self, gold, lex):
        g = gold["gold-02"]
        (rel,) = extract_nary(g)  # visiter Pau: ES but no motion verb
        assert detect_displacement(rel, g, lex) is None

    def test_subject_entity_alone_does_not_fire(self, lex):
        # "Pau sort du classement": spatial entity only in subject position
        g = build([(1, "Pau", "Pau", "PROPN", 2, "nsubj"),
                   (2, "sort", "sortir", "VERB", 0, "root"),
                   (3, "du", "du", "ADP", 4, "case"),
                   (4, "classement", "classement", "NOUN", 2, "obl")])
        rel = _relation(g, lex)
        assert detect_displacement(rel, g, lex) is None


class TestItineraryAssembly:
    def test_running_example(self, gold, lex):
        g = gold["gold-01"]
        (rel,) = extract_nary(g)
        itin = detect_displacement(rel, g, lex)
        assert itin.verb_lemma == "quitter"
        assert itin.polarity is VerbPolarity.INITIAL
        assert itin.actor is not None
        assert itin.actor.text == "Le frère de mon ami"
        assert [e.anchors for e in itin.origin] == [("Pau",)]
        assert itin.origin[0].kind is SpatialRelationKind.ABSOLUTE
        assert [e.anchors for e in itin.destination] == [("Lyon",)]
        assert itin.destination[0].kind is SpatialRelationKind.ADJACENCY
        assert itin.intermediate == ()
        assert len(itin.temporal) == 1
        assert itin.temporal[0].kind is TemporalRelationKind.DISTANCE
        assert itin.temporal[0].magnitude == (2, "semaine")
        assert itin.source_nary == rel
        result = extract_sentence(g, lex)
        assert result.itinerary_relations == (itin,)
        assert result.sent_id == "gold-01"

    def test_sortir_example(self, gold, lex):
        g = gold["gold-05"]
        (rel,) = extract_nary(g)
        itin = detect_displacement(rel, g, lex)
        assert itin.polarity is VerbPolarity.INITIAL
        assert [e.anchors for e in itin.origin] == [("Pau",)]
        assert [e.anchors for e in itin.destination] == [("Laruns",)]
        assert itin.temporal[0].magnitude == (3, "jour")

    def test_initial_verb_bare_object_lands_in_origin(self, lex):
        g = build([(1, "Il", "il", "PRON", 2, "nsubj"),
                   (2, "quitte", "quitter", "VERB", 0, "root"),
                   (3, "Pau", "Pau", "PROPN", 2, "obj")])
        itin = detect_displacement(_relation(g, lex), g, lex)
        assert [e.anchors for e in itin.origin] == [("Pau",)]
        assert itin.destination == () and itin.intermediate == ()

    def test_final_verb_bare_object_lands_in_destination(self, lex):
        g = build([(1, "Nous", "nous", "PRON", 2, "nsubj"),
                   (2, "atteignons", "atteindre", "VERB", 0, "root"),
                   (3, "Gavarnie", "Gavarnie", "PROPN", 2, "obj")])
        itin = detect_displacement(_relation(g, lex), g, lex)
        assert itin.polarity is VerbPolarity.FINAL
        assert [e.anchors for e in itin.destination] == [("Gavarnie",)]

    def test_temporal_marker_inside_preposition_is_kept(self, gold, lex):
        # the "depuis" ET is only visible once the case marker is widened
        g = gold["gold-01"]
        (rel,) = extract_nary(g)
        itin = detect_displacement(rel, g, lex)
        assert itin.temporal[0].text == "depuis deux semaines"

    def test_needs_at_least_one_spatial_entity(self, gold, lex):
        (rel,) = extract_nary(gold["gold-01"])
        itin = detect_displacement(rel, gold["gold-01"], lex)
        with pytest.raises(ValueError):
            ItineraryRelation(verb_lemma=itin.verb_lemma,
                              polarity=itin.polarity, actor=itin.actor,
                              origin=(), intermediate=(), destination=(),
                              temporal=itin.temporal,
                              source_nary=itin.source_nary)


class TestCorpusExtraction:
    def test_gold_corpus_yields_two_itineraries(self, gold, lex):
        sentences = build_document(gold.values(), lex).sentences
        assert [s.sent_id for s in sentences
                for _ in s.itinerary_relations] == ["gold-01", "gold-05"]
        assert [(s.sent_id, s.skips) for s in sentences if s.skips] \
            == [("gold-07", ("no main verb",))]

    def test_empty_corpus(self, lex):
        assert build_document([], lex).sentences == ()

    def test_verbless_corpus_is_all_skips(self, gold, lex):
        result = extract_sentence(gold["gold-07"], lex)
        assert result.itinerary_relations == ()
        assert result.skips == ("no main verb",)

    def test_emission_biconditional(self, all_graphs, lex):
        for g in all_graphs:
            try:
                root_verb(g)
            except NoMainVerb:
                continue
            for rel in extract_nary(g):
                expected = (
                    motion_polarity(lex, rel.predicate_lemma) is not None
                    and any(a.role != "subj"
                            and recognize_spatial(g, a.span, lex)
                            for a in rel.arguments))
                got = detect_displacement(rel, g, lex) is not None
                assert got == expected, g.sent_id

    def test_role_totality(self, all_graphs, lex):
        for g in all_graphs:
            for itin in extract_sentence(g, lex).itinerary_relations:
                es_bearing = sum(
                    len(recognize_spatial(g, a.span, lex))
                    for a in itin.source_nary.arguments if a.role != "subj")
                assert (len(itin.origin) + len(itin.intermediate)
                        + len(itin.destination)) == es_bearing

    def test_temporal_attachment_unique(self, gold, lex):
        (itin,) = extract_sentence(gold["gold-01"], lex).itinerary_relations
        assert len(itin.temporal) == len(set(itin.temporal)) == 1

    def test_loose_mode_threads_through(self, lex):
        g = build([(1, "Il", "il", "PRON", 2, "nsubj"),
                   (2, "quitte", "quitter", "VERB", 0, "root"),
                   (3, "Bayonne", "Bayonne", "PROPN", 2, "obj")])
        rel = _relation(g, lex)
        assert detect_displacement(rel, g, lex) is None
        itin = detect_displacement(rel, g, lex, loose=True)
        assert itin is not None and itin.origin[0].loose
