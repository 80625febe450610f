"""The records' behaviour: each equals only a record of its own type with
equal fields and hashes as such, and each constructor check refuses with
its message."""

import pytest

from itirel import (Argument, ItineraryRelation, LexiconSet, NaryRelation,
                    SentenceResult, SpatialEntity, SpatialRelationKind,
                    TemporalEntity, TemporalRelationKind, TokenSpan,
                    UseCaseKind, VerbPolarity, parse_conllu,
                    recognize_spatial)

from conftest import rebuilt


def _records():
    """One record of each hashable type, built afresh on each call."""
    actor = Argument(TokenSpan(1, 1), "Il", "subj", 1)
    place = SpatialEntity(TokenSpan(3, 5), SpatialRelationKind.ADJACENCY,
                          ("Pau",), None, None, "près de Pau")
    time = TemporalEntity(TokenSpan(6, 8), TemporalRelationKind.DISTANCE,
                          (2, "semaine"), "deux semaines",
                          "depuis deux semaines")
    nary = NaryRelation(UseCaseKind.UC3_NO_PRIMARY_ARGUMENT, "aller", 2,
                        (actor,))
    itinerary = ItineraryRelation("aller", VerbPolarity.FINAL, actor, (), (),
                                  (place,), (time,), nary)
    result = SentenceResult("s1", "Il va près de Pau depuis deux semaines",
                            (nary,), (itinerary,), ())
    return [TokenSpan(2, 4), actor, place, time, nary, itinerary, result]


# a field of each record in _records and another value for it
_CHANGES = [("last", 5), ("pivot", 2), ("text", "près Pau"),
            ("anchor_text", "2 semaines"), ("predicate_token", 3),
            ("verb_lemma", "venir"), ("skips", ("no main verb",))]


class TestEquality:
    def test_equal_records_hash_equally(self):
        for a, b in zip(_records(), _records()):
            assert a is not b
            assert a == b and hash(a) == hash(b), type(a).__name__

    def test_a_record_equals_only_its_own_type(self):
        assert TokenSpan(1, 2) != (1, 2)
        assert TokenSpan(1, 2) != [1, 2]
        records = _records()
        for i, a in enumerate(records):
            assert a != None  # noqa: E711
            assert all(a != b for b in records[:i] + records[i + 1:])

    def test_one_field_changed_is_unequal(self):
        for record, (name, value) in zip(_records(), _CHANGES):
            changed = rebuilt(record, **{name: value})
            assert changed != record and getattr(changed, name) == value
            assert rebuilt(record) == record

    def test_lexicon_sets_ignore_the_fingerprint(self):
        lex = LexiconSet({"aller": VerbPolarity.FINAL}, {}, {}, {"Pau": ""},
                         {})
        assert rebuilt(lex, fingerprint="ab12") == lex
        assert rebuilt(lex, gazetteer={"Lyon": ""}) != lex

    def test_a_graph_is_its_id_text_and_tokens(self, gold_text, lex):
        g, again = (parse_conllu(gold_text)[0] for _ in range(2))
        recognize_spatial(g, g.span(), lex)  # fills g's normalized words
        assert g.words is not None and again.words is None
        assert g == again and hash(g) == hash(again)
        assert rebuilt(g, text="autre") != g


@pytest.mark.parametrize("make, message", [
    (lambda: TokenSpan(3, 1), "invalid span 3..1"),
    (lambda: TokenSpan(0, 1), "invalid span 0..1"),
    (lambda: SpatialEntity(TokenSpan(1, 2), SpatialRelationKind.ADJACENCY,
                           (), None, None, "près de"),
     "spatial entity needs at least one anchor"),
    (lambda: SpatialEntity(TokenSpan(1, 5), SpatialRelationKind.METRIC,
                           ("Pau",), None, None, "à 10 km de Pau"),
     "metric entity needs a magnitude"),
    (lambda: SpatialEntity(TokenSpan(1, 4), SpatialRelationKind.ORIENTATION,
                           ("Pau",), None, "", "au nord de Pau"),
     "orientation entity needs a direction"),
    (lambda: SpatialEntity(TokenSpan(1, 2),
                           SpatialRelationKind.GEOMETRIC_FIGURE, ("Pau",),
                           None, None, "triangle Pau"),
     "geometric figure needs at least two anchors"),
    (lambda: TemporalEntity(TokenSpan(1, 3), TemporalRelationKind.DISTANCE,
                            None, "deux semaines", "depuis deux semaines"),
     "temporal distance entity needs a magnitude"),
    (lambda: ItineraryRelation(
        "aller", VerbPolarity.FINAL, None, (), (), (), (),
        NaryRelation(UseCaseKind.UC3_NO_PRIMARY_ARGUMENT, "aller", 1, ())),
     "itinerary relation needs at least one spatial entity"),
], ids=["span-backwards", "span-from-0", "no-anchor", "metric",
        "orientation", "figure", "temporal-distance", "itinerary"])
def test_constructor_checks(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message
