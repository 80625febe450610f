"""End-to-end acceptance checks over the bundled gold corpora.

Each test prints a single PASS/FAIL line for its criterion (visible with
``pytest -s`` or in captured output on failure) and then asserts it.
"""

import json

from itirel import (NoMainVerb, SpatialRelationKind, TemporalRelationKind,
                    UseCaseKind, VerbPolarity, build_document,
                    detect_displacement, extract_arguments, extract_nary,
                    extract_sentence, from_json,
                    identify_use_cases, iter_conllu, motion_polarity,
                    pivot_tokens, recognize_spatial, recognize_temporal,
                    to_json, to_turtle)

from conftest import figurative_sentence
from oracles import argument_spans
from turtle_check import parse_turtle, TurtleSyntaxError

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"


def _check(number: int, name: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {number}: {name}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_acceptance_1_pivot_reproduction(gold):
    g = gold["gold-01"]
    pivots = pivot_tokens(g)
    ok = ({g.token(p).form for p in pivots}
          == {"frère", "quitté", "Pau", "pour", "ville", "depuis", "semaines"}
          and {g.token(p).lemma for p in pivots}
          == {"frère", "quitter", "Pau", "pour", "ville", "depuis", "semaine"}
          and len(pivots) == 7)
    _check(1, "pivot reproduction", ok)


def test_acceptance_2_argument_reproduction(gold):
    g = gold["gold-01"]
    args = extract_arguments(g, pivot_tokens(g))
    ok = [(a.role, a.text) for a in args] == [
        ("subj", "Le frère de mon ami"),
        ("obj", "Pau"),
        ("pour", "une ville près de Lyon"),
        ("depuis", "deux semaines"),
    ]
    _check(2, "argument reproduction", ok)


def test_acceptance_3_taxonomy_table(taxonomy, lex):
    spatial_expected = {
        "tax-metric": SpatialRelationKind.METRIC,
        "tax-orientation": SpatialRelationKind.ORIENTATION,
        "tax-figure": SpatialRelationKind.GEOMETRIC_FIGURE,
        "tax-adjacency": SpatialRelationKind.ADJACENCY,
        "tax-inclusion": SpatialRelationKind.INCLUSION,
    }
    temporal_expected = {
        "tax-t-adjacency": TemporalRelationKind.ADJACENCY,
        "tax-t-inclusion": TemporalRelationKind.INCLUSION,
        "tax-t-distance": TemporalRelationKind.DISTANCE,
    }
    correct = 0
    for sid, kind in spatial_expected.items():
        g = taxonomy[sid]
        ents = recognize_spatial(g, g.span(), lex)
        correct += (len(ents) == 1 and ents[0].kind is kind)
    for sid, kind in temporal_expected.items():
        g = taxonomy[sid]
        ents = recognize_temporal(g, g.span(), lex)
        correct += (len(ents) == 1 and ents[0].kind is kind)
    _check(3, f"taxonomy table {correct}/8", correct == 8)


def test_acceptance_4_polysemy_biconditional(gold, lex):
    positive = extract_sentence(gold["gold-01"], lex)
    # a motion verb whose relation holds no spatial entity
    negative_no_es = extract_sentence(figurative_sentence(), lex)
    negative_no_motion = extract_sentence(gold["gold-02"], lex)
    ok = (len(positive.itinerary_relations) == 1
          and any(motion_polarity(lex, r.predicate_lemma) is not None
                  for r in negative_no_es.nary_relations)
          and negative_no_es.itinerary_relations == ()
          and len(negative_no_motion.nary_relations) == 1
          and negative_no_motion.itinerary_relations == ())
    _check(4, "polysemy biconditional (1 positive, 2 negatives)", ok)


def test_acceptance_5_sortir_itinerary(gold, lex):
    itins = extract_sentence(gold["gold-05"], lex).itinerary_relations
    ok = False
    if len(itins) == 1:
        itin = itins[0]
        ok = (itin.polarity is VerbPolarity.INITIAL
              and [e.anchors for e in itin.origin] == [("Pau",)]
              and [e.anchors for e in itin.destination] == [("Laruns",)]
              and itin.intermediate == ()
              and len(itin.temporal) == 1
              and itin.temporal[0].kind is TemporalRelationKind.DISTANCE
              and itin.temporal[0].magnitude == (3, "jour"))
    _check(5, "sortir itinerary", ok)


def test_acceptance_6_use_case_identification(gold):
    expected = {
        "gold-02": UseCaseKind.UC1_ADDITIONAL_INFO,
        "gold-03": UseCaseKind.UC2_OBJECT_DETAIL,
        "gold-01": UseCaseKind.UC3_NO_PRIMARY_ARGUMENT,
        "gold-04": UseCaseKind.UC4_ORDERED_LIST,
    }
    hits = sum(identify_use_cases(gold[sid]) == [uc]
               for sid, uc in expected.items())
    _check(6, f"use-case identification {hits}/4", hits == 4)


def test_acceptance_7_oracle_equivalence(all_graphs):
    checked, agreed = 0, 0
    for g in all_graphs:
        if len(g.tokens) > 12:
            continue
        checked += 1
        expected = argument_spans(g.tokens)
        try:
            got = sorted((a.span.first, a.span.last)
                         for a in extract_arguments(g, pivot_tokens(g)))
        except NoMainVerb:
            got = None
        agreed += (got == expected)
    ok = checked > 0 and agreed == checked
    _check(7, f"oracle equivalence {agreed}/{checked}", ok)


def test_acceptance_8_determinism_and_round_trips(gold_text, lex):
    base = "https://example.org/iti"
    doc_a = build_document(iter_conllu(gold_text), lex,
                           fingerprint=lex.fingerprint)
    doc_b = build_document(iter_conllu(gold_text), lex,
                           fingerprint=lex.fingerprint)
    json_a, json_b = to_json(doc_a), to_json(doc_b)
    ttl_a, ttl_b = to_turtle(doc_a, base), to_turtle(doc_b, base)
    try:
        triples = parse_turtle(ttl_a)
        turtle_ok = True
    except TurtleSyntaxError:
        triples, turtle_ok = [], False
    json_count = sum(len(s["itinerary_relations"])
                     for s in json.loads(json_a)["sentences"])
    turtle_count = len({t.subject for t in triples
                        if t.predicate == RDF_TYPE})
    ok = (json_a == json_b and ttl_a == ttl_b
          and from_json(json_a) == doc_a
          and to_json(from_json(json_a)) == json_a
          and turtle_ok
          and json_count == turtle_count)
    _check(8, "determinism, round-trips, Turtle validity, count equality", ok)


def test_acceptance_9_gold_corpus_count(gold, lex):
    count = sum(len(s.itinerary_relations)
                for s in build_document(gold.values(), lex).sentences)
    _check(9, f"gold-corpus itinerary count = {count}", count == 2)


def test_acceptance_10_figurative_corpus_reaches_the_filter(figurative, lex):
    """Motion-verb relations of a bundled corpus reach the polysemy filter
    and are rejected there: their sentences give no itinerary.  The places
    of fig-loose are missing from the gazetteer, so only loose matching
    lets its relation through."""
    ok = figurative["fig-quitter"].tokens == figurative_sentence().tokens
    for loose, expected in ((False, {"fig-quitter", "fig-suivre",
                                     "fig-loose"}),
                            (True, {"fig-quitter", "fig-suivre"})):
        rejected = {sid for sid, g in figurative.items()
                    for r in extract_nary(g)
                    if motion_polarity(lex, r.predicate_lemma) is not None
                    and detect_displacement(r, g, lex, loose) is None}
        doc = build_document(figurative.values(), lex, loose)
        no_itinerary = {s.sent_id for s in doc.sentences
                        if not s.itinerary_relations}
        ok = ok and rejected == no_itinerary == expected
    _check(10, "figurative motion verbs rejected by the filter", ok)
