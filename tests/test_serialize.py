import gc
import json
import shutil

import pytest
from hypothesis import event, given, settings, strategies as st

from itirel import (Argument, ItineraryRelation, JsonWriter, NaryRelation,
                    SentenceResult, SpatialEntity, SpatialRelationKind,
                    TemporalEntity, TemporalRelationKind, TokenSpan,
                    TurtleWriter, UseCaseKind, VerbPolarity, build_document,
                    bundled_lexicon_dir, extract_sentence, from_json,
                    lexicon_fingerprint, load_lexicons, parse_conllu, to_json,
                    to_turtle)
from itirel.serialize import _lit

from conftest import build, rebuilt
from oracles import document_json

from turtle_check import parse_turtle

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
BASE = "https://example.org/iti"
VOCAB = BASE + "/vocab#"


def extract_text(conllu_text: str, lex):
    """The document of CoNLL-U text, with the lexicon's fingerprint."""
    return build_document(parse_conllu(conllu_text), lex,
                          fingerprint=lex.fingerprint)


@pytest.fixture(scope="module")
def doc(gold_text, lex):
    return extract_text(gold_text, lex)


class TestDocument:
    def test_shape(self, doc):
        assert doc.tool_version == "0.1.0"
        assert len(doc.sentences) == 8
        assert doc.lexicon_fingerprint == \
            lexicon_fingerprint(bundled_lexicon_dir())
        assert [s.sent_id for s in doc.sentences
                for _ in s.itinerary_relations] == ["gold-01", "gold-05"]

    def test_skips_recorded(self, doc):
        by_id = {s.sent_id: s for s in doc.sentences}
        assert by_id["gold-07"].skips == ("no main verb",)
        assert by_id["gold-01"].skips == ()

    def test_one_extract_sentence_per_graph(self, doc, gold, lex):
        assert doc.sentences == tuple(extract_sentence(g, lex)
                                      for g in gold.values())

    def test_single_prepositional_complement_gives_nothing(self, lex):
        # « Il sort de Pau. »: one prepositional complement is no UC3, so no
        # relation, hence no itinerary and no skip reason
        g = build([(1, "Il", "il", "PRON", 2, "nsubj"),
                   (2, "sort", "sortir", "VERB", 0, "root"),
                   (3, "de", "de", "ADP", 4, "case"),
                   (4, "Pau", "Pau", "PROPN", 2, "obl"),
                   (5, ".", ".", "PUNCT", 2, "punct")])
        result = extract_sentence(g, lex)
        assert (result.nary_relations, result.itinerary_relations,
                result.skips) == ((), (), ())
        assert build_document([g], lex).sentences == (result,)

    def test_fingerprint_changes_iff_lexicon_bytes_change(self, tmp_path):
        shutil.copytree(bundled_lexicon_dir(), tmp_path / "lex")
        assert lexicon_fingerprint(tmp_path / "lex") == \
            lexicon_fingerprint(bundled_lexicon_dir())
        with (tmp_path / "lex" / "units.tsv").open(
                "a", encoding="utf-8") as fh:
            fh.write("# a comment changes the bytes, not the content\n")
        assert lexicon_fingerprint(tmp_path / "lex") != \
            lexicon_fingerprint(bundled_lexicon_dir())


class TestJson:
    def test_round_trip_exact(self, doc):
        text = to_json(doc)
        assert from_json(text) == doc
        assert to_json(from_json(text)) == text

    @pytest.mark.parametrize("count", [8, 1, 0])
    def test_writer_gives_the_bytes_of_one_json_dumps(self, doc, count):
        text = to_json(rebuilt(doc, sentences=doc.sentences[:count]))
        assert text == json.dumps(json.loads(text), ensure_ascii=False,
                                  indent=2) + "\n"

    def test_byte_determinism(self, gold_text):
        a = to_json(extract_text(gold_text, load_lexicons(
            bundled_lexicon_dir())))
        b = to_json(extract_text(gold_text, load_lexicons(
            bundled_lexicon_dir())))
        assert a == b

    def test_is_plain_json(self, doc):
        obj = json.loads(to_json(doc))
        assert [s["sent_id"] for s in obj["sentences"]] == \
            [f"gold-0{i}" for i in range(1, 9)]
        itin = obj["sentences"][0]["itinerary_relations"][0]
        assert itin["verb_lemma"] == "quitter"
        assert itin["polarity"] == "initial"
        assert itin["origin"][0]["anchors"] == ["Pau"]

    def test_empty_input(self, lex):
        doc = extract_text("", lex)
        assert doc.sentences == ()
        assert from_json(to_json(doc)) == doc


# Text the JSON escaping must get right: quotes, backslashes, control
# characters, U+2028 / U+2029 (JavaScript line ends, written raw by JSON)
# and non-ASCII letters, mixed with any other character.
_text = st.text(st.sampled_from('"\\\x00\x1f\x7f\n\t\u2028\u2029é€😀')
                | st.characters(), max_size=6)
_maybe_int = st.none() | st.integers(min_value=-5, max_value=10 ** 12)


@st.composite
def _spans(draw):
    first = draw(st.integers(min_value=1, max_value=60))
    return TokenSpan(first, draw(st.integers(min_value=first,
                                             max_value=first + 9)))


def _magnitudes(required: bool):
    present = st.tuples(st.integers(min_value=0, max_value=10 ** 6), _text)
    return present if required else st.none() | present


_arguments = st.builds(Argument, span=_spans(), text=_text, role=_text,
                       pivot=st.integers(min_value=1, max_value=99),
                       order=_maybe_int, case_marker=_maybe_int,
                       flagged=st.booleans())


@st.composite
def _spatial_entities(draw):
    kind = draw(st.sampled_from(list(SpatialRelationKind)))
    event(f"spatial {kind.value}")
    figure = kind is SpatialRelationKind.GEOMETRIC_FIGURE
    orientation = kind is SpatialRelationKind.ORIENTATION
    return SpatialEntity(
        span=draw(_spans()), kind=kind,
        anchors=tuple(draw(st.lists(_text, min_size=2 if figure else 1,
                                    max_size=3))),
        magnitude=draw(_magnitudes(kind is SpatialRelationKind.METRIC)),
        direction=draw(_text.filter(bool) if orientation
                       else st.none() | _text),
        text=draw(_text), loose=draw(st.booleans()))


@st.composite
def _temporal_entities(draw):
    kind = draw(st.sampled_from(list(TemporalRelationKind)))
    event(f"temporal {kind.value}")
    return TemporalEntity(
        span=draw(_spans()), kind=kind,
        magnitude=draw(_magnitudes(kind is TemporalRelationKind.DISTANCE)),
        anchor_text=draw(_text), text=draw(_text))


@st.composite
def sentence_results(draw):
    """A sentence's results with any values the record types admit; maybe
    with a relation equal to an earlier one but for its argument order and
    predicate token, which itineraries may name as their source."""
    sent_id = draw(_text)
    narys = draw(st.lists(st.builds(
        NaryRelation, use_case=st.sampled_from(list(UseCaseKind)),
        predicate_lemma=_text, predicate_token=st.integers(1, 99),
        arguments=st.lists(_arguments, max_size=3).map(tuple)),
        max_size=3))
    if narys and draw(st.booleans()):
        first = narys[0]
        narys.append(rebuilt(first, arguments=first.arguments[::-1],
                             predicate_token=first.predicate_token + 1))
        event("two equal relations")
    itineraries = []
    for _ in range(draw(st.integers(0, 2)) if narys else 0):
        spatial = st.lists(_spatial_entities(), max_size=2).map(tuple)
        origin, intermediate, destination = [draw(spatial)
                                             for _ in range(3)]
        if not (origin or intermediate or destination):
            origin = (draw(_spatial_entities()),)
        itineraries.append(ItineraryRelation(
            verb_lemma=draw(_text), polarity=draw(st.sampled_from(
                list(VerbPolarity))),
            actor=draw(st.none() | _arguments), origin=origin,
            intermediate=intermediate, destination=destination,
            temporal=draw(st.lists(_temporal_entities(), max_size=2).map(
                tuple)),
            source_nary=draw(st.sampled_from(narys))))
    return SentenceResult(sent_id=sent_id, text=draw(_text),
                          nary_relations=tuple(narys),
                          itinerary_relations=tuple(itineraries),
                          skips=tuple(draw(st.lists(_text, max_size=2))))


class TestJsonWriter:
    @settings(max_examples=100, deadline=None)
    @given(tool_version=_text, fingerprint=_text,
           sentences=st.lists(sentence_results(), max_size=2))
    def test_writes_what_the_json_module_writes(self, tool_version,
                                                fingerprint, sentences):
        parts = []
        writer = JsonWriter(parts.append, fingerprint, tool_version)
        for s in sentences:
            writer.add(s)
        writer.finish()
        text = "".join(parts)
        assert text == document_json(tool_version, fingerprint, sentences)
        assert to_json(from_json(text)) == text

    @pytest.mark.parametrize("make_writer", [
        lambda write, lex: JsonWriter(write, lex.fingerprint),
        lambda write, lex: TurtleWriter(write, BASE)], ids=["json", "turtle"])
    def test_writing_leaves_no_cyclic_garbage(self, all_graphs, lex,
                                              make_writer):
        results = [extract_sentence(g, lex) for g in all_graphs]
        parts = []
        gc.collect()
        gc.disable()
        try:
            writer = make_writer(parts.append, lex)
            for s in results:
                writer.add(s)
            writer.finish()
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert parts


class TestTurtle:
    def test_output_is_valid_turtle(self, doc):
        triples = parse_turtle(to_turtle(doc, BASE))
        assert triples  # non-empty and grammatical

    def test_relation_count_matches_json(self, doc):
        triples = parse_turtle(to_turtle(doc, BASE))
        subjects = {t.subject for t in triples if t.predicate == RDF_TYPE}
        json_count = sum(len(s["itinerary_relations"])
                         for s in json.loads(to_json(doc))["sentences"])
        assert len(subjects) == json_count == 2

    def test_one_property_per_role(self, doc):
        triples = parse_turtle(to_turtle(doc, BASE))
        first = f"{BASE}/relation/1"
        preds = [t.predicate for t in triples if t.subject == first]
        assert preds.count(VOCAB + "actor") == 1
        assert preds.count(VOCAB + "origin") == 1
        assert preds.count(VOCAB + "destination") == 1
        assert preds.count(VOCAB + "intermediate") == 0
        assert preds.count(VOCAB + "temporal") == 1
        assert preds.count(VOCAB + "sourceSentence") == 1
        assert (first, RDF_TYPE, f"{BASE}/verb/quitter") in triples

    def test_actor_and_entity_payloads(self, doc):
        triples = parse_turtle(to_turtle(doc, BASE))
        assert (f"{BASE}/relation/1", VOCAB + "actor",
                '"Le frère de mon ami"') in triples
        origin_nodes = [t.object for t in triples
                        if t.subject == f"{BASE}/relation/1"
                        and t.predicate == VOCAB + "origin"]
        (node,) = origin_nodes
        payload = {(t.predicate, t.object) for t in triples
                   if t.subject == node}
        assert (VOCAB + "kind", '"absolute"') in payload
        assert (VOCAB + "anchor", '"Pau"') in payload

    def test_identical_relations_get_distinct_nodes(self, gold_text, lex):
        block = gold_text.split("\n\n")[4]  # gold-05
        twice = (block.replace("gold-05", "dup-a") + "\n\n"
                 + block.replace("gold-05", "dup-b") + "\n")
        doc = extract_text(twice, lex)
        triples = parse_turtle(to_turtle(doc, BASE))
        subjects = {t.subject for t in triples if t.predicate == RDF_TYPE}
        assert len(subjects) == 2

    @pytest.mark.parametrize("count", [8, 1, 0])
    def test_writer_gives_the_bytes_of_one_json_dumps(self, doc, count):
        text = to_json(rebuilt(doc, sentences=doc.sentences[:count]))
        assert text == json.dumps(json.loads(text), ensure_ascii=False,
                                  indent=2) + "\n"

    def test_byte_determinism(self, gold_text):
        a = to_turtle(extract_text(gold_text, load_lexicons(
            bundled_lexicon_dir())), BASE)
        b = to_turtle(extract_text(gold_text, load_lexicons(
            bundled_lexicon_dir())), BASE)
        assert a == b

    def test_literal_escaping(self, doc):
        text = to_turtle(doc, BASE)
        parse_turtle(text)  # no bare quotes/newlines leak into literals

    def test_each_special_character_of_a_literal_is_escaped(self):
        # a CR reaches a literal only from a graph built directly: every
        # line rule ends a line at CR
        assert _lit('a\\b"c\nd\re\tf\\"') \
            == '"a\\\\b\\"c\\nd\\re\\tf\\\\\\""'

    def test_verb_lemma_with_a_space_gives_a_valid_iri(self, tmp_path):
        lexdir = tmp_path / "lexicons"
        shutil.copytree(bundled_lexicon_dir(), lexdir)
        with open(lexdir / "motion_verbs.tsv", "a", encoding="utf-8") as f:
            f.write("\ns'en aller\tinitial\n")
        g = build([(1, "Il", "il", "PRON", 2, "nsubj"),
                   (2, "va", "s'en aller", "VERB", 0, "root"),
                   (3, "de", "de", "ADP", 4, "case"),
                   (4, "Pau", "Pau", "PROPN", 2, "obl"),
                   (5, "vers", "vers", "ADP", 6, "case"),
                   (6, "Laruns", "Laruns", "PROPN", 2, "obl")])
        doc = build_document([g], load_lexicons(lexdir))
        triples = parse_turtle(to_turtle(doc, BASE))
        assert [t.object for t in triples if t.predicate == RDF_TYPE] == [
            f"{BASE}/verb/s'en%20aller"]

    def test_only_iriref_forbidden_characters_are_encoded(self, doc):
        sentence = next(s for s in doc.sentences if s.itinerary_relations)
        itin = rebuilt(sentence.itinerary_relations[0],
                       verb_lemma='a b\t<c>"d{e}|f^g`h\\i\x01é\'%j')
        one = rebuilt(doc, sentences=(
            rebuilt(sentence, itinerary_relations=(itin,)),))
        text = to_turtle(one, BASE)
        triples = parse_turtle(text)
        assert [t.object for t in triples if t.predicate == RDF_TYPE] == [
            f"{BASE}/verb/a%20b%09%3Cc%3E%22d%7Be%7D%7Cf%5Eg%60h%5Ci%01é'%j"]

    @staticmethod
    def _verb_iris(doc, lemmas):
        """The verb IRIs, as parsed back, of one relation per lemma."""
        sentence = next(s for s in doc.sentences if s.itinerary_relations)
        itins = tuple(rebuilt(sentence.itinerary_relations[0], verb_lemma=v)
                      for v in lemmas)
        one = rebuilt(doc, sentences=(
            rebuilt(sentence, itinerary_relations=itins),))
        return [t.object for t in parse_turtle(to_turtle(one, BASE))
                if t.predicate == RDF_TYPE]

    def test_delimiters_and_escapes_give_distinct_iris(self, doc):
        lemmas = ["a b", "a%20b", "a%2520b", "a#b", "a/b", "a?b", "a%#b"]
        iris = self._verb_iris(doc, lemmas)
        assert iris == [f"{BASE}/verb/{v}" for v in (
            "a%20b", "a%2520b", "a%252520b", "a%23b", "a%2Fb", "a%3Fb",
            "a%%23b")]

    @settings(max_examples=100, deadline=None)
    @given(lemmas=st.lists(st.text(alphabet="aé %#/?2Fb<\t", min_size=1,
                                   max_size=6), min_size=2, max_size=4,
                           unique=True))
    def test_distinct_lemmas_give_distinct_iris(self, doc, lemmas):
        iris = self._verb_iris(doc, lemmas)
        assert len(set(iris)) == len(lemmas)
        for iri in iris:
            segment = iri.removeprefix(f"{BASE}/verb/")
            assert not set("#/?") & set(segment)

    @settings(max_examples=100, deadline=None)
    @given(sentences=st.lists(sentence_results(), max_size=2))
    def test_generated_results_give_valid_turtle(self, sentences):
        parts = []
        writer = TurtleWriter(parts.append, BASE)
        for s in sentences:
            writer.add(s)
        writer.finish()
        triples = parse_turtle("".join(parts))
        itins = [r for s in sentences for r in s.itinerary_relations]
        assert {t.subject for t in triples
                if t.subject.startswith(f"{BASE}/relation/")} == {
            f"{BASE}/relation/{n}" for n in range(1, len(itins) + 1)}
        directions = [e for r in itins
                      for e in r.origin + r.intermediate + r.destination
                      if e.direction]
        assert len([t for t in triples
                    if t.predicate == VOCAB + "direction"]) == len(directions)

    def test_invalid_base_iri_rejected(self, doc):
        for bad in ("not an iri", "no-scheme", "1http://x", "http://a b",
                    "https://example.org/iti\n", "https://example.org/\x01iti"):
            with pytest.raises(ValueError):
                to_turtle(doc, bad)

    def test_base_iri_with_trailing_slash(self, doc):
        text = to_turtle(doc, "https://example.org/iti/")
        triples = parse_turtle(text)
        assert any(t.subject == "https://example.org/iti/relation/1"
                   for t in triples)

    def test_empty_document_is_header_only(self, lex):
        doc = extract_text("", lex)
        assert parse_turtle(to_turtle(doc, BASE)) == []
