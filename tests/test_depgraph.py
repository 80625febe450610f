import pytest

from itirel import (ConlluParseError, NoMainVerb, StructureError, TokenSpan,
                    dependents, iter_conllu, parse_conllu, root_verb,
                    span_text, subtree_yield, to_conllu)
from itirel.depgraph import base_rel, subtree_ids

from conftest import build


class TestTokenSpan:
    def test_membership_and_length(self):
        s = TokenSpan(3, 6)
        assert 3 in s and 6 in s and 2 not in s and 7 not in s
        assert len(s) == 4

    def test_covers_and_overlaps(self):
        assert TokenSpan(1, 9).covers(TokenSpan(3, 5))
        assert not TokenSpan(3, 5).covers(TokenSpan(1, 9))
        assert TokenSpan(1, 4).overlaps(TokenSpan(4, 8))
        assert not TokenSpan(1, 3).overlaps(TokenSpan(4, 8))

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            TokenSpan(5, 4)
        with pytest.raises(ValueError):
            TokenSpan(0, 2)


class TestParsing:
    def test_empty_input_yields_no_sentences(self):
        assert parse_conllu("") == []
        assert parse_conllu("\n\n") == []

    def test_gold_corpus_shape(self, gold):
        assert len(gold) == 8
        assert set(gold) == {f"gold-0{i}" for i in range(1, 9)}
        g1 = gold["gold-01"]
        assert len(g1.tokens) == 20
        assert g1.text.startswith("Le frère de mon ami a quitté Pau,")

    def test_token_columns(self, gold):
        t = gold["gold-01"].token(7)
        assert (t.form, t.lemma, t.upos, t.head, t.deprel) == \
            ("quitté", "quitter", "VERB", 0, "root")
        # opaque columns preserved
        assert gold["gold-01"].token(8).extras[3] == "SpaceAfter=No"

    def test_multiword_ranges_and_empty_nodes_skipped(self):
        text = ("1-2\tdu\t_\t_\t_\t_\t_\t_\t_\t_\n"
                "1\tde\tde\tADP\t_\t_\t2\tcase\t_\t_\n"
                "2\tle\tle\tDET\t_\t_\t3\tdet\t_\t_\n"
                "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
                "3\tnord\tnord\tNOUN\t_\t_\t0\troot\t_\t_\n")
        (g,) = parse_conllu(text)
        assert [t.id for t in g.tokens] == [1, 2, 3]

    def test_default_sent_id_and_reconstructed_text(self):
        (g,) = parse_conllu("1\tPau\tPau\tPROPN\t_\t_\t0\troot\t_\t_\n")
        assert g.sent_id == "s1"
        assert g.text == "Pau"

    def test_only_the_exact_sent_id_and_text_keys_are_read(self):
        (g,) = parse_conllu("# newdoc id = d1\n# sent_id = a\n"
                            "# text = Il part.\n# text_en = He leaves.\n"
                            "# sent_id_orig = zzz\n# textual note\n"
                            "1\tIl\til\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
                            "2\tpart\tpartir\tVERB\t_\t_\t0\troot\t_\t_\n")
        assert (g.sent_id, g.text) == ("a", "Il part.")

    def test_wrong_column_count_reports_line(self):
        with pytest.raises(ConlluParseError) as err:
            parse_conllu("# sent_id = x\n1\tPau\tPau\n")
        assert err.value.line_no == 2

    def test_non_integer_id_and_head(self):
        with pytest.raises(ConlluParseError):
            parse_conllu("x\tPau\tPau\tPROPN\t_\t_\t0\troot\t_\t_\n")
        with pytest.raises(ConlluParseError):
            parse_conllu("1\tPau\tPau\tPROPN\t_\t_\ty\troot\t_\t_\n")

    def test_structure_errors(self):
        with pytest.raises(StructureError):  # two roots
            build([(1, "a", "a", "NOUN", 0, "root"),
                   (2, "b", "b", "NOUN", 0, "root")])
        with pytest.raises(StructureError):  # no root
            build([(1, "a", "a", "NOUN", 2, "nmod"),
                   (2, "b", "b", "NOUN", 1, "nmod")])
        with pytest.raises(StructureError):  # self-headed
            build([(1, "a", "a", "NOUN", 1, "root"),
                   (2, "b", "b", "NOUN", 0, "root")])
        with pytest.raises(StructureError):  # dangling head
            build([(1, "a", "a", "NOUN", 0, "root"),
                   (2, "b", "b", "NOUN", 9, "nmod")])
        with pytest.raises(StructureError):  # cycle off the root
            build([(1, "a", "a", "NOUN", 2, "nmod"),
                   (2, "b", "b", "NOUN", 1, "nmod"),
                   (3, "c", "c", "VERB", 0, "root")])

    def test_token_lookup_is_bounded(self, gold):
        g = gold["gold-01"]
        assert [g.token(i) for i in range(1, 21)] == list(g.tokens)
        for bad in (0, -1, 21):
            with pytest.raises(KeyError):
                g.token(bad)

    @pytest.mark.parametrize("tid", ["3.", ".1", "1-", "-", "1.2.3", "1-2-3"])
    def test_malformed_id_is_not_skipped(self, tid):
        text = ("1\tIl\til\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
                "2\tpart\tpartir\tVERB\t_\t_\t0\troot\t_\t_\n"
                f"{tid}\t.\t.\tPUNCT\t_\t_\t2\tpunct\t_\t_\n")
        with pytest.raises(ConlluParseError, match="non-integer token id"):
            parse_conllu(text)

    def test_iter_conllu_yields_before_a_later_error(self, gold_text):
        text = gold_text + "\n# sent_id = bad\n1\tPau\tPau\n"
        first = next(iter_conllu(text))
        assert first == parse_conllu(gold_text)[0]
        with pytest.raises(ConlluParseError):
            parse_conllu(text)

    def test_line_iterable_gives_the_same_graphs(self, gold_text):
        assert parse_conllu(iter(gold_text.splitlines(keepends=True))) == \
            parse_conllu(gold_text)
        assert parse_conllu(gold_text.split("\n")) == parse_conllu(gold_text)

    def test_default_ids_count_sentences(self):
        row = "1\tPau\tPau\tPROPN\t_\t_\t0\troot\t_\t_\n"
        graphs = iter_conllu(f"{row}\n\n# sent_id = b\n{row}\n{row}")
        assert [g.sent_id for g in graphs] == ["s1", "b", "s3"]

    @pytest.mark.parametrize("blank", ["\t", " ", "\x0c", "\u2028", "\x85",
                                       "\r"])
    def test_whitespace_only_line_is_an_error(self, blank):
        text = ("# sent_id = a\n# text = Il part.\n"
                f"{blank}\n"
                "1\tIl\til\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
                "2\tpart\tpartir\tVERB\t_\t_\t0\troot\t_\t_\n")
        with pytest.raises(ConlluParseError, match="^line 3: .*whitespace"):
            parse_conllu(text)

    def test_conllu_round_trip(self, gold_text, gold):
        graphs = list(gold.values())
        assert parse_conllu(to_conllu(graphs)) == graphs


class TestSpanText:
    def test_elision_gets_no_space(self, gold):
        g = gold["gold-03"]
        assert span_text(g, TokenSpan(6, 8)) == "j'avais suivi"
        assert span_text(g, TokenSpan(11, 12)) == "l'ascension"

    def test_punctuation_attaches_left(self, gold):
        g = gold["gold-01"]
        assert span_text(g, TokenSpan(8, 10)) == "Pau, pour"

    def test_whole_sentence_matches_text_comment(self, gold):
        g = gold["gold-01"]
        assert span_text(g, g.span()) == g.text


class TestRootVerb:
    def test_compound_tense_resolves_to_participle(self, gold):
        assert gold["gold-01"].token(root_verb(gold["gold-01"])).form == "quitté"
        assert gold["gold-05"].token(root_verb(gold["gold-05"])).form == "sorti"

    def test_simple_tense(self, gold):
        assert root_verb(gold["gold-02"]) == 2

    def test_verbless_sentences_raise(self, gold, taxonomy):
        with pytest.raises(NoMainVerb):
            root_verb(gold["gold-07"])
        with pytest.raises(NoMainVerb):  # copular: root is a NOUN
            root_verb(taxonomy["tax-inclusion"])


class TestSubtrees:
    def test_subject_yield(self, gold):
        g = gold["gold-01"]
        y = subtree_yield(g, 2)
        assert y.span == TokenSpan(1, 5) and y.projective
        assert span_text(g, y.span) == "Le frère de mon ami"

    def test_oblique_yield_includes_its_preposition(self, gold):
        g = gold["gold-01"]
        y = subtree_yield(g, 12)
        assert y.span == TokenSpan(9, 15) and y.projective
        assert span_text(g, TokenSpan(11, 15)) == "une ville près de Lyon"

    def test_leaf_yield(self, gold):
        y = subtree_yield(gold["gold-01"], 8)
        assert y.span == TokenSpan(8, 8) and y.projective

    def test_root_yield_covers_sentence(self, all_graphs):
        for g in all_graphs:
            assert subtree_yield(g, g.root_id).span == g.span()

    def test_non_projective_yield_is_flagged_covering_span(self):
        g = build([(1, "a", "a", "NOUN", 2, "nmod"),
                   (2, "b", "b", "VERB", 0, "root"),
                   (3, "c", "c", "NOUN", 2, "obj"),
                   (4, "d", "d", "NOUN", 1, "nmod")])
        y = subtree_yield(g, 1)
        assert y.span == TokenSpan(1, 4) and not y.projective
        assert subtree_ids(g, 1) == frozenset({1, 4})


class TestDependents:
    def test_label_filter_uses_universal_part(self, gold):
        g = gold["gold-03"]
        assert dependents(g, 4, {"acl"}) == [8]  # acl:relcl

    def test_surface_order_and_no_filter(self, gold):
        g = gold["gold-01"]
        assert dependents(g, 7) == [2, 6, 8, 12, 19, 20]
        assert dependents(g, 7, {"nsubj"}) == [2]
        assert dependents(g, 19, {"case"}) == [17]
        assert dependents(g, 8) == []

    def test_base_rel(self):
        assert base_rel("obl:mod") == "obl"
        assert base_rel("nsubj") == "nsubj"
