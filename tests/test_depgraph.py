import codecs
import io
import random

import pytest

from itirel import (ConlluParseError, NoMainVerb, SentenceGraph,
                    StructureError, TokenSpan, extract_sentence, parse_conllu,
                    read_conllu, root_verb, span_text)
from itirel.depgraph import Token, decode_lines, subtree_ids

from conftest import build
from oracles import closure, covers, overlaps, to_conllu, whole_span


class TestTokenSpan:
    def test_length(self):
        assert len(TokenSpan(3, 6)) == 4
        assert len(TokenSpan(5, 5)) == 1

    def test_covers_and_overlaps(self):
        assert covers(TokenSpan(1, 9), TokenSpan(3, 5))
        assert not covers(TokenSpan(3, 5), TokenSpan(1, 9))
        assert overlaps(TokenSpan(1, 4), TokenSpan(4, 8))
        assert not overlaps(TokenSpan(1, 3), TokenSpan(4, 8))

    def test_invalid_span_rejected(self):
        with pytest.raises(ValueError):
            TokenSpan(5, 4)
        with pytest.raises(ValueError):
            TokenSpan(0, 2)


class TestToken:
    FIELDS = (3, "Pau", "Pau", "PROPN", 2, "obl")

    def test_fields_cannot_be_assigned(self):
        t = Token(*self.FIELDS)
        with pytest.raises(AttributeError):
            t.form = "Lyon"
        assert t.form == "Pau"

    def test_equal_only_to_a_token(self):
        t = Token(*self.FIELDS)
        assert t != tuple(self.FIELDS) and tuple(self.FIELDS) != t
        assert not t == tuple(self.FIELDS)
        assert t == Token(*self.FIELDS)
        assert t != Token(*self.FIELDS[:-1], "obl:mod")

    def test_equal_tokens_hash_equal(self):
        assert hash(Token(*self.FIELDS)) == hash(Token(*self.FIELDS))
        assert len({Token(*self.FIELDS), Token(*self.FIELDS)}) == 1

    def test_keyword_construction(self):
        t = Token(id=3, form="Pau", lemma="Pau", upos="PROPN", head=2,
                  deprel="obl")
        assert t == Token(*self.FIELDS)


class TestSentenceGraph:
    @pytest.mark.parametrize("head", [-1, 3])
    def test_a_head_outside_the_sentence_is_refused(self, head):
        # the parser's check: a graph built directly is refused the same way
        tokens = (Token(1, "Il", "il", "PRON", 2, "nsubj"),
                  Token(2, "part", "partir", "VERB", head, "root"))
        with pytest.raises(StructureError, match="has dangling head"):
            SentenceGraph("s", "Il part", tokens)

    @pytest.mark.parametrize("rows, message", [
        ([(2, "part", "partir", "VERB", 0, "root"),
          (1, "Il", "il", "PRON", 2, "nsubj")],
         "token id 2 where 1 was expected"),
        ([(1, "a", "a", "NOUN", 0, "root"),
          (2, "b", "b", "NOUN", 0, "root")],
         "expected exactly one root, found 2"),
        ([(1, "a", "a", "NOUN", 2, "nmod"),
          (2, "b", "b", "NOUN", 1, "nmod"),
          (3, "c", "c", "VERB", 0, "root")],
         "cyclic head links"),
    ], ids=["ids-2-1", "two-roots", "cycle"])
    def test_a_graph_built_directly_is_checked_as_parsed(self, rows,
                                                          message):
        with pytest.raises(StructureError) as parsed:
            build(rows, sent_id="t1")
        with pytest.raises(StructureError) as direct:
            SentenceGraph("t1", "", tuple(Token(*row) for row in rows))
        assert str(direct.value) == str(parsed.value) == \
            f"sentence 't1': {message}"


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

    def test_token_columns(self, gold, gold_text):
        t = gold["gold-01"].token(7)
        assert (t.form, t.lemma, t.upos, t.head, t.deprel) == \
            ("quitté", "quitter", "VERB", 0, "root")
        # XPOS, FEATS, DEPS and MISC are not kept
        assert parse_conllu(gold_text.replace("SpaceAfter=No", "_")) == \
            list(gold.values())

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

    @pytest.mark.parametrize("columns", [9, 11])
    def test_a_token_line_of_small_ids_needs_ten_columns(self, columns):
        row = "\t".join(["1", "Pau", "Pau", "PROPN", "_", "_", "0", "root",
                         "_", "_", "_"][:columns])
        with pytest.raises(ConlluParseError, match=(
                f"^line 2: expected 10 tab-separated columns, got "
                f"{columns}$")):
            parse_conllu(f"# sent_id = x\n{row}\n")

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

    @pytest.mark.parametrize("column", [0, 6], ids=["id", "head"])
    @pytest.mark.parametrize("number", [
        "+1", " 1", "1 ", "\u0661", "1_0", "\uff11", "--1", "1\u0300",
        pytest.param("7" * 5000, id="5000-digits")])
    def test_only_ascii_digits_are_integers(self, column, number):
        """int() alone reads the first six as numbers; the digits are more
        than it reads by default."""
        row = ["1", "Pau", "Pau", "PROPN", "_", "_", "0", "root", "_", "_"]
        row[column] = number
        what = "token id" if column == 0 else "head"
        with pytest.raises(ConlluParseError,
                           match=f"^line 1: non-integer {what} "):
            parse_conllu("\t".join(row) + "\n")

    def test_leading_zeros_are_still_integers(self):
        g, = parse_conllu("01\tIl\til\tPRON\t_\t_\t002\tnsubj\t_\t_\n"
                          "2\tpart\tpartir\tVERB\t_\t_\t00\troot\t_\t_\n")
        assert [(t.id, t.head) for t in g.tokens] == [(1, 2), (2, 0)]

    def test_read_conllu_yields_before_a_later_error(self, gold_text):
        data = (gold_text + "\n# sent_id = bad\n1\tPau\tPau\n").encode()
        graphs = read_conllu(io.BytesIO(data))
        assert next(graphs) == parse_conllu(gold_text)[0]
        with pytest.raises(ConlluParseError):
            list(graphs)

    def test_default_ids_count_sentences(self):
        row = "1\tPau\tPau\tPROPN\t_\t_\t0\troot\t_\t_\n"
        graphs = parse_conllu(f"{row}\n\n# sent_id = b\n{row}\n{row}")
        assert [g.sent_id for g in graphs] == ["s1", "b", "s3"]

    @pytest.mark.parametrize("blank", ["\t", " ", "\x0c", "\u2028", "\x85"])
    def test_whitespace_only_line_is_an_error(self, blank):
        text = ("# sent_id = a\n# text = Il part.\n"
                f"{blank}\n"
                "1\tIl\til\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
                "2\tpart\tpartir\tVERB\t_\t_\t0\troot\t_\t_\n")
        with pytest.raises(ConlluParseError, match="^line 3: .*whitespace"):
            parse_conllu(text)

    def test_a_cr_before_an_lf_is_one_line_end(self):
        """Not a line of whitespace: "\\r\\n" ends line 2, and the empty
        line 3 ends a sentence of no tokens, so its comments are dropped."""
        text = ("# sent_id = a\n# text = Il part.\n"
                "\r\n"
                "1\tIl\til\tPRON\t_\t_\t2\tnsubj\t_\t_\n"
                "2\tpart\tpartir\tVERB\t_\t_\t0\troot\t_\t_\n")
        (g,) = parse_conllu(text)
        assert (g.sent_id, g.text) == ("s1", "Il part")
        assert [g] == parse_conllu(text.replace("\r\n", "\n"))

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_other_line_ends_give_the_same_graphs(self, gold_text,
                                                  taxonomy_text, end):
        """The LF text's graphs, from the copy as a string and as bytes."""
        for text in (gold_text, taxonomy_text):
            copy = text.replace("\n", end)
            graphs = parse_conllu(text)
            assert parse_conllu(copy) == graphs
            assert list(read_conllu(io.BytesIO(copy.encode()))) == graphs

    def test_line_iterable_gives_the_same_graphs(self, gold_text,
                                                 taxonomy_text, tmp_path):
        """An iterable of byte lines, such as a file opened ``"rb"``, ends
        them at LF, CRLF and CR, as a string does, so it gives the same
        graphs or the same error."""
        # the first token line, line 3, loses its last column
        bad = gold_text.replace("\t_\t_\n", "\t_\n", 1)
        path = tmp_path / "lines.conllu"
        for end in ("\n", "\r\n", "\r"):
            for text in (gold_text, taxonomy_text):
                data = text.replace("\n", end).encode()
                path.write_bytes(data)
                graphs = parse_conllu(text)
                with open(path, "rb") as f:
                    assert list(read_conllu(f)) == graphs
                assert list(read_conllu(iter(io.BytesIO(data)))) == graphs
            data = bad.replace("\n", end).encode()
            path.write_bytes(data)
            with open(path, "rb") as f:
                for chunks in (f, iter(io.BytesIO(data))):
                    with pytest.raises(ConlluParseError, match=(
                            "^line 3: expected 10 tab-separated columns, "
                            "got 9$")) as err:
                        list(read_conllu(chunks))
                    assert err.value.line_no == 3

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_an_error_has_the_byte_reader_s_line_number(self, gold_text, end):
        """The LF text's error and line, from the copy as a string and as
        bytes."""
        text = gold_text + "\n# sent_id = bad\n1\tPau\tPau\n"
        copy = text.replace("\n", end)
        errors = []
        for read in (lambda: parse_conllu(text), lambda: parse_conllu(copy),
                     lambda: list(read_conllu(io.BytesIO(copy.encode())))):
            with pytest.raises(ConlluParseError) as err:
                read()
            errors.append((err.value.line_no, str(err.value)))
        assert errors[0] == errors[1] == errors[2]
        assert errors[0][1].startswith("line 117: expected 10 ")

    def test_a_long_chunk_gives_the_lines_of_splitlines(self):
        """One chunk of several 64 Ki-character blocks, of lines of every
        length (empty, one character, longer than a block) and of non-ASCII
        text, so that lines straddle each place the text may be cut: LF,
        CRLF and CR ends, with and without a final end, give the lines
        str.splitlines gives, and an invalid byte on a late line its number."""
        rng = random.Random(5)
        text = "abé€𝄞 \t" * 30_000
        lines, size = [], 0
        while size < 5 * 65536:
            n = rng.choice((0, 1, 2, rng.randrange(300), rng.randrange(9000)))
            at = rng.randrange(len(text) - n)
            lines.append(text[at:at + n])
            size += n + 1
        lines.insert(len(lines) // 2, "x" * 150_000)
        k = len(lines) - 3
        for end in ("\n", "\r\n", "\r"):
            for final in (end, ""):
                data = (end.join(lines) + final).encode("utf-8")
                assert list(decode_lines([data], ConlluParseError)) \
                    == (end.join(lines) + final).splitlines()
            at = len((end.join(lines[:k]) + end).encode("utf-8"))
            with pytest.raises(ConlluParseError) as err:
                list(decode_lines([data[:at] + b"\xff" + data[at:]],
                                  ConlluParseError))
            assert err.value.line_no == k + 1

    def test_one_byte_order_mark_at_the_start_is_dropped(self):
        bom = codecs.BOM_UTF8
        data = bom + bom + b"a\n" + bom + b"b\n"
        for chunks in ([data], io.BytesIO(data)):
            assert list(decode_lines(chunks, ConlluParseError)) \
                == ["\ufeffa", "\ufeffb"]

    def test_one_byte_order_mark_before_text_is_dropped(self, gold_text,
                                                         gold, tmp_path):
        graphs = list(gold.values())
        path = tmp_path / "bom.conllu"
        path.write_bytes(codecs.BOM_UTF8 + gold_text.encode("utf-8"))
        with open(path, "rb") as f:
            assert list(read_conllu(f)) == graphs
        assert parse_conllu("\ufeff" + gold_text) == graphs
        with pytest.raises(ConlluParseError, match="^line 1: expected"):
            parse_conllu("\ufeff\ufeff" + gold_text)

    def test_bytes_read_as_their_text(self, gold_text, gold):
        """read_conllu gives the graphs and the first error of the text
        decode_lines gives: one leading byte order mark dropped, a second
        read as text, and an invalid byte's error after a malformed
        line's."""
        graphs = list(gold.values())
        data = gold_text.encode("utf-8")
        bom = codecs.BOM_UTF8
        for chunks in ([data], io.BytesIO(data), [bom + data]):
            assert list(read_conllu(chunks)) == graphs
        with pytest.raises(ConlluParseError, match="^line 1: expected"):
            list(read_conllu([bom + bom + data]))
        bad = data + b"# sent_id = bad\n1\tPau\tPau\n\xff\n"
        with pytest.raises(ConlluParseError, match=(
                "^line 116: expected 10 tab-separated columns, got 3$")):
            list(read_conllu([bad]))

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
        assert span_text(g, whole_span(g)) == g.text


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
        assert subtree_ids(g, 2) == frozenset(range(1, 6))
        assert span_text(g, TokenSpan(1, 5)) == "Le frère de mon ami"

    def test_oblique_yield_includes_its_preposition(self, gold):
        g = gold["gold-01"]
        assert subtree_ids(g, 12) == frozenset(range(9, 16))
        assert span_text(g, TokenSpan(11, 15)) == "une ville près de Lyon"

    def test_leaf_yield(self, gold):
        assert subtree_ids(gold["gold-01"], 8) == frozenset({8})

    def test_root_yield_covers_sentence(self, all_graphs):
        for g in all_graphs:
            assert subtree_ids(g, g.root_id) \
                == frozenset(range(1, len(g.tokens) + 1))

    def test_non_projective_yield_is_flagged_covering_span(self):
        g = build([(1, "a", "a", "NOUN", 2, "nmod"),
                   (2, "b", "b", "VERB", 0, "root"),
                   (3, "c", "c", "NOUN", 2, "obj"),
                   (4, "d", "d", "NOUN", 1, "nmod")])
        assert subtree_ids(g, 1) == frozenset({1, 4})

    def test_an_id_that_is_not_a_token_raises(self, gold):
        g = gold["gold-01"]
        for token_id in (0, -1, len(g.tokens) + 1):
            with pytest.raises(KeyError):
                subtree_ids(g, token_id)


class TestDeepTrees:
    """A VERB over a chain of 3,000 ``obj`` NOUNs, each below the one
    before, deeper than Python's recursion limit; a relative clause on the
    first object makes extraction walk the whole chain (UC2)."""

    @pytest.fixture(scope="class")
    def chain(self):
        return build([(1, "voit", "voir", "VERB", 0, "root")]
                     + [(i, f"n{i}", f"n{i}", "NOUN", i - 1, "obj")
                        for i in range(2, 3002)]
                     + [(3002, "dort", "dormir", "VERB", 2, "acl:relcl")])

    def test_subtrees_match_the_closure(self, chain):
        for token_id in (1, 1500, 3001):
            assert subtree_ids(chain, token_id) \
                == frozenset(closure(chain.tokens, token_id))

    def test_extraction_walks_the_whole_chain(self, chain, lex):
        (relation,) = extract_sentence(chain, lex).nary_relations
        obj, detail = relation.arguments
        assert (obj.span, obj.pivot) == (TokenSpan(2, 3001), 2)
        assert (detail.span, detail.role) == (TokenSpan(3002, 3002), "detail")


class TestChildren:
    def test_a_relation_is_its_universal_part(self, gold):
        g = gold["gold-03"]
        assert g.token(8).deprel == "acl:relcl"
        assert 8 in g.children(4) and g.rels[8] == "acl"

    def test_surface_order(self, gold):
        g = gold["gold-01"]
        assert g.children(7) == (2, 6, 8, 12, 19, 20)
        assert g.children(8) == ()

    def test_an_id_that_is_no_token_has_no_children(self, gold):
        g = gold["gold-01"]
        assert g.children(len(g.tokens) + 1) == ()
        assert g.children(-1) == ()
