import codecs
import hashlib
import io
import json
import re
import string
import unicodedata
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, example, given, settings, strategies as st

import itirel
from itirel import (LexiconSet, SentenceGraph, StructureError,
                    recognize_spatial, recognize_temporal, load_lexicons,
                    TokenSpan)
from itirel import entities
from itirel.cli import EXIT_CONLLU, EXIT_LEXICON, EXIT_OK, main
from itirel.depgraph import (NoMainVerb, Token, _surface, decode_lines,
                             root_verb, span_text, subtree_ids)
from itirel.lexicon import (LexiconError, SpatialRelationKind, canon_word,
                            lemma_key, normalize, phrase_index)
from itirel.nary import _argument, extract_nary, identify_use_cases

from conftest import _gold_file
from oracles import (argument_ids, clause_use_cases, closure, covers,
                     longest_match, main_verb, nary_relations,
                     normalize_two_regex, overlaps, reference_load_gazetteer,
                     reference_parse, reference_surface, save_lexicons,
                     to_conllu, ungated_scan, whole_span)
from turtle_check import parse_turtle

_UPOS = ("NOUN", "VERB", "ADP", "DET", "PROPN", "PUNCT", "ADV")
_DEPRELS = ("nsubj", "obj", "obl", "nmod", "case", "det", "punct", "advmod")
_SUBTYPED = ("obl:mod", "nmod:poss", "acl:relcl")


@st.composite
def random_trees(draw):
    """Random single-rooted dependency graphs, any token may be the root."""
    n = draw(st.integers(min_value=1, max_value=10))
    order = draw(st.permutations(list(range(1, n + 1))))
    heads = {order[0]: 0}
    for k in range(1, n):
        heads[order[k]] = draw(st.sampled_from(order[:k]))
    tokens = tuple(
        Token(id=i, form=f"w{i}", lemma=f"w{i}",
              upos=draw(st.sampled_from(_UPOS)), head=heads[i],
              deprel="root" if heads[i] == 0
              else draw(st.sampled_from(_DEPRELS + _SUBTYPED)))
        for i in range(1, n + 1))
    return SentenceGraph(sent_id="prop", text="prop", tokens=tokens)


@settings(max_examples=60, deadline=None)
@given(random_trees())
def test_subtree_ids_match_head_chain_closure(g):
    for t in g.tokens:
        assert subtree_ids(g, t.id) == frozenset(closure(g.tokens, t.id))


@settings(max_examples=60, deadline=None)
@given(random_trees())
def test_children_and_relations_match_the_head_column(g):
    for t in g.tokens:
        assert g.rels[t.id] == t.deprel.split(":", 1)[0]
        assert g.children(t.id) == tuple(u.id for u in g.tokens
                                         if u.head == t.id)


@settings(max_examples=60, deadline=None)
@given(random_trees())
def test_root_yield_covers_every_token(g):
    assert subtree_ids(g, g.root_id) == frozenset(t.id for t in g.tokens)


# forms of elisions (' and ’, not ‘), letters or nothing, some of them PUNCT
_SURFACE_TOKENS = st.lists(st.tuples(st.text(alphabet="'’‘aB", max_size=3),
                                     st.sampled_from(_UPOS)), max_size=8)


@settings(max_examples=300, deadline=None)
@example([("l'", "DET"), ("", "NOUN"), ("’", "PUNCT"), ("j’", "PRON"),
          ("a", "VERB"), ("‘", "NOUN")])
@given(rows=_SURFACE_TOKENS)
def test_surface_text_agrees_with_the_reference(rows):
    """No space before a PUNCT token, none after a form ending in ' or ’,
    none before the first token: ``_surface`` of the tokens and
    ``span_text`` of every span give the reference's text."""
    tokens = tuple(Token(i, form, form, upos, 0 if i == 1 else 1,
                         "root" if i == 1 else "dep")
                   for i, (form, upos) in enumerate(rows, 1))
    assert _surface(tokens) == reference_surface(tokens)
    if not tokens:
        return
    g = SentenceGraph(sent_id="surface", text="surface", tokens=tokens)
    for first in range(1, len(tokens) + 1):
        for last in range(first, len(tokens) + 1):
            assert span_text(g, TokenSpan(first, last)) == reference_surface(
                tokens[first - 1:last])


# the words of the reason markers and of « comme », which marks, case
# markers and what they govern are drawn from
_CLAUSE_WORDS = ("pour", "car", "parce", "que", "comme", "Comme", "de")
# an enumeration item may be punctuation alone, which gives no argument
_ITEMS = ("PROPN", "PROPN", "PUNCT")


@st.composite
def random_clauses(draw):
    """Random sentences built from the pieces the use-case patterns read: a
    main verb (now and then a noun, so none), maybe under an auxiliary, and
    coordinated verbs, with subjects, objects and obliques that may have
    case markers, relative clauses and enumerations, adverbial clauses with
    marks, and punctuation, in any surface order.  In random_trees these
    pieces hardly ever meet: 400 examples gave no UC1, UC3 or UC4 relation."""
    rows = []  # (head row or -1, upos, deprel, form)

    def add(head, upos, deprel, form="x"):
        rows.append((head, upos, deprel, form))
        return len(rows) - 1

    def leaf(head, deprel, words=_CLAUSE_WORDS):
        return add(head, "PUNCT" if deprel == "punct" else "ADP", deprel,
                   draw(st.sampled_from(words)))

    def leaves(head, deprels, most=2):
        for deprel in draw(st.lists(st.sampled_from(deprels), max_size=most)):
            leaf(head, deprel)

    def nominal(head, deprel, nested):
        upos = draw(st.sampled_from(("NOUN", "PROPN", "PUNCT")))
        n = add(head, upos, deprel)
        kids = ("case", "case", "case", "nmod", "nmod", "appos", "det",
                "punct")
        for kid in draw(st.lists(st.sampled_from(
                kids if nested else kids + ("acl", "acl:relcl")),
                max_size=2)):
            if kid in ("nmod", "appos"):  # maybe an enumeration
                e = add(n, draw(st.sampled_from(_ITEMS)), kid)
                leaf(e, "case", ("comme", "Comme", "de"))
                leaves(e, ("case", "punct"), 1)
                for _ in range(draw(st.integers(0, 2))):
                    leaves(add(e, draw(st.sampled_from(_ITEMS)), "conj"),
                           ("cc", "case", "punct"))
            elif kid.startswith("acl"):
                clause(n, kid, True)
            else:
                leaf(n, kid)
        return n

    def clause(head, deprel, nested, upos="VERB"):
        v = add(head, upos, deprel)
        parts = ("nsubj", "csubj", "obj", "iobj", "obl", "obl", "obl:mod",
                 "advcl", "punct")
        for part in draw(st.lists(st.sampled_from(parts), min_size=1,
                                  max_size=2 if nested else 4)):
            if part == "advcl" and draw(st.booleans()):
                # a reason clause of punctuation only gives no argument
                c = add(v, "PUNCT", part)
                leaf(c, "mark", ("pour", "car"))
                leaves(c, ("punct",))
            elif part == "advcl":
                c = add(v, "VERB", part)
                for _ in range(draw(st.integers(0, 2))):
                    leaves(leaf(c, "mark"), ("fixed",), 1)
                leaves(c, ("obj", "punct"))
            elif part == "punct":
                leaf(v, part)
            else:
                nominal(v, part, nested)
        return v

    aux = draw(st.booleans())
    main = clause(add(-1, "AUX", "root") if aux else -1,
                  "xcomp" if aux else "root", False,
                  draw(st.sampled_from(("VERB",) * 7 + ("NOUN",))))
    for _ in range(draw(st.integers(0, 1))):
        leaves(clause(main, "conj", False,
                      draw(st.sampled_from(("VERB", "VERB", "NOUN")))),
               ("cc",), 1)
    ids = draw(st.permutations(list(range(1, len(rows) + 1))))
    tokens = sorted(
        Token(id=ids[k], form=form, lemma=form, upos=upos,
              head=0 if head < 0 else ids[head], deprel=deprel)
        for k, (head, upos, deprel, form) in enumerate(rows))
    return SentenceGraph(sent_id="prop", text="prop", tokens=tuple(tokens))


@settings(max_examples=400, deadline=None)
@given(random_clauses())
def test_use_cases_and_pivots_match_the_naive_walks(lex, g):
    assert [u.value for u in identify_use_cases(g)] == \
        clause_use_cases(g.tokens, main_verb(g.tokens))
    relations = extract_nary(g)
    # the pipeline hands the n-ary stage the main verb it found
    result = itirel.extract_sentence(g, lex)
    assert result.nary_relations == tuple(relations)
    try:
        root_verb(g)
    except NoMainVerb:
        event("no main verb")
        assert result.skips == ("no main verb",)
    else:
        assert result.skips == ()
    assert [(r.use_case.value, r.predicate_token,
             [(a.pivot, a.role) for a in r.arguments])
            for r in relations] == nary_relations(g.tokens)
    for r in relations:
        event(r.use_case.value)
        # only a clause's one subject pivot gets the role
        assert [a.role for a in r.arguments].count("subj") <= 1
    # a relation is found again by equality, so none share use case,
    # lemma and argument multiset
    keys = {(r.use_case, r.predicate_lemma,
             frozenset(Counter(r.arguments).items())) for r in relations}
    assert len(keys) == len(relations)


def _covering_span(ids) -> TokenSpan:
    return TokenSpan(min(ids), max(ids))


@settings(max_examples=60, deadline=None)
@given(random_trees())
def test_sibling_yields_disjoint_when_tree_projective(g):
    if not all(len(ids) == len(_covering_span(ids))
               for ids in (subtree_ids(g, t.id) for t in g.tokens)):
        return
    for t in g.tokens:
        kids = g.children(t.id)
        spans = [_covering_span(subtree_ids(g, c)) for c in kids]
        for i, a in enumerate(spans):
            for b in spans[i + 1:]:
                assert not overlaps(a, b)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_argument_is_the_head_closure_minus_its_cut_children(data):
    g = data.draw(random_trees())
    head = data.draw(st.sampled_from(g.tokens)).id
    cut = data.draw(st.lists(st.sampled_from(g.children(head)), unique=True)
                    if g.children(head) else st.just([]))
    arg = _argument(g, head, "role", cut)
    ids = argument_ids(g.tokens, head, cut)
    if not ids:
        assert arg is None
        return
    assert (arg.span.first, arg.span.last) == (ids[0], ids[-1])
    assert arg.text == reference_surface(g.tokens[ids[0] - 1:ids[-1]])
    assert arg.flagged == (len(ids) != ids[-1] - ids[0] + 1)


_word = st.text(alphabet=string.ascii_lowercase + "àéèêç",
                min_size=1, max_size=6)
_phrase = st.lists(_word, min_size=1, max_size=3).map(" ".join)


@settings(max_examples=30, deadline=None)
@given(markers=st.dictionaries(_phrase, st.sampled_from(
           list(SpatialRelationKind)[:-1]), max_size=5),
       gazetteer=st.dictionaries(_word, st.just("city"), max_size=5),
       units=st.dictionaries(_word, st.sampled_from(["spatial", "temporal"]),
                             max_size=5))
def test_lexicon_save_load_round_trip(tmp_path_factory, markers, gazetteer,
                                      units):
    markers = {normalize(k): v for k, v in markers.items() if normalize(k)}
    lex = LexiconSet(motion_verbs={"sortir": itirel.VerbPolarity.INITIAL},
                     spatial_markers=markers, temporal_markers={},
                     gazetteer=gazetteer, units=units)
    target = tmp_path_factory.mktemp("lex")
    save_lexicons(lex, target)
    assert load_lexicons(target) == lex


@settings(max_examples=100, deadline=None)
@given(files=st.lists(st.binary(max_size=200), min_size=5, max_size=5))
def test_files_digest_is_sha256_of_the_framed_files(files):
    """Whichever SHA-256 the interpreter gives files_digest (_sha2, _sha256
    or hashlib's), it is hashlib's digest of each file's name, a NUL, its
    bytes and a NUL, in FILE_NAMES order."""
    named = dict(zip(itirel.lexicon.FILE_NAMES, files))
    framed = b"".join(name.encode("utf-8") + b"\0" + data + b"\0"
                      for name, data in named.items())
    assert itirel.lexicon.files_digest(dict(reversed(named.items()))) \
        == hashlib.sha256(framed).hexdigest()


# Words that tie after case folding, NFC/NFD spellings of the same word,
# elided articles in several apostrophes (alone and glued to the next word),
# and contractions that fold to the same preposition.
_MATCH_WORDS = ("de", "De", "du", "des", "d'", "à", "À", "au", "aux",
                "l'", "L’", "ouest", "Ouest", "l'Ouest", "près", "pre\u0300s",
                "PRÈS", "tout", "Pic", "pic", "Midi", "Pau", "PAU", "pau", "x")
_match_phrase = st.lists(st.sampled_from(_MATCH_WORDS[:-1]), min_size=1,
                         max_size=4).map(" ".join)


def _string_keyed(match):
    """A ``longest_match`` result with its tuple of words joined by one
    space, as a PhraseIndex key is."""
    if match is None:
        return None
    n, words, phrase, value = match
    return n, " ".join(words), phrase, value


@settings(max_examples=200, deadline=None)
# a form of two words ("l'Ouest") is one token, never two words of a phrase
@example(phrases={"de l'Ouest": 0}, forms=["de", "l'Ouest"], fold=str)
@given(phrases=st.dictionaries(_match_phrase, st.integers(0, 3), max_size=12),
       forms=st.lists(st.sampled_from(_MATCH_WORDS), max_size=8),
       fold=st.sampled_from([str, canon_word]))
def test_phrase_index_agrees_with_linear_scan(phrases, forms, fold):
    toks = [Token(id=i, form=f, lemma=f, upos="X", head=0, deprel="dep")
            for i, f in enumerate(forms, 1)]
    words = [normalize(t.form) for t in toks]
    index = phrase_index(phrases, fold=fold)
    for i in range(len(toks)):
        assert index.match(words, i) == _string_keyed(
            longest_match(toks, i, phrases, fold))
    # the words match reads: a word starts a phrase iff its fold does
    for word in {w for form in _MATCH_WORDS for w in normalize(form).split()}:
        assert (word in index.starts) == (fold(word) in index.first_words)


# Whitespace that str.split() and re's \s both split at (NEL, no-break
# space, the information separators), combining marks, every apostrophe
# normalize turns into a space, letters that change under NFC or case
# folding, and ASCII capitals and digits.  An ASCII word of letters and
# digits takes normalize's lower() path; one with a non-ASCII letter or
# digit (é, ß, İ, ²) does not.
_NORM_CHARS = ("ab Pé\t\n\r\x0b\x0c\x85\xa0\x1c\x1d\x1e\x1f\u1680\u2000"
               "\u2028\u2029\u202f\u3000\u200b\u0300\u0301\u0327\u0308"
               "'’‘ʼ`ßİΣﬁÅ²ZQ09")


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet=_NORM_CHARS, max_size=12) | st.text(max_size=12)
       | st.from_regex(r"[A-Za-z0-9]+", fullmatch=True)
       | st.text(alphabet="aZ09éßİ²", min_size=1, max_size=6))
def test_normalize_agrees_with_two_regex_version(text):
    assert normalize(text) == normalize_two_regex(text)


# Magnitudes, days and years are ASCII digits: the entity rules test a form
# with ``isascii() and isdigit()``, which is ``[0-9]+`` whole
@settings(max_examples=300, deadline=None)
@example("")
@example("٣")
@example("²")
@example("１")
@example("+1")
@example("1_0")
@example(" 1")
@example("0" * 5000)
@given(text=st.text() | st.text(alphabet="09٣²１+_ \n", max_size=6))
def test_the_digit_test_is_the_ascii_digit_regex(text):
    assert (text.isascii() and text.isdigit()) == bool(
        re.fullmatch("[0-9]+", text))


# Letters whose case fold expands (ß, ŉ, ǰ, ΐ, ﬁ, İ, ẞ) or that NFC composes
# from a letter and a mark, the combining marks that follow them, an
# apostrophe, a space and ASCII letters.
_FOLD_CHARS = ("aAsSßŉǰΐﬁİẞÅΣ\u0300\u0301\u0307\u030c\u0327\u0342\u0345"
               " '")


@settings(max_examples=300, deadline=None)
@example("ß\u0301")  # folds to "ss\u0301", which NFC makes "s\u015b"
@given(text=st.text(alphabet=_FOLD_CHARS, max_size=8) | st.text(max_size=8))
def test_the_fold_is_a_fixed_point(text):
    """normalize and lemma_key give a text's key whether they read the
    text, its key or any canonically equivalent spelling of either."""
    for fold in (normalize, lemma_key):
        key = fold(text)
        for spelling in (text, key):
            for form in ("NFC", "NFD"):
                assert fold(unicodedata.normalize(form, spelling)) == key
        assert fold(key) == key


_toponym = st.lists(st.text(alphabet="aAéÉe\u0301 '’`\xa0", min_size=1,
                            max_size=4), min_size=1, max_size=3).map(
    lambda parts: "".join(parts).strip()).filter(normalize)


@settings(max_examples=100, deadline=None)
@given(gazetteer=st.dictionaries(_toponym, st.sampled_from(["", "city",
                                                             "peak"]),
                                 max_size=12),
       data=st.data())
def test_gazetteer_index_built_at_load_equals_rebuilt_one(
        tmp_path_factory, gazetteer, data):
    lines = [f"{name}\t{ftype}" for name, ftype in gazetteer.items()]
    lines += data.draw(st.lists(st.sampled_from(lines), max_size=4)
                       if lines else st.just([]))  # same-type repeats
    lines = data.draw(st.permutations(lines))
    end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lexdir = tmp_path_factory.mktemp("lex")
    for name in itirel.lexicon.FILE_NAMES:
        (lexdir / name).write_bytes(
            (itirel.bundled_lexicon_dir() / name).read_bytes())
    (lexdir / "gazetteer.tsv").write_bytes(
        "".join(line + end for line in lines).encode("utf-8"))
    lex = load_lexicons(lexdir)
    built, rebuilt = lex.gazetteer_index, phrase_index(lex.gazetteer)
    assert built.entries == rebuilt.entries
    assert built.max_len == rebuilt.max_len
    assert built.first_words == rebuilt.first_words


# Names with ASCII apostrophes, other apostrophes, padding and runs of
# spaces, and non-ASCII names whose words equal another name's only after
# NFC and case folding (é and e + U+0301, ß and SS, İ and i + U+0307).
_GAZ_NAMES = ("Pau", "PAU", "pau", " Pau ", "Pic du Midi", "pic du  midi",
              "l'Isle", "L`isle", "l’Isle", "Béarn", "Be\u0301arn", "Straße",
              "STRASSE", "İzmir", "i\u0307zmir", "Saint-Jean")
_GAZ_TYPES = ("", "city", "peak", " city")


@st.composite
def gazetteer_files(draw):
    """gazetteer.tsv bytes: rows of drawn names, then same-type and maybe
    conflicting duplicates, 3-column rows, names of apostrophes only,
    comments and blank lines, in any order, each line ended by LF, CRLF or
    CR, maybe a final end, a byte order mark and one invalid byte."""
    types = draw(st.dictionaries(st.sampled_from(_GAZ_NAMES),
                                 st.sampled_from(_GAZ_TYPES), max_size=8))
    rows = [f"{name}\t{ftype}" if ftype.strip() or draw(st.booleans())
            else name for name, ftype in types.items()]
    name = st.sampled_from(_GAZ_NAMES)
    rows += draw(st.lists(st.one_of(
        st.sampled_from(rows) if rows else st.nothing(),
        st.builds("{}\t{}".format, name, st.sampled_from(_GAZ_TYPES)),
        st.builds("{}\tcity\tFR".format, name),
        st.sampled_from(["'\tcity", "’", "' `\tpeak"]),
        st.sampled_from(["# types", "  # indented", "", " \t "])),
        max_size=4))
    rows = draw(st.permutations(rows))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(rows), max_size=len(rows)))
    text = "".join(map(str.__add__, rows, ends))
    if ends and not draw(st.booleans()):
        text = text.removesuffix(ends[-1])
    data = text.encode("utf-8")
    if draw(st.booleans()):
        data = codecs.BOM_UTF8 + data
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=150, deadline=None)
@given(data=gazetteer_files())
def test_gazetteer_load_agrees_with_reference_loader(tmp_path_factory, data):
    """The gazetteer, its index and the problems of load_lexicons are those
    of the reference loader, orders and line numbers included."""
    lexdir = tmp_path_factory.mktemp("lex")
    for name in itirel.lexicon.FILE_NAMES:
        (lexdir / name).write_bytes(
            (itirel.bundled_lexicon_dir() / name).read_bytes())
    (lexdir / "gazetteer.tsv").write_bytes(data)
    gazetteer, entries, max_len, starts, problems = \
        reference_load_gazetteer(data)
    try:
        lex = load_lexicons(lexdir)
    except LexiconError as err:
        event("problems")
        assert err.problems == problems
        return
    assert problems == []
    assert list(lex.gazetteer.items()) == list(gazetteer.items())
    index = lex.gazetteer_index
    # the keys, in order, each the reference's words joined by one space
    assert list(index.entries) == [" ".join(words) for words in entries]
    assert {key: index.match(key.split(), 0)[2:] for key in index.entries} \
        == {" ".join(words): entry[1:] for words, entry in entries.items()}
    assert index.max_len == max_len
    assert index.starts == starts


# Phrases of numbers, units, months, markers and toponyms: their runs reach
# every recognition rule, a distance marker's look-back and a marker whose
# rule fails included.  A run is drawn from the spatial phrases, the
# temporal ones or both, and a measure is one phrase, so that each rule's
# patterns come often.
_SPATIAL_PHRASES = ("à", "3 km", "de", "près de", "au nord de", "le", "dans",
                    "triangle", "Pau", "Lyon", "Laruns", "Foix", "et", ",")
_TEMPORAL_PHRASES = ("depuis", "après", "dans", "3 jours", "deux ans", "2010",
                     "mai", "5 mai", "le", "part")
_RUN_LEMMAS = {"jours": "jour", "ans": "an", "part": "partir"}
_RUN_UPOS = {"le": "DET", "et": "CCONJ", ",": "PUNCT", "part": "VERB",
             **dict.fromkeys(("Pau", "Lyon", "Laruns", "Foix", "Pic",
                              "Fourcade", "Tarbes", "tarbes"), "PROPN")}


# The tokens the scan's gates read: contracted markers, a toponym only loose
# matching reads (and its lower-case form), numbers in ASCII and in other
# digits, units and months.
_GATE_PHRASES = ("du", "aux", "au nord de", "près de", "à", "3 km de",
                 "depuis", "il y a", "Pic de la Fourcade", "Pau", "Tarbes",
                 "tarbes", "3", "05 mai", "٣ mai", "١٩٩٠", "2010", "deux",
                 "jours", "mai", "Mai", "le", ",")


@st.composite
def entity_runs(draw, phrase_sets=(_SPATIAL_PHRASES, _TEMPORAL_PHRASES,
                                   _SPATIAL_PHRASES + _TEMPORAL_PHRASES)):
    """A flat graph of a drawn run of entity phrases, each word after the
    first under it."""
    phrases = draw(st.sampled_from(phrase_sets))
    words = " ".join(draw(st.lists(st.sampled_from(phrases), min_size=1,
                                   max_size=8))).split()
    return SentenceGraph("run", "run", tuple(
        Token(i, w, _RUN_LEMMAS.get(w, w), _RUN_UPOS.get(w, "X"), int(i > 1),
              "dep" if i > 1 else "root") for i, w in enumerate(words, 1)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_entity_disjointness_and_determinism(data, all_graphs, lex):
    """A second call gives the same entities, and no two spatial, or two
    temporal, entities overlap, on the corpora and on runs of entity
    words."""
    g = data.draw(st.sampled_from(all_graphs) | entity_runs())
    loose = data.draw(st.booleans())
    for ents, again in (
            (recognize_spatial(g, whole_span(g), lex, loose),
             recognize_spatial(g, whole_span(g), lex, loose)),
            (recognize_temporal(g, whole_span(g), lex),
             recognize_temporal(g, whole_span(g), lex))):
        assert ents == again
        for i, a in enumerate(ents):
            for b in ents[i + 1:]:
                assert not overlaps(a.span, b.span)


def _check_scan_gates(g, lex):
    """At every token of every span of ``g`` that the scan's gates skip, no
    marker matches (by the linear scan) and the recognizer's fallback finds
    nothing: spatial, strict and loose, and temporal.  The gates, as the
    scan states them: a marker index's ``starts``; a gazetteer start word,
    or with loose a capitalized PROPN; a month, or ASCII digits.  So on
    every span the recognizers find what a scan that tries every rule at
    every token finds."""
    spatial = lex.spatial_marker_index.starts
    temporal = lex.temporal_marker_index.starts
    toponyms = lex.gazetteer_index.starts
    words = [normalize(t.form) for t in g.tokens]
    capitalized = {i for i, t in enumerate(g.tokens)
                   if t.upos == "PROPN" and t.form[:1].isupper()}
    skipped = {"spatial": set(), "temporal": set()}
    for i, w in enumerate(words):
        if w not in spatial and w not in toponyms:
            skipped["spatial"].add(i)
        if not (w in temporal or w in entities.MONTHS
                or w.isascii() and w.isdigit()):
            skipped["temporal"].add(i)
    skipped["loose"] = skipped["spatial"] - capitalized
    # a phrase that matches in a span matches in the sentence
    for i in skipped["spatial"]:
        assert longest_match(g.tokens, i, lex.spatial_markers,
                             canon_word) is None
        assert longest_match(g.tokens, i, lex.gazetteer) is None
    for i in skipped["temporal"]:
        assert longest_match(g.tokens, i, lex.temporal_markers,
                             canon_word) is None
    for first in range(len(g.tokens)):
        for last in range(first + 1, len(g.tokens) + 1):
            toks, ws = g.tokens[first:last], words[first:last]
            span = TokenSpan(first + 1, last)
            for loose in (False, True):
                loose_at = {k - first for k in capitalized
                            if first <= k < last} if loose else ()

                def bare_toponym(i):
                    return entities._bare_toponym(toks, ws, i, lex, loose_at)

                for i in skipped["loose" if loose else "spatial"]:
                    if first <= i < last:
                        assert bare_toponym(i - first) is None
                assert recognize_spatial(g, span, lex, loose) == ungated_scan(
                    toks, lex.spatial_markers, canon_word,
                    lambda i, m: entities._spatial_from_marker(
                        toks, ws, i, _string_keyed(m), lex, loose_at),
                    bare_toponym)
            for i in skipped["temporal"]:
                if first <= i < last:
                    assert entities._bare_date(toks, ws, i - first, lex,
                                               ()) is None
            assert recognize_temporal(g, span, lex) == ungated_scan(
                toks, lex.temporal_markers, canon_word,
                lambda i, m: entities._temporal_from_marker(
                    toks, ws, i, _string_keyed(m), lex, ()),
                lambda i: entities._bare_date(toks, ws, i, lex, ()))


def test_scan_gates_skip_only_tokens_that_start_nothing(all_graphs,
                                                        figurative, lex):
    for g in all_graphs + list(figurative.values()):
        _check_scan_gates(g, lex)


@settings(max_examples=60, deadline=None)
@given(g=entity_runs((_GATE_PHRASES,)))
def test_scan_gates_on_runs_of_entity_words(g, lex):
    _check_scan_gates(g, lex)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gazetteer_monotonicity(data, all_graphs, lex):
    """Adding gazetteer entries never removes a recognized entity; it may
    upgrade or extend one, so every small-lexicon entity must overlap some
    full-lexicon entity."""
    g = data.draw(st.sampled_from(all_graphs))
    names = sorted(lex.gazetteer)
    subset = data.draw(st.sets(st.sampled_from(names)))
    small = LexiconSet(motion_verbs=lex.motion_verbs,
                       spatial_markers=lex.spatial_markers,
                       temporal_markers=lex.temporal_markers,
                       gazetteer={n: lex.gazetteer[n] for n in subset},
                       units=lex.units)
    before = recognize_spatial(g, whole_span(g), small)
    after = recognize_spatial(g, whole_span(g), lex)
    for ent in before:
        assert any(overlaps(ent.span, e.span) for e in after), ent


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_recognition_locality(data, all_graphs, lex):
    """Recognition restricted to a sub-span that does not cut through any
    full-span entity returns exactly the entities inside it."""
    g = data.draw(st.sampled_from(all_graphs))
    first = data.draw(st.integers(1, len(g.tokens)))
    last = data.draw(st.integers(first, len(g.tokens)))
    sub = TokenSpan(first, last)
    for recognize in (recognize_spatial, recognize_temporal):
        full = recognize(g, whole_span(g), lex)
        if any(overlaps(e.span, sub) and not covers(sub, e.span)
               for e in full):
            continue
        inside = [e for e in full if covers(sub, e.span)]
        assert recognize(g, sub, lex) == inside


def test_pipeline_determinism(gold_text, lex):
    runs = []
    for _ in range(2):
        graphs = itirel.parse_conllu(gold_text)
        runs.append(itirel.to_json(itirel.build_document(graphs, lex)))
    assert runs[0] == runs[1]


# Forms and lemmas that reach the markers, toponyms, dates, numbers and motion
# verbs of the bundled lexicons, plus characters Turtle must escape.
_FUZZ_FORMS = ("Pau", "Lyon", "Laruns", "de", "du", "près", "vers", "à", "l'",
               "nord", "janvier", "2010", "3", "km", "depuis", "ans", "et",
               ",", ".", 'a"b', "c\\d")
_FUZZ_LEMMAS = ("sortir", "quitter", "aller", "s'en aller", "partir", "de",
                "le", "Pau")
_FUZZ_UPOS = ("VERB", "AUX", "NOUN", "PROPN", "ADP", "DET", "NUM", "PRON",
              "CCONJ", "PUNCT")
_FUZZ_DEPRELS = ("nsubj", "obj", "obl", "obl:mod", "case", "det", "nmod",
                 "conj", "cc", "advcl", "mark", "acl", "nummod", "punct")


_GOLD_ROWS = [[(t.id, t.form, t.lemma, t.upos, t.head, t.deprel)
               for t in g.tokens]
              for name in ("gold.conllu", "taxonomy.conllu")
              for g in itirel.parse_conllu(_gold_file(name))]


@st.composite
def _random_rows(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    order = draw(st.permutations(list(range(1, n + 1))))
    head = {order[0]: 0}
    for k in range(1, n):
        head[order[k]] = draw(st.sampled_from(order[:k]))
    return [(i, draw(st.sampled_from(_FUZZ_FORMS)),
             draw(st.sampled_from(_FUZZ_LEMMAS)),
             draw(st.sampled_from(_FUZZ_UPOS)), head[i],
             "root" if head[i] == 0 else draw(st.sampled_from(_FUZZ_DEPRELS)))
            for i in range(1, n + 1)]


@st.composite
def conllu_sentences(draw):
    """A valid tree (random, or a gold or taxonomy sentence), then up to
    three edits of its id and head columns: any id (zero, negative,
    duplicate, gap), two neighbouring ids swapped, or any head (negative,
    self, out of range, a second root)."""
    rows = draw(_random_rows() | st.sampled_from(_GOLD_ROWS))
    n = len(rows)
    ids = [r[0] for r in rows]
    heads = [r[4] for r in rows]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        k = draw(st.integers(min_value=0, max_value=n - 1))
        edit = draw(st.sampled_from(["id", "swap", "head"]))
        if edit == "swap" and k + 1 < n:
            ids[k], ids[k + 1] = ids[k + 1], ids[k]
        elif edit != "swap":
            column = ids if edit == "id" else heads
            column[k] = draw(st.integers(min_value=-2, max_value=n + 2))
    return [(i, form, lemma, upos, h, deprel)
            for i, (_, form, lemma, upos, _, deprel), h
            in zip(ids, rows, heads)]


def _is_tree(rows) -> bool:
    """Ids 1..n in order, every head in 0..n and not the token itself, one
    root, and every token below it (closure over the raw head column)."""
    tokens = [Token(id=i, form="", lemma="", upos="", head=h, deprel="")
              for i, _, _, _, h, _ in rows]
    n = len(tokens)
    roots = [t.id for t in tokens if t.head == 0]
    return ([t.id for t in tokens] == list(range(1, n + 1))
            and all(0 <= t.head <= n and t.head != t.id for t in tokens)
            and len(roots) == 1 and len(closure(tokens, roots[0])) == n)


def _rows_text(rows) -> str:
    return "".join(f"{i}\t{form}\t{lemma}\t{upos}\t_\t_\t{h}\t{deprel}\t_\t_\n"
                   for i, form, lemma, upos, h, deprel in rows)


@settings(max_examples=300, deadline=None)
@given(rows=conllu_sentences())
def test_fuzzed_ids_and_heads_parse_or_fail_cleanly(rows, lex):
    text = _rows_text(rows)
    if not _is_tree(rows):
        with pytest.raises(StructureError):
            itirel.parse_conllu(text)
        return
    graphs = itirel.parse_conllu(text)
    assert len(graphs) == 1
    assert [t.id for t in graphs[0].tokens] == list(range(1, len(rows) + 1))
    doc = itirel.build_document(graphs, lex)
    json_text = itirel.to_json(doc)
    assert itirel.to_json(itirel.from_json(json_text)) == json_text
    parse_turtle(itirel.to_turtle(doc, "https://example.org/iti"))


# Text without line ends (LF, CR) or tabs: Latin, accents, apostrophes,
# quotes, Unicode separators, emoji.
_FIELD = st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                        blacklist_characters="\t\n\r"),
                 min_size=1, max_size=8)
_COMMENT = _FIELD.map(str.strip).filter(bool)


@st.composite
def unicode_trees(draw):
    """Random trees whose forms, lemmas, sentence ids and texts hold any
    text a CoNLL-U line can carry."""
    n = draw(st.integers(min_value=1, max_value=6))
    order = draw(st.permutations(list(range(1, n + 1))))
    heads = {order[0]: 0}
    for k in range(1, n):
        heads[order[k]] = draw(st.sampled_from(order[:k]))
    tokens = tuple(
        Token(id=i, form=draw(_FIELD), lemma=draw(_FIELD),
              upos=draw(st.sampled_from(_UPOS)), head=heads[i],
              deprel="root" if heads[i] == 0
              else draw(st.sampled_from(_DEPRELS)))
        for i in range(1, n + 1))
    return SentenceGraph(sent_id=draw(_COMMENT), text=draw(_COMMENT),
                         tokens=tokens)


@settings(max_examples=100, deadline=None)
@given(graphs=st.lists(unicode_trees(), max_size=3))
def test_conllu_round_trip_with_any_text(graphs):
    text = to_conllu(graphs)
    assert itirel.parse_conllu(text) == graphs
    # the CLI's way in: binary lines, decoded one at a time
    binary = io.BytesIO(text.encode("utf-8"))
    assert list(itirel.read_conllu(binary)) == graphs


_LINE = st.text(alphabet=st.characters(blacklist_categories=("Cs",),
                                       blacklist_characters="\n\r"),
                max_size=6)


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(_LINE, min_size=1, max_size=6),
       end=st.sampled_from(["\n", "\r\n", "\r"]),
       bad=st.tuples(st.integers(min_value=0), st.integers(min_value=0)))
def test_every_line_end_counts_alike(lines, end, bad):
    """LF, CRLF and CR give the same lines and the same line number for an
    invalid byte, read as binary lines or as one chunk."""
    data = "".join(line + end for line in lines).encode("utf-8")
    k = bad[0] % len(lines)
    start = len("".join(line + end for line in lines[:k]).encode("utf-8"))
    # the bad byte goes before a character of line k, or before its end
    cut = [start + len(lines[k][:i].encode("utf-8"))
           for i in range(len(lines[k]) + 1)]
    at = cut[bad[1] % len(cut)]
    broken = data[:at] + b"\xff" + data[at:]
    # one byte order mark at the start of the input is not text
    read = [lines[0].removeprefix("\ufeff"), *lines[1:]]
    for chunks in (io.BytesIO(data), [data]):
        assert list(decode_lines(chunks, itirel.ConlluParseError)) == read
    for chunks in (io.BytesIO(broken), [broken]):
        with pytest.raises(itirel.ConlluParseError) as err:
            list(decode_lines(chunks, itirel.ConlluParseError))
        assert str(err.value) == f"line {k + 1}: invalid UTF-8 byte 0xff"


def _lines_of(data: bytes) -> list[str]:
    """The lines of UTF-8 bytes that end at a line end or at the end of
    the input, LF, CRLF and CR alike."""
    text = data.decode("utf-8")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return lines[:-1] if lines[-1] == "" else lines


def _read_all(chunks) -> tuple[list[str], str | None]:
    """The lines decode_lines yields, and the message of its error."""
    lines: list[str] = []
    try:
        for line in decode_lines(chunks, itirel.ConlluParseError):
            lines.append(line)
    except itirel.ConlluParseError as err:
        return lines, str(err)
    return lines, None


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_LINE, min_size=1, max_size=8),
       ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=8,
                     max_size=8),
       final=st.booleans(), bom=st.booleans(),
       bad=st.none() | st.integers(min_value=0),
       cuts=st.lists(st.booleans(), max_size=9))
def test_lines_and_error_do_not_depend_on_the_chunking(lines, ends, final,
                                                       bom, bad, cuts):
    """Bytes cut into chunks at any of their LFs give the same lines and
    then the same error as one chunk: every line before the invalid byte's
    line, then that byte and its line number.  The byte may go anywhere,
    inside a multi-byte character or a CRLF too."""
    text = "".join(map(str.__add__, lines, ends))
    if not final:
        text = text.removesuffix(ends[len(lines) - 1])
    data = codecs.BOM_UTF8 * bom + text.encode("utf-8")
    if bad is not None:
        at = bad % (len(data) + 1)
        data = data[:at] + b"\xff" + data[at:]
    body = data.removeprefix(codecs.BOM_UTF8)  # one is not text
    try:
        expected = _lines_of(body), None
    except UnicodeDecodeError as err:
        before = body[:err.start]
        good = _lines_of(body[:max(before.rfind(b"\n"),
                                   before.rfind(b"\r")) + 1])
        expected = good, (f"line {len(good) + 1}: invalid UTF-8 byte "
                          f"0x{body[err.start]:02x}")
    ends_at = [i + 1 for i, byte in enumerate(data) if byte == 0x0A]
    chosen = [0] + [i for i, cut in zip(ends_at, cuts) if cut] + [len(data)]
    drawn = [data[i:j] for i, j in zip(chosen, chosen[1:])]
    for chunks in ([data], io.BytesIO(data), drawn):
        assert _read_all(chunks) == expected


_GOLD_LINES = _gold_file("gold.conllu").split("\n")
_GOLD_FILE = itirel.bundled_lexicon_dir().parent / "gold" / "gold.conllu"


@st.composite
def mutated_gold(draw):
    """The gold corpus with up to three of its lines deleted, repeated,
    swapped, emptied, cut short, or made whitespace only, up to three line
    ends made CR or CRLF, and maybe an invalid UTF-8 byte."""
    lines = list(_GOLD_LINES)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        k = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        edit = draw(st.sampled_from(
            ["delete", "repeat", "swap", "empty", "cut", "blank"]))
        if edit == "delete":
            del lines[k]
        elif edit == "repeat":
            lines.insert(k, lines[k])
        elif edit == "swap" and k + 1 < len(lines):
            lines[k], lines[k + 1] = lines[k + 1], lines[k]
        elif edit == "empty":
            lines[k] = ""
        elif edit == "cut":
            lines[k] = lines[k][:draw(st.integers(0, len(lines[k])))]
        elif edit == "blank":
            lines[k] = draw(st.sampled_from(["\t", " ", "\x0c", "\u2028",
                                             "\x85"]))
    ends = ["\n"] * (len(lines) - 1) + [""]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        k = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        ends[k] = draw(st.sampled_from(["\r", "\r\n"]))
    data = "".join(line + end for line, end in zip(lines, ends)).encode(
        "utf-8")
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        at = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=80, deadline=None)
@given(data=mutated_gold())
def test_mutated_input_gives_output_or_one_line(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("mutated") / "in.conllu"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["extract", str(path)])
    assert code in (EXIT_OK, EXIT_CONLLU)
    event(f"exit {code}")
    if code == EXIT_OK:
        assert out.getvalue() == json.dumps(json.loads(out.getvalue()),
                                            ensure_ascii=False, indent=2) + "\n"
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("itirel: conllu: ")
        assert err.getvalue().count("\n") == 1
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:  # its error, or one on an earlier line
        assert code == EXIT_CONLLU
        return
    # the string path reads the text as the CLI's byte path does
    if code == EXIT_OK:
        lex = itirel.load_lexicons(itirel.bundled_lexicon_dir())
        expected = itirel.build_document(
            itirel.parse_conllu(text), lex, fingerprint=lex.fingerprint)
        assert out.getvalue() == itirel.to_json(expected)
    else:
        with pytest.raises((itirel.ConlluParseError, StructureError)) as got:
            itirel.parse_conllu(text)
        assert err.getvalue() == f"itirel: conllu: {got.value}\n"


def _lf_text(data: bytes) -> str:
    """Mutated gold bytes as LF text, an invalid byte read as U+FFFD."""
    return data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").decode(
        "utf-8", "replace")


@settings(max_examples=300, deadline=None)
@given(text=conllu_sentences().map(_rows_text) | mutated_gold().map(_lf_text))
def test_parser_agrees_with_the_reference_parser(text):
    """The same graphs as the line-by-line reference, or the same first
    error: its type, message and line."""
    try:
        expected = reference_parse(text)
    except (itirel.ConlluParseError, StructureError) as err:
        with pytest.raises(ValueError) as got:
            itirel.parse_conllu(text)
        assert type(got.value) is type(err)
        assert str(got.value) == str(err)
        event(type(err).__name__)
        return
    assert [(g.sent_id, g.text, g.tokens)
            for g in itirel.parse_conllu(text)] == expected
    event("parsed")


# Values each lexicon file accepts in its second column, plus one it does not.
_LEXICON_VALUES = {
    "motion_verbs.tsv": ["initial", "median", "final"],
    "spatial_markers.tsv": ["metric", "orientation", "figure", "adjacency",
                            "inclusion"],
    "temporal_markers.tsv": ["adjacency", "inclusion", "distance"],
    "gazetteer.tsv": ["city", ""],
    "units.tsv": ["spatial", "temporal"],
}
# Keys drawn from the words of the gold sentences, so that a mutated lexicon
# changes what extraction finds in them; with punctuation, elisions, digits
# and whitespace that normalizes away.
_LEXICON_WORDS = ("Pau", "Lyon", "de", "vers", "pour", "depuis", "à", "km",
                  "deux", "semaines", "ville", "près", "quitter", "aller",
                  "l'", "d'", "au", ",", ".", "10", " ", " ", "#", "é")


@st.composite
def _lexicon_line(draw, name):
    key = " ".join(draw(st.lists(st.sampled_from(_LEXICON_WORDS),
                                 min_size=1, max_size=3)))
    value = draw(st.sampled_from(_LEXICON_VALUES[name] * 3 + ["bogus"]))
    extra = draw(st.sampled_from(["", "", "\textra", "\r", "\t"]))
    return f"{key}\t{value}{extra}".encode("utf-8")


@st.composite
def mutated_lexicons(draw):
    """The five bundled lexicon files, each kept, replaced by random bytes,
    or with up to three of its lines deleted, repeated, swapped, cut short
    (maybe inside a UTF-8 sequence) or added."""
    files = {}
    for name in itirel.lexicon.FILE_NAMES:
        data = (itirel.bundled_lexicon_dir() / name).read_bytes()
        how = draw(st.sampled_from(["keep", "keep", "bytes", "lines",
                                    "lines"]))
        if how == "bytes":
            data = draw(st.binary(max_size=64))
        elif how == "lines":
            lines = data.split(b"\n")
            for _ in range(draw(st.integers(min_value=1, max_value=3))):
                k = draw(st.integers(min_value=0, max_value=len(lines) - 1))
                edit = draw(st.sampled_from(
                    ["delete", "repeat", "swap", "cut", "add", "add"]))
                if edit == "delete" and len(lines) > 1:
                    del lines[k]
                elif edit == "repeat":
                    lines.insert(k, lines[k])
                elif edit == "swap" and k + 1 < len(lines):
                    lines[k], lines[k + 1] = lines[k + 1], lines[k]
                elif edit == "cut":
                    lines[k] = lines[k][:draw(st.integers(0, len(lines[k])))]
                elif edit == "add":
                    lines.insert(k, draw(_lexicon_line(name)))
            data = b"\n".join(lines)
        event(f"{name}: {how}")
        files[name] = data
    return files


@settings(max_examples=80, deadline=None)
@given(files=mutated_lexicons())
def test_mutated_lexicons_load_or_fail_cleanly(tmp_path_factory, files):
    lexdir = tmp_path_factory.mktemp("lex")
    for name, data in files.items():
        (lexdir / name).write_bytes(data)
    try:
        problems = None
        lex = load_lexicons(lexdir)
    except itirel.LexiconError as err:
        problems = err.problems
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["extract", str(_GOLD_FILE), "--lexicons", str(lexdir)])
    event(f"exit {code}")
    if problems is None:
        assert code == EXIT_OK
        expected = itirel.build_document(
            itirel.parse_conllu(_gold_file("gold.conllu")), lex,
            fingerprint=lex.fingerprint)
        assert out.getvalue() == itirel.to_json(expected)
        assert err.getvalue() == ""
    else:
        assert code == EXIT_LEXICON
        assert out.getvalue() == ""
        assert err.getvalue() == "".join(f"itirel: lexicon: {p}\n"
                                         for p in problems)
        assert all("\n" not in p for p in problems)
