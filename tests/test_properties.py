import io
import json
import string
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import event, given, settings, strategies as st

import itirel
from itirel import (LexiconSet, SentenceGraph, StructureError,
                    recognize_spatial, recognize_temporal, load_lexicons,
                    TokenSpan)
from itirel.cli import EXIT_CONLLU, EXIT_LEXICON, EXIT_OK, main
from itirel.depgraph import Token, decode_lines, dependents, subtree_ids
from itirel.lexicon import (SpatialRelationKind, canon_word,
                            normalize, phrase_index)

from conftest import _gold_file
from oracles import (closure, longest_match, normalize_two_regex,
                     reference_parse, save_lexicons, to_conllu)
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
@given(random_trees(), st.sets(st.sampled_from(_DEPRELS)))
def test_dependents_filter_children_by_base_relation(g, labels):
    for t in g.tokens:
        assert g.rels[t.id] == t.deprel.split(":", 1)[0]
        assert dependents(g, t.id, labels) == [
            u.id for u in g.tokens
            if u.head == t.id and u.deprel.split(":", 1)[0] in labels]


@settings(max_examples=60, deadline=None)
@given(random_trees())
def test_root_yield_covers_every_token(g):
    assert subtree_ids(g, g.root_id) == frozenset(t.id for t in g.tokens)


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
                assert not a.overlaps(b)


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


# Words that tie after case folding, NFC/NFD spellings of the same word,
# elided articles in several apostrophes (alone and glued to the next word),
# and contractions that fold to the same preposition.
_MATCH_WORDS = ("de", "De", "du", "des", "d'", "à", "À", "au", "aux",
                "l'", "L’", "ouest", "Ouest", "l'Ouest", "près", "pre\u0300s",
                "PRÈS", "tout", "Pic", "pic", "Midi", "Pau", "PAU", "pau", "x")
_match_phrase = st.lists(st.sampled_from(_MATCH_WORDS[:-1]), min_size=1,
                         max_size=4).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(phrases=st.dictionaries(_match_phrase, st.integers(0, 3), max_size=12),
       forms=st.lists(st.sampled_from(_MATCH_WORDS), max_size=8),
       fold=st.sampled_from([str, canon_word]))
def test_phrase_index_agrees_with_linear_scan(phrases, forms, fold):
    toks = [Token(id=i, form=f, lemma=f, upos="X", head=0, deprel="dep")
            for i, f in enumerate(forms, 1)]
    words = [normalize(t.form) for t in toks]
    index = phrase_index(phrases, fold=fold)
    for i in range(len(toks)):
        assert index.match(words, i) == longest_match(toks, i, phrases, fold)


# Whitespace that str.split() and re's \s both split at (NEL, no-break
# space, the information separators), combining marks, every apostrophe
# normalize turns into a space, and letters that change under NFC or
# case folding.
_NORM_CHARS = ("ab Pé\t\n\r\x0b\x0c\x85\xa0\x1c\x1d\x1e\x1f\u1680\u2000"
               "\u2028\u2029\u202f\u3000\u200b\u0300\u0301\u0327\u0308"
               "'’‘ʼ`ßİΣﬁÅ")


@settings(max_examples=300, deadline=None)
@given(text=st.text(alphabet=_NORM_CHARS, max_size=12) | st.text(max_size=12))
def test_normalize_agrees_with_two_regex_version(text):
    assert normalize(text) == normalize_two_regex(text)


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


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_entity_disjointness_and_determinism(data, all_graphs, lex):
    g = data.draw(st.sampled_from(all_graphs))
    loose = data.draw(st.booleans())
    ents = recognize_spatial(g, g.span(), lex, loose)
    ents += recognize_temporal(g, g.span(), lex)
    again = recognize_spatial(g, g.span(), lex, loose)
    again += recognize_temporal(g, g.span(), lex)
    assert ents == again
    spatial = recognize_spatial(g, g.span(), lex, loose)
    for i, a in enumerate(spatial):
        for b in spatial[i + 1:]:
            assert not a.span.overlaps(b.span)


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
    before = recognize_spatial(g, g.span(), small)
    after = recognize_spatial(g, g.span(), lex)
    for ent in before:
        assert any(ent.span.overlaps(e.span) for e in after), ent


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
        full = recognize(g, g.span(), lex)
        if any(e.span.overlaps(sub) and not sub.covers(e.span) for e in full):
            continue
        inside = [e for e in full if sub.covers(e.span)]
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
    assert itirel.parse_conllu(
        decode_lines(binary, itirel.ConlluParseError)) == graphs


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
    for chunks in (io.BytesIO(data), [data]):
        assert list(decode_lines(chunks, itirel.ConlluParseError)) == lines
    for chunks in (io.BytesIO(broken), [broken]):
        with pytest.raises(itirel.ConlluParseError) as err:
            list(decode_lines(chunks, itirel.ConlluParseError))
        assert str(err.value) == f"line {k + 1}: invalid UTF-8 byte 0xff"


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
            itirel.iter_conllu(text), lex, fingerprint=lex.fingerprint)
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
