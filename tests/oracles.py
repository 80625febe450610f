"""Independent brute-force oracles.

These deliberately avoid the library's graph utilities: descendants are
computed by fixpoint iteration over the raw head column, and argument spans
are re-derived from first principles so the two implementations can only
agree by computing the same thing.  The JSON reference builds plain dicts
of the records and encodes them with the json module.  The CoNLL-U
reference parses LF text line by line and checks each tree token by token;
``to_conllu`` and ``save_lexicons`` write graphs and lexicons back out.
The use-case reference reads UC1-UC4 and their arguments by scans of the
head column.  The gazetteer reference loads ``gazetteer.tsv`` as the loader
did when each row went through a generator of index entries and a second
loop that built the index from them.  ``whole_span``, ``covers`` and
``overlaps`` are span helpers that only tests need.  ``main_arguments`` and
``main_use_cases`` are no oracles: they read the main clause through the
views ``nary`` itself reads, for tests of what a clause gives whether or not
the n-ary stage keeps a relation of it.
"""

from __future__ import annotations

import codecs
import json
import re
import unicodedata
from pathlib import Path
from typing import Optional, Sequence

from itirel.depgraph import (ConlluParseError, NoMainVerb, StructureError,
                             Token, TokenSpan, root_verb)
from itirel.lexicon import LexiconError, normalize
from itirel.nary import (LIST_MARKERS, REASON_MARKERS, _argument_for,
                         _clause, _use_cases_for)

CORE_RELS = frozenset({"nsubj", "csubj", "obj", "iobj", "obl"})


def whole_span(g) -> TokenSpan:
    """The span of every token of a sentence graph."""
    return TokenSpan(1, len(g.tokens))


def covers(a: TokenSpan, b: TokenSpan) -> bool:
    return a.first <= b.first and b.last <= a.last


def overlaps(a: TokenSpan, b: TokenSpan) -> bool:
    return not (a.last < b.first or b.last < a.first)


def main_arguments(g) -> list:
    """The arguments of the main clause's subject, objects and obliques, in
    the order of their heads, as each relation of that clause holds them;
    NoMainVerb without a main verb."""
    _, subject, objects, obliques, _, _ = _clause(g, root_verb(g))
    views: dict = {}
    return [a for head in sorted({subject, *objects, *obliques} - {None})
            for a in _argument_for(g, views, head)]


def main_use_cases(g) -> list:
    """The use-cases whose pattern the main clause matches, whether or not a
    relation is kept for them; none without a main verb."""
    try:
        return list(_use_cases_for(g, _clause(g, root_verb(g)), {}))
    except NoMainVerb:
        return []


def closure(tokens: Sequence, token_id: int) -> set[int]:
    """Token id plus every token whose head chain reaches it (fixpoint)."""
    members = {token_id}
    changed = True
    while changed:
        changed = False
        for t in tokens:
            if t.head in members and t.id not in members:
                members.add(t.id)
                changed = True
    return members


def main_verb(tokens: Sequence) -> Optional[int]:
    roots = [t for t in tokens if t.head == 0]
    if len(roots) != 1:
        return None
    root = roots[0]
    if root.upos == "VERB":
        return root.id
    if root.upos == "AUX":
        for t in tokens:
            if t.head == root.id and t.upos == "VERB":
                return t.id
    return None


def argument_ids(tokens: Sequence, head: int, cut) -> list[int]:
    """Sorted ids of the head's closure minus the closures of the tokens in
    ``cut``, without edge punctuation."""
    members = closure(tokens, head)
    for c in cut:
        members -= closure(tokens, c)
    by_id = {t.id: t for t in tokens}
    ids = sorted(members)
    while ids and by_id[ids[0]].upos == "PUNCT":
        ids.pop(0)
    while ids and by_id[ids[-1]].upos == "PUNCT":
        ids.pop()
    return ids


def argument_spans(tokens: Sequence) -> Optional[list[tuple[int, int]]]:
    """Sorted (first, last) spans of the main verb's core arguments.

    Enumerates every subtree via the closure oracle, keeps the ones governed
    by the main verb through a core relation, strips the case preposition
    subtree and edge punctuation.  None when there is no main verb.
    """
    verb = main_verb(tokens)
    if verb is None:
        return None
    spans: list[tuple[int, int]] = []
    for dep in tokens:
        if dep.head != verb or dep.deprel.split(":", 1)[0] not in CORE_RELS:
            continue
        ids = argument_ids(tokens, dep.id, [
            t.id for t in tokens
            if t.head == dep.id and t.deprel.split(":", 1)[0] == "case"])
        if ids:
            spans.append((ids[0], ids[-1]))
    return sorted(spans)


# Reference for nary's use-cases, read from the UC1-UC4 definitions of its
# docstring: every child is found by a scan of the whole head column.

def _kids(tokens: Sequence, head: int, rels) -> list[int]:
    return [t.id for t in tokens
            if t.head == head and t.deprel.split(":", 1)[0] in rels]


def _enumeration(tokens: Sequence, nominal: int) -> Optional[int]:
    """First nmod/appos child of a nominal whose first case marker is
    « comme » and which has a conj child: an ordered enumeration."""
    for c in _kids(tokens, nominal, {"nmod", "appos"}):
        cases = _kids(tokens, c, {"case"})
        if (cases and normalize(tokens[cases[0] - 1].lemma) in LIST_MARKERS
                and _kids(tokens, c, {"conj"})):
            return c
    return None


def _reason(tokens: Sequence, clause: int) -> bool:
    """An adverbial clause whose marks, read as one phrase, are a reason."""
    marks = _kids(tokens, clause, {"mark"})
    ids = sorted(set().union(*(closure(tokens, m) for m in marks)))
    return normalize(" ".join(tokens[i - 1].form for i in ids)) \
        in REASON_MARKERS


def clause_use_cases(tokens: Sequence, verb: int) -> list[str]:
    """UC1 a reason adverbial clause; UC2 an object with a relative clause;
    UC3 two obliques with a case marker; UC4 an object with an enumeration."""
    objects = _kids(tokens, verb, {"obj", "iobj"})
    found = []
    if any(_reason(tokens, c) for c in _kids(tokens, verb, {"advcl"})):
        found.append("UC1")
    if any(_kids(tokens, o, {"acl"}) for o in objects):
        found.append("UC2")
    if sum(bool(_kids(tokens, o, {"case"}))
           for o in _kids(tokens, verb, {"obl"})) >= 2:
        found.append("UC3")
    if any(_enumeration(tokens, o) is not None for o in objects):
        found.append("UC4")
    return found


def _pivot_arguments(tokens: Sequence, pivot: int, relcls=()) -> list:
    """(pivot, role) of a pivot's arguments: the pivot cut of its case
    markers, enumeration and relative clauses, the items, the details;
    one whose ids are all cut or edge punctuation is left out."""
    rel = tokens[pivot - 1].deprel.split(":", 1)[0]
    cases = _kids(tokens, pivot, {"case"})
    if rel in ("nsubj", "csubj"):
        role = "subj"
    elif rel in ("obj", "iobj"):
        role = "obj"
    elif cases:
        role = fold_nfc(tokens[cases[0] - 1].lemma)
    else:
        role = rel
    enum = _enumeration(tokens, pivot)
    items = [] if enum is None else [enum, *_kids(tokens, enum, {"conj"})]
    acls = _kids(tokens, pivot, {"acl"}) if items else list(relcls)
    found = [(pivot, role, [*cases, *items[:1], *acls])]
    found += [(i, "item", _kids(tokens, i, {"conj", "cc", "case"}))
              for i in items]
    found += [(r, "detail", []) for r in relcls]
    return [(p, role) for p, role, cut in found
            if argument_ids(tokens, p, cut)]


def nary_relations(tokens: Sequence) -> list[tuple[str, int, list]]:
    """(use case, verb, [(pivot, role), ...]) of each n-ary relation: one
    per use case of the main verb and of each coordinated VERB, which takes
    the main subject when it has none; a UC3 relation has three arguments
    or more; a relation whose arguments all lie under its subject, or that
    has none, is left out."""
    main = main_verb(tokens)
    if main is None:
        return []
    subjects = _kids(tokens, main, {"nsubj", "csubj"})
    main_subject = subjects[0] if subjects else None
    verbs = [main] + [c for c in _kids(tokens, main, {"conj"})
                      if tokens[c - 1].upos == "VERB"]
    out = []
    for verb in verbs:
        subjects = _kids(tokens, verb, {"nsubj", "csubj"})
        subject = subjects[0] if subjects else main_subject
        under = set() if subject is None else closure(tokens, subject)
        heads = sorted({subject, *_kids(tokens, verb, {"obj", "iobj", "obl"})}
                       - {None})
        base = [a for h in heads for a in _pivot_arguments(tokens, h)]
        for uc in clause_use_cases(tokens, verb):
            args = base
            if uc == "UC1":
                args = base + [
                    (c, "reason") for c in _kids(tokens, verb, {"advcl"})
                    if _reason(tokens, c) and argument_ids(
                        tokens, c, _kids(tokens, c, {"mark"}))]
            elif uc == "UC2":
                relativized = [o for o in _kids(tokens, verb, {"obj", "iobj"})
                               if _kids(tokens, o, {"acl"})]
                moved = set().union(*(closure(tokens, o)
                                      for o in relativized))
                args = [a for a in base if a[0] not in moved]
                for o in relativized:
                    args += _pivot_arguments(tokens, o,
                                             _kids(tokens, o, {"acl"}))
            elif uc == "UC3" and len(args) < 3:
                continue
            if all(p in under for p, _ in args):
                continue
            out.append((uc, verb, args))
    return out


def fold_nfc(text: str) -> str:
    """NFC, case-fold and NFC again: the fold can undo NFC, as "ß\\u0301"
    folds to "ss\\u0301", which NFC composes to "s\\u015b"."""
    return unicodedata.normalize(
        "NFC", unicodedata.normalize("NFC", text).casefold())


def normalize_two_regex(phrase: str) -> str:
    """``lexicon.normalize`` as two regex passes: ``fold_nfc``, each
    apostrophe to a space, each run of whitespace to one space, stripped."""
    s = re.sub("['’‘ʼ`]", " ", fold_nfc(phrase))
    return re.sub(r"\s+", " ", s).strip()


def longest_match(toks: Sequence, i: int, phrases, fold=str):
    """The linear longest-match scan ``lexicon.PhraseIndex`` replaced.

    Every phrase is keyed by its folded, normalized words; the phrases are
    sorted longest first, then by phrase, and the first whose words equal
    the folded, normalized forms of the tokens from i wins ->
    (n_tokens, words, phrase, value).
    """
    seq = sorted(((tuple(fold(w) for w in normalize(p).split()), p, v)
                  for p, v in phrases.items()),
                 key=lambda x: (-len(x[0]), x[1]))
    for words, phrase, value in seq:
        n = len(words)
        if i + n <= len(toks) and all(
                fold(normalize(toks[i + k].form)) == words[k]
                for k in range(n)):
            return n, words, phrase, value
    return None


def ungated_scan(toks: Sequence, phrases, fold, from_marker,
                 fallback) -> list:
    """The scan rule of ``entities`` with no start gate: at each token not
    consumed, the entity of the longest marker (by ``longest_match``) unless
    it starts on a consumed token, or else the fallback's, both tried at
    every token."""
    out, taken, i = [], toks[0].id - 1, 0
    while i < len(toks):
        match = longest_match(toks, i, phrases, fold)
        ent = None if match is None else from_marker(i, match)
        if ent is None or ent.span.first <= taken:
            ent = fallback(i)
        if ent is None:
            i += 1
            continue
        out.append(ent)
        taken = ent.span.last
        i = taken - toks[0].id + 1
    return out


# Reference for serialize.JsonWriter: the text it writes for a document is
# document_json(...) of the same values.

def _span_dict(span) -> dict:
    return {"first": span.first, "last": span.last}


def argument_dict(a) -> dict:
    return {"role": a.role, "text": a.text, **_span_dict(a.span),
            "pivot": a.pivot, "order": a.order,
            "case_marker": a.case_marker, "flagged": a.flagged}


def spatial_dict(e) -> dict:
    return {"kind": e.kind.value, "text": e.text, **_span_dict(e.span),
            "anchors": list(e.anchors),
            "magnitude": ({"value": e.magnitude[0], "unit": e.magnitude[1]}
                          if e.magnitude else None),
            "direction": e.direction, "loose": e.loose}


def temporal_dict(e) -> dict:
    return {"kind": e.kind.value, "text": e.text, **_span_dict(e.span),
            "magnitude": ({"value": e.magnitude[0], "unit": e.magnitude[1]}
                          if e.magnitude else None),
            "anchor_text": e.anchor_text}


def nary_dict(r) -> dict:
    return {"use_case": r.use_case.value,
            "predicate_lemma": r.predicate_lemma,
            "predicate_token": r.predicate_token,
            "arguments": [argument_dict(a) for a in r.arguments]}


def itinerary_dict(r, narys: Sequence) -> dict:
    return {"verb_lemma": r.verb_lemma, "polarity": r.polarity.value,
            "actor": argument_dict(r.actor) if r.actor else None,
            "origin": [spatial_dict(e) for e in r.origin],
            "intermediate": [spatial_dict(e) for e in r.intermediate],
            "destination": [spatial_dict(e) for e in r.destination],
            "temporal": [temporal_dict(e) for e in r.temporal],
            "source_nary": narys.index(r.source_nary)}


def sentence_dict(s) -> dict:
    return {"sent_id": s.sent_id, "text": s.text,
            "nary_relations": [nary_dict(r) for r in s.nary_relations],
            "itinerary_relations": [itinerary_dict(r, s.nary_relations)
                                    for r in s.itinerary_relations],
            "skips": list(s.skips)}


def document_json(tool_version: str, fingerprint: str, sentences) -> str:
    """The document's text as the json module writes it."""
    return json.dumps({"tool_version": tool_version,
                       "lexicon_fingerprint": fingerprint,
                       "sentences": [sentence_dict(s) for s in sentences]},
                      ensure_ascii=False, indent=2) + "\n"


# Reference for depgraph.parse_conllu on LF text: the parser as it read one
# line, one token and one tree check at a time.

def _reference_ids_and_tree(sent_id: str, tokens: Sequence) -> None:
    """Raise the StructureError a graph of these tokens is refused with."""
    n = len(tokens)
    for expected, t in enumerate(tokens, 1):
        if t.id != expected:
            problem = ("is below 1" if t.id < 1
                       else "is duplicated" if t.id < expected
                       else f"where {expected} was expected")
            raise StructureError(f"token id {t.id} {problem}", sent_id)
    kids: list[list[int]] = [[] for _ in range(n + 1)]
    for t in tokens:
        if t.head == t.id:
            raise StructureError(f"token {t.id} is its own head", sent_id)
        if not 0 <= t.head <= n:
            raise StructureError(f"token {t.id} has dangling head {t.head}",
                                 sent_id)
        kids[t.head].append(t.id)
    if len(kids[0]) != 1:
        raise StructureError(
            f"expected exactly one root, found {len(kids[0])}", sent_id)
    if len(closure(tokens, kids[0][0])) != n:
        raise StructureError("cyclic head links", sent_id)


def reference_surface(tokens: Sequence) -> str:
    """Space-joined forms, minus spaces after elisions and before
    punctuation."""
    parts: list[str] = []
    for tok in tokens:
        if parts and tok.upos != "PUNCT" and not parts[-1].endswith(
                ("'", "’")):
            parts.append(" ")
        parts.append(tok.form)
    return "".join(parts)


def _reference_int(col: str) -> Optional[int]:
    if col.isascii() and col.removeprefix("-").isdigit():
        try:
            return int(col)
        except ValueError:  # more digits than int() reads
            pass
    return None


def reference_parse(text: str) -> list[tuple[str, str, tuple]]:
    """(sent_id, text, tokens) of each sentence of LF text, or the
    ConlluParseError or StructureError the first bad line or tree raises."""
    out = []
    sent_id = sent_text = None
    tokens: list = []
    lines = text.split("\n")
    for line_no, line in enumerate(lines + [""], 1):
        if not line:
            if tokens:
                sid = sent_id if sent_id is not None else f"s{len(out) + 1}"
                _reference_ids_and_tree(sid, tokens)
                out.append((sid, sent_text or reference_surface(tokens),
                            tuple(tokens)))
            sent_id = sent_text = None
            tokens = []
        elif line.isspace():
            raise ConlluParseError(
                "line of whitespace only (only an empty line ends a "
                "sentence)", line_no)
        elif line.startswith("#"):
            key, _, val = line[1:].partition("=")
            if key.strip() == "sent_id":
                sent_id = val.strip()
            elif key.strip() == "text":
                sent_text = val.strip()
        else:
            cols = line.split("\t")
            if len(cols) != 10:
                raise ConlluParseError(
                    f"expected 10 tab-separated columns, got {len(cols)}",
                    line_no)
            token_id = _reference_int(cols[0])
            if token_id is None:
                if re.fullmatch(r"[0-9]+-[0-9]+|[0-9]+\.[0-9]+", cols[0]):
                    continue
                raise ConlluParseError(f"non-integer token id {cols[0]!r}",
                                       line_no)
            head = _reference_int(cols[6])
            if head is None:
                raise ConlluParseError(f"non-integer head {cols[6]!r}",
                                       line_no)
            tokens.append(Token(id=token_id, form=cols[1], lemma=cols[2],
                                upos=cols[3], head=head, deprel=cols[7]))
    return out


def to_conllu(sentences: Sequence) -> str:
    """Serialize graphs back to CoNLL-U, with ``_`` in the four columns a
    token does not keep (XPOS, FEATS, DEPS, MISC)."""
    blocks = []
    for g in sentences:
        lines = [f"# sent_id = {g.sent_id}", f"# text = {g.text}"]
        for t in g.tokens:
            lines.append("\t".join([str(t.id), t.form, t.lemma, t.upos, "_",
                                    "_", str(t.head), t.deprel, "_", "_"]))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def save_lexicons(lex, directory) -> None:
    """Write a LexiconSet back to the five TSV files (sorted, no comments)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    def dump(name: str, pairs):
        lines = [f"{k}\t{v}" for k, v in sorted(pairs)]
        (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")

    dump("motion_verbs.tsv", ((k, v.value) for k, v in lex.motion_verbs.items()))
    dump("spatial_markers.tsv", ((k, v.value) for k, v in lex.spatial_markers.items()))
    dump("temporal_markers.tsv", ((k, v.value) for k, v in lex.temporal_markers.items()))
    dump("gazetteer.tsv", lex.gazetteer.items())
    dump("units.tsv", lex.units.items())


def _reference_tsv_lines(name: str, data: bytes):
    """The lines of one lexicon file, without their ends: a leading byte
    order mark dropped, LF, CRLF and CR alike.  An invalid byte raises
    LexiconError once the lines before its line are yielded, with its line
    counted the same way."""
    data = data.removeprefix(codecs.BOM_UTF8)
    try:
        text, error = data.decode("utf-8"), None
    except UnicodeDecodeError as err:
        before = data[:err.start].replace(b"\r\n", b"\n").replace(b"\r",
                                                                   b"\n")
        line_no = before.count(b"\n") + 1
        error = LexiconError([f"{name}:{line_no}: invalid UTF-8 byte "
                              f"0x{data[err.start]:02x}"])
        text = before[:before.rfind(b"\n") + 1].decode("utf-8")
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    yield from lines[:-1] if lines[-1] == "" else lines
    if error is not None:
        raise error


def _reference_read_tsv(name: str, data: bytes, problems: list[str],
                        optional_second: bool = False):
    """``lexicon._read_tsv`` as it was, over ``_reference_tsv_lines``."""
    try:
        for line_no, raw in enumerate(_reference_tsv_lines(name, data), 1):
            line = raw.rstrip()
            if not line or line.lstrip().startswith("#"):
                continue
            cols = line.split("\t")
            if optional_second and len(cols) == 1:
                cols.append("")
            if len(cols) != 2:
                problems.append(
                    f"{name}:{line_no}: expected 2 columns, got {len(cols)}")
                continue
            yield line_no, cols[0].strip(), cols[1].strip()
    except LexiconError as err:
        problems += err.problems


def reference_load_gazetteer(data: bytes) -> tuple:
    """gazetteer.tsv read as rows, the rows turned into ``(words, name,
    ftype)`` index entries by a generator, and the entries into an index by
    a second loop -> (toponym -> type table, words -> kept entry, max_len,
    start words, problems).  Of two names with the same words the smaller
    in code-point order is kept; a conflicting duplicate's message ends
    with the line of the name's first row."""
    tsv = "gazetteer.tsv"
    problems: list[str] = []
    gazetteer: dict[str, str] = {}
    conflicts: list[tuple[int, str]] = []

    def entries():
        for line_no, name, ftype in _reference_read_tsv(
                tsv, data, problems, optional_second=True):
            seen = gazetteer.get(name)
            if seen is not None:
                if seen != ftype:
                    conflicts.append((len(problems), name))
                    problems.append(f"{tsv}:{line_no}: duplicate toponym "
                                    f"{name!r} conflicts with line ")
                continue
            words = tuple(normalize_two_regex(name).split())
            if not words:
                problems.append(f"{tsv}:{line_no}: empty toponym {name!r} "
                                "(no words after normalization)")
                continue
            gazetteer[name] = ftype
            yield words, name, ftype

    index: dict[tuple[str, ...], tuple] = {}
    for entry in entries():
        kept = index.get(entry[0])
        if kept is None or entry[1] < kept[1]:
            index[entry[0]] = entry
    if conflicts:
        names = {name for _, name in conflicts}
        first: dict[str, int] = {}
        for line_no, name, _ in _reference_read_tsv(tsv, data, [],
                                                    optional_second=True):
            if name in names:
                first.setdefault(name, line_no)
        for at, name in conflicts:
            problems[at] += str(first[name])
    max_len = max(map(len, index), default=0)
    starts = frozenset(w[0] for w in index if w)
    return gazetteer, index, max_len, starts, problems
