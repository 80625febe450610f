"""Independent brute-force oracles.

These deliberately avoid the library's graph utilities: descendants are
computed by fixpoint iteration over the raw head column, and argument spans
are re-derived from first principles so the two implementations can only
agree by computing the same thing.  The JSON reference builds plain dicts
of the records and encodes them with the json module.  The CoNLL-U
reference parses LF text line by line and checks each tree token by token;
``to_conllu`` and ``save_lexicons`` write graphs and lexicons back out.
"""

from __future__ import annotations

import json
import re
import unicodedata
from pathlib import Path
from typing import Optional, Sequence

from itirel.depgraph import ConlluParseError, StructureError, Token
from itirel.lexicon import normalize

CORE_RELS = frozenset({"nsubj", "csubj", "obj", "iobj", "obl"})


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


def normalize_two_regex(phrase: str) -> str:
    """``lexicon.normalize`` as two regex passes: NFC and case-fold, each
    apostrophe to a space, each run of whitespace to one space, stripped."""
    s = re.sub("['’‘ʼ`]", " ", unicodedata.normalize("NFC", phrase).casefold())
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
