"""Independent brute-force oracles.

These deliberately avoid the library's graph utilities: descendants are
computed by fixpoint iteration over the raw head column, and argument spans
are re-derived from first principles so the two implementations can only
agree by computing the same thing.  The JSON reference builds plain dicts
of the records and encodes them with the json module.
"""

from __future__ import annotations

import json
import re
import unicodedata
from typing import Optional, Sequence

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


def argument_spans(tokens: Sequence) -> Optional[list[tuple[int, int]]]:
    """Sorted (first, last) spans of the main verb's core arguments.

    Enumerates every subtree via the closure oracle, keeps the ones governed
    by the main verb through a core relation, strips the case preposition
    subtree and edge punctuation.  None when there is no main verb.
    """
    verb = main_verb(tokens)
    if verb is None:
        return None
    by_id = {t.id: t for t in tokens}
    spans: list[tuple[int, int]] = []
    for dep in tokens:
        if dep.head != verb or dep.deprel.split(":", 1)[0] not in CORE_RELS:
            continue
        members = closure(tokens, dep.id)
        for t in tokens:
            if t.head == dep.id and t.deprel.split(":", 1)[0] == "case":
                members -= closure(tokens, t.id)
        ids = sorted(members)
        while ids and by_id[ids[0]].upos == "PUNCT":
            ids.pop(0)
        while ids and by_id[ids[-1]].upos == "PUNCT":
            ids.pop()
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
