"""Independent brute-force oracles.

These deliberately avoid the library's graph utilities: descendants are
computed by fixpoint iteration over the raw head column, and argument spans
are re-derived from first principles so the two implementations can only
agree by computing the same thing.
"""

from __future__ import annotations

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
