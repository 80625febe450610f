"""CoNLL-U ingestion and dependency-graph queries.

A sentence is an immutable directed graph: tokens are nodes, the HEAD/DEPREL
columns give one labeled edge per token.  Everything downstream (pivot
detection, argument search, entity recognition) works on these graphs.

The parser accepts a sentence only if its word ids run 1..n in order, so a
token's id is its position plus one: ``token(i)`` is ``tokens[i - 1]`` and
the tokens of a span are a slice.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union


class ConlluParseError(ValueError):
    """A malformed CoNLL-U line (wrong column count, non-integer id/head)."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class StructureError(ValueError):
    """Head links of a sentence do not form a single tree."""

    def __init__(self, message: str, sent_id: str):
        super().__init__(f"sentence {sent_id!r}: {message}")
        self.sent_id = sent_id


class NoMainVerb(Exception):
    """The sentence has no verbal token reachable at its root."""

    def __init__(self, sent_id: str):
        super().__init__(f"sentence {sent_id!r} has no main verb")
        self.sent_id = sent_id


def base_rel(deprel: str) -> str:
    """Universal part of a dependency label ('obl:mod' -> 'obl')."""
    return deprel.split(":", 1)[0]


@dataclass(frozen=True)
class Token:
    id: int
    form: str
    lemma: str
    upos: str
    head: int
    deprel: str
    # XPOS, FEATS, DEPS, MISC: not interpreted, preserved for round-trips.
    extras: tuple = ("_", "_", "_", "_")


@dataclass(frozen=True)
class TokenSpan:
    """Contiguous, inclusive range of token ids."""

    first: int
    last: int

    def __post_init__(self):
        if self.first > self.last or self.first < 1:
            raise ValueError(f"invalid span {self.first}..{self.last}")

    def __contains__(self, token_id: int) -> bool:
        return self.first <= token_id <= self.last

    def __len__(self) -> int:
        return self.last - self.first + 1

    def covers(self, other: "TokenSpan") -> bool:
        return self.first <= other.first and other.last <= self.last

    def overlaps(self, other: "TokenSpan") -> bool:
        return not (self.last < other.first or other.last < self.first)


class Yield(NamedTuple):
    span: TokenSpan
    projective: bool


@dataclass(frozen=True)
class SentenceGraph:
    sent_id: str
    text: str
    tokens: tuple[Token, ...]

    @cached_property
    def _children(self) -> dict[int, tuple[int, ...]]:
        kids = {i: [] for i in range(len(self.tokens) + 1)}
        for t in self.tokens:  # ids ascend, so each list is in surface order
            kids[t.head].append(t.id)
        return {k: tuple(v) for k, v in kids.items()}

    @cached_property
    def root_id(self) -> int:
        return self._children[0][0]

    def token(self, token_id: int) -> Token:
        if not 1 <= token_id <= len(self.tokens):
            raise KeyError(token_id)
        return self.tokens[token_id - 1]

    def children(self, token_id: int) -> tuple[int, ...]:
        return self._children.get(token_id, ())

    def span(self) -> TokenSpan:
        return TokenSpan(1, len(self.tokens))

    def span_tokens(self, span: TokenSpan) -> tuple[Token, ...]:
        return self.tokens[span.first - 1:span.last]


_ELIDED = ("'", "’")


def span_text(g: SentenceGraph, span: TokenSpan) -> str:
    """Surface text of a span: space-joined forms, minus spaces after
    elisions (l', j') and before punctuation."""
    parts: list[str] = []
    for tok in g.span_tokens(span):
        if parts and tok.upos != "PUNCT" and not parts[-1].endswith(_ELIDED):
            parts.append(" ")
        parts.append(tok.form)
    return "".join(parts)


def _finish_sentence(sent_id: Optional[str], text: Optional[str],
                     tokens: list[Token], index: int) -> SentenceGraph:
    sid = sent_id if sent_id is not None else f"s{index}"
    for expected, t in enumerate(tokens, 1):
        if t.id != expected:
            problem = ("is below 1" if t.id < 1
                       else "is duplicated" if t.id < expected
                       else f"where {expected} was expected")
            raise StructureError(f"token id {t.id} {problem}", sid)
    for t in tokens:
        if t.head == t.id:
            raise StructureError(f"token {t.id} is its own head", sid)
        if not 0 <= t.head <= len(tokens):
            raise StructureError(f"token {t.id} has dangling head {t.head}", sid)
    g = SentenceGraph(sent_id=sid,
                      text=text if text is not None else "",
                      tokens=tuple(tokens))
    roots = g.children(0)
    if len(roots) != 1:
        raise StructureError(f"expected exactly one root, found {len(roots)}", sid)
    # every token has one head, so tokens on a cycle are not below the root
    if len(subtree_ids(g, g.root_id)) != len(tokens):
        raise StructureError("cyclic head links", sid)
    if not g.text:
        object.__setattr__(g, "text", span_text(g, g.span()))
    return g


_RANGE_OR_EMPTY_NODE = re.compile(r"[0-9]+-[0-9]+|[0-9]+\.[0-9]+")


def _split_lines(text: str) -> Iterator[str]:
    """The lines of a string, split at LF only (as ``io.StringIO`` reads
    them), without holding a second copy of the text."""
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        yield text[start:end]
        start = end + 1


def iter_conllu(source: Union[str, Iterable[str]]) -> Iterator[SentenceGraph]:
    """Sentence graphs of CoNLL-U text (a string, or an iterable of lines),
    one at a time, each checked when its sentence ends.

    Only an empty line ends a sentence; a line of whitespace only is an
    error.  Multiword-token ranges (``1-2``) and empty nodes (``1.1``) are
    skipped.  Only the comments whose key before ``=`` is exactly
    ``sent_id`` or ``text`` are read; any other (``# text_en = ...``,
    ``# newdoc id = ...``) is ignored.
    """
    lines = _split_lines(source) if isinstance(source, str) else source
    count = 0
    sent_id: Optional[str] = None
    text: Optional[str] = None
    tokens: list[Token] = []
    # the empty line after the last one ends the last sentence
    for line_no, raw in enumerate(chain(lines, [""]), 1):
        line = raw.rstrip("\n")
        if not line:
            if tokens:
                count += 1
                yield _finish_sentence(sent_id, text, tokens, count)
            sent_id, text, tokens = None, None, []
            continue
        if line.isspace():
            raise ConlluParseError(
                "line of whitespace only (only an empty line ends a "
                "sentence)", line_no)
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            key = key.strip()
            if key == "sent_id":
                sent_id = val.strip()
            elif key == "text":
                text = val.strip()
            continue
        cols = line.split("\t")
        if len(cols) != 10:
            raise ConlluParseError(
                f"expected 10 tab-separated columns, got {len(cols)}", line_no)
        tid = cols[0]
        if _RANGE_OR_EMPTY_NODE.fullmatch(tid):
            continue
        try:
            token_id = int(tid)
        except ValueError:
            raise ConlluParseError(f"non-integer token id {tid!r}", line_no)
        try:
            head = int(cols[6])
        except ValueError:
            raise ConlluParseError(f"non-integer head {cols[6]!r}", line_no)
        tokens.append(Token(id=token_id, form=cols[1], lemma=cols[2],
                            upos=cols[3], head=head, deprel=cols[7],
                            extras=(cols[4], cols[5], cols[8], cols[9])))


def parse_conllu(source: Union[str, Iterable[str]]) -> list[SentenceGraph]:
    """All sentence graphs of CoNLL-U text; see :func:`iter_conllu`."""
    return list(iter_conllu(source))


def to_conllu(sentences: Sequence[SentenceGraph]) -> str:
    """Serialize graphs back to CoNLL-U (opaque columns preserved)."""
    blocks = []
    for g in sentences:
        lines = [f"# sent_id = {g.sent_id}", f"# text = {g.text}"]
        for t in g.tokens:
            xpos, feats, deps, misc = t.extras
            lines.append("\t".join([str(t.id), t.form, t.lemma, t.upos, xpos,
                                    feats, str(t.head), t.deprel, deps, misc]))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def root_verb(g: SentenceGraph) -> int:
    """Id of the main lexical verb.

    The root token when it is a VERB; with an auxiliary parsed on top of a
    compound tense, the lexical participle below it ('a quitté' -> 'quitté').
    """
    root = g.token(g.root_id)
    if root.upos == "VERB":
        return root.id
    if root.upos == "AUX":
        for c in g.children(root.id):
            if g.token(c).upos == "VERB":
                return c
    raise NoMainVerb(g.sent_id)


def subtree_ids(g: SentenceGraph, token_id: int) -> frozenset[int]:
    """Token id plus all its transitive dependents."""
    out: set[int] = set()
    stack = [token_id]
    while stack:
        cur = stack.pop()
        out.add(cur)
        stack.extend(g.children(cur))
    return frozenset(out)


def subtree_yield(g: SentenceGraph, token_id: int) -> Yield:
    """Minimal covering span of a token's subtree.

    ``projective`` is False when the yield is non-contiguous (the span then
    covers the holes rather than silently truncating).
    """
    ids = subtree_ids(g, token_id)
    span = TokenSpan(min(ids), max(ids))
    return Yield(span, len(ids) == len(span))


def dependents(g: SentenceGraph, token_id: int,
               labels: Optional[set[str]] = None) -> list[int]:
    """Direct dependents in surface order, optionally filtered by the
    universal part of their label."""
    out = []
    for c in g.children(token_id):
        if labels is None or base_rel(g.token(c).deprel) in labels:
            out.append(c)
    return out
