"""CoNLL-U ingestion and dependency-graph queries.

A sentence is a directed graph: tokens are nodes, the HEAD/DEPREL columns
give one labeled edge per token.  Everything downstream (pivot
detection, argument search, entity recognition) works on these graphs.

A graph is built only if its word ids run 1..n in order, so a token's id
is its position plus one: ``token(i)`` is ``tokens[i - 1]`` and
the tokens of a span are a slice.

Each graph is indexed once, when it is built: its children, universal
relations and a depth-first order in which every subtree is one run, so
queries never walk the tree.  Entity recognition adds normalized forms.
"""

from __future__ import annotations

import re
from itertools import chain
from operator import attrgetter, methodcaller
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


class Token(NamedTuple):
    id: int
    form: str
    lemma: str
    upos: str
    head: int
    deprel: str

    # a tuple for speed of construction, but a token equals only a token
    def __eq__(self, other):
        return isinstance(other, Token) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


class Record:
    """A record equals a record of its own type whose ``_fields`` are equal,
    hashes by them and shows them.  The library does not assign to a
    record's fields once it has built it."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class TokenSpan(Record):
    """Contiguous, inclusive range of token ids."""

    __slots__ = _fields = ("first", "last")

    def __init__(self, first: int, last: int):
        if first > last or first < 1:
            raise ValueError(f"invalid span {first}..{last}")
        self.first, self.last = first, last

    def __len__(self) -> int:
        return self.last - self.first + 1

    def covers(self, other: "TokenSpan") -> bool:
        return self.first <= other.first and other.last <= self.last

    def overlaps(self, other: "TokenSpan") -> bool:
        return not (self.last < other.first or other.last < self.first)


class SentenceGraph(Record):
    """A sentence whose tokens have ids 1..n and whose head links form one
    tree, checked when it is built (:class:`StructureError` otherwise), and
    indexed then: ``root_id``; ``rels[i]``, the universal relation of token
    i (``rels[0]`` is ""); ``_kids[i]``, the children of id i in surface
    order; ``_order``, the ids below id 0 depth first, whose ``_size[i]`` ids
    from place ``_first[i]`` on are the subtree of token i; and ``words``,
    None until entity recognition fills it.  Equal by ``_fields`` only."""

    _fields = ("sent_id", "text", "tokens")
    __slots__ = _fields + ("root_id", "rels", "_kids", "_order", "_first",
                           "_size", "words")

    def __init__(self, sent_id: str, text: str, tokens: tuple[Token, ...]):
        sid, n = sent_id, len(tokens)
        heads, rels = [], [""]
        for expected, (tid, _, _, _, head, deprel) in enumerate(tokens, 1):
            if tid != expected:
                problem = ("is below 1" if tid < 1
                           else "is duplicated" if tid < expected
                           else f"where {expected} was expected")
                raise StructureError(f"token id {tid} {problem}", sid)
            heads.append(head)
            rels.append(deprel.partition(":")[0])
        kids: list[list[int]] = [[] for _ in range(n + 1)]
        # ids ascend, so each list is in surface order
        for tid, head in enumerate(heads, 1):
            if head == tid:
                raise StructureError(f"token {tid} is its own head", sid)
            if not 0 <= head <= n:
                raise StructureError(
                    f"token {tid} has dangling head {head}", sid)
            kids[head].append(tid)
        if len(kids[0]) != 1:
            raise StructureError(
                f"expected exactly one root, found {len(kids[0])}", sid)
        order, stack = [], list(kids[0])
        while stack:
            cur = stack.pop()
            order.append(cur)
            stack.extend(kids[cur])
        # every token has one head, so tokens on a cycle are not below the root
        if len(order) != n:
            raise StructureError("cyclic head links", sid)
        first, size = [0] * len(kids), [0] * len(kids)
        for pos, cur in enumerate(order):
            first[cur] = pos
        # backwards, each size is whole when its head is reached
        for cur in reversed(order):
            size[cur] += 1
            size[heads[cur - 1]] += size[cur]
        self.sent_id, self.text, self.tokens = sent_id, text, tokens
        self.root_id = kids[0][0]
        self.rels = tuple(rels)
        self._kids = tuple(map(tuple, kids))
        self._order, self._first, self._size = order, first, size
        self.words = None

    def token(self, token_id: int) -> Token:
        if not 1 <= token_id <= len(self.tokens):
            raise KeyError(token_id)
        return self.tokens[token_id - 1]

    def children(self, token_id: int) -> tuple[int, ...]:
        return self._kids[token_id] if 0 <= token_id < len(self._kids) else ()

    def span(self) -> TokenSpan:
        return TokenSpan(1, len(self.tokens))

    def span_tokens(self, span: TokenSpan) -> tuple[Token, ...]:
        return self.tokens[span.first - 1:span.last]


_ELIDED = ("'", "’")


def span_text(g: SentenceGraph, span: TokenSpan) -> str:
    """Surface text of a span; see :func:`_surface`."""
    return _surface(g.span_tokens(span))


def _surface(tokens: Sequence[Token]) -> str:
    """Space-joined forms, minus spaces after elisions (l', j') and before
    punctuation."""
    parts: list[str] = []
    for tok in tokens:
        if parts and tok.upos != "PUNCT" and not parts[-1].endswith(_ELIDED):
            parts.append(" ")
        parts.append(tok.form)
    return "".join(parts)


def _finish_sentence(sent_id: Optional[str], text: Optional[str],
                     tokens: list[Token], index: int) -> SentenceGraph:
    return SentenceGraph(sent_id if sent_id is not None else f"s{index}",
                         text or _surface(tokens), tuple(tokens))


_RANGE_OR_EMPTY_NODE = re.compile(r"[0-9]+-[0-9]+|[0-9]+\.[0-9]+")


def decode_lines(chunks: Iterable[bytes], error) -> Iterator[str]:
    """Text lines, without their ends, of strict UTF-8 chunks that each end
    at an LF or at the end of the input (a binary file's lines, or a whole
    file as one chunk).  LF, CRLF and CR end lines alike.  An invalid byte
    raises ``error(message, line_no)``, its line counted the same way,
    before any line of its chunk is yielded."""
    line_no = 1  # of the chunk's first line
    for chunk in chunks:
        try:
            text = chunk.decode("utf-8")
        except UnicodeDecodeError as err:
            before = chunk[:err.start]  # UTF-8 has 0x0a, 0x0d only as LF, CR
            line_no += (before.count(b"\n") + before.count(b"\r")
                        - before.count(b"\r\n"))
            raise error(f"invalid UTF-8 byte 0x{chunk[err.start]:02x}",
                        line_no) from None
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        elif text.find("\n") == len(text) - 1 and text:  # one LF-ended line
            line_no += 1
            yield text[:-1]
            continue
        line_no += text.count("\n")
        start = 0  # a line at a time: no list of a whole file's lines
        while start < len(text):
            end = text.find("\n", start)
            if end < 0:
                end = len(text)
            yield text[start:end]
            start = end + 1


# the ids and heads of sentences under 256 words, found without a parse
_SMALL_INTS = {str(n): n for n in range(256)}


def _ascii_int(col: str) -> Optional[int]:
    """The integer of ASCII digits, maybe after a minus sign, or None: int()
    alone also reads "+1", " 1", "١" and "1_0", and fails on a string of
    over 4,300 digits.  The parser looks in ``_SMALL_INTS`` first."""
    if col.isascii() and col.removeprefix("-").isdigit():
        try:
            return int(col)
        except ValueError:
            pass
    return None


def iter_conllu(source: Union[str, Iterable[str]]) -> Iterator[SentenceGraph]:
    """Sentence graphs of CoNLL-U text (a string, or an iterable of lines),
    one at a time, each checked when its sentence ends.  A string's lines
    end at LF, CRLF and CR alike, as :func:`decode_lines` ends the lines of
    bytes, so a line number counts them the same way; each line of an
    iterable loses its trailing CRs and LFs.  A token keeps six of the ten
    columns: ID, FORM, LEMMA, UPOS, HEAD and DEPREL.

    Only an empty line ends a sentence; a line of whitespace only is an
    error.  Multiword-token ranges (``1-2``) and empty nodes (``1.1``) are
    skipped.  Only the comments whose key before ``=`` is exactly
    ``sent_id`` or ``text`` are read; any other (``# text_en = ...``,
    ``# newdoc id = ...``) is ignored.
    """
    if isinstance(source, str):
        if "\r" in source:
            source = source.replace("\r\n", "\n").replace("\r", "\n")
        lines = source.split("\n")
        lines.append("")  # an empty line after the last ends its sentence
    else:
        lines = chain(map(methodcaller("rstrip", "\r\n"), source), [""])
    small_int, new_tuple = _SMALL_INTS.get, tuple.__new__
    count = 0
    sent_id: Optional[str] = None
    text: Optional[str] = None
    tokens: list[Token] = []
    for line_no, line in enumerate(lines, 1):
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
        token_id = small_int(tid)
        if token_id is None:
            token_id = _ascii_int(tid)
            if token_id is None:
                if _RANGE_OR_EMPTY_NODE.fullmatch(tid):
                    continue
                raise ConlluParseError(f"non-integer token id {tid!r}",
                                       line_no)
        head = small_int(cols[6])
        if head is None:
            head = _ascii_int(cols[6])
            if head is None:
                raise ConlluParseError(f"non-integer head {cols[6]!r}",
                                       line_no)
        tokens.append(new_tuple(Token, (
            token_id, cols[1], cols[2], cols[3], head, cols[7])))


def parse_conllu(source: Union[str, Iterable[str]]) -> list[SentenceGraph]:
    """All sentence graphs of CoNLL-U text; see :func:`iter_conllu`."""
    return list(iter_conllu(source))


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
            if g.tokens[c - 1].upos == "VERB":
                return c
    raise NoMainVerb(g.sent_id)


def subtree_ids(g: SentenceGraph, token_id: int) -> frozenset[int]:
    """Token id plus all its transitive dependents: its run of the graph's
    depth-first order."""
    g.token(token_id)  # KeyError for an id that is not a token
    start = g._first[token_id]
    return frozenset(g._order[start:start + g._size[token_id]])


def dependents(g: SentenceGraph, token_id: int,
               labels: Optional[set[str]] = None) -> list[int]:
    """Direct dependents in surface order, optionally filtered by the
    universal part of their label."""
    kids = g.children(token_id)
    if labels is None:
        return list(kids)
    rels = g.rels
    return [c for c in kids if rels[c] in labels]
