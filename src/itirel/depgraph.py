"""CoNLL-U ingestion and dependency-graph queries.

A sentence is a directed graph: tokens are nodes, the HEAD/DEPREL columns
give one labeled edge per token.  Everything downstream (pivot
detection, argument search, entity recognition) works on these graphs.

A graph is built only if its word ids run 1..n in order, so a token's id
is its position plus one: ``token(i)`` is ``tokens[i - 1]`` and
the tokens of a span are a slice.

Each graph is indexed once, when it is built: its children and universal
relations.  A subtree is walked from the children when it is asked for.
Entity recognition adds normalized forms.
"""

from __future__ import annotations

import codecs
import re
from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence


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


class SentenceGraph(Record):
    """A sentence whose tokens have ids 1..n and whose head links form one
    tree, checked when it is built (:class:`StructureError` otherwise), and
    indexed then: ``root_id``; ``rels[i]``, the universal relation of token
    i (``rels[0]`` is ""); ``_kids[i]``, the children of id i in surface
    order; and ``words``, None until entity recognition fills it.  Equal by
    ``_fields`` only."""

    _fields = ("sent_id", "text", "tokens")
    __slots__ = _fields + ("root_id", "rels", "_kids", "words")

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
        reached, stack = 0, list(kids[0])
        while stack:
            reached += 1
            stack += kids[stack.pop()]
        # every token has one head, so tokens on a cycle are not below the root
        if reached != n:
            raise StructureError("cyclic head links", sid)
        self.sent_id, self.text, self.tokens = sent_id, text, tokens
        self.root_id = kids[0][0]
        self.rels = tuple(rels)
        self._kids = tuple(map(tuple, kids))
        self.words = None

    def token(self, token_id: int) -> Token:
        if not 1 <= token_id <= len(self.tokens):
            raise KeyError(token_id)
        return self.tokens[token_id - 1]

    def children(self, token_id: int) -> tuple[int, ...]:
        return self._kids[token_id] if 0 <= token_id < len(self._kids) else ()

    def span_tokens(self, span: TokenSpan) -> tuple[Token, ...]:
        return self.tokens[span.first - 1:span.last]


_ELIDED = ("'", "’")


def span_text(g: SentenceGraph, span: TokenSpan) -> str:
    """Surface text of a span; see :func:`_surface`."""
    return _surface(g.span_tokens(span))


def _surface(tokens: Sequence[Token]) -> str:
    """Space-joined forms, minus spaces after elisions (l', j') and before
    punctuation, in one pass that looks back at the previous form only."""
    text, prev = "", None
    for tok in tokens:
        if prev is not None and tok.upos != "PUNCT" \
                and not prev.endswith(_ELIDED):
            text += " "
        prev = tok.form
        text += prev
    return text


_RANGE_OR_EMPTY_NODE = re.compile(r"[0-9]+-[0-9]+|[0-9]+\.[0-9]+")


_BLOCK = 1 << 16  # characters of a chunk's text split into lines at once

# bytes read at once; a block ends at the end of the line it cuts
_BLOCK_BYTES = 1 << 13


def read_blocks(binary) -> Iterator[bytes]:
    """The bytes of a binary file in blocks of ``_BLOCK_BYTES`` bytes and
    the rest of the line each cuts, so that each ends at an LF or at the
    end of the file: the chunks :func:`decode_lines` takes."""
    while block := binary.read(_BLOCK_BYTES):
        if not block.endswith(b"\n"):
            block += binary.readline()
        yield block


def _lf_ends(text: str) -> str:
    """The text with each CRLF and each lone CR made an LF."""
    if "\r" in text:
        return text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def decode_lines(chunks: Iterable[bytes], error) -> Iterator[str]:
    """Text lines, without their ends, of strict UTF-8 chunks that each end
    at an LF or at the end of the input (a binary file's lines or blocks,
    or a whole file as one chunk).  LF, CRLF and CR end lines alike.  One
    UTF-8 byte order mark at the start of the input is dropped, as the
    ``utf-8-sig`` codec drops it.  An invalid byte raises ``error(message,
    line_no)``, its line counted the same way, once every line before its
    line is yielded, so that neither the lines nor the error depend on
    where the chunks end.  A chunk of many lines is split by ``str.split``
    a block at a time, cut at the first LF after 64 Ki characters, so that
    no list holds a whole file's lines."""
    chunks = iter(chunks)
    first = next(chunks, b"").removeprefix(codecs.BOM_UTF8)
    line_no = 1  # of the chunk's first line
    for chunk in chain([first], chunks):
        try:
            text, bad = chunk.decode("utf-8"), None
        except UnicodeDecodeError as err:
            bad = err.start  # UTF-8 has 0x0a, 0x0d only as LF, CR
            text = chunk[:max(chunk.rfind(b"\n", 0, bad),
                              chunk.rfind(b"\r", 0, bad)) + 1].decode("utf-8")
        text = _lf_ends(text)
        line_no += text.count("\n")
        start, stop = 0, len(text) - text.endswith("\n")
        while start < len(text):
            end = text.find("\n", start + _BLOCK, stop)
            if end < 0:
                end = stop
            yield from text[start:end].split("\n")
            start = end + 1
        if bad is not None:
            raise error(f"invalid UTF-8 byte 0x{chunk[bad]:02x}", line_no)


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


def read_conllu(chunks: Iterable[bytes]) -> Iterator[SentenceGraph]:
    """Sentence graphs of CoNLL-U bytes in chunks that each end at an LF or
    at the end of the input (a binary file, or its blocks), one at a time,
    each checked when its sentence ends: the parse of :func:`parse_conllu`
    over the lines of :func:`decode_lines`, an invalid byte a
    :class:`ConlluParseError`."""
    return _sentences(decode_lines(chunks, ConlluParseError))


def _sentences(lines: Iterable[str]) -> Iterator[SentenceGraph]:
    """The parse of :func:`parse_conllu`, over lines without their ends;
    the end of the lines ends the last sentence."""
    small_int, new_tuple = _SMALL_INTS.get, tuple.__new__
    count = 0
    sent_id: Optional[str] = None
    text: Optional[str] = None
    tokens: list[Token] = []
    for line_no, line in enumerate(chain(lines, [""]), 1):
        cols = line.split("\t")
        # most lines: a token line whose id and head are small integers
        if (len(cols) == 10 and (token_id := small_int(cols[0])) is not None
                and (head := small_int(cols[6])) is not None):
            tokens.append(new_tuple(Token, (
                token_id, cols[1], cols[2], cols[3], head, cols[7])))
            continue
        if not line:
            if tokens:
                count += 1
                yield SentenceGraph(
                    sent_id if sent_id is not None else f"s{count}",
                    text or _surface(tokens), tuple(tokens))
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


def parse_conllu(text: str) -> list[SentenceGraph]:
    """All sentence graphs of CoNLL-U text.  Its lines end at LF, CRLF and
    CR alike, as :func:`decode_lines` ends the lines of bytes, so a line
    number counts them the same way.  One U+FEFF (a byte order mark) at the
    start is dropped.  A token keeps six of the ten columns: ID, FORM,
    LEMMA, UPOS, HEAD and DEPREL.

    Only an empty line ends a sentence; a line of whitespace only is an
    error.  Multiword-token ranges (``1-2``) and empty nodes (``1.1``) are
    skipped.  Only the comments whose key before ``=`` is exactly
    ``sent_id`` or ``text`` are read; any other (``# text_en = ...``,
    ``# newdoc id = ...``) is ignored.
    """
    return list(_sentences(_lf_ends(text.removeprefix("\ufeff")).split("\n")))


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
    """Token id plus all its transitive dependents, walked from the graph's
    children without recursion."""
    g.token(token_id)  # KeyError for an id that is not a token
    kids, ids, stack = g._kids, [token_id], [token_id]
    while stack:
        below = kids[stack.pop()]
        ids += below
        stack += below
    return frozenset(ids)
