"""N-ary relation identification and extraction.

A sentence instantiates one of four use-cases:

  UC1  the main clause carries a causal/purpose adverbial clause;
  UC2  the object nominal governs a relative clause detailing it;
  UC3  the main verb governs two or more prepositional complements and no
       argument is primary;
  UC4  the object governs an ordered enumeration ("comme X, Y, et Z").

Extraction is pivot-driven: the pivots are the main verb, the heads of its
subject/object/oblique dependents, and the case-marking preposition of each
oblique.  Each nominal pivot yields one argument whose span is its subtree
minus its case marker and edge punctuation; nested material stays inside the
argument.  Each use-case pattern is matched once per clause verb, and the
UC1 reason clauses and UC2 relativized objects are read from that match.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional, Sequence

from .depgraph import (NoMainVerb, SentenceGraph, TokenSpan, base_rel,
                       dependents, root_verb, span_text, subtree_ids)
from .lexicon import normalize


class UseCaseKind(str, Enum):
    UC1_ADDITIONAL_INFO = "UC1"
    UC2_OBJECT_DETAIL = "UC2"
    UC3_NO_PRIMARY_ARGUMENT = "UC3"
    UC4_ORDERED_LIST = "UC4"


SUBJECT_RELS = {"nsubj", "csubj"}
OBJECT_RELS = {"obj", "iobj"}
OBLIQUE_RELS = {"obl"}
NOMINAL_RELS = SUBJECT_RELS | OBJECT_RELS | OBLIQUE_RELS

# Markers for causal/purpose/means adverbial clauses (UC1).  Matched against
# the advcl's `mark` token joined with its `fixed` dependents.
REASON_MARKERS = frozenset({
    "parce que", "car", "puisque", "afin que", "afin de", "pour que",
    "pour", "grâce à",
})

# Prepositions introducing an ordered enumeration under the object (UC4).
LIST_MARKERS = frozenset({"comme"})


@dataclass(frozen=True)
class Argument:
    span: TokenSpan
    text: str
    role: str
    pivot: int
    order: Optional[int] = None       # ordinal for UC4 list items
    case_marker: Optional[int] = None  # id of the excluded preposition
    flagged: bool = False             # non-projective yield, covering span used


@dataclass(frozen=True, eq=False)
class NaryRelation:
    use_case: UseCaseKind
    predicate_lemma: str
    predicate_token: int
    arguments: tuple[Argument, ...]
    sent_id: str

    # A relation is characterized by the multiset of its arguments; it is
    # frozen, so the key is computed once, on first comparison.
    @cached_property
    def _key(self):
        return (self.use_case, self.predicate_lemma,
                frozenset(Counter(self.arguments).items()))

    def __eq__(self, other):
        if not isinstance(other, NaryRelation):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)


def _mark_phrase(g: SentenceGraph, clause_head: int) -> str:
    ids: set[int] = set()
    for m in dependents(g, clause_head, {"mark"}):
        ids |= subtree_ids(g, m)
    return normalize(" ".join(g.token(i).form for i in sorted(ids)))


def _enumeration_child(g: SentenceGraph, nominal: int) -> Optional[int]:
    """Child of a nominal heading a 'comme X, Y, Z' enumeration (>= 2 items)."""
    for c in dependents(g, nominal, {"nmod", "appos"}):
        cases = dependents(g, c, {"case"})
        if not cases:
            continue
        if normalize(g.token(cases[0]).lemma) not in LIST_MARKERS:
            continue
        if len(dependents(g, c, {"conj"})) >= 1:
            return c
    return None


@dataclass(frozen=True)
class _PivotStruct:
    verb: int
    subject: Optional[int]
    objects: tuple[int, ...]
    obliques: tuple[tuple[Optional[int], int], ...]  # (case id, nominal id)

    def token_ids(self) -> list[int]:
        ids = {self.verb}
        if self.subject is not None:
            ids.add(self.subject)
        ids.update(self.objects)
        for case, nom in self.obliques:
            if case is not None:
                ids.add(case)
            ids.add(nom)
        return sorted(ids)


def _pivot_struct(g: SentenceGraph, verb: int,
                  inherited_subject: Optional[int] = None) -> _PivotStruct:
    subjects = dependents(g, verb, SUBJECT_RELS)
    subject = subjects[0] if subjects else inherited_subject
    objects = tuple(dependents(g, verb, OBJECT_RELS))
    obliques = []
    for o in dependents(g, verb, OBLIQUE_RELS):
        cases = dependents(g, o, {"case"})
        obliques.append((cases[0] if cases else None, o))
    return _PivotStruct(verb, subject, objects, tuple(obliques))


def pivot_tokens(g: SentenceGraph) -> list[int]:
    """Pivot ids in surface order: main verb, its argument heads, and the
    case-marking preposition of each oblique complement."""
    return _pivot_struct(g, root_verb(g)).token_ids()


def _trim_punct(g: SentenceGraph, ids: list[int]) -> list[int]:
    while ids and g.token(ids[0]).upos == "PUNCT":
        ids = ids[1:]
    while ids and g.token(ids[-1]).upos == "PUNCT":
        ids = ids[:-1]
    return ids


def _span_argument(g: SentenceGraph, pivot: int, role: str,
                   ids: set[int], case_marker: Optional[int],
                   order: Optional[int] = None) -> Optional[Argument]:
    kept = _trim_punct(g, sorted(ids))
    if not kept:
        return None
    span = TokenSpan(kept[0], kept[-1])
    flagged = len(kept) != len(span)
    return Argument(span=span, text=span_text(g, span), role=role,
                    pivot=pivot, order=order, case_marker=case_marker,
                    flagged=flagged)


def _item_arguments(g: SentenceGraph, enum_head: int) -> list[Argument]:
    items = [enum_head] + dependents(g, enum_head, {"conj"})
    args = []
    for order, item in enumerate(items, 1):
        ids = set(subtree_ids(g, item))
        for c in g.children(item):
            if base_rel(g.token(c).deprel) in ("conj", "cc", "case"):
                ids -= subtree_ids(g, c)
        arg = _span_argument(g, item, "item", ids, None, order)
        if arg is not None:
            args.append(arg)
    return args


def _argument_for(g: SentenceGraph, pivot: int,
                  exclude: frozenset[int] = frozenset()) -> list[Argument]:
    rel = base_rel(g.token(pivot).deprel)
    cases = dependents(g, pivot, {"case"})
    case_marker = cases[0] if cases else None
    if rel in SUBJECT_RELS:
        role, case_marker = "subj", None
    elif rel in OBJECT_RELS:
        role = "obj"
    else:
        role = rel if case_marker is None else \
            g.token(case_marker).lemma.casefold()
    ids = set(subtree_ids(g, pivot)) - exclude
    for c in cases:  # a subject's case marker is excluded too
        ids -= subtree_ids(g, c)
    enum = _enumeration_child(g, pivot)
    out: list[Argument] = []
    if enum is not None:
        ids -= subtree_ids(g, enum)
    head_arg = _span_argument(g, pivot, role, ids, case_marker)
    if head_arg is not None:
        out.append(head_arg)
    if enum is not None:
        out.extend(_item_arguments(g, enum))
    return out


def extract_arguments(g: SentenceGraph, pivots: Sequence[int]) -> list[Argument]:
    """One argument per nominal pivot: a subject, object or oblique
    dependent of a verb, the relations the pivots are found by.

    The governing preposition is excluded from the span and recorded as the
    role; enumerations under a pivot are split into ordered item arguments.
    """
    args: list[Argument] = []
    for p in pivots:
        tok = g.token(p)
        if (base_rel(tok.deprel) not in NOMINAL_RELS or tok.head == 0
                or g.token(tok.head).upos != "VERB"):
            continue
        args.extend(_argument_for(g, p))
    return args


def _use_cases_for(g: SentenceGraph, struct: _PivotStruct
                   ) -> dict[UseCaseKind, tuple[int, ...]]:
    """Each use-case whose pattern the clause matches, in UC order, with the
    tokens that matched it: UC1 its reason-clause heads, UC2 its relativized
    objects, none for UC3 and UC4."""
    found: dict[UseCaseKind, tuple[int, ...]] = {}
    reasons = tuple(c for c in dependents(g, struct.verb, {"advcl"})
                    if _mark_phrase(g, c) in REASON_MARKERS)
    if reasons:
        found[UseCaseKind.UC1_ADDITIONAL_INFO] = reasons
    relativized = tuple(o for o in struct.objects
                        if dependents(g, o, {"acl"}))
    if relativized:
        found[UseCaseKind.UC2_OBJECT_DETAIL] = relativized
    if sum(case is not None for case, _ in struct.obliques) >= 2:
        found[UseCaseKind.UC3_NO_PRIMARY_ARGUMENT] = ()
    if any(_enumeration_child(g, o) is not None for o in struct.objects):
        found[UseCaseKind.UC4_ORDERED_LIST] = ()
    return found


def identify_use_cases(g: SentenceGraph) -> list[UseCaseKind]:
    """Every use-case whose syntactic pattern matches the sentence."""
    try:
        struct = _pivot_struct(g, root_verb(g))
    except NoMainVerb:
        return []
    return list(_use_cases_for(g, struct))


def _reason_argument(g: SentenceGraph, clause: int) -> Optional[Argument]:
    """A reason clause minus its marker."""
    ids = set(subtree_ids(g, clause))
    for m in dependents(g, clause, {"mark"}):
        ids -= subtree_ids(g, m)
    return _span_argument(g, clause, "reason", ids, None)


def _detail_relation_args(g: SentenceGraph, relativized: tuple[int, ...],
                          base: list[Argument]) -> list[Argument]:
    """Replace each relativized object by its bare span plus a detail arg."""
    args = list(base)
    for o in relativized:
        relcls = dependents(g, o, {"acl"})
        exclude = frozenset().union(*(subtree_ids(g, r) for r in relcls))
        args = [a for a in args if a.pivot != o]
        args.extend(_argument_for(g, o, exclude=exclude))
        for r in relcls:
            detail = _span_argument(g, r, "detail", set(subtree_ids(g, r)), None)
            if detail is not None:
                args.append(detail)
    return args


def extract_nary(g: SentenceGraph) -> list[NaryRelation]:
    """All n-ary relations of a sentence, one per (clause verb, use-case):
    the main verb and each coordinated verb, which inherits the main
    subject when it has none."""
    try:
        main = _pivot_struct(g, root_verb(g))
    except NoMainVerb:
        return []
    structs = [main] + [_pivot_struct(g, c, inherited_subject=main.subject)
                        for c in dependents(g, main.verb, {"conj"})
                        if g.token(c).upos == "VERB"]
    relations: list[NaryRelation] = []
    for struct in structs:
        use_cases = _use_cases_for(g, struct)
        if not use_cases:
            continue
        base = extract_arguments(g, struct.token_ids())
        lemma = g.token(struct.verb).lemma
        for uc, matched in use_cases.items():
            if uc is UseCaseKind.UC1_ADDITIONAL_INFO:
                reasons = [_reason_argument(g, c) for c in matched]
                args = base + [a for a in reasons if a is not None]
            elif uc is UseCaseKind.UC2_OBJECT_DETAIL:
                args = _detail_relation_args(g, matched, base)
            else:
                args = base
            if uc is UseCaseKind.UC3_NO_PRIMARY_ARGUMENT and len(args) < 3:
                continue  # a binary extraction is not n-ary
            relations.append(NaryRelation(use_case=uc, predicate_lemma=lemma,
                                          predicate_token=struct.verb,
                                          arguments=tuple(args),
                                          sent_id=g.sent_id))
    # relations are equal iff (use case, predicate, argument multiset)
    deduped: list[NaryRelation] = []
    for r in relations:
        if r not in deduped:
            deduped.append(r)
    return deduped
