"""N-ary relation identification and extraction.

A sentence instantiates one of four use-cases:

  UC1  the main clause carries a causal/purpose adverbial clause;
  UC2  the object nominal governs a relative clause detailing it;
  UC3  the main verb governs two or more prepositional complements and no
       argument is primary;
  UC4  the object governs an ordered enumeration ("comme X, Y, et Z").

Extraction is pivot-driven: the pivots are the main verb, the heads of its
subject/object/oblique dependents, and the case-marking preposition of each
oblique.  Every argument is a head's subtree minus the subtrees of the
children it cuts, without edge punctuation: a pivot cuts its case markers
and enumeration, an item its conj/cc/case children, a reason clause its
marks, a detail nothing, and UC2's bare object and any pivot heading an
enumeration its relative clauses too.
Each use-case pattern is matched once per clause verb; UC2 moves each
relativized object to the end: bare argument, items, one detail per clause.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import Optional, Sequence

from .depgraph import (NoMainVerb, Record, SentenceGraph, TokenSpan,
                       dependents, root_verb, span_text, subtree_ids)
from .lexicon import lemma_key, normalize


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


class Argument(Record):
    """``order`` numbers the items of a UC4 list; ``case_marker`` is the id
    of the preposition left out of the span; ``flagged`` says the yield is
    not projective, so the span covering it is used."""

    __slots__ = _fields = ("span", "text", "role", "pivot", "order",
                           "case_marker", "flagged")

    def __init__(self, span, text, role, pivot, order=None, case_marker=None,
                 flagged=False):
        self.span, self.text, self.role, self.pivot = span, text, role, pivot
        self.order, self.case_marker = order, case_marker
        self.flagged = flagged


class NaryRelation(Record):
    __slots__ = _fields = ("use_case", "predicate_lemma", "predicate_token",
                           "arguments")

    def __init__(self, use_case, predicate_lemma, predicate_token, arguments):
        self.use_case, self.predicate_lemma = use_case, predicate_lemma
        self.predicate_token, self.arguments = predicate_token, arguments


def _mark_phrase(g: SentenceGraph, marks: Sequence[int]) -> str:
    ids = frozenset().union(*(subtree_ids(g, m) for m in marks))
    return normalize(" ".join(g.tokens[i - 1].form for i in sorted(ids)))


def _enumeration_child(g: SentenceGraph, nominal: int) -> Optional[int]:
    """Child of a nominal heading a 'comme X, Y, Z' enumeration (>= 2 items)."""
    for c in dependents(g, nominal, {"nmod", "appos"}):
        cases = dependents(g, c, {"case"})
        if not cases:
            continue
        if normalize(g.tokens[cases[0] - 1].lemma) not in LIST_MARKERS:
            continue
        if len(dependents(g, c, {"conj"})) >= 1:
            return c
    return None


class _PivotStruct(Record):
    __slots__ = _fields = ("verb", "subject", "objects", "obliques")

    def __init__(self, verb, subject, objects, obliques):
        self.verb, self.subject, self.objects = verb, subject, objects
        self.obliques = obliques  # (case id, nominal id) pairs

    def token_ids(self) -> list[int]:
        ids = {self.verb, self.subject, *self.objects,
               *(t for oblique in self.obliques for t in oblique)}
        return sorted(ids - {None})


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


def _argument(g: SentenceGraph, head: int, role: str, cut: Sequence[int],
              case_marker: Optional[int] = None,
              order: Optional[int] = None) -> Optional[Argument]:
    """The head's subtree minus the subtrees of the children in `cut`,
    without edge punctuation; None when nothing is left."""
    ids = set(subtree_ids(g, head))
    for c in cut:
        ids -= subtree_ids(g, c)
    kept = sorted(ids)
    toks = g.tokens
    while kept and toks[kept[0] - 1].upos == "PUNCT":
        kept.pop(0)
    while kept and toks[kept[-1] - 1].upos == "PUNCT":
        kept.pop()
    if not kept:
        return None
    span = TokenSpan(kept[0], kept[-1])
    return Argument(span=span, text=span_text(g, span), role=role,
                    pivot=head, order=order, case_marker=case_marker,
                    flagged=len(kept) != len(span))


def _argument_for(g: SentenceGraph, pivot: int,
                  relcls: Sequence[int] = ()) -> list[Argument]:
    """A pivot's argument, cut of its case markers, enumeration and `relcls`
    (all its acl under an enumeration), its items, one detail per relcl."""
    rel = g.rels[pivot]
    cases = dependents(g, pivot, {"case"})
    case_marker = cases[0] if cases else None
    if rel in SUBJECT_RELS:
        role, case_marker = "subj", None
    elif rel in OBJECT_RELS:
        role = "obj"
    else:
        role = rel if case_marker is None else \
            lemma_key(g.tokens[case_marker - 1].lemma)
    enum = _enumeration_child(g, pivot)
    items = [] if enum is None else [enum] + dependents(g, enum, {"conj"})
    # a subject's case marker is cut too; items[:1] is the enumeration
    acls = dependents(g, pivot, {"acl"}) if items else relcls
    args = [_argument(g, pivot, role, [*cases, *items[:1], *acls],
                      case_marker)]
    for n, item in enumerate(items, 1):
        cut = dependents(g, item, {"conj", "cc", "case"})
        args.append(_argument(g, item, "item", cut, None, n))
    for r in relcls:
        args.append(_argument(g, r, "detail", ()))
    return [a for a in args if a is not None]


def extract_arguments(g: SentenceGraph, pivots: Sequence[int]) -> list[Argument]:
    """One argument per nominal pivot: a subject, object or oblique
    dependent of a verb, the relations the pivots are found by.

    The governing preposition is excluded from the span and recorded as the
    role; enumerations under a pivot are split into ordered item arguments.
    """
    args: list[Argument] = []
    for p in pivots:
        head = g.token(p).head
        if (g.rels[p] not in NOMINAL_RELS or head == 0
                or g.tokens[head - 1].upos != "VERB"):
            continue
        args.extend(_argument_for(g, p))
    return args


def _use_cases_for(g: SentenceGraph, struct: _PivotStruct
                   ) -> dict[UseCaseKind, list]:
    """Each use-case the clause matches, in UC order, with what matched it:
    UC1 its reason arguments (a reason clause cut of its marks, or None),
    UC2 its (relativized object, relative clauses) pairs, nothing else."""
    found: dict[UseCaseKind, list] = {}
    reasons = []
    for c in dependents(g, struct.verb, {"advcl"}):
        marks = dependents(g, c, {"mark"})
        if _mark_phrase(g, marks) in REASON_MARKERS:
            reasons.append(_argument(g, c, "reason", marks))
    if reasons:
        found[UseCaseKind.UC1_ADDITIONAL_INFO] = reasons
    relativized = [(o, relcls) for o in struct.objects
                   if (relcls := dependents(g, o, {"acl"}))]
    if relativized:
        found[UseCaseKind.UC2_OBJECT_DETAIL] = relativized
    if sum(case is not None for case, _ in struct.obliques) >= 2:
        found[UseCaseKind.UC3_NO_PRIMARY_ARGUMENT] = []
    if any(_enumeration_child(g, o) is not None for o in struct.objects):
        found[UseCaseKind.UC4_ORDERED_LIST] = []
    return found


def identify_use_cases(g: SentenceGraph) -> list[UseCaseKind]:
    """Every use-case whose syntactic pattern matches the sentence."""
    try:
        struct = _pivot_struct(g, root_verb(g))
    except NoMainVerb:
        return []
    return list(_use_cases_for(g, struct))


def extract_nary(g: SentenceGraph) -> list[NaryRelation]:
    """All n-ary relations of a sentence, one per (clause verb, use-case):
    the main verb and each coordinated verb, which inherits the main
    subject when it has none.  Of relations with the same use case,
    predicate lemma and multiset of arguments, only the first is kept."""
    try:
        main = _pivot_struct(g, root_verb(g))
    except NoMainVerb:
        return []
    structs = [main] + [_pivot_struct(g, c, inherited_subject=main.subject)
                        for c in dependents(g, main.verb, {"conj"})
                        if g.tokens[c - 1].upos == "VERB"]
    relations: list[NaryRelation] = []
    for struct in structs:
        use_cases = _use_cases_for(g, struct)
        if not use_cases:
            continue
        base = extract_arguments(g, struct.token_ids())
        lemma = g.tokens[struct.verb - 1].lemma
        for uc, matched in use_cases.items():
            if uc is UseCaseKind.UC1_ADDITIONAL_INFO:
                args = base + [a for a in matched if a is not None]
            elif uc is UseCaseKind.UC2_OBJECT_DETAIL:
                # each relativized object moves to the end with everything
                # under it: its bare argument, its items, then its details
                moved = frozenset().union(
                    *(subtree_ids(g, o) for o, _ in matched))
                args = [a for a in base if a.pivot not in moved]
                for o, relcls in matched:
                    args += _argument_for(g, o, relcls)
            else:
                args = base
            if uc is UseCaseKind.UC3_NO_PRIMARY_ARGUMENT and len(args) < 3:
                continue  # a binary extraction is not n-ary
            relations.append(NaryRelation(use_case=uc, predicate_lemma=lemma,
                                          predicate_token=struct.verb,
                                          arguments=tuple(args)))
    if len(relations) < 2:
        return relations
    seen, kept = set(), []
    for r in relations:
        key = (r.use_case, r.predicate_lemma,
               frozenset(Counter(r.arguments).items()))
        if key not in seen:
            seen.add(key)
            kept.append(r)
    return kept
