"""N-ary relation identification and extraction.

A sentence instantiates one of four use-cases:

  UC1  the main clause carries a causal/purpose adverbial clause;
  UC2  the object nominal governs a relative clause detailing it;
  UC3  the main verb governs two or more prepositional complements and no
       argument is primary;
  UC4  the object governs an ordered enumeration ("comme X, Y, et Z").

The pivots are the main verb, its subject/object/oblique heads and each
oblique's case marker.  An argument is a head's subtree minus the subtrees
of the children it cuts, without edge punctuation: a pivot cuts its case
markers and enumeration (and its relative clauses in UC2 or under an
enumeration), an item its conj/cc/case children, a reason clause its marks.
A clause verb's children are read once into a view (subject, objects,
obliques, advcl, conj), and so are a nominal's (case markers, enumeration
items, acl), shared by coordinated clauses.  Each pattern is matched once
per clause verb and reads only what it can use: UC1 the advcls' marks, UC2
and UC4 the objects' views if there is an object, UC3 the obliques' views if
there are two or more.  A matched clause reads its heads' views for its
arguments.  UC2 moves each relativized object to the end.
A relation needs an argument besides those of its subject, so no two
relations of a sentence are equal.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence

from .depgraph import (NoMainVerb, Record, SentenceGraph, TokenSpan,
                       root_verb, subtree_ids, _surface)
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


# the index of the list each universal relation a view reads goes to
_CLAUSE_GROUPS = {**dict.fromkeys(SUBJECT_RELS, 0),
                  **dict.fromkeys(OBJECT_RELS, 1),
                  **dict.fromkeys(OBLIQUE_RELS, 2), "advcl": 3, "conj": 4}
_NOMINAL_GROUPS = {"case": 0, "acl": 1, "nmod": 2, "appos": 2}
_ITEM_GROUPS = {"case": 0, "conj": 1, "cc": 2}


def _children(g: SentenceGraph, head: int, groups: dict) -> list[list[int]]:
    """A head's children in one pass: five lists, in surface order, indexed
    by ``groups`` from the universal relation; the others are not kept."""
    lists: list[list[int]] = [[], [], [], [], []]
    for c in g._kids[head]:
        k = groups.get(g.rels[c])
        if k is not None:
            lists[k].append(c)
    return lists


def _clause(g: SentenceGraph, verb: int, inherited_subject=None) -> list:
    """A clause's view: [verb, subject (or the one it inherits), objects,
    obliques, adverbial clauses, conjuncts]."""
    subjects, *rest = _children(g, verb, _CLAUSE_GROUPS)
    return [verb, subjects[0] if subjects else inherited_subject, *rest]


def _nominal(g: SentenceGraph, views: dict, nominal: int) -> tuple:
    """A nominal's view, read once per ``views``: its case markers, the
    items of its enumeration (the first nmod or appos child whose first case
    marker is « comme », then its conj children, one at least) and its acls."""
    view = views.get(nominal)
    if view is None:
        cases, acls, heads, _, _ = _children(g, nominal, _NOMINAL_GROUPS)
        items = ()
        for h in heads:
            markers, conjs, _, _, _ = _children(g, h, _ITEM_GROUPS)
            if conjs and markers and normalize(
                    g.tokens[markers[0] - 1].lemma) in LIST_MARKERS:
                items = (h, *conjs)
                break
        view = views[nominal] = cases, items, acls
    return view


def pivot_tokens(g: SentenceGraph) -> list[int]:
    """Pivot ids of the main clause in surface order: main verb, its
    argument heads, and the case-marking preposition of each oblique."""
    verb, subject, objects, obliques, _, _ = _clause(g, root_verb(g))
    cases = [c for o in obliques for c in _nominal(g, {}, o)[0][:1]]
    return sorted({verb, subject, *objects, *obliques, *cases} - {None})


def _argument(g: SentenceGraph, head: int, role: str, cut: Sequence[int],
              case_marker: Optional[int] = None,
              order: Optional[int] = None) -> Optional[Argument]:
    """The head's subtree minus the subtrees of the children in `cut`, which
    holds children of `head` only, without edge punctuation; None when
    nothing is left.  It is one walk from the head that enters no cut child."""
    kids = g._kids
    stack = [c for c in kids[head] if c not in cut]
    kept = [head, *stack]
    while stack:
        below = kids[stack.pop()]
        kept += below
        stack += below
    kept.sort()
    toks = g.tokens
    while kept and toks[kept[0] - 1].upos == "PUNCT":
        kept.pop(0)
    while kept and toks[kept[-1] - 1].upos == "PUNCT":
        kept.pop()
    if not kept:
        return None
    span = TokenSpan(kept[0], kept[-1])
    return Argument(span, _surface(toks[kept[0] - 1:kept[-1]]), role, head,
                    order, case_marker, len(kept) != len(span))


def _argument_for(g: SentenceGraph, views: dict, pivot: int,
                  relcls: Sequence[int] = ()) -> list[Argument]:
    """A pivot's argument, cut of its case markers, enumeration and `relcls`
    (all its acl under an enumeration), its items, one detail per relcl."""
    cases, items, acls = _nominal(g, views, pivot)
    rel, case_marker = g.rels[pivot], cases[0] if cases else None
    if rel in SUBJECT_RELS:
        role, case_marker = "subj", None
    elif rel in OBJECT_RELS:
        role = "obj"
    else:
        role = rel if case_marker is None else \
            lemma_key(g.tokens[case_marker - 1].lemma)
    # a subject's case marker is cut too; the first item is the enumeration
    cut = [*cases, *items[:1], *(acls if items else relcls)]
    args = [_argument(g, pivot, role, cut, case_marker)]
    for n, item in enumerate(items, 1):  # cut of its conj, cc and case
        cut = sum(_children(g, item, _ITEM_GROUPS), [])
        args.append(_argument(g, item, "item", cut, None, n))
    for r in relcls:
        args.append(_argument(g, r, "detail", ()))
    return [a for a in args if a is not None]


def extract_arguments(g: SentenceGraph, pivots: Sequence[int]) -> list[Argument]:
    """One argument per nominal pivot (a subject, object or oblique
    dependent of a verb: the main clause's, from ``pivot_tokens``) without
    its preposition, which is its role; an enumeration is split into items."""
    args: list[Argument] = []
    for p in pivots:
        head = g.token(p).head
        if (g.rels[p] not in NOMINAL_RELS or head == 0
                or g.tokens[head - 1].upos != "VERB"):
            continue
        args.extend(_argument_for(g, {}, p))
    return args


def _use_cases_for(g: SentenceGraph, clause: list, views: dict
                   ) -> dict[UseCaseKind, list]:
    """Each use-case the clause matches, in UC order, with what matched it:
    UC1 its reason arguments (a reason clause cut of its marks, or None),
    UC2 its (relativized object, relative clauses) pairs, nothing else."""
    _, _, objects, obliques, advcls, _ = clause
    found, reasons, rels = {}, [], g.rels
    for c in advcls:
        marks = [m for m in g._kids[c] if rels[m] == "mark"]
        ids = sorted(frozenset().union(*(subtree_ids(g, m) for m in marks)))
        if normalize(" ".join(g.tokens[i - 1].form for i in ids)) \
                in REASON_MARKERS:
            reasons.append(_argument(g, c, "reason", marks))
    if reasons:
        found[UseCaseKind.UC1_ADDITIONAL_INFO] = reasons
    listed = False
    if objects:  # UC2 and UC4 read the object views
        objects = [(o, *_nominal(g, views, o)) for o in objects]
        relativized = [(o, acls) for o, _, _, acls in objects if acls]
        if relativized:
            found[UseCaseKind.UC2_OBJECT_DETAIL] = relativized
        listed = any(items for _, _, items, _ in objects)
    if len(obliques) >= 2 and sum(  # UC3 counts the case-marked ones
            bool(_nominal(g, views, o)[0]) for o in obliques) >= 2:
        found[UseCaseKind.UC3_NO_PRIMARY_ARGUMENT] = []
    if listed:
        found[UseCaseKind.UC4_ORDERED_LIST] = []
    return found


def identify_use_cases(g: SentenceGraph) -> list[UseCaseKind]:
    """Every use-case whose syntactic pattern matches the main clause."""
    try:
        return list(_use_cases_for(g, _clause(g, root_verb(g)), {}))
    except NoMainVerb:
        return []


def extract_nary(g: SentenceGraph) -> list[NaryRelation]:
    """All n-ary relations of a sentence, one per (clause verb, use-case):
    the main verb and each coordinated verb, which inherits the main
    subject when it has none.  A relation needs an argument besides those
    of its subject.  The pivots of the other arguments of two clauses lie
    in disjoint subtrees, so no two relations share use case, predicate
    lemma and multiset of arguments."""
    try:
        return _extract_nary(g, root_verb(g))
    except NoMainVerb:
        return []


def _extract_nary(g: SentenceGraph, verb: int) -> list[NaryRelation]:
    """``extract_nary`` from the main verb, for a caller that found it."""
    main = _clause(g, verb)
    _, subject, _, _, _, conjs = main
    clauses = [main] + [_clause(g, c, subject) for c in conjs
                        if g.tokens[c - 1].upos == "VERB"]
    views, relations = {}, []  # the clauses share the nominal views
    for clause in clauses:
        use_cases = _use_cases_for(g, clause, views)
        if not use_cases:
            continue
        verb, subject, objects, obliques, _, _ = clause
        per_head = {h: _argument_for(g, views, h)
                    for h in sorted({subject, *objects, *obliques} - {None})}
        base = [a for args in per_head.values() for a in args]
        alone = len(per_head.get(subject, ()))  # every relation has these
        lemma = g.tokens[verb - 1].lemma
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
                    args += _argument_for(g, views, o, relcls)
            else:
                args = base
            if uc is UseCaseKind.UC3_NO_PRIMARY_ARGUMENT and len(args) < 3:
                continue  # a binary extraction is not n-ary
            if len(args) == alone:
                continue  # nor is the subject alone, or nothing
            relations.append(NaryRelation(use_case=uc, predicate_lemma=lemma,
                                          predicate_token=verb,
                                          arguments=tuple(args)))
    return relations
