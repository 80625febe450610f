"""Output checker: compares the program's JSON and Turtle with the facts the
generators know.  It reads only output text; a sentence fails when any of
its facts, or any document-wide property, does not hold.

Document-wide properties:

* ``from_json(to_json(doc))`` re-serializes to the same bytes;
* the Turtle parses with the independent parser in ``tests/turtle_check.py``
  and holds one relation node per JSON itinerary of each sentence;
* entities never overlap within an argument.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

from workloads import ROOT, Expected, Place

sys.path.insert(0, str(ROOT / "tests"))
from turtle_check import TurtleSyntaxError, parse_turtle  # noqa: E402

SOURCE_SENTENCE = "sourceSentence"


def _place(e: dict) -> Place:
    magnitude = e["magnitude"]
    return Place(e["kind"], tuple(e["anchors"]),
                 (magnitude["value"], magnitude["unit"]) if magnitude else None,
                 e["direction"])


def _temporal(e: dict):
    magnitude = e["magnitude"]
    return (e["kind"],
            (magnitude["value"], magnitude["unit"]) if magnitude else None)


def _recognition_span(arg: dict) -> tuple[int, int]:
    first = arg["first"]
    if arg["case_marker"] is not None and arg["case_marker"] == first - 1:
        first = arg["case_marker"]
    return first, arg["last"]


def _entities_overlap(sentence: dict, itinerary: dict) -> bool:
    """True when two entities read from the same argument overlap."""
    args = sentence["nary_relations"][itinerary["source_nary"]]["arguments"]
    # spatial and temporal entities are recognized apart, so each family
    # must be disjoint on its own
    for role_group in (("origin", "intermediate", "destination"),
                       ("temporal",)):
        for a in args:
            lo, hi = _recognition_span(a)
            spans = sorted((e["first"], e["last"]) for role in role_group
                           for e in itinerary[role]
                           if lo <= e["first"] and e["last"] <= hi)
            if any(prev[1] >= cur[0] for prev, cur in zip(spans, spans[1:])):
                return True
    return False


def _sentence_ok(s: dict, exp: Expected) -> bool:
    if tuple(s["skips"]) != exp.skips:
        return False
    itins = s["itinerary_relations"]
    if len(itins) != len(exp.itineraries):
        return False
    for got, want in zip(itins, exp.itineraries):
        actor = got["actor"]["text"] if got["actor"] else None
        if (got["verb_lemma"], got["polarity"], actor) != \
                (want.verb, want.polarity, want.actor):
            return False
        for role in ("origin", "intermediate", "destination"):
            if tuple(_place(e) for e in got[role]) != getattr(want, role):
                return False
        if tuple(_temporal(e) for e in got["temporal"]) != want.temporal:
            return False
        if _entities_overlap(s, got):
            return False
    return True


def _without_id(s: dict) -> dict:
    return {k: v for k, v in s.items() if k != "sent_id"}


def _turtle_relations(turtle_text: str) -> Counter:
    """Relation nodes per source sentence, from the parsed triples."""
    per_sentence: Counter = Counter()
    for t in parse_turtle(turtle_text):
        if t.predicate.endswith(SOURCE_SENTENCE) and not t.subject.startswith("_:"):
            per_sentence[json.loads(t.object)] += 1
    return per_sentence


def check_document(json_text: str, turtle_text: str,
                   expected: dict[str, Expected], round_trip) -> list[str]:
    """sent_ids of the expected sentences whose output is wrong.

    ``round_trip`` maps JSON text to ``to_json(from_json(text))``.
    """
    everything = list(expected)
    try:
        doc = json.loads(json_text)
        relations = _turtle_relations(turtle_text)
    except (ValueError, TurtleSyntaxError):
        return everything
    sentences = doc["sentences"]
    if [s["sent_id"] for s in sentences] != everything:
        return everything
    if round_trip(json_text) != json_text:
        return everything
    by_id = {s["sent_id"]: s for s in sentences}
    failed = []
    for s in sentences:
        exp = expected[s["sent_id"]]
        ok = (_sentence_ok(s, exp)
              and relations[s["sent_id"]] == len(s["itinerary_relations"]))
        if ok and exp.same_as is not None:
            ok = _without_id(s) == _without_id(by_id[exp.same_as])
        if not ok:
            failed.append(s["sent_id"])
    if sum(relations.values()) != sum(len(s["itinerary_relations"])
                                      for s in sentences):
        return everything
    return failed
