"""Displacement detection and itinerary-relation assembly.

A n-ary relation becomes an itinerary relation iff its predicate is a motion
verb AND at least one of its object/oblique arguments contains a spatial
entity (the polysemy filter: "il a quitté sa femme" has the verb but no
spatial entity, so no displacement is read).  One table, ``_SIDES``, gives
the route side of a preposition's complement (de/depuis -> origin,
vers/pour/à -> destination, par -> intermediate); an entity under any other
preposition or none falls to the verb polarity's default side.

Itineraries are read only from n-ary relations, which a clause gives only
when it matches a use-case (UC1-UC4): « Il sort de Pau. » has one
prepositional complement, no UC3, so no relation, itinerary or skip reason.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .depgraph import Record, SentenceGraph, TokenSpan
from .entities import (SpatialEntity, TemporalEntity, recognize_spatial,
                       recognize_temporal)
from .lexicon import LexiconSet, VerbPolarity, motion_polarity, normalize
from .nary import Argument, NaryRelation

_SIDES = {"de": "origin", "depuis": "origin", "dès": "origin",
          "vers": "destination", "pour": "destination", "à": "destination",
          "jusque": "destination", "jusqu à": "destination",
          "en": "destination", "par": "intermediate", "via": "intermediate"}

_POLARITY_DEFAULT = {
    VerbPolarity.INITIAL: "origin",
    VerbPolarity.MEDIAN: "intermediate",
    VerbPolarity.FINAL: "destination",
}


class ItineraryRelation(Record):
    __slots__ = _fields = ("verb_lemma", "polarity", "actor", "origin",
                           "intermediate", "destination", "temporal",
                           "source_nary")

    def __init__(self, verb_lemma, polarity, actor, origin, intermediate,
                 destination, temporal, source_nary):
        if not (origin or intermediate or destination):
            raise ValueError("itinerary relation needs at least one "
                             "spatial entity")
        self.verb_lemma, self.polarity = verb_lemma, polarity
        self.actor = actor
        self.origin, self.intermediate = origin, intermediate
        self.destination, self.temporal = destination, temporal
        self.source_nary = source_nary


def assign_roles(polarity: VerbPolarity,
                 es_args: Sequence[tuple[str, Sequence[SpatialEntity]]]
                 ) -> tuple[tuple[SpatialEntity, ...], ...]:
    """Distribute the spatial entities of role-labeled arguments over
    (origin, intermediate, destination).  Prepositions win; the polarity
    default only places unmarked (direct object or unknown-preposition)
    entities."""
    buckets: dict[str, list[SpatialEntity]] = {
        "origin": [], "intermediate": [], "destination": []}
    default = _POLARITY_DEFAULT[polarity]
    for role, entities in es_args:  # every _SIDES key is normalized
        side = _SIDES.get(role) or _SIDES.get(normalize(role), default)
        buckets[side].extend(entities)
    return tuple(map(tuple, buckets.values()))


def _recognition_span(arg: Argument) -> TokenSpan:
    """Argument span widened to take back its case-marking preposition, so
    that marker-led entities ("depuis deux semaines") stay recognizable."""
    if arg.case_marker is not None and arg.case_marker == arg.span.first - 1:
        return TokenSpan(arg.case_marker, arg.span.last)
    return arg.span


def detect_displacement(relation: NaryRelation, g: SentenceGraph,
                        lex: LexiconSet,
                        loose: bool = False) -> Optional[ItineraryRelation]:
    """Itinerary relation for a n-ary relation, or None.

    Present iff the predicate is a motion verb and at least one non-subject
    argument carries a spatial entity.
    """
    polarity = motion_polarity(lex, relation.predicate_lemma)
    if polarity is None:
        return None
    actor: Optional[Argument] = None
    es_args: list[tuple[str, list[SpatialEntity]]] = []
    temporal: list[TemporalEntity] = []
    for arg in relation.arguments:
        span = _recognition_span(arg)
        temporal.extend(recognize_temporal(g, span, lex))
        if arg.role == "subj":  # a relation's one subject argument
            actor = arg
            continue  # the subject is the actor, never a route constituent
        spatial = recognize_spatial(g, span, lex, loose)
        if spatial:
            es_args.append((arg.role, spatial))
    if not es_args:
        return None
    origin, intermediate, destination = assign_roles(polarity, es_args)
    return ItineraryRelation(verb_lemma=relation.predicate_lemma,
                             polarity=polarity, actor=actor,
                             origin=origin, intermediate=intermediate,
                             destination=destination,
                             temporal=tuple(temporal),
                             source_nary=relation)
