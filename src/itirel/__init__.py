"""itirel: n-ary relation and spatio-temporal itinerary extraction from
dependency-parsed French sentences."""

# set before the imports: serialize reads it as the documents' tool_version
__version__ = "0.1.0"

from .depgraph import (ConlluParseError, NoMainVerb, SentenceGraph,
                       StructureError, Token, TokenSpan, dependents,
                       iter_conllu, parse_conllu, root_verb, span_text,
                       subtree_yield, to_conllu)
from .entities import (NotAMarker, SpatialEntity, TemporalEntity,
                       classify_spatial_marker, classify_temporal_marker,
                       recognize_spatial, recognize_temporal)
from .itinerary import ItineraryRelation, assign_roles, detect_displacement
from .lexicon import (LexiconError, LexiconSet, SpatialRelationKind,
                      TemporalRelationKind, ValidationReport, VerbPolarity,
                      bundled_lexicon_dir, load_lexicons, motion_polarity,
                      save_lexicons, validate_lexicons)
from .nary import (Argument, NaryRelation, UseCaseKind, extract_arguments,
                   extract_nary, identify_use_cases, pivot_tokens)
from .serialize import (ExtractionDocument, JsonWriter, SentenceResult,
                        SkipRecord, TurtleWriter, build_document,
                        extract_itineraries, extract_sentence, from_json,
                        lexicon_fingerprint, run_extract, to_json, to_turtle)
