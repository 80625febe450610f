"""itirel: n-ary relation and spatio-temporal itinerary extraction from
dependency-parsed French sentences."""

# set before the imports: serialize reads it as the documents' tool_version
__version__ = "0.1.0"

from .depgraph import (ConlluParseError, NoMainVerb, SentenceGraph,
                       StructureError, Token, TokenSpan, parse_conllu,
                       read_conllu, root_verb)
from .entities import (SpatialEntity, TemporalEntity, recognize_spatial,
                       recognize_temporal)
from .itinerary import ItineraryRelation, assign_roles, detect_displacement
from .lexicon import (LexiconError, LexiconSet, SpatialRelationKind,
                      TemporalRelationKind, ValidationReport, VerbPolarity,
                      bundled_lexicon_dir, load_lexicons, motion_polarity,
                      validate_lexicons)
from .nary import Argument, NaryRelation, UseCaseKind, extract_nary
from .serialize import (ExtractionDocument, JsonWriter, SentenceResult,
                        TurtleWriter, build_document, extract_sentence,
                        from_json, lexicon_fingerprint, to_json, to_turtle)
