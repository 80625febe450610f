"""Byte identity of entity recognition on the bundled corpora.

The JSON and Turtle goldens see only the entities an itinerary carries, and
no taxonomy sentence gives a n-ary relation, so the metric, orientation,
figure and inclusion kinds never reach them.  ``tests/golden/entities.txt``
pins the recognizers themselves: for every gold and taxonomy sentence, the
``repr`` of ``recognize_spatial`` (strict and loose) and of
``recognize_temporal`` on every prefix and every suffix of the sentence and
on the recognition span of every argument its pivots and its n-ary
relations give.

Rewrite the file, only for an intended change of output, with
``PYTHONPATH=src python tests/test_entity_golden.py``.
"""

from pathlib import Path

from itirel import (NoMainVerb, TokenSpan, bundled_lexicon_dir,
                    extract_arguments, extract_nary, load_lexicons,
                    parse_conllu, pivot_tokens, recognize_spatial,
                    recognize_temporal)
from itirel.itinerary import _recognition_span

GOLDEN = Path(__file__).parent / "golden" / "entities.txt"
CORPORA = bundled_lexicon_dir().parent / "gold"


def _spans(g) -> list[TokenSpan]:
    n = len(g.tokens)
    spans = {TokenSpan(1, last) for last in range(1, n + 1)}
    spans.update(TokenSpan(first, n) for first in range(1, n + 1))
    try:
        args = extract_arguments(g, pivot_tokens(g))
    except NoMainVerb:
        args = []
    args += [a for r in extract_nary(g) for a in r.arguments]
    spans.update(_recognition_span(a) for a in args)
    return sorted(spans, key=lambda s: (s.first, -s.last))


def render() -> str:
    lex = load_lexicons(bundled_lexicon_dir())
    lines = []
    for corpus in ("gold", "taxonomy"):
        text = (CORPORA / f"{corpus}.conllu").read_text(encoding="utf-8")
        for g in parse_conllu(text):
            for span in _spans(g):
                at = f"{g.sent_id} {span.first}-{span.last}"
                lines.append(f"{at} spatial "
                             f"{recognize_spatial(g, span, lex)!r}")
                lines.append(f"{at} loose "
                             f"{recognize_spatial(g, span, lex, True)!r}")
                lines.append(f"{at} temporal "
                             f"{recognize_temporal(g, span, lex)!r}")
    return "\n".join(lines) + "\n"


def test_entities_match_golden():
    assert render().encode("utf-8") == GOLDEN.read_bytes()


if __name__ == "__main__":
    GOLDEN.write_bytes(render().encode("utf-8"))
