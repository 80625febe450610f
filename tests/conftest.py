import inspect
from importlib import resources
from pathlib import Path

import pytest

import itirel


DATA = Path(__file__).parent / "data"


def _gold_file(name: str) -> str:
    return (resources.files("itirel") / "data" / "gold" / name).read_text(
        encoding="utf-8")


def build(rows, sent_id="t1", text=None):
    """Build a one-sentence graph from (id, form, lemma, upos, head, deprel)
    rows through the real parser."""
    lines = [f"# sent_id = {sent_id}"]
    if text is not None:
        lines.append(f"# text = {text}")
    for tid, form, lemma, upos, head, deprel in rows:
        lines.append(
            f"{tid}\t{form}\t{lemma}\t{upos}\t_\t_\t{head}\t{deprel}\t_\t_")
    return itirel.parse_conllu("\n".join(lines) + "\n")[0]


def rebuilt(record, **changes):
    """A new record of the same type with some fields changed: its class
    called with each constructor argument read back from the record."""
    fields = {name: getattr(record, name)
              for name in inspect.signature(type(record)).parameters}
    unknown = changes.keys() - fields.keys()
    assert not unknown, f"no such field: {sorted(unknown)}"
    return type(record)(**{**fields, **changes})


def figurative_sentence():
    """« Il a quitté sa femme pour une autre depuis deux semaines. »: a UC3
    relation of the motion verb quitter, with no place in it."""
    return build([(1, "Il", "il", "PRON", 3, "nsubj"),
                  (2, "a", "avoir", "AUX", 3, "aux"),
                  (3, "quitté", "quitter", "VERB", 0, "root"),
                  (4, "sa", "son", "DET", 5, "det"),
                  (5, "femme", "femme", "NOUN", 3, "obj"),
                  (6, "pour", "pour", "ADP", 8, "case"),
                  (7, "une", "un", "DET", 8, "det"),
                  (8, "autre", "autre", "PRON", 3, "obl"),
                  (9, "depuis", "depuis", "ADP", 11, "case"),
                  (10, "deux", "deux", "NUM", 11, "nummod"),
                  (11, "semaines", "semaine", "NOUN", 3, "obl"),
                  (12, ".", ".", "PUNCT", 3, "punct")], sent_id="figurative")


@pytest.fixture(scope="session")
def gold_text():
    return _gold_file("gold.conllu")


@pytest.fixture(scope="session")
def taxonomy_text():
    return _gold_file("taxonomy.conllu")


@pytest.fixture(scope="session")
def gold(gold_text):
    return {g.sent_id: g for g in itirel.parse_conllu(gold_text)}


@pytest.fixture(scope="session")
def taxonomy(taxonomy_text):
    return {g.sent_id: g for g in itirel.parse_conllu(taxonomy_text)}


@pytest.fixture(scope="session")
def figurative():
    """The tests-only corpus: motion verbs with no place, one itinerary per
    spatial and temporal kind, and one whose places only loose matching
    finds."""
    text = (DATA / "figurative.conllu").read_text(encoding="utf-8")
    return {g.sent_id: g for g in itirel.parse_conllu(text)}


@pytest.fixture(scope="session")
def all_graphs(gold, taxonomy):
    return list(gold.values()) + list(taxonomy.values())


@pytest.fixture(scope="session")
def lex():
    return itirel.load_lexicons(itirel.bundled_lexicon_dir())
