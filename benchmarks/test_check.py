"""Tests of the benchmark's generators and output checker.

    python3 -m pytest benchmarks/test_check.py -q
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import itirel  # noqa: E402
from itirel.cli import main as cli_main  # noqa: E402

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BASE = "https://example.org/iti"


def _round_trip(text):
    return itirel.to_json(itirel.from_json(text))


def _small(name, seed):
    if name == "gold-replica":
        return workloads.gold_replica(seed, blocks=2)
    if name == "gazetteer-20k":
        return workloads.gazetteer_workload(seed, blocks=1, size=2_000)
    return workloads.itinerary_dense(seed, sentences=8)


def _outputs(w, lexdir):
    lex = itirel.load_lexicons(lexdir)
    doc = itirel.build_document(itirel.parse_conllu(w.conllu), lex)
    return itirel.to_json(doc), itirel.to_turtle(doc, BASE)


def _lexdir(w, tmp_path):
    if w.lexicon_files is None:
        return itirel.bundled_lexicon_dir()
    d = tmp_path / "lexicons"
    d.mkdir(exist_ok=True)
    for name, data in w.lexicon_files.items():
        (d / name).write_bytes(data)
    return d


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_program_output_passes(name, tmp_path):
    w = _small(name, 3)
    text, turtle = _outputs(w, _lexdir(w, tmp_path))
    assert check.check_document(text, turtle, w.expected, _round_trip) == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_bytes(name):
    a, b, c = _small(name, 5), _small(name, 5), _small(name, 6)
    assert (a.conllu, a.lexicon_files) == (b.conllu, b.lexicon_files)
    assert a.conllu != c.conllu


def test_full_size_workloads_are_seeded():
    assert workloads.make("gazetteer-20k", 1).lexicon_files == \
        workloads.make("gazetteer-20k", 1).lexicon_files
    w = workloads.make("itinerary-dense", 1)
    lengths = [len(g.tokens) for g in itirel.parse_conllu(w.conllu)]
    assert min(lengths) >= 8 and max(lengths) <= 200


@pytest.mark.parametrize("seed", [1, 2])
def test_synthetic_gazetteer_validates_without_collision(seed, tmp_path):
    w = workloads.gazetteer_workload(seed, blocks=1)
    d = _lexdir(w, tmp_path)
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(["lexicon", "validate", str(d)])
    assert code == 0, out.getvalue()
    assert "gazetteer: 20000 entries" in out.getvalue()
    assert "collides" not in out.getvalue()


def _first_itinerary(obj):
    for s in obj["sentences"]:
        if s["itinerary_relations"]:
            return s, s["itinerary_relations"][0]
    raise AssertionError("no itinerary")


def _swap_roles(it):
    it["origin"], it["destination"] = it["destination"], it["origin"]


def _rename_anchor(it):
    role = next(r for r in ("origin", "intermediate", "destination") if it[r])
    it[role][0]["anchors"] = ["Nowhere"]


def _drop_temporal(it):
    it["temporal"] = []


def _other_verb(it):
    it["verb_lemma"] = "arriver" if it["verb_lemma"] != "arriver" else "partir"


def _overlap(it):
    places = [e for r in ("origin", "intermediate", "destination")
              for e in it[r]]
    places[1]["first"], places[1]["last"] = places[0]["first"], places[0]["last"]


@pytest.mark.parametrize("corrupt", [_swap_roles, _rename_anchor,
                                     _drop_temporal, _other_verb, _overlap])
def test_corrupted_json_is_counted_as_failed(corrupt):
    w = _small("itinerary-dense", 4)
    text, turtle = _outputs(w, itirel.bundled_lexicon_dir())
    obj = json.loads(text)
    sentence, it = _first_itinerary(obj)
    corrupt(it)
    bad = json.dumps(obj, ensure_ascii=False, indent=2) + "\n"
    assert check.check_document(bad, turtle, w.expected, _round_trip) \
        == [sentence["sent_id"]]


def test_turtle_missing_a_relation_fails():
    w = _small("itinerary-dense", 4)
    text, turtle = _outputs(w, itirel.bundled_lexicon_dir())
    head, _, rest = turtle.partition("\n<")
    _, _, tail = rest.partition(" .\n")
    failing = check.check_document(text, head + tail, w.expected, _round_trip)
    assert failing


def test_unparsable_turtle_fails_everything():
    w = _small("gold-replica", 1)
    text, turtle = _outputs(w, itirel.bundled_lexicon_dir())
    assert check.check_document(text, turtle + "<broken", w.expected,
                                _round_trip) == list(w.expected)


def test_replica_differing_from_its_source_fails():
    w = _small("gold-replica", 1)
    text, turtle = _outputs(w, itirel.bundled_lexicon_dir())
    obj = json.loads(text)
    target = next(s for s in obj["sentences"]
                  if s["sent_id"] == "gold-02~0001")
    target["text"] += " !"
    bad = json.dumps(obj, ensure_ascii=False, indent=2) + "\n"
    assert check.check_document(bad, turtle, w.expected, _round_trip) \
        == ["gold-02~0001"]


def test_run_counts_a_broken_program_as_failed(tmp_path, monkeypatch):
    """A pipeline that loses itineraries is counted, sentence by sentence."""
    w = _small("itinerary-dense", 2)
    monkeypatch.setattr(itirel.serialize, "detect_displacement",
                        lambda *args, **kwargs: None)
    r = run.Run(w, tmp_path, traced=False)
    r.one_round()
    # every sentence of every pass and every probe fail; the CLI children
    # run the unpatched program and pass
    assert r.failed == w.passes * len(w.expected) + w.setup_reps
    assert r.attempted \
        == w.passes * len(w.expected) + w.setup_reps + run.CLI_RUNS


def test_run_of_the_real_program_has_no_failure(tmp_path):
    w = _small("gazetteer-20k", 2)
    r = run.Run(w, tmp_path, traced=True)
    r.one_round()
    assert (r.failed, r.attempted) \
        == (0, 2 * len(w.expected) + w.setup_reps + 1)
    assert r.per_layer(["itinerary.itineraries", "lexicon.load_s"]).keys() \
        == {"itinerary.itineraries", "lexicon.load_s"}
    assert r.samples["itinerary.itineraries"] == [2]
