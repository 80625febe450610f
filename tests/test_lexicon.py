import codecs
import random
import shutil
import tracemalloc
import unicodedata
from pathlib import Path

import pytest

from itirel import (LexiconError, LexiconSet, SpatialRelationKind,
                    TemporalRelationKind, VerbPolarity, bundled_lexicon_dir,
                    lexicon_fingerprint, load_lexicons, motion_polarity,
                    recognize_spatial, validate_lexicons)
from itirel.lexicon import FILE_NAMES, canon_word, normalize, phrase_index

from conftest import build
from oracles import (normalize_two_regex, reference_load_gazetteer,
                     save_lexicons, whole_span)


def _words(*forms):
    """Words of tokens with the given forms, normalized as the recognizers
    hand them to phrase indexes."""
    return [normalize(f) for f in forms]


class TestNormalization:
    def test_casefold_and_elision(self):
        assert normalize("L'Ouest") == "l ouest"
        assert normalize("  Près   de ") == "près de"
        assert normalize("jusqu’à") == "jusqu à"

    def test_a_marker_matches_text_spelled_as_in_its_file(self, tmp_path):
        # "ß\u0301" folds to "ss\u0301", and NFC makes that "s\u015b": the
        # marker's key and the text's words are folded alike
        shutil.copytree(bundled_lexicon_dir(), tmp_path / "lex")
        with (tmp_path / "lex" / "spatial_markers.tsv").open(
                "a", encoding="utf-8") as fh:
            fh.write("ß\u0301 x\tadjacency\n")
        lex = load_lexicons(tmp_path / "lex")
        assert lex.spatial_markers["s\u015b x"] \
            is SpatialRelationKind.ADJACENCY
        for text in ("ß\u0301 x", "SS\u0301 X", "s\u015b x"):
            match = lex.spatial_marker_index.match(_words(*text.split()), 0)
            assert match[:3] == (2, "s\u015b x", "s\u015b x")

    def test_contraction_folding(self, lex):
        assert canon_word("du") == "de"
        assert canon_word("des") == "de"
        assert canon_word("au") == "à"
        assert canon_word("aux") == "à"
        assert canon_word("ville") == "ville"
        n, key, phrase, kind = lex.spatial_marker_index.match(
            _words("à", "l'", "Ouest", "du", "Pau"), 0)
        assert (n, phrase) == (4, "à l ouest de")
        assert key == "à l ouest de"
        assert kind is SpatialRelationKind.ORIENTATION


class TestLoading:
    def test_bundled_lexicons_load(self, lex):
        assert motion_polarity(lex, "quitter") is VerbPolarity.INITIAL
        assert motion_polarity(lex, "sortir") is VerbPolarity.INITIAL
        assert motion_polarity(lex, "passer") is VerbPolarity.MEDIAN
        assert motion_polarity(lex, "arriver") is VerbPolarity.FINAL
        assert motion_polarity(lex, "QUITTER") is VerbPolarity.INITIAL
        assert motion_polarity(lex, "visiter") is None
        assert motion_polarity(lex, "sorti") is None  # lemma lookup only
        assert lex.gazetteer["Pau"] == "city"
        assert lex.units["semaine"] == "temporal"

    def test_the_bundled_directory_is_the_package_data(self):
        from importlib.resources import files
        where = bundled_lexicon_dir()
        assert where == Path(str(files("itirel") / "data" / "lexicons"))
        assert all((where / name).is_file() for name in FILE_NAMES)

    def test_motion_verb_lemma_is_compared_in_nfc(self):
        lex = LexiconSet(motion_verbs={"arrêter": VerbPolarity.FINAL},
                         spatial_markers={}, temporal_markers={},
                         gazetteer={}, units={})
        decomposed = unicodedata.normalize("NFD", "Arrêter")
        assert decomposed != "Arrêter"
        assert motion_polarity(lex, decomposed) is VerbPolarity.FINAL

    def test_decomposed_lexicon_lemmas_match_composed_input(self, tmp_path):
        lex_dir = shutil.copytree(bundled_lexicon_dir(), tmp_path / "lex")
        units = (lex_dir / "units.tsv").read_text(encoding="utf-8")
        assert "kilomètre\tspatial\n" in units
        (lex_dir / "units.tsv").write_text(
            unicodedata.normalize("NFD", units), encoding="utf-8")
        with (lex_dir / "motion_verbs.tsv").open("a", encoding="utf-8") as fh:
            fh.write(unicodedata.normalize("NFD", "arrêter\tfinal\n"))
        lex = load_lexicons(lex_dir)
        assert motion_polarity(lex, "arrêter") is VerbPolarity.FINAL
        g = build([(1, "à", "à", "ADP", 3, "case"),
                   (2, "10", "10", "NUM", 3, "nummod"),
                   (3, "kilomètres", "kilomètre", "NOUN", 0, "root"),
                   (4, "de", "de", "ADP", 5, "case"),
                   (5, "Pau", "Pau", "PROPN", 3, "nmod")])
        (ent,) = recognize_spatial(g, whole_span(g), lex)
        assert ent.kind is SpatialRelationKind.METRIC
        assert ent.magnitude == (10, "kilomètre")

    def test_missing_files_all_reported(self, tmp_path):
        with pytest.raises(LexiconError) as err:
            load_lexicons(tmp_path)
        assert len(err.value.problems) == len(FILE_NAMES)
        assert all("missing lexicon file" in p for p in err.value.problems)

    def test_duplicate_with_conflicting_value(self, tmp_path):
        shutil.copytree(bundled_lexicon_dir(), tmp_path / "lex")
        with (tmp_path / "lex" / "motion_verbs.tsv").open(
                "a", encoding="utf-8") as fh:
            fh.write("quitter\tfinal\n")
        with pytest.raises(LexiconError) as err:
            load_lexicons(tmp_path / "lex")
        assert any("duplicate key 'quitter'" in p for p in err.value.problems)

    def test_duplicate_with_same_value_is_fine(self, tmp_path, lex):
        shutil.copytree(bundled_lexicon_dir(), tmp_path / "lex")
        with (tmp_path / "lex" / "motion_verbs.tsv").open(
                "a", encoding="utf-8") as fh:
            fh.write("quitter\tinitial\n")
        assert load_lexicons(tmp_path / "lex") == lex

    def test_unknown_polarity_token(self, tmp_path):
        shutil.copytree(bundled_lexicon_dir(), tmp_path / "lex")
        with (tmp_path / "lex" / "motion_verbs.tsv").open(
                "a", encoding="utf-8") as fh:
            fh.write("fuir\tweird\n")
        with pytest.raises(LexiconError) as err:
            load_lexicons(tmp_path / "lex")
        assert any("unknown value 'weird'" in p for p in err.value.problems)

    def test_wrong_column_count(self, tmp_path):
        shutil.copytree(bundled_lexicon_dir(), tmp_path / "lex")
        with (tmp_path / "lex" / "units.tsv").open(
                "a", encoding="utf-8") as fh:
            fh.write("pied\n")
        with pytest.raises(LexiconError) as err:
            load_lexicons(tmp_path / "lex")
        assert any("expected 2 columns" in p for p in err.value.problems)

    def test_toponym_without_words_is_rejected(self, tmp_path):
        shutil.copytree(bundled_lexicon_dir(), tmp_path / "lex")
        with (tmp_path / "lex" / "gazetteer.tsv").open(
                "a", encoding="utf-8") as fh:
            fh.write("'\tcity\n")
        lines = (tmp_path / "lex" / "gazetteer.tsv").read_text(
            encoding="utf-8").splitlines()
        with pytest.raises(LexiconError) as err:
            load_lexicons(tmp_path / "lex")
        assert err.value.problems == [
            f"gazetteer.tsv:{len(lines)}: empty toponym \"'\" "
            "(no words after normalization)"]

    def test_a_directory_in_place_of_a_file_is_unreadable(self, tmp_path):
        shutil.copytree(bundled_lexicon_dir(), tmp_path / "lex")
        (tmp_path / "lex" / "units.tsv").unlink()
        (tmp_path / "lex" / "units.tsv").mkdir()
        (tmp_path / "lex" / "gazetteer.tsv").unlink()
        with pytest.raises(LexiconError) as err:
            load_lexicons(tmp_path / "lex")
        assert err.value.problems == [
            "missing lexicon file: gazetteer.tsv",
            "cannot read lexicon file units.tsv: Is a directory"]

    def test_invalid_utf8_is_a_lexicon_error(self, tmp_path):
        shutil.copytree(bundled_lexicon_dir(), tmp_path / "lex")
        path = tmp_path / "lex" / "units.tsv"
        path.write_bytes(b"km\tspatial\nm\xe8tre\tspatial\n")
        with pytest.raises(LexiconError) as err:
            load_lexicons(tmp_path / "lex")
        assert err.value.problems == [
            "units.tsv:2: invalid UTF-8 byte 0xe8"]

    def test_lines_before_an_invalid_byte_are_read(self, tmp_path):
        shutil.copytree(bundled_lexicon_dir(), tmp_path / "lex")
        path = tmp_path / "lex" / "units.tsv"
        path.write_bytes(b"km\tspatial\nkm\ttemporal\nm\xe8tre\tspatial\n"
                         b"km\tbogus\n")
        with pytest.raises(LexiconError) as err:
            load_lexicons(tmp_path / "lex")
        assert err.value.problems == [
            "units.tsv:2: duplicate key 'km' conflicts with line 1",
            "units.tsv:3: invalid UTF-8 byte 0xe8"]

    def test_gazetteer_type_column_optional(self, tmp_path):
        shutil.copytree(bundled_lexicon_dir(), tmp_path / "lex")
        with (tmp_path / "lex" / "gazetteer.tsv").open(
                "a", encoding="utf-8") as fh:
            fh.write("Ossau\n")
        assert load_lexicons(tmp_path / "lex").gazetteer["Ossau"] == ""

    @pytest.mark.parametrize("separator", ["\x85", "\u2028", "\u2029",
                                           "\x0b", "\x0c", "\x1c", "\x1e"])
    def test_only_line_feeds_end_lines(self, tmp_path, separator):
        shutil.copytree(bundled_lexicon_dir(), tmp_path / "lex")
        with (tmp_path / "lex" / "gazetteer.tsv").open(
                "a", encoding="utf-8") as fh:
            fh.write(f"Saint{separator}Jean\tcity\n")
        gazetteer = load_lexicons(tmp_path / "lex").gazetteer
        assert gazetteer[f"Saint{separator}Jean"] == "city"
        assert "Saint" not in gazetteer and "Jean" not in gazetteer

    @pytest.mark.parametrize("line_end", [b"\r\n", b"\r"])
    def test_crlf_and_cr_line_ends(self, tmp_path, lex, line_end):
        shutil.copytree(bundled_lexicon_dir(), tmp_path / "lex")
        for path in (tmp_path / "lex").iterdir():
            path.write_bytes(path.read_bytes().replace(b"\n", line_end))
        assert load_lexicons(tmp_path / "lex") == lex

    def test_the_load_holds_no_whole_decoded_file(self, tmp_path):
        """A gazetteer of 20,000 names, some of them accented, is decoded a
        block at a time: at its peak the load holds little more than the
        file's bytes beside what it keeps.  Decoding the file whole held
        its text too, about twice its bytes."""
        rng = random.Random(28)
        syllables = ["pau", "lar", "uns", "bor", "deaux", "gè", "ron", "dé",
                     "sar", "ôs", "naï", "vic", "mont", "fer", "ran"]
        names = {}
        while len(names) < 20_000:
            name = " ".join(
                "".join(rng.choices(syllables, k=rng.randint(2, 3)))
                for _ in range(rng.randint(1, 3))).title()
            names.setdefault(name, rng.choice(["city", "village", "peak"]))
        shutil.copytree(bundled_lexicon_dir(), tmp_path / "lex")
        data = "".join(f"{name}\t{ftype}\n"
                       for name, ftype in names.items()).encode("utf-8")
        (tmp_path / "lex" / "gazetteer.tsv").write_bytes(data)
        assert len(data) > 300_000 and not data.isascii()
        tracemalloc.start()
        try:
            lex = load_lexicons(tmp_path / "lex")
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(lex.gazetteer) == len(names)
        assert peak - live < 1.5 * len(data), (peak - live) / len(data)

    def test_a_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path,
                                                             lex):
        # without its comments, motion_verbs.tsv starts "quitter\tinitial"
        shutil.copytree(bundled_lexicon_dir(), tmp_path / "lex")
        for path in (tmp_path / "lex").iterdir():
            lines = path.read_bytes().splitlines(keepends=True)
            path.write_bytes(codecs.BOM_UTF8 + b"".join(
                line for line in lines if not line.startswith(b"#")))
        loaded = load_lexicons(tmp_path / "lex")
        assert motion_polarity(loaded, "quitter") is VerbPolarity.INITIAL
        assert loaded == lex

    def test_fingerprint_is_the_digest_of_the_files(self, tmp_path, lex):
        shutil.copytree(bundled_lexicon_dir(), tmp_path / "lex")
        assert lex.fingerprint == lexicon_fingerprint(bundled_lexicon_dir())
        with (tmp_path / "lex" / "units.tsv").open(
                "a", encoding="utf-8") as fh:
            fh.write("# a comment changes the bytes, not the content\n")
        edited = load_lexicons(tmp_path / "lex")
        assert edited.fingerprint == lexicon_fingerprint(tmp_path / "lex")
        assert edited.fingerprint != lex.fingerprint
        assert edited == lex  # the fingerprint takes no part in equality

    def test_save_load_round_trip(self, tmp_path, lex):
        save_lexicons(lex, tmp_path / "out")
        assert load_lexicons(tmp_path / "out") == lex


class TestMarkerTables:
    def test_every_marker_has_exactly_one_kind(self, lex):
        assert all(isinstance(k, SpatialRelationKind)
                   for k in lex.spatial_markers.values())
        assert all(isinstance(k, TemporalRelationKind)
                   for k in lex.temporal_markers.values())

    def test_longest_first_ordering(self, lex):
        words = _words("tout", "près", "de", "Pau")
        assert lex.spatial_marker_index.match(words, 0)[:3] == (
            3, "tout près de", "tout près de")
        assert lex.spatial_marker_index.match(words, 1)[2] == "près de"

    def test_same_words_smallest_phrase_wins(self):
        for order in (["Pau", "PAU"], ["PAU", "Pau"]):
            index = phrase_index({name: name.lower() for name in order})
            assert index.match(_words("pau"), 0) == (1, "pau", "PAU", "pau")

    def test_toponyms_are_not_contraction_folded(self, lex):
        toponyms = phrase_index({"Pic de Midi": "peak"})
        assert toponyms.match(_words("Pic", "du", "Midi"), 0) is None
        assert toponyms.match(_words("pic", "DE", "midi"), 0)[2] == "Pic de Midi"
        assert lex.spatial_marker_index.match(_words("Près", "du"), 0)[2] \
            == "près de"

    def test_shorter_phrase_when_longer_one_breaks_off(self):
        index = phrase_index({"a b c": 1, "a": 2})
        assert index.max_len == 3
        assert index.match(_words("a", "b", "x"), 0)[:3] == (1, "a", "a")
        assert index.match(_words("b"), 0) is None
        assert phrase_index({}).match(_words("a"), 0) is None

    def test_phrase_without_words_never_matches(self):
        assert phrase_index({"'": "city"}).match(_words("'", "x"), 0) is None

    def test_first_words_gate_the_lookup(self):
        index = phrase_index({"a b c": 1, "du x": 2, "'": 3}, fold=canon_word)
        assert index.first_words == {"a", "de"}
        assert index.match(_words("b", "c"), 0) is None
        assert index.match(_words("des", "x"), 0)[:3] == (2, "de x", "du x")

    def test_starts_are_the_words_whose_fold_starts_a_phrase(self, lex):
        index = phrase_index({"a b c": 1, "du x": 2, "'": 3}, fold=canon_word)
        assert index.starts == {"a", "de", "d", "du", "des"}
        assert phrase_index({"au x": 1}, fold=canon_word).starts \
            == {"à", "au", "aux"}
        # unfolded, the first words are the starts, not a copy of them
        assert lex.gazetteer_index.starts is lex.gazetteer_index.first_words

    def test_figure_nouns(self, lex):
        assert "triangle" in lex.figure_nouns
        assert "près de" not in lex.figure_nouns


class TestValidation:
    def test_bundled_lexicons_validate(self, lex):
        report = validate_lexicons(lex)
        assert report.counts["motion_verbs"] == 9
        assert report.counts["gazetteer"] == 9
        assert "result: OK" in report.render()

    def test_containment_notice(self, lex):
        report = validate_lexicons(lex)
        assert any("'près de' is contained in 'tout près de'" in n
                   for n in report.notices)

    def test_cross_map_marker_notice(self, lex):
        report = validate_lexicons(lex)
        assert any("'dans' is both spatial and temporal" in n
                   for n in report.notices)

    def test_empty_gazetteer_notice(self):
        empty = LexiconSet(motion_verbs={}, spatial_markers={},
                           temporal_markers={}, gazetteer={}, units={})
        report = validate_lexicons(empty)
        assert any("gazetteer empty" in n for n in report.notices)

    def test_toponyms_with_the_same_words_notice(self):
        both = LexiconSet(motion_verbs={}, spatial_markers={},
                          temporal_markers={},
                          gazetteer={"Pau": "city", "PAU": "airport",
                                     "Lyon": "city"}, units={})
        report = validate_lexicons(both)
        assert report.notices == (
            "gazetteer entry 'Pau' has the same words as 'PAU'; "
            "'PAU' is matched",)

    def test_toponym_with_the_words_of_a_marker_notice(self):
        dans = LexiconSet(motion_verbs={}, spatial_markers={
            "dans": SpatialRelationKind.INCLUSION}, temporal_markers={},
            gazetteer={"Dans": "village"}, units={})
        report = validate_lexicons(dans)
        assert report.notices == (
            "gazetteer entry 'Dans' collides with a common-noun marker or "
            "unit",)

    def test_gazetteer_notices_agree_with_the_reference_loader(
            self, lex, tmp_path):
        """A generated gazetteer of a few thousand names, some of them
        written again with the same words (case, apostrophes, spaces, NFD)
        and some with the words of a bundled marker or unit, validated
        beside the bundled files: its notices are those a naive reading of
        the reference loader's index gives, in the same order."""
        rng = random.Random(23)
        syllables = ("pa", "lu", "ron", "ville", "mont", "sé", "bé", "ar",
                     "os", "çà", "gne", "ur", "lès", "ta")
        rows: dict[str, str] = {}

        def add(name):
            rows.setdefault(name, rng.choice(("city", "village", "peak", "")))

        while len(rows) < 3000:
            words = ["".join(rng.choices(syllables, k=rng.randint(1, 3)))
                     for _ in range(rng.choice((1, 1, 2, 3)))]
            if rng.random() < 0.1:
                words.insert(0, rng.choice(("L'", "d'", "Saint ")))
            name = " ".join(w.capitalize() for w in words)
            name = name.replace("' ", "'").replace("Saint ", "Saint-", 1)
            add(name)
            if rng.random() < 0.15:  # a name with the same words
                add(rng.choice((name.upper(), name.replace("'", "’"),
                                name.replace(" ", "  "),
                                unicodedata.normalize("NFD", name))))
        phrases = [*lex.spatial_markers, *lex.temporal_markers, *lex.units]
        for phrase in phrases:  # each marker's and unit's words as a name
            add(phrase.capitalize().replace(" l ", " l'"))
            add(phrase.upper())
        data = "".join(f"{name}\t{ftype}\n"
                       for name, ftype in rng.sample(sorted(rows.items()),
                                                     len(rows)))
        for name in FILE_NAMES:
            shutil.copy(bundled_lexicon_dir() / name, tmp_path / name)
        (tmp_path / "gazetteer.tsv").write_text(data, encoding="utf-8")
        report = validate_lexicons(load_lexicons(tmp_path))

        gazetteer, index, _, _, problems = reference_load_gazetteer(
            data.encode("utf-8"))
        assert problems == []
        markers = {*lex.spatial_markers, *lex.temporal_markers, *lex.units}
        expected = []
        for name in sorted(gazetteer):
            words = tuple(normalize_two_regex(name).split())
            if " ".join(words) in markers:
                expected.append(f"gazetteer entry {name!r} collides with a "
                                "common-noun marker or unit")
            kept = index[words][1]
            if kept != name:
                expected.append(f"gazetteer entry {name!r} has the same "
                                f"words as {kept!r}; {kept!r} is matched")
        assert report.counts["gazetteer"] == len(gazetteer) > 3000
        assert [n for n in report.notices
                if n.startswith("gazetteer ")] == expected
        # the gazetteer exercises both notices
        assert sum("collides" in n for n in expected) >= len(phrases)
        assert sum("same words" in n for n in expected) > 300

    def test_purity_of_polarity_lookup(self, lex):
        assert all(motion_polarity(lex, "quitter") is VerbPolarity.INITIAL
                   for _ in range(3))
