import pytest

from itirel import (Argument, NaryRelation, NoMainVerb, TokenSpan,
                    UseCaseKind, extract_arguments, extract_nary,
                    extract_sentence, identify_use_cases, pivot_tokens,
                    root_verb)

from conftest import build
from oracles import argument_spans


def _relativized_enumeration(form, lemma, second):
    """« Il <form> des villes comme Pau et <second> qu'il aime. »: an
    object with both an enumeration (UC4) and a relative clause (UC2)."""
    return [(1, "Il", "il", "PRON", 2, "nsubj"),
            (2, form, lemma, "VERB", 0, "root"),
            (3, "des", "un", "DET", 4, "det"),
            (4, "villes", "ville", "NOUN", 2, "obj"),
            (5, "comme", "comme", "ADP", 6, "case"),
            (6, "Pau", "Pau", "PROPN", 4, "nmod"),
            (7, "et", "et", "CCONJ", 8, "cc"),
            (8, second, second, "PROPN", 6, "conj"),
            (9, "qu'", "que", "PRON", 11, "obj"),
            (10, "il", "il", "PRON", 11, "nsubj"),
            (11, "aime", "aimer", "VERB", 4, "acl:relcl"),
            (12, ".", ".", "PUNCT", 2, "punct")]


class TestPivots:
    def test_running_example_pivots(self, gold):
        g = gold["gold-01"]
        pivots = pivot_tokens(g)
        assert pivots == [2, 7, 8, 10, 12, 17, 19]
        assert {g.token(p).form for p in pivots} == \
            {"frère", "quitté", "Pau", "pour", "ville", "depuis", "semaines"}
        assert {g.token(p).lemma for p in pivots} == \
            {"frère", "quitter", "Pau", "pour", "ville", "depuis", "semaine"}

    def test_nested_material_is_not_a_pivot(self, gold):
        g = gold["gold-01"]
        pivots = set(pivot_tokens(g))
        assert g.token(5).form == "ami" and 5 not in pivots
        assert g.token(15).form == "Lyon" and 15 not in pivots

    def test_pivots_contain_main_verb(self, gold, taxonomy):
        for g in list(gold.values()) + list(taxonomy.values()):
            try:
                verb = root_verb(g)
            except NoMainVerb:
                continue
            assert verb in pivot_tokens(g)

    def test_verbless_sentence_raises(self, gold):
        with pytest.raises(NoMainVerb):
            pivot_tokens(gold["gold-07"])


class TestArguments:
    def test_running_example_arguments(self, gold):
        g = gold["gold-01"]
        args = extract_arguments(g, pivot_tokens(g))
        assert [(a.role, a.text) for a in args] == [
            ("subj", "Le frère de mon ami"),
            ("obj", "Pau"),
            ("pour", "une ville près de Lyon"),
            ("depuis", "deux semaines"),
        ]
        assert [a.span for a in args] == [
            TokenSpan(1, 5), TokenSpan(8, 8), TokenSpan(11, 15),
            TokenSpan(18, 19)]
        assert args[2].case_marker == 10 and args[3].case_marker == 17
        assert args[0].case_marker is None
        assert not any(a.flagged for a in args)

    def test_intransitive_sentence(self, gold):
        g = gold["gold-08"]
        args = extract_arguments(g, pivot_tokens(g))
        assert [(a.role, a.text) for a in args] == [("subj", "Je")]

    def test_oblique_without_case_keeps_relation_role(self, taxonomy):
        g = taxonomy["tax-t-distance"]
        args = extract_arguments(g, pivot_tokens(g))
        assert ("obl", "20 ans") in [(a.role, a.text) for a in args]

    def test_spans_disjoint_and_exclude_verb(self, all_graphs):
        for g in all_graphs:
            try:
                verb = root_verb(g)
            except NoMainVerb:
                continue
            args = extract_arguments(g, pivot_tokens(g))
            for i, a in enumerate(args):
                assert not a.span.first <= verb <= a.span.last
                for b in args[i + 1:]:
                    assert not a.span.overlaps(b.span)

    def test_non_projective_argument_is_flagged(self):
        # "en" climbs out of the object phrase: the object's yield has a hole
        g = build([(1, "Il", "il", "PRON", 3, "nsubj"),
                   (2, "en", "en", "PRON", 4, "nmod"),
                   (3, "voit", "voir", "VERB", 0, "root"),
                   (4, "trois", "trois", "NOUN", 3, "obj")])
        (_, obj) = extract_arguments(g, pivot_tokens(g))
        assert obj.flagged and obj.span == TokenSpan(2, 4)

    def test_trailing_punctuation_is_trimmed(self):
        # « Il va de Pau , vers Lyon » with the comma under Pau: the span
        # ends before the comma, so it has no hole and is not flagged
        g = build([(1, "Il", "il", "PRON", 2, "nsubj"),
                   (2, "va", "aller", "VERB", 0, "root"),
                   (3, "de", "de", "ADP", 4, "case"),
                   (4, "Pau", "Pau", "PROPN", 2, "obl"),
                   (5, ",", ",", "PUNCT", 4, "punct"),
                   (6, "vers", "vers", "ADP", 7, "case"),
                   (7, "Lyon", "Lyon", "PROPN", 2, "obl")])
        (_, pau, lyon) = extract_arguments(g, pivot_tokens(g))
        assert (pau.role, pau.text, pau.span) == ("de", "Pau", TokenSpan(4, 4))
        assert not pau.flagged
        assert (lyon.role, lyon.span) == ("vers", TokenSpan(7, 7))

    def test_clausal_subject_is_an_argument(self):
        # "Que tu partes surprend Marie": the subject is a clause (a VERB)
        g = build([(1, "Que", "que", "SCONJ", 3, "mark"),
                   (2, "tu", "tu", "PRON", 3, "nsubj"),
                   (3, "partes", "partir", "VERB", 4, "csubj"),
                   (4, "surprend", "surprendre", "VERB", 0, "root"),
                   (5, "Marie", "Marie", "PROPN", 4, "obj")])
        args = extract_arguments(g, pivot_tokens(g))
        assert [(a.role, a.text) for a in args] == [
            ("subj", "Que tu partes"), ("obj", "Marie")]

    def test_verb_under_auxiliary_root_is_not_an_argument(self):
        # "Il est sorti de Pau vers Laruns" with the auxiliary parsed as the
        # root and the participle hanging under it by a nominal relation
        g = build([(1, "Il", "il", "PRON", 3, "nsubj"),
                   (2, "est", "être", "AUX", 0, "root"),
                   (3, "sorti", "sortir", "VERB", 2, "obj"),
                   (4, "de", "de", "ADP", 5, "case"),
                   (5, "Pau", "Pau", "PROPN", 3, "obl"),
                   (6, "vers", "vers", "ADP", 7, "case"),
                   (7, "Laruns", "Laruns", "PROPN", 3, "obl")])
        want = ["Il", "Pau", "Laruns"]
        assert [a.text for a in extract_arguments(g, pivot_tokens(g))] == want
        (relation,) = extract_nary(g)
        assert [a.text for a in relation.arguments] == want

    def test_matches_brute_force_oracle(self, all_graphs):
        for g in all_graphs:
            if len(g.tokens) > 12:
                continue
            expected = argument_spans(g.tokens)
            try:
                got = sorted((a.span.first, a.span.last)
                             for a in extract_arguments(g, pivot_tokens(g)))
            except NoMainVerb:
                got = None
            assert got == expected, g.sent_id


class TestUseCases:
    def test_gold_identification(self, gold):
        expected = {
            "gold-01": [UseCaseKind.UC3_NO_PRIMARY_ARGUMENT],
            "gold-02": [UseCaseKind.UC1_ADDITIONAL_INFO],
            "gold-03": [UseCaseKind.UC2_OBJECT_DETAIL],
            "gold-04": [UseCaseKind.UC4_ORDERED_LIST],
            "gold-05": [UseCaseKind.UC3_NO_PRIMARY_ARGUMENT],
            "gold-06": [],
            "gold-07": [],
            "gold-08": [],
        }
        for sid, want in expected.items():
            assert identify_use_cases(gold[sid]) == want, sid

    def test_purpose_pour_on_infinitive_is_not_a_destination(self, gold):
        # gold-03 has "pour faire ..." as advcl of the relative verb, not of
        # the main verb: no UC1 at sentence level
        assert UseCaseKind.UC1_ADDITIONAL_INFO \
            not in identify_use_cases(gold["gold-03"])


class TestRelations:
    def test_uc3_running_example(self, gold):
        (rel,) = extract_nary(gold["gold-01"])
        assert rel.use_case is UseCaseKind.UC3_NO_PRIMARY_ARGUMENT
        assert rel.predicate_lemma == "quitter"
        assert rel.predicate_token == 7
        assert len(rel.arguments) == 4

    def test_uc1_reason_argument(self, gold):
        (rel,) = extract_nary(gold["gold-02"])
        assert rel.use_case is UseCaseKind.UC1_ADDITIONAL_INFO
        assert [(a.role, a.text) for a in rel.arguments] == [
            ("subj", "Nous"), ("obj", "Pau"), ("reason", "notre ami y habite")]

    def test_uc1_reason_arguments_are_only_the_reason_clauses(self):
        # a "quand" adverbial clause is not a reason: it stays out of UC1
        g = build([(1, "Il", "il", "PRON", 2, "nsubj"),
                   (2, "part", "partir", "VERB", 0, "root"),
                   (3, "quand", "quand", "SCONJ", 5, "mark"),
                   (4, "il", "il", "PRON", 5, "nsubj"),
                   (5, "pleut", "pleuvoir", "VERB", 2, "advcl"),
                   (6, "parce", "parce", "ADV", 10, "mark"),
                   (7, "que", "que", "SCONJ", 6, "fixed"),
                   (8, "son", "son", "DET", 9, "det"),
                   (9, "ami", "ami", "NOUN", 10, "nsubj"),
                   (10, "habite", "habiter", "VERB", 2, "advcl"),
                   (11, ".", ".", "PUNCT", 2, "punct")])
        assert identify_use_cases(g) == [UseCaseKind.UC1_ADDITIONAL_INFO]
        (rel,) = extract_nary(g)
        assert rel.use_case is UseCaseKind.UC1_ADDITIONAL_INFO
        assert [(a.role, a.text, a.pivot) for a in rel.arguments] == [
            ("subj", "Il", 1), ("reason", "son ami habite", 10)]

    def test_uc2_replaces_only_the_relativized_object(self):
        g = build([(1, "Il", "il", "PRON", 3, "nsubj"),
                   (2, "lui", "lui", "PRON", 3, "iobj"),
                   (3, "donne", "donner", "VERB", 0, "root"),
                   (4, "le", "le", "DET", 5, "det"),
                   (5, "livre", "livre", "NOUN", 3, "obj"),
                   (6, "qu'", "que", "PRON", 8, "obj"),
                   (7, "il", "il", "PRON", 8, "nsubj"),
                   (8, "aime", "aimer", "VERB", 5, "acl:relcl"),
                   (9, ".", ".", "PUNCT", 3, "punct")])
        assert identify_use_cases(g) == [UseCaseKind.UC2_OBJECT_DETAIL]
        (rel,) = extract_nary(g)
        assert rel.use_case is UseCaseKind.UC2_OBJECT_DETAIL
        assert [(a.role, a.text, a.pivot) for a in rel.arguments] == [
            ("subj", "Il", 1), ("obj", "lui", 2), ("obj", "le livre", 5),
            ("detail", "qu'il aime", 8)]

    def test_uc2_moves_the_relativized_object_after_an_oblique(self):
        # « Il donne le livre qu'il aime à Marie. »
        g = build([(1, "Il", "il", "PRON", 2, "nsubj"),
                   (2, "donne", "donner", "VERB", 0, "root"),
                   (3, "le", "le", "DET", 4, "det"),
                   (4, "livre", "livre", "NOUN", 2, "obj"),
                   (5, "qu'", "que", "PRON", 7, "obj"),
                   (6, "il", "il", "PRON", 7, "nsubj"),
                   (7, "aime", "aimer", "VERB", 4, "acl:relcl"),
                   (8, "à", "à", "ADP", 9, "case"),
                   (9, "Marie", "Marie", "PROPN", 2, "obl"),
                   (10, ".", ".", "PUNCT", 2, "punct")])
        (rel,) = extract_nary(g)
        assert rel.use_case is UseCaseKind.UC2_OBJECT_DETAIL
        assert [(a.role, a.text, a.pivot) for a in rel.arguments] == [
            ("subj", "Il", 1), ("à", "Marie", 9), ("obj", "le livre", 4),
            ("detail", "qu'il aime", 7)]

    def test_uc2_moves_each_relativized_object_with_its_detail(self):
        # « Il montre l'enfant qui lit le livre qu'il aime. »
        g = build([(1, "Il", "il", "PRON", 2, "nsubj"),
                   (2, "montre", "montrer", "VERB", 0, "root"),
                   (3, "l'", "le", "DET", 4, "det"),
                   (4, "enfant", "enfant", "NOUN", 2, "iobj"),
                   (5, "qui", "qui", "PRON", 6, "nsubj"),
                   (6, "lit", "lire", "VERB", 4, "acl:relcl"),
                   (7, "le", "le", "DET", 8, "det"),
                   (8, "livre", "livre", "NOUN", 2, "obj"),
                   (9, "qu'", "que", "PRON", 11, "obj"),
                   (10, "il", "il", "PRON", 11, "nsubj"),
                   (11, "aime", "aimer", "VERB", 8, "acl:relcl"),
                   (12, ".", ".", "PUNCT", 2, "punct")])
        (rel,) = extract_nary(g)
        assert rel.use_case is UseCaseKind.UC2_OBJECT_DETAIL
        assert [(a.role, a.text, a.pivot) for a in rel.arguments] == [
            ("subj", "Il", 1), ("obj", "l'enfant", 4),
            ("detail", "qui lit", 6), ("obj", "le livre", 8),
            ("detail", "qu'il aime", 11)]

    def test_uc2_keeps_each_enumeration_item_once(self):
        # « Il visite des villes comme Pau et Tarbes qu'il aime. »
        g = build(_relativized_enumeration("visite", "visiter", "Tarbes"))
        uc2, uc4 = extract_nary(g)
        assert uc2.use_case is UseCaseKind.UC2_OBJECT_DETAIL
        assert [(a.role, a.text, a.pivot, a.order)
                for a in uc2.arguments] == [
            ("subj", "Il", 1, None), ("obj", "des villes", 4, None),
            ("item", "Pau", 6, 1), ("item", "Tarbes", 8, 2),
            ("detail", "qu'il aime", 11, None)]
        assert uc4.use_case is UseCaseKind.UC4_ORDERED_LIST
        # the bare object cuts the relative clause as well as the items
        assert [(a.role, a.text, a.pivot, a.order, a.flagged)
                for a in uc4.arguments] == [
            ("subj", "Il", 1, None, False),
            ("obj", "des villes", 4, None, False),
            ("item", "Pau", 6, 1, False), ("item", "Tarbes", 8, 2, False)]

    def test_uc2_itinerary_passes_through_each_item_once(self, lex):
        # « Il traverse des villes comme Pau et Lourdes qu'il aime. »
        g = build(_relativized_enumeration("traverse", "traverser",
                                           "Lourdes"))
        result = extract_sentence(g, lex)
        (it,) = [it for it in result.itinerary_relations
                 if it.source_nary.use_case is UseCaseKind.UC2_OBJECT_DETAIL]
        assert [e.text for e in it.intermediate] == ["Pau"]
        assert it.origin == it.destination == ()

    def test_uc4_itinerary_passes_through_each_item_once(self, lex):
        # « Il traverse des villes comme Pau et Lourdes qu'il aime. »
        g = build(_relativized_enumeration("traverse", "traverser",
                                           "Lourdes"))
        result = extract_sentence(g, lex)
        (it,) = [it for it in result.itinerary_relations
                 if it.source_nary.use_case is UseCaseKind.UC4_ORDERED_LIST]
        assert [e.text for e in it.intermediate] == ["Pau"]
        assert it.origin == it.destination == ()

    def test_uc2_detail_argument(self, gold):
        (rel,) = extract_nary(gold["gold-03"])
        assert rel.use_case is UseCaseKind.UC2_OBJECT_DETAIL
        texts = {(a.role, a.text) for a in rel.arguments}
        assert ("obj", "le chemin") in texts
        assert ("detail",
                "que j'avais suivi pour faire l'ascension du Mont-Perdu") \
            in texts

    def test_uc4_ordered_items(self, gold):
        (rel,) = extract_nary(gold["gold-04"])
        assert rel.use_case is UseCaseKind.UC4_ORDERED_LIST
        items = [a for a in rel.arguments if a.role == "item"]
        assert [(a.order, a.text) for a in items] == [
            (1, "la tour Eiffel"),
            (2, "le cité de l'espace"),
            (3, "le musée Louvre"),
        ]
        head = [a for a in rel.arguments if a.role == "obj"]
        assert [a.text for a in head] == ["les monuments"]

    def test_no_use_case_no_relation(self, gold):
        assert extract_nary(gold["gold-06"]) == []
        assert extract_nary(gold["gold-07"]) == []
        assert extract_nary(gold["gold-08"]) == []

    def test_uc3_needs_three_arguments(self):
        # two case-marked obliques but no subject: only 2 arguments -> no UC3
        g = build([(1, "Sorti", "sortir", "VERB", 0, "root"),
                   (2, "de", "de", "ADP", 3, "case"),
                   (3, "Pau", "Pau", "PROPN", 1, "obl"),
                   (4, "vers", "vers", "ADP", 5, "case"),
                   (5, "Laruns", "Laruns", "PROPN", 1, "obl")])
        assert extract_nary(g) == []

    def test_oblique_role_is_the_composed_lemma(self):
        # « Il sort de Pau à Laruns », the lemma of « à » decomposed
        g = build([(1, "Il", "il", "PRON", 2, "nsubj"),
                   (2, "sort", "sortir", "VERB", 0, "root"),
                   (3, "de", "de", "ADP", 4, "case"),
                   (4, "Pau", "Pau", "PROPN", 2, "obl"),
                   (5, "à", "a\u0300", "ADP", 6, "case"),
                   (6, "Laruns", "Laruns", "PROPN", 2, "obl")])
        (rel,) = extract_nary(g)
        assert [a.role for a in rel.arguments] == ["subj", "de", "\u00e0"]

    def test_uc3_invariant_on_gold(self, all_graphs):
        for g in all_graphs:
            for rel in extract_nary(g):
                if rel.use_case is UseCaseKind.UC3_NO_PRIMARY_ARGUMENT:
                    assert len(rel.arguments) >= 3

    def test_uc4_orders_strictly_increasing_from_one(self, all_graphs):
        for g in all_graphs:
            for rel in extract_nary(g):
                orders = [a.order for a in rel.arguments if a.order is not None]
                if rel.use_case is UseCaseKind.UC4_ORDERED_LIST:
                    assert orders and orders[0] == 1
                    assert all(b == a + 1 for a, b in zip(orders, orders[1:]))

    def test_coordinated_motion_verbs_yield_two_relations(self):
        g = build([(1, "Je", "je", "PRON", 2, "nsubj"),
                   (2, "sors", "sortir", "VERB", 0, "root"),
                   (3, "de", "de", "ADP", 4, "case"),
                   (4, "Pau", "Pau", "PROPN", 2, "obl"),
                   (5, "vers", "vers", "ADP", 6, "case"),
                   (6, "Laruns", "Laruns", "PROPN", 2, "obl"),
                   (7, "et", "et", "CCONJ", 8, "cc"),
                   (8, "pars", "partir", "VERB", 2, "conj"),
                   (9, "de", "de", "ADP", 10, "case"),
                   (10, "Laruns", "Laruns", "PROPN", 8, "obl"),
                   (11, "vers", "vers", "ADP", 12, "case"),
                   (12, "Gavarnie", "Gavarnie", "PROPN", 8, "obl")])
        rels = extract_nary(g)
        assert [r.predicate_lemma for r in rels] == ["sortir", "partir"]
        # the shared subject is inherited by the second conjunct
        assert all(any(a.role == "subj" and a.text == "Je"
                       for a in r.arguments) for r in rels)


class TestRelationEquality:
    def test_a_duplicate_relation_is_dropped(self):
        """« Il part pour , et part pour . »: each partir clause matches UC1
        through a reason clause of punctuation only, which gives no
        argument, so both give UC1 partir with the subject alone: the same
        use case, predicate lemma and argument multiset.  Only the first is
        kept."""
        rows = [(1, "Il", "il", "PRON", 2, "nsubj"),
                (2, "part", "partir", "VERB", 0, "root"),
                (3, "pour", "pour", "ADP", 4, "mark"),
                (4, ",", ",", "PUNCT", 2, "advcl"),
                (5, "et", "et", "CCONJ", 6, "cc"),
                (6, "part", "partir", "VERB", 2, "conj"),
                (7, "pour", "pour", "ADP", 8, "mark"),
                (8, ".", ".", "PUNCT", 6, "advcl")]
        (rel,) = extract_nary(build(rows))
        assert rel.use_case is UseCaseKind.UC1_ADDITIONAL_INFO
        assert (rel.predicate_lemma, rel.predicate_token) == ("partir", 2)
        assert [a.text for a in rel.arguments] == ["Il"]
        # with another lemma, the second clause's relation is kept
        rows[5] = (6, "vient", "venir", "VERB", 2, "conj")
        assert [(r.predicate_lemma, r.predicate_token, r.arguments)
                for r in extract_nary(build(rows))] == [
            ("partir", 2, rel.arguments), ("venir", 6, rel.arguments)]

    def test_inequality_on_predicate_and_args(self, gold):
        (rel,) = extract_nary(gold["gold-01"])
        other = NaryRelation(use_case=rel.use_case, predicate_lemma="partir",
                             predicate_token=rel.predicate_token,
                             arguments=rel.arguments)
        assert rel != other
        fewer = NaryRelation(use_case=rel.use_case,
                             predicate_lemma=rel.predicate_lemma,
                             predicate_token=rel.predicate_token,
                             arguments=rel.arguments[:-1])
        assert rel != fewer

    def test_duplicate_multiset_counts_matter(self):
        a = Argument(span=TokenSpan(1, 1), text="x", role="obj", pivot=1)
        one = NaryRelation(use_case=UseCaseKind.UC3_NO_PRIMARY_ARGUMENT,
                           predicate_lemma="v", predicate_token=2,
                           arguments=(a,))
        two = NaryRelation(use_case=UseCaseKind.UC3_NO_PRIMARY_ARGUMENT,
                           predicate_lemma="v", predicate_token=2,
                           arguments=(a, a))
        assert one != two

    def test_determinism(self, gold_text):
        import itirel
        runs = []
        for _ in range(2):
            graphs = itirel.parse_conllu(gold_text)
            runs.append([extract_nary(g) for g in graphs])
        assert runs[0] == runs[1]
