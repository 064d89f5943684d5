"""Unit tests for the triple store and its pattern-matching access paths."""

import pytest

from repro.rdf import XSD_NS, Graph, Literal, pattern, triple, uri, var
from repro.rdf.terms import Variable


@pytest.fixture
def graph():
    g = Graph("test")
    g.add(triple("ttn:a", "ttn:knows", "ttn:b"))
    g.add(triple("ttn:a", "ttn:knows", "ttn:c"))
    g.add(triple("ttn:b", "ttn:knows", "ttn:c"))
    g.add(triple("ttn:a", "foaf:name", "Alice"))
    g.add(triple("ttn:b", "foaf:name", "Bob"))
    g.add(triple("ttn:a", "rdf:type", "ttn:person"))
    return g


class TestMutation:
    def test_add_returns_true_for_new_triple(self):
        g = Graph()
        assert g.add(triple("ttn:x", "ttn:p", "ttn:y")) is True

    def test_add_duplicate_returns_false(self, graph):
        assert graph.add(triple("ttn:a", "ttn:knows", "ttn:b")) is False
        assert len(graph) == 6

    def test_add_all_counts_new_triples(self, graph):
        added = graph.add_all([triple("ttn:a", "ttn:knows", "ttn:b"),
                               triple("ttn:c", "ttn:knows", "ttn:a")])
        assert added == 1

    def test_remove_existing(self, graph):
        t = triple("ttn:a", "ttn:knows", "ttn:b")
        assert graph.remove(t) is True
        assert t not in graph
        assert len(graph) == 5

    def test_remove_missing_returns_false(self, graph):
        assert graph.remove(triple("ttn:z", "ttn:p", "ttn:z")) is False

    def test_clear(self, graph):
        graph.clear()
        assert len(graph) == 0

    def test_removed_triple_not_matched(self, graph):
        t = triple("ttn:a", "foaf:name", "Alice")
        graph.remove(t)
        assert list(graph.match(pattern("ttn:a", "foaf:name", "?n"))) == []


class TestMatching:
    def test_match_fully_bound(self, graph):
        matches = list(graph.match(pattern("ttn:a", "ttn:knows", "ttn:b")))
        assert len(matches) == 1

    def test_match_by_subject_predicate(self, graph):
        matches = list(graph.match(pattern("ttn:a", "ttn:knows", "?o")))
        assert {m.obj for m in matches} == {uri("ttn:b"), uri("ttn:c")}

    def test_match_by_predicate_object(self, graph):
        matches = list(graph.match(pattern("?s", "ttn:knows", "ttn:c")))
        assert {m.subject for m in matches} == {uri("ttn:a"), uri("ttn:b")}

    def test_match_by_predicate_only(self, graph):
        assert len(list(graph.match(pattern("?s", "ttn:knows", "?o")))) == 3

    def test_match_by_subject_only(self, graph):
        assert len(list(graph.match(pattern("ttn:a", "?p", "?o")))) == 4

    def test_match_by_object_only(self, graph):
        matches = list(graph.match(pattern("?s", "?p", "ttn:c")))
        assert len(matches) == 2

    def test_match_all_variables(self, graph):
        assert len(list(graph.match(pattern("?s", "?p", "?o")))) == len(graph)

    def test_match_literal_object(self, graph):
        matches = list(graph.match(pattern("?s", "foaf:name", Literal("Alice"))))
        assert [m.subject for m in matches] == [uri("ttn:a")]

    def test_repeated_variable_constrains_match(self):
        g = Graph()
        g.add(triple("ttn:a", "ttn:knows", "ttn:a"))
        g.add(triple("ttn:a", "ttn:knows", "ttn:b"))
        same = Variable("x")
        matches = list(g.match(pattern(same, "ttn:knows", same)))
        assert len(matches) == 1
        assert matches[0].subject == matches[0].obj


class TestCounting:
    def test_count_by_predicate(self, graph):
        assert graph.count(pattern("?s", "ttn:knows", "?o")) == 3

    def test_count_subject_predicate(self, graph):
        assert graph.count(pattern("ttn:a", "ttn:knows", "?o")) == 2

    def test_count_all(self, graph):
        assert graph.count(pattern("?s", "?p", "?o")) == 6

    def test_count_missing(self, graph):
        assert graph.count(pattern("ttn:z", "ttn:knows", "?o")) == 0


class TestIntrospection:
    def test_predicates(self, graph):
        assert uri("ttn:knows") in graph.predicates()

    def test_value_returns_one_object(self, graph):
        assert graph.value(uri("ttn:a"), uri("foaf:name")) == Literal("Alice")

    def test_value_missing_returns_none(self, graph):
        assert graph.value(uri("ttn:z"), uri("foaf:name")) is None

    def test_resources_of_type(self, graph):
        assert graph.resources_of_type(uri("ttn:person")) == {uri("ttn:a")}

    def test_predicate_counts(self, graph):
        counts = graph.predicate_counts()
        assert counts[uri("ttn:knows")] == 3
        assert counts[uri("foaf:name")] == 2

    def test_literals(self, graph):
        assert Literal("Alice") in graph.literals()

    def test_union_is_new_graph(self, graph):
        other = Graph("other", [triple("ttn:z", "foaf:name", "Zoe")])
        merged = graph.union(other)
        assert len(merged) == len(graph) + 1
        assert len(graph) == 6

    def test_copy_is_independent(self, graph):
        clone = graph.copy()
        clone.add(triple("ttn:new", "foaf:name", "New"))
        assert len(clone) == len(graph) + 1

    def test_terms_contains_all_positions(self, graph):
        terms = graph.terms()
        assert uri("ttn:a") in terms and uri("ttn:knows") in terms


class TestIndexPruning:
    """Regression: add/remove churn must not leak empty index buckets."""

    @staticmethod
    def _bucket_count(index):
        return len(index), sum(len(inner) for inner in index.values())

    def test_remove_prunes_emptied_buckets(self):
        g = Graph()
        t = triple("ttn:x", "ttn:p", "ttn:y")
        g.add(t)
        g.remove(t)
        assert len(g._spo) == 0
        assert len(g._pos) == 0
        assert len(g._osp) == 0

    def test_churn_keeps_indexes_bounded(self):
        g = Graph()
        keep = triple("ttn:keep", "ttn:p", "ttn:kept")
        g.add(keep)
        for i in range(500):
            t = triple(f"ttn:s{i}", f"ttn:p{i}", f"ttn:o{i}")
            g.add(t)
            g.remove(t)
        assert self._bucket_count(g._spo) == (1, 1)
        assert self._bucket_count(g._pos) == (1, 1)
        assert self._bucket_count(g._osp) == (1, 1)
        assert keep in g

    def test_partial_removal_keeps_sibling_entries(self, graph):
        graph.remove(triple("ttn:a", "ttn:knows", "ttn:b"))
        # ttn:a still knows ttn:c through the same (subject, predicate) bucket.
        assert graph.objects(subject=uri("ttn:a"), predicate=uri("ttn:knows")) \
            == {uri("ttn:c")}

    def test_remove_all(self, graph):
        removed = graph.remove_all([triple("ttn:a", "ttn:knows", "ttn:b"),
                                    triple("ttn:missing", "ttn:p", "ttn:o")])
        assert removed == 1


class TestVersionCounters:
    def test_version_bumps_on_effective_mutations_only(self):
        g = Graph()
        t = triple("ttn:x", "ttn:p", "ttn:y")
        assert g.version == 0
        g.add(t)
        assert g.version == 1 and g.additions == 1
        g.add(t)  # duplicate: no bump
        assert g.version == 1
        g.remove(t)
        assert g.version == 2 and g.removals == 1
        g.remove(t)  # absent: no bump
        assert g.version == 2

    def test_equal_size_mutation_changes_version(self):
        g = Graph()
        g.add(triple("ttn:x", "ttn:p", "ttn:y"))
        before = g.version
        g.remove(triple("ttn:x", "ttn:p", "ttn:y"))
        g.add(triple("ttn:x", "ttn:p", "ttn:z"))
        assert len(g) == 1
        assert g.version > before

    def test_clear_bumps_version(self):
        g = Graph()
        g.add(triple("ttn:x", "ttn:p", "ttn:y"))
        before = g.version
        g.clear()
        assert g.version > before
        g.clear()  # already empty: no bump
        assert g.version == before + 1


class TestSubjectsObjectsFromIndexes:
    """`subjects()`/`objects()` answer straight from the permutation indexes."""

    def test_subjects_unconstrained(self, graph):
        assert graph.subjects() == {uri("ttn:a"), uri("ttn:b")}

    def test_subjects_by_predicate(self, graph):
        assert graph.subjects(predicate=uri("ttn:knows")) == {uri("ttn:a"), uri("ttn:b")}

    def test_subjects_by_object(self, graph):
        assert graph.subjects(obj=uri("ttn:c")) == {uri("ttn:a"), uri("ttn:b")}

    def test_subjects_by_predicate_and_object(self, graph):
        assert graph.subjects(predicate=uri("ttn:knows"), obj=uri("ttn:b")) \
            == {uri("ttn:a")}

    def test_objects_unconstrained(self, graph):
        assert uri("ttn:c") in graph.objects()
        assert Literal("Alice") in graph.objects()

    def test_objects_by_subject(self, graph):
        assert graph.objects(subject=uri("ttn:b")) \
            == {uri("ttn:c"), Literal("Bob")}

    def test_objects_by_predicate(self, graph):
        assert graph.objects(predicate=uri("foaf:name")) \
            == {Literal("Alice"), Literal("Bob")}

    def test_objects_by_subject_and_predicate(self, graph):
        assert graph.objects(subject=uri("ttn:a"), predicate=uri("ttn:knows")) \
            == {uri("ttn:b"), uri("ttn:c")}

    def test_results_reflect_removals(self, graph):
        graph.remove(triple("ttn:b", "ttn:knows", "ttn:c"))
        graph.remove(triple("ttn:b", "foaf:name", "Bob"))
        assert graph.subjects() == {uri("ttn:a")}
        assert uri("ttn:b") not in graph.subjects(predicate=uri("ttn:knows"))

    def test_returned_sets_are_copies(self, graph):
        subjects = graph.subjects(predicate=uri("ttn:knows"))
        subjects.clear()
        assert graph.subjects(predicate=uri("ttn:knows"))


class TestTermIds:
    """Terms are interned once per dictionary; counts are kept on write."""

    def test_predicate_counts_follow_writes(self, graph):
        knows = pattern("?s", "ttn:knows", "?o")
        before = graph.count(knows)
        graph.add(triple("ttn:z", "ttn:knows", "ttn:a"))
        assert graph.count(knows) == before + 1 == sum(1 for _ in graph.match(knows))
        graph.remove(triple("ttn:z", "ttn:knows", "ttn:a"))
        graph.remove_all(list(graph.match(knows)))
        assert graph.count(knows) == 0 and uri("ttn:knows") not in graph.predicates()

    def test_an_id_means_one_term_in_every_view(self, graph):
        snapshot, copy = graph.snapshot(), graph.copy()
        graph.add(triple("ttn:new", "ttn:knows", "ttn:a"))
        copy.add(triple("ttn:other", "ttn:knows", "ttn:a"))
        assert snapshot.dictionary is copy.dictionary is graph.dictionary
        ids = graph.dictionary.ids
        assert graph.dictionary.terms[ids[uri("ttn:new")]] == uri("ttn:new")
        assert triple("ttn:new", "ttn:knows", "ttn:a") not in snapshot
        assert triple("ttn:other", "ttn:knows", "ttn:a") not in graph

    def test_the_dictionary_decodes_each_term_to_its_python_value(self):
        g = Graph("g", [triple("ttn:a", "ttn:p", 5), triple("ttn:a", "ttn:q", "five")])
        ids, values = g.dictionary.ids, g.dictionary
        assert values[ids[uri("ttn:a")]] == uri("ttn:a").value
        assert values[ids[Literal("5", datatype=XSD_NS + "integer")]] == 5
        assert values[ids[Literal("five")]] == "five"

    def test_a_batch_is_one_version_and_one_record(self):
        g = Graph("g")
        g.add_all(triple(f"ttn:s{i}", "ttn:p", i) for i in range(50))
        assert g.version == 1 and len(g.journal) == 1 and len(g) == 50

    def test_concurrent_interning_keeps_one_id_per_term(self):
        """A graph and its copy intern into one dictionary from several
        threads at once: every term gets exactly one id, and the id names
        it."""
        import sys
        import threading

        from repro.rdf.graph import TermDictionary

        terms, interval = [uri(f"ttn:t{i}") for i in range(2000)], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                dictionary, start = TermDictionary(), threading.Barrier(6)

                def intern() -> None:
                    start.wait(timeout=30)
                    for term in terms:
                        dictionary.intern(term)

                workers = [threading.Thread(target=intern) for _ in range(6)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=30)
                assert not any(worker.is_alive() for worker in workers)
                assert len(dictionary.terms) == len(dictionary.ids) == len(terms)
                assert all(dictionary.terms[dictionary.ids[t]] == t for t in terms)
        finally:
            sys.setswitchinterval(interval)
