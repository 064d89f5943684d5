"""Mutation check of the differential harness: every mutant must be killed.

A mutant is one deliberate bug, applied by monkeypatching the program
(nothing on disk changes).  The script runs the row-kernel tests
(``test_row_kernels.py``), the compact-store tests
(``test_compact_stores.py``), the JSON matcher's differential against
per-document reference scans (``test_json_matcher.py::TestEquivalence``),
the read-protocol tests (``test_digest_maintenance.py::TestReadProtocol``)
and then ``test_oracle_harness.py`` once per mutant, each in a fresh
interpreter, and calls the mutant *killed* when they fail; a mutant that
survives is a bug they cannot see.  The
kernel and store tests catch what two equally mutated instances cannot
tell apart — the order of tied hits, a loose match on a shared column,
a phrase no asking of the harness reads, an index entry a matcher's
verification hides, a walk that drops a pushed-down value, a read a
concurrent writer tears.  The unmutated
run comes first and must pass.  Not a tier-1 test — it runs the harness
once per mutant, about ten seconds each::

    PYTHONPATH=src python tests/mutants.py            # every mutant
    PYTHONPATH=src python tests/mutants.py NAME ...   # the named ones
    PYTHONPATH=src python tests/mutants.py --list

Exits 0 when the unmutated harness passes and every mutant is killed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
HARNESS = HERE / "test_oracle_harness.py"
KERNELS = HERE / "test_row_kernels.py"
STORES = HERE / "test_compact_stores.py"
#: The JSON matcher against per-document reference scans.
MATCHER = f"{HERE / 'test_json_matcher.py'}::TestEquivalence"
#: Digests derived while a writer commits, and snapshots read only in a reading.
READS = f"{HERE / 'test_digest_maintenance.py'}::TestReadProtocol"


def constants_out_of_the_binding_key(patch) -> None:
    """Two askings differing only in an atom's constant share a key."""
    from repro.cache.keys import CanonicalQuery

    keyer = CanonicalQuery.keyer
    patch.setattr(CanonicalQuery, "keyer",
                  lambda self, slots, constants=None: keyer(self, slots))


def stamp_matches_every_version(patch) -> None:
    """A cache entry outlives every write to its source."""
    from repro.cache.results import SubQueryResultCache

    class Stamp(int):
        """A version stamp the probe's check takes for any version."""

        __hash__ = int.__hash__

        def __eq__(self, other: object) -> bool:
            return True

        def __ne__(self, other: object) -> bool:
            return False

    insert = SubQueryResultCache.insert_canonical
    patch.setattr(SubQueryResultCache, "insert_canonical",
                  lambda self, key, version, batches: insert(self, key, Stamp(version), batches))


def repair_ignores_its_delta(patch) -> None:
    """Every repair re-stamps the stale entry as it stands."""
    from repro.cache.repair import RepairEngine

    patch.setattr(RepairEngine, "_apply",
                  lambda self, source, query, canon, bindings, stored, records: stored)


def headers_left_untranslated(patch) -> None:
    """A cache hit answers under the canonical names it is stored in."""
    from repro.cache.keys import CanonicalQuery

    patch.setattr(CanonicalQuery, "original_batches", lambda self, batches: list(batches))


def no_subtraction(patch) -> None:
    """An upsert or a removal keeps the replaced copy's rows."""
    from repro.cache import repair

    patch.setattr(repair, "_subtracted", lambda base, gone: base)


def subtract_the_written_copies(patch) -> None:
    """An upsert subtracts the rows of the copies it wrote, not of the
    copies it replaced."""
    from repro.fulltext.source import FullTextSource
    from repro.json.source import JSONSource

    for wrapper in (FullTextSource, JSONSource):
        deltas = wrapper._delta_sources

        def written_twice(source, records, deltas=deltas):
            written, _ = deltas(source, records)
            return written, written

        patch.setattr(wrapper, "_delta_sources", written_twice)


def repair_from_explicit_delta(patch) -> None:
    """A glue entry is repaired from the triples a write batch holds, not
    from what it added to G∞."""
    from repro.rdf.source import RDFSource

    delta = RDFSource._delta_graph

    def explicit(source, records):
        found = delta(source, records)
        return found and (found[0], [t for record in records for t in record.items])

    patch.setattr(RDFSource, "_delta_graph", explicit)


def seed_drops_spelling_variants(patch) -> None:
    """A bound value seeds the BGP join under its first spelling only."""
    from repro.rdf import source

    variants = source._binding_term_variants
    patch.setattr(source, "_binding_term_variants", lambda value: variants(value)[:1])


def repair_reads_pre_write_closure(patch) -> None:
    """The patterns a repair does not seed read G∞ as it stood before the
    write."""
    from repro.rdf.source import RDFSource

    delta = RDFSource._delta_graph

    def stale(source, records):
        found = delta(source, records)
        if not found:
            return found
        graph, triples = found
        with graph.reading() as current:
            before = current.copy()
        before.remove_all(triples)
        return before, triples

    patch.setattr(RDFSource, "_delta_graph", stale)


def wire_skips_tagged_columns(patch) -> None:
    """A remote answer's tagged columns are read as they travel, so a
    tuple arrives as its tag object."""
    from repro.remote import protocol

    decode = protocol.decode_answer

    def untagged(answer):
        return decode([[columns, count, values, []]
                       for columns, count, values, _ in answer])

    patch.setattr(protocol, "decode_answer", untagged)


def stored_row_outlives_upsert(patch) -> None:
    """A full-text de-index leaves the document's stored row, and the copy
    indexed next keeps it: an upserted document projects its old fields."""
    from repro.fulltext.store import FullTextStore

    deindex, index = FullTextStore._deindex_unlocked, FullTextStore._index_unlocked

    def leaving_the_row(self, doc_id):
        row = self._stored.get(doc_id)
        old = deindex(self, doc_id)
        if row is not None:
            self._stored[doc_id] = row
        return old

    def keeping_the_row(self, doc):
        row = self._stored.get(doc.doc_id)
        index(self, doc)
        if row is not None:
            self._stored[doc.doc_id] = row

    patch.setattr(FullTextStore, "_deindex_unlocked", leaving_the_row)
    patch.setattr(FullTextStore, "_index_unlocked", keeping_the_row)


def snapshot_reads_live_stored_rows(patch) -> None:
    """A full-text snapshot read back at its version projects the live
    store's rows."""
    from repro.fulltext.store import FullTextSnapshot

    at = FullTextSnapshot._at

    def live_rows(self, undo):
        store = at(self, undo)
        store._stored = self._live._stored
        return store

    patch.setattr(FullTextSnapshot, "_at", live_rows)


def snapshot_replay_writes_live(patch) -> None:
    """A copy-on-write view's ``get`` never copies, so a snapshot's replay
    writes into the live store's containers."""
    from repro.core.deltas import CopyOnWrite

    patch.setattr(CopyOnWrite, "get",
                  lambda self, key, default=None: dict.get(self, key, default))


def live_reading_unlocked(patch) -> None:
    """A live store's reading yields the store without its read lock."""
    from contextlib import nullcontext

    from repro.core.deltas import Journalled

    patch.setattr(Journalled, "reading", lambda self: nullcontext(self))


def rdf_header_sorted(patch) -> None:
    """An RDF answer's header lists its variables sorted, while its rows
    keep the query's order."""
    from repro.rdf.source import RDFSource
    from repro.engine.batch import BindingBatch

    execute_batch = RDFSource.execute_batch

    def sorted_header(self, query, bindings_batch):
        return [[BindingBatch(sorted(batch.columns), batch.rows) for batch in answer]
                for answer in execute_batch(self, query, bindings_batch)]

    patch.setattr(RDFSource, "execute_batch", sorted_header)


def remote_header_reversed(patch) -> None:
    """A remote answer's header is read back to front."""
    from repro.engine.batch import BindingBatch
    from repro.remote import protocol

    decode = protocol.decode_answer

    def reversed_header(answer):
        return [BindingBatch(batch.columns[::-1], batch.rows) for batch in decode(answer)]

    patch.setattr(protocol, "decode_answer", reversed_header)


def rank_without_id_tie_break(patch) -> None:
    """Relevance ranks hits on the score alone: tied hits keep the order
    the match set happens to list them in."""
    from repro.fulltext.store import FullTextStore

    rank = FullTextStore.rank

    def untied(self, doc_ids, score, sort_by=None, descending=True, limit=None):
        if sort_by:
            return rank(self, doc_ids, score, sort_by, descending, limit)
        ranked = list(zip(ids := list(doc_ids), score(ids)))
        ranked.sort(key=lambda hit: hit[1], reverse=True)
        return ranked if limit is None else ranked[:limit]

    patch.setattr(FullTextStore, "rank", untied)


def merge_without_shared_check(patch) -> None:
    """A bind join merges a left row with every fetched row, agreeing on
    the shared columns or not."""
    from repro.engine import iterators
    from repro.engine.batch import merge_spec

    def unchecked(left_columns, right_columns):
        out_columns, merge = merge_spec(left_columns, right_columns)
        return out_columns, lambda run: [merge(row + right) for row, rights in run
                                         for right in rights]

    patch.setattr(iterators, "row_merger", unchecked)


def pinned_catalog_outlives_a_write(patch) -> None:
    """An instance's last pinned catalog is reused after a write: its URIs
    are compared, not the wrappers pinned under them."""
    from repro.service import snapshots

    patch.setattr(snapshots, "_same_pins",
                  lambda catalog, sources, glue: list(catalog.sources) == list(sources))


def phrase_ignores_adjacency(patch) -> None:
    """A phrase matches every document holding all of its stems, in any
    order and apart: a bag of stems."""
    from repro.fulltext.store import FullTextStore

    def bag(self, query):
        index = self._text_indexes[query.field or self.default_field]
        stems = [stem for term in query.terms for stem in self.analyzer.stems(term)]
        return set.intersection(*map(index.documents_with, stems)) if stems else set()

    patch.setattr(FullTextStore, "_evaluate_phrase", bag)


def json_deindex_drops_a_leaf(patch) -> None:
    """A JSON de-index leaves the document's last leaf in its path index."""
    from repro.digest.dataguide import leaves
    from repro.json.index import PathIndex
    from repro.json.store import JSONDocumentStore

    deindex = JSONDocumentStore._deindex_unlocked

    def dropping(self, doc_id):
        document = self._documents.get(doc_id)
        old = deindex(self, doc_id)
        walked = list(leaves(document)) if document is not None else []
        if walked:
            path, value = walked[-1]
            if self._indexes.get(path) is None:
                self._indexes[path] = PathIndex(path)
            self._indexes[path].add(doc_id, [value])
        return old

    patch.setattr(JSONDocumentStore, "_deindex_unlocked", dropping)


def unrestricted_leaf_skipped(patch) -> None:
    """An unrestricted leaf is skipped even when some documents lack its path."""
    from repro.json.matcher import TreePatternMatcher
    from repro.json.pattern import TreePattern

    candidates = TreePatternMatcher.candidates

    def skipping(self, pattern, parameters=None, pushdown=None):
        kept = tuple(leaf for leaf in pattern.leaves
                     if self.store.index_for(leaf.path) is None or leaf.predicates
                     or leaf.variable in (pushdown or {}))
        if not kept:
            return [doc_id for doc_id, _ in self.store.items()]
        return candidates(self, TreePattern(kept), parameters, pushdown)

    patch.setattr(TreePatternMatcher, "candidates", skipping)


def removal_keeps_the_removed_id(patch) -> None:
    """A removal that leaves one id keeps the removed id."""
    from repro.json.index import PathIndex, normalize

    remove = PathIndex.remove

    def keeping(self, doc_id, values):
        values = list(values)
        shrinking = {key for key in map(normalize, values)
                     if (bucket := dict.get(self.postings, key)) is not None
                     and type(bucket) is set and len(bucket) == 2 and doc_id in bucket}
        remove(self, doc_id, values)
        for key in shrinking:
            self.postings[key] = (doc_id,)

    patch.setattr(PathIndex, "remove", keeping)


def pushdown_ignored_under_a_predicate(patch) -> None:
    """The walk ignores a pushed-down binding when its leaf has a predicate."""
    from repro.json.matcher import _Walk

    compile_walk = _Walk.__init__

    def ignoring(self, pattern, parameters, pushdown):
        predicated = {leaf.variable for leaf in pattern.leaves if leaf.predicates}
        compile_walk(self, pattern, parameters,
                     {name: value for name, value in pushdown.items() if name not in predicated})

    patch.setattr(_Walk, "__init__", ignoring)


MUTANTS = {mutant.__name__: mutant for mutant in (
    constants_out_of_the_binding_key, stamp_matches_every_version,
    repair_ignores_its_delta, headers_left_untranslated,
    no_subtraction, subtract_the_written_copies,
    repair_from_explicit_delta, seed_drops_spelling_variants,
    repair_reads_pre_write_closure, wire_skips_tagged_columns,
    stored_row_outlives_upsert, snapshot_reads_live_stored_rows,
    snapshot_replay_writes_live, live_reading_unlocked,
    rdf_header_sorted, remote_header_reversed, rank_without_id_tie_break,
    merge_without_shared_check, pinned_catalog_outlives_a_write,
    phrase_ignores_adjacency, json_deindex_drops_a_leaf, unrestricted_leaf_skipped,
    removal_keeps_the_removed_id, pushdown_ignored_under_a_predicate)}


def _run(name: str) -> int:
    """The harness under mutant ``name`` (``none``: unmutated), here."""
    import pytest
    from hypothesis import Phase, settings

    # A killed mutant needs its first failing example, not the smallest.
    settings.register_profile("mutants", phases=(Phase.explicit, Phase.generate))
    settings.load_profile("mutants")
    patch = pytest.MonkeyPatch()
    if name != "none":
        MUTANTS[name](patch)
    return pytest.main(["-q", "-x", "-p", "no:cacheprovider", str(KERNELS), str(STORES),
                        MATCHER, READS, str(HARNESS)])


def main(argv: list[str]) -> int:
    if argv[:1] == ["--run"]:
        return _run(argv[1])
    if argv[:1] == ["--list"]:
        for name, mutant in MUTANTS.items():
            print(f"{name}: {mutant.__doc__}")
        return 0
    unknown = [name for name in argv if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    source = str(HERE.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": source if not path else source + os.pathsep + path}
    ok = True
    for name in ["none", *(argv or MUTANTS)]:
        code = subprocess.run([sys.executable, __file__, "--run", name], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        if name == "none":
            verdict, good = ("passes" if code == 0 else f"FAILS (exit {code})"), code == 0
        else:
            verdict, good = ("killed" if code == 1 else f"SURVIVED (exit {code})"), code == 1
        ok = ok and good
        print(f"{name:<36} {verdict}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
