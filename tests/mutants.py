"""Mutation check of the differential harness: every mutant must be killed.

A mutant is one deliberate bug, applied by monkeypatching the program
(nothing on disk changes).  The script runs the row-kernel tests
(``test_row_kernels.py``) and then ``test_oracle_harness.py`` once per
mutant, each in a fresh interpreter, and calls the mutant *killed* when
they fail; a mutant that survives is a bug they cannot see.  The kernel
tests catch what two equally mutated instances cannot tell apart — the
order of tied hits, a loose match on a shared column.  The unmutated
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
        before = graph.copy()
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


MUTANTS = {mutant.__name__: mutant for mutant in (
    constants_out_of_the_binding_key, stamp_matches_every_version,
    repair_ignores_its_delta, headers_left_untranslated,
    no_subtraction, subtract_the_written_copies,
    repair_from_explicit_delta, seed_drops_spelling_variants,
    repair_reads_pre_write_closure, wire_skips_tagged_columns,
    stored_row_outlives_upsert, snapshot_reads_live_stored_rows,
    rdf_header_sorted, remote_header_reversed, rank_without_id_tie_break,
    merge_without_shared_check)}


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
    return pytest.main(["-q", "-x", "-p", "no:cacheprovider", str(KERNELS), str(HARNESS)])


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
