"""The one definition of a CMQ's answer, for the differential tests.

The answer to a CMQ is what a *twin* of the instance under test returns:
the same data, built the same way and given the same writes, evaluated
without any cache (``cache=None``) under the reference plan
(:func:`repro.baselines.naive.naive_options`: body order, no bind joins
beyond the forced ones, one step per stage), on a catalog it pins source
by source for each answer rather than through the instance's memoised
pin (:func:`repro.service.snapshots.pin_instance`): a bug in that memo
cannot serve the twin the same stale catalog it serves the instance
under test.  Answers are compared as multisets of rows, whatever their
order.  ``benchmarks/e2e`` keeps its own copy of this oracle (it hashes
the multiset instead of holding it).
"""

from __future__ import annotations

from collections import Counter

from repro.baselines.naive import naive_options
from repro.engine.batch import freeze
from repro.service.snapshots import PinnedCatalog


def multiset(result) -> Counter:
    """A result's rows as a multiset of value tuples (sorted variables)."""
    keys = sorted(result.variables)
    return Counter(freeze(tuple(row.get(key) for key in keys)) for row in result.rows)


class Oracle:
    """Reference answers from ``twin``, a :class:`~repro.core.MixedInstance`
    that the caller keeps in step with the instance under test."""

    def __init__(self, twin):
        twin.cache = None
        self.twin = twin
        self.options = naive_options()

    def answer(self, cmq) -> Counter:
        """The multiset ``cmq`` (an object over the twin, or text) answers."""
        twin = self.twin
        catalog = PinnedCatalog({uri: source.pin()
                                 for uri, source in twin.registered_sources().items()},
                                twin.glue_source.pin())
        return multiset(catalog.execute(twin, cmq, options=self.options))
