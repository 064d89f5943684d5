"""Snapshot pinning: one consistent ``(source, version)`` vector per CMQ.

A CMQ meets its sources one way: pinned, once, on first use.  The
:class:`PinnedCatalog` holds, for every registered source (the glue
graph included, in registration order), a wrapper that serves the CMQ
one version for its whole plan.  A local wrapper is a read-only view of
a store snapshot, taken under the store's reader-writer lock and
memoised per version (:meth:`repro.core.sources.DataSource.pin`); a
remote one is a per-CMQ clone that pins its server-side snapshot with
the first frame the CMQ sends it and sends none if the CMQ never reaches
it (:meth:`repro.remote.RemoteSource.pin`).  Writers keep mutating the
live stores, later queries pin later versions, but no query ever sees a
half-applied delta.  Because pinned wrappers share their live wrapper's
cache token and version, the cross-query result cache remains shared
(and sound: the version an entry is stamped with really describes
immutable content).  ``MixedInstance.execute`` and the mediator service both
evaluate through :meth:`PinnedCatalog.executor`; a keyword search reads
its digests (:meth:`PinnedCatalog.digests`) and runs its candidates on
one pin.

An executor holds nothing of one execution's own, so a catalog builds
one per options value, and :func:`pin_instance` returns the previous
catalog while no pin moved: CMQs between two writes share one executor
(a remote source's per-CMQ clone always moves).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.core.cmq import GLUE_SOURCE
from repro.core.executor import MixedQueryExecutor
from repro.core.planner import PlannerOptions
from repro.core.sources import DataSource
from repro.digest.graph import DigestCatalog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.instance import MixedInstance


@dataclass
class PinnedCatalog:
    """The wrappers one CMQ evaluates against."""

    sources: dict[str, DataSource]
    glue: DataSource
    #: The executor built per (options, cache, repair engine) it reads.
    _executors: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    @property
    def versions(self) -> dict[str, Optional[int]]:
        """uri -> pinned version (``GLUE_SOURCE`` key for the glue graph).

        Read on demand, never over the wire: a remote source reports the
        version its first frame pinned, so ``None`` means the query has
        not reached it (or it was down) — as it does for a wrapper
        without version support, which is served live.
        """
        versions: dict[str, Optional[int]] = {GLUE_SOURCE: self.glue.version()}
        for uri, source in self.sources.items():
            remote = source.cost_kind == "remote"
            versions[uri] = source.pinned_at if remote else source.version()
        return versions

    def source(self, uri: str) -> DataSource:
        """The pinned wrapper of ``uri`` (``GLUE_SOURCE``: the glue graph's)."""
        return self.glue if uri == GLUE_SOURCE else self.sources[uri]

    def executor(self, instance: "MixedInstance",
                 options: PlannerOptions | None = None) -> MixedQueryExecutor:
        """The executor whose every dispatch hits the pinned snapshots,
        built on first asking and shared by every later one.

        ``instance`` supplies the shared mediator cache and statistics
        catalog (``PlannerOptions(result_cache=False, plan_cache=False)``
        keeps this executor off the shared result/plan caches — the
        equivalence harness uses that to verify service answers
        independently).  Switching the cache's repair engine builds anew:
        the layers hold the engine they were built with.
        """
        cache = instance.cache
        key = (options or PlannerOptions(), cache, getattr(cache, "repair", None))
        if key not in self._executors:
            self._executors.setdefault(key, MixedQueryExecutor(
                self.sources, self.glue, options=key[0], cache=cache,
                statistics=instance.statistics()))
        return self._executors[key]

    def digests(self, instance: "MixedInstance") -> DigestCatalog:
        """The digest catalog of these pins: each wrapper's digest
        (:meth:`~repro.core.sources.DataSource.digest`), the glue graph's
        first and then the sources' in URI order, and the join edges
        between them.  The instance keeps its last catalog in one slot,
        reused while every wrapper's digest is the same object at the
        same version (a remote clone, which has none, never moves it)."""
        wrappers = [self.glue, *(self.sources[uri] for uri in sorted(self.sources))]
        digests = {source.uri: source.digest() for source in wrappers}
        stamps = {uri: (digest, digest and digest.version) for uri, digest in digests.items()}
        kept = instance._catalog
        if kept is not None and _same_digests(kept[0], stamps):
            return kept[1]
        catalog = DigestCatalog(digests)
        instance._catalog = stamps, catalog
        return catalog

    def execute(self, instance: "MixedInstance", query, *,
                options: PlannerOptions | None = None, distinct: bool = True,
                limit: int | None = None):
        """Evaluate one CMQ against the pinned snapshots (serial-friendly)."""
        if isinstance(query, str):
            query = instance.parse(query)
        return self.executor(instance, options=options).execute(
            query, distinct=distinct, limit=limit)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PinnedCatalog(versions={self.versions})"


def pin_instance(instance: "MixedInstance") -> PinnedCatalog:
    """Pin every source of ``instance``, in registration order.

    Each local pin is atomic per store (snapshot under the store's
    lock, memoised per version: an unchanged catalog pins in
    microseconds); a remote pin is a clone and no round trip.  The
    instance's last catalog, kept in one slot, is returned while it pins
    exactly these wrappers.  Source registration is expected to have
    finished before concurrent serving starts — the registry itself is
    not versioned.
    """
    sources = {uri: source.pin()
               for uri, source in instance.registered_sources().items()}
    glue = instance.glue_source.pin()
    previous = instance._pinned
    if previous is not None and _same_pins(previous, sources, glue):
        return previous
    catalog = instance._pinned = PinnedCatalog(sources=sources, glue=glue)
    return catalog


def _same_digests(kept: dict, stamps: dict) -> bool:
    """Whether ``stamps`` file the very digests of ``kept``, at its versions."""
    return list(kept) == list(stamps) and all(
        now is then and version == since
        for (then, since), (now, version) in zip(kept.values(), stamps.values()))


def _same_pins(catalog: PinnedCatalog, sources: dict[str, DataSource],
               glue: DataSource) -> bool:
    """Whether ``catalog`` pins exactly these wrappers under these URIs."""
    return catalog.glue is glue and list(catalog.sources) == list(sources) and all(
        map(operator.is_, catalog.sources.values(), sources.values()))
