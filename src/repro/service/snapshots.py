"""Snapshot pinning: one consistent ``(source, version)`` vector per query.

The mediator's isolation unit is the :class:`PinnedCatalog`: for every
registered source (the glue graph included) it holds a read-only wrapper
over a store snapshot, taken under the store's reader-writer lock and
memoised per version (:meth:`repro.core.sources.DataSource.pin`).  A
query planned and executed against a pinned catalog observes exactly the
pinned state for its whole plan — writers keep mutating the live stores,
later queries pin later versions, but no query ever sees a half-applied
delta.  Because pinned wrappers share their live wrapper's cache token
and version, the cross-query result cache remains shared (and sound: the
version in the key now really describes immutable content).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from repro.core.cmq import GLUE_SOURCE
from repro.core.executor import MixedQueryExecutor
from repro.core.planner import PlannerOptions
from repro.core.sources import DataSource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.instance import MixedInstance


@dataclass
class PinnedCatalog:
    """Read-only wrappers over store snapshots, plus their version vector."""

    sources: dict[str, DataSource]
    glue: DataSource
    #: uri -> pinned version (GLUE_SOURCE key for the glue graph);
    #: ``None`` for wrappers without version support (served live).
    versions: dict[str, Optional[int]] = field(default_factory=dict)

    def executor(self, instance: "MixedInstance",
                 options: PlannerOptions | None = None, max_workers: int = 4,
                 cache: bool = True, cancel_check=None, task_pool=None,
                 metrics=None, deadline=None, mqo=None) -> MixedQueryExecutor:
        """An executor whose every dispatch hits the pinned snapshots.

        ``instance`` supplies the shared mediator cache and statistics
        catalog (``cache=False`` detaches this executor from the shared
        result/plan caches — the equivalence harness uses that to verify
        service answers independently).  ``metrics`` is the registry the
        executor records into (the service hands its own down);
        ``deadline`` is a callable returning the seconds remaining before
        the ticket's deadline, bounding every dispatch wait; ``mqo`` is
        the service's :class:`~repro.service.mqo.MQOCoordinator` so the
        executor's cache misses share work with other in-flight queries.
        """
        return MixedQueryExecutor(
            self.sources, self.glue, options=options, max_workers=max_workers,
            cache=instance.cache if cache else None,
            statistics=instance.statistics(), cancel_check=cancel_check,
            task_pool=task_pool, metrics=metrics,
            deadline=deadline, mqo=mqo)

    def execute(self, instance: "MixedInstance", query, *,
                options: PlannerOptions | None = None, distinct: bool = True,
                limit: int | None = None, max_workers: int = 4,
                cache: bool = True):
        """Evaluate one CMQ against the pinned snapshots (serial-friendly)."""
        if isinstance(query, str):
            query = instance.parse(query)
        executor = self.executor(instance, options=options,
                                 max_workers=max_workers, cache=cache)
        return executor.execute(query, distinct=distinct, limit=limit)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PinnedCatalog(versions={self.versions})"


def pin_instance(instance: "MixedInstance") -> PinnedCatalog:
    """Pin every source of ``instance`` at its current version.

    Each pin is atomic per store (snapshot under the store's lock); the
    vector as a whole is the sequence of versions current at pin time.
    Source registration is expected to have finished before concurrent
    serving starts — the registry itself is not versioned.
    """
    glue = instance.glue_source.pin()
    sources = {uri: instance.source(uri).pin() for uri in instance.source_uris()}
    versions: dict[str, Optional[int]] = {GLUE_SOURCE: glue.version()}
    for uri, source in sources.items():
        versions[uri] = source.version()
    return PinnedCatalog(sources=sources, glue=glue, versions=versions)
