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
evaluate through :meth:`PinnedCatalog.executor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TYPE_CHECKING

from repro.core.cmq import GLUE_SOURCE
from repro.core.executor import MixedQueryExecutor
from repro.core.planner import PlannerOptions
from repro.core.sources import DataSource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.instance import MixedInstance


@dataclass
class PinnedCatalog:
    """The wrappers one CMQ evaluates against."""

    sources: dict[str, DataSource]
    glue: DataSource

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

    def executor(self, instance: "MixedInstance",
                 options: PlannerOptions | None = None,
                 cancel_check=None, metrics=None, deadline=None) -> MixedQueryExecutor:
        """An executor whose every dispatch hits the pinned snapshots.

        ``instance`` supplies the shared mediator cache and statistics
        catalog (``PlannerOptions(result_cache=False, plan_cache=False)``
        keeps this executor off the shared result/plan caches — the
        equivalence harness uses that to verify service answers
        independently).  ``metrics`` is the registry the
        executor records into (the service hands its own down);
        ``deadline`` is a callable returning the seconds remaining before
        the ticket's deadline, bounding every dispatch wait.
        """
        return MixedQueryExecutor(
            self.sources, self.glue, options=options,
            cache=instance.cache,
            statistics=instance.statistics(), cancel_check=cancel_check,
            metrics=metrics, deadline=deadline)

    def execute(self, instance: "MixedInstance", query, *,
                options: PlannerOptions | None = None, distinct: bool = True,
                limit: int | None = None):
        """Evaluate one CMQ against the pinned snapshots (serial-friendly)."""
        if isinstance(query, str):
            query = instance.parse(query)
        executor = self.executor(instance, options=options)
        return executor.execute(query, distinct=distinct, limit=limit)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"PinnedCatalog(versions={self.versions})"


def pin_instance(instance: "MixedInstance") -> PinnedCatalog:
    """Pin every source of ``instance``, in registration order.

    Each local pin is atomic per store (snapshot under the store's
    lock, memoised per version: an unchanged catalog pins in
    microseconds); a remote pin is a clone and no round trip.  Source
    registration is expected to have finished before concurrent serving
    starts — the registry itself is not versioned.
    """
    return PinnedCatalog(
        sources={uri: source.pin()
                 for uri, source in instance.registered_sources().items()},
        glue=instance.glue_source.pin())
