"""Plan caching: canonical CMQ signatures + the catalog's identity.

Planning a CMQ re-estimates every atom against every candidate source;
for a repeated workload the plan comes out identical, after a write too
(a write changes rows, not which plan answers correctly, and moves the
estimates by a batch).  :func:`plan_cache_key` builds a key from

* the CMQ's *canonical signature* — atoms canonicalised with
  :func:`repro.cache.keys.canonical_query` and CMQ-level variables
  numbered by order of appearance, so queries equal up to variable
  renaming share a plan; derived once per (frozen) CMQ object;
* the *catalog identity* — URI and cache token of every source the
  CMQ's atoms can reach (the named one, or every source accepting the
  sub-query of a free source variable) plus the glue graph's, so a
  registration change among them re-plans; a write to any source
  leaves the plan alone, and keying asks no other source anything;
* the planner options, a frozen dataclass hashed as it is;
* the statistics revision — run-time cardinality feedback bumps it, so
  plans costed under superseded statistics are invalidated.  This
  retires a plan whose estimates writes drifted: when a step of a
  non-final stage ends its query with a q-error past
  ``REPLAN_THRESHOLD``, the executor drops the plan and records the
  feedback, and the next asking replans.

A reachable source with an unknown version (``None``) makes the CMQ
uncacheable: nothing about its data can be assumed.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.keys import canonical_query
from repro.cache.lru import CacheStats, LRUCache


class PlanCache:
    """LRU of :class:`~repro.core.planner.QueryPlan` objects."""

    def __init__(self, max_entries: int = 256):
        self.entries = LRUCache(max_entries)

    @property
    def stats(self) -> CacheStats:
        return self.entries.stats

    def get(self, key: tuple):
        return self.entries.get(key)

    def put(self, key: tuple, plan) -> None:
        self.entries.put(key, plan)

    def drop(self, key: tuple) -> bool:
        """Invalidate one entry (e.g. after statistics feedback)."""
        return self.entries.remove(key)

    def clear(self) -> None:
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)


def plan_cache_key(query, sources: dict, glue, options,
                   stats_revision: int = 0) -> Optional[tuple]:
    """The plan-cache key of ``query``, or ``None`` when uncacheable.

    ``sources`` are the sources the atoms of ``query`` can reach (the
    planner resolves them), not the whole catalog.  ``stats_revision``
    stamps the entry with the statistics snapshot the plan was costed
    under: run-time feedback bumps the revision, so a plan built from
    superseded estimates can never be served again.
    """
    signature = cmq_signature(query)
    if signature is None:
        return None
    catalog = catalog_state(sources, glue)
    if catalog is None:
        return None
    return signature, catalog, options, stats_revision


def catalog_state(sources: dict, glue) -> Optional[tuple]:
    """(URI, identity token) per given source, in URI order, then the
    glue's ``(None, token)``.

    The identity token keeps a cache shared across instances safe: two
    catalogs can register different sources under the same URI (every
    glue graph lives under ``#glue``), and a plan resolved against one
    must never be served to the other.  A pin shares its source's token.
    """
    states = []
    for uri, source in [*sorted(sources.items()), (None, glue)]:
        token = getattr(source, "cache_token", None)
        if token is None or source.version() is None:
            return None
        states.append((uri, token))
    return tuple(states)


def cmq_signature(query) -> Optional[tuple]:
    """Canonical signature of a CMQ, invariant under variable renaming
    (``None``: uncacheable), kept on the frozen CMQ as ``query.signature``."""
    return query.signature


def derive_signature(query) -> Optional[tuple]:
    """Derive :func:`cmq_signature` (once per CMQ object).

    CMQ-level variables are numbered by order of appearance scanning the
    atoms in body order; each atom contributes its canonical sub-query
    key, its target (URI or canonical source variable) and the mapping
    from its canonical formal positions to CMQ variables or constants.
    A constant that cannot be hashed makes the CMQ uncacheable.
    """
    cmq_names: dict[str, str] = {}

    def canon(name: str) -> str:
        return cmq_names.setdefault(name, f"?{len(cmq_names)}")

    atom_signatures = []
    for atom in query.atoms:
        canonical = canonical_query(atom.query)
        if canonical is None:
            return None
        if atom.source is not None:
            target = ("uri", atom.source)
        else:
            target = ("svar", canon(atom.source_variable))
        formals = (set(canonical.rename) | atom.query.output_variables()
                   | atom.query.required_parameters() | set(atom.constants))
        entries = []
        for formal in sorted(formals, key=lambda f: canonical.rename.get(f, f)):
            formal_key = canonical.rename.get(formal, formal)
            if formal in atom.constants:
                entries.append((formal_key, ("const", atom.constants[formal])))
            else:
                entries.append((formal_key,
                                ("var", canon(atom.renames.get(formal, formal)))))
        atom_signatures.append((canonical.key, target, tuple(entries)))
    signature = tuple(atom_signatures), tuple(canon(variable)
                                              for variable in query.output_variables())
    try:
        hash(signature)
    except TypeError:
        return None
    return signature
