"""The reference plan the oracles evaluate.

A CMQ's answer is defined by its simplest evaluation: sub-queries in
body order, each materialised fully and hash-joined, a bind join only
where a required parameter or a dynamically discovered source forces
one, one sub-query per stage, never retired on drift.  The test oracle
(``tests/oracle.py``) and the repository benchmark's oracle evaluate
every CMQ under these options.
"""

from __future__ import annotations

from repro.core.planner import PlannerOptions


def naive_options() -> PlannerOptions:
    """The reference plan: ``PlannerOptions(cost_based=False)``."""
    return PlannerOptions(cost_based=False)
