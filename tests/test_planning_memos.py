"""What planning derives from an immutable query object, it derives once.

A sub-query's canonical form lives on the ``SourceQuery``, a CMQ's plan
signature on the (frozen) ``ConjunctiveMixedQuery``, and a parsed text's
CMQ in the template registry until a template is registered or the
caches are cleared.  A trace renders its plan text on first read.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

import repro.cache.plans as plans
from repro.core import FullTextQuery, JSONQuery, PlannerOptions, RDFQuery, SQLQuery
from repro.datasets import (
    DemoConfig,
    build_demo_instance,
    fact_checking_query,
    qsia_json_query,
)

pytestmark = pytest.mark.optimizer

QSIA = 'qSIA(t, id) :- qG(id), tweetContains(t, id, "%s")'
RENAMED = 'qSIA(txt, id) :- qG(id), tweetContains(txt, id, "%s")'


@pytest.fixture
def demo():
    return build_demo_instance(DemoConfig(politicians=12, weeks=2, seed=42))


@pytest.fixture
def counted(monkeypatch):
    """Counts, per object, every call of the given functions (module
    functions, or methods counted per instance)."""
    calls: Counter = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counting(argument):
            calls[id(argument)] += 1
            return original(argument)
        monkeypatch.setattr(owner, name, counting)

    def install(*targets):
        for owner, name in targets:
            count(owner, name)
        return calls
    return install


class TestCanonicalForm:
    @pytest.mark.parametrize("build", [qsia_json_query, fact_checking_query],
                             ids=["qsia_json", "factcheck"])
    def test_derived_once_per_sub_query_across_one_execution(self, demo, counted,
                                                             build):
        calls = counted(*[(query_type, "derive_canonical") for query_type in (
            RDFQuery, SQLQuery, FullTextQuery, JSONQuery)])
        cmq = build(demo)
        result = demo.instance.execute(cmq)
        assert result.trace.calls
        # The plan key, the statistics catalog and the result cache all
        # read the one form kept on each sub-query object.
        assert calls == Counter({id(atom.query): 1 for atom in cmq.atoms})
        demo.instance.execute(cmq)
        assert calls == Counter({id(atom.query): 1 for atom in cmq.atoms})


class TestSignature:
    def test_derived_once_per_cmq_across_two_askings(self, demo, counted):
        calls = counted((plans, "derive_signature"))
        cmq = qsia_json_query(demo)
        first = demo.instance.execute(cmq)
        second = demo.instance.execute(cmq)
        assert not first.trace.plan_cached and second.trace.plan_cached
        assert calls == Counter({id(cmq): 1})

    def test_two_renamings_share_a_plan(self, demo, counted):
        calls = counted((plans, "derive_signature"))
        instance = demo.instance
        spelled = [instance.parse(text % "sia2016") for text in (QSIA, RENAMED)]
        assert spelled[0].head != spelled[1].head
        assert not instance.plan(spelled[0]).cached
        assert instance.plan(spelled[1]).cached
        assert instance.plan(spelled[0]).cached and instance.plan(spelled[1]).cached
        assert calls == Counter({id(cmq): 1 for cmq in spelled})


class TestParse:
    def test_the_same_text_is_the_same_cmq_until_templates_or_caches_change(self, demo):
        instance = demo.instance
        text = QSIA % "sia2016"
        first = instance.parse(text)
        assert instance.parse(text) is first
        instance.templates.register_sql(
            "headcount", sql="SELECT code AS dept, population AS n FROM departments",
            parameters=("dept", "n"))
        registered = instance.parse(text)
        assert registered is not first and registered == first
        assert instance.parse(text) is registered
        instance.clear_caches()
        cleared = instance.parse(text)
        assert cleared is not registered and cleared == registered

    def test_a_cmq_is_frozen(self, demo):
        cmq = demo.instance.parse(QSIA % "sia2016")
        assert isinstance(cmq.atoms, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cmq.name = "renamed"
        with pytest.raises(dataclasses.FrozenInstanceError):
            cmq.atoms = ()

    def test_planner_options_are_frozen(self):
        options = PlannerOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.cost_based = False
        assert dataclasses.replace(options, cost_based=False).cost_based is False


class TestPlanText:
    def test_rendered_from_the_plan_that_ran_cached_or_not(self, demo):
        instance = demo.instance
        cmq = qsia_json_query(demo)
        cold = instance.plan(cmq, PlannerOptions(plan_cache=False)).explain()
        first = instance.execute(cmq)
        second = instance.execute(cmq)
        assert not first.trace.plan_cached and second.trace.plan_cached
        for result in (first, second):
            assert result.trace.plan_text == result.trace.plan.explain()
        assert first.trace.plan_text == cold
        head, *rest = cold.splitlines()
        assert second.trace.plan_text.splitlines() == [head + " (cached plan)", *rest]
