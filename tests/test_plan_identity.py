"""Plans are a pure function of the CMQ, the catalog and the options.

The table below pins, for the five CMQ classes of the end-to-end stream
(the textual ``qsia`` and ``dynamic`` families, ``qsia_json``, ``party``
and ``factcheck``), for a ten- and a twelve-atom CMQ (the widest the
DP enumerator takes, and one past it, planned by the myopic loop) and
for a six-atom CMQ whose plan the DP's tie-break order decides, the
atom order, modes, batch sizes, stages and total modelled cost the
planner produces under ``cost_based`` x ``bind_batch_size``.  Any
change to how planning is computed must reproduce it exactly.
"""

from __future__ import annotations

import pytest

from repro.core import ConjunctiveMixedQuery, PlannerOptions
from repro.core.planner import DP_ATOM_LIMIT
from repro.datasets import (
    DemoConfig,
    build_demo_instance,
    fact_checking_query,
    party_vocabulary_query,
    qsia_json_query,
)
from test_reference_plan import four_model_instance, wide_cmq

pytestmark = pytest.mark.optimizer

QSIA = 'qSIA(t, id) :- qG(id), tweetContains(t, id, "%s")'
DYNAMIC = 'qSIA(t, id) :- qG(id), tweetContains(t, id, "%s")[dSolr]'

OPTIONS = [(cost_based, batch) for cost_based in (True, False) for batch in (0, 1)]


def demo_cases(demo) -> dict:
    instance = demo.instance
    return {
        "qsia/sia2016": lambda: instance.parse(QSIA % "sia2016"),
        "qsia/etatdurgence": lambda: instance.parse(QSIA % "etatdurgence"),
        "dynamic/sia2016": lambda: instance.parse(DYNAMIC % "sia2016"),
        "qsia_json/sia2016": lambda: qsia_json_query(demo, "sia2016"),
        "party/urgence": lambda: party_vocabulary_query(demo, "urgence"),
        "party/merci": lambda: party_vocabulary_query(demo, "merci"),
        "factcheck/chomage": lambda: fact_checking_query(demo, "chomage"),
        "factcheck/agriculture": lambda: fact_checking_query(demo, "agriculture"),
    }


def wide_cases(instance) -> dict:
    def wide10() -> ConjunctiveMixedQuery:
        cmq = wide_cmq(instance)
        return ConjunctiveMixedQuery(name="qWide10", head=cmq.head,
                                     atoms=cmq.atoms[:DP_ATOM_LIMIT])

    def tie_break() -> ConjunctiveMixedQuery:
        # Six atoms whose plan the DP's connected-first order decides.
        atoms = wide_cmq(instance).atoms
        return ConjunctiveMixedQuery(name="qTieBreak", head=(),
                                     atoms=[atoms[i] for i in (5, 3, 2, 9, 6, 0)])

    return {"wide/10": wide10, "wide/12": lambda: wide_cmq(instance),
            "wide/tie-break": tie_break}


def record(plan) -> tuple:
    """What must not move: order, modes, batch sizes, stages, total cost."""
    return (tuple((step.atom.name, step.mode, step.batch_size) for step in plan.steps),
            tuple(tuple(stage) for stage in plan.stages),
            plan.total_cost)


def plan_table(demo, wide) -> dict:
    """``(case, cost_based, bind_batch_size) -> record`` of every cold plan."""
    table = {}
    for instance, cases in ((demo.instance, demo_cases(demo)),
                            (wide, wide_cases(wide))):
        for name, build in cases.items():
            for cost_based, batch in OPTIONS:
                options = PlannerOptions(cost_based=cost_based,
                                         bind_batch_size=batch, plan_cache=False)
                table[(name, cost_based, batch)] = record(
                    instance.plan(build(), options))
    return table


def build_demo():
    return build_demo_instance(DemoConfig(politicians=24, weeks=3,
                                          tweets_per_politician_per_week=2.0, seed=7))


M, B = "materialize", "bind"

#: The pinned plan of every case, as :func:`plan_table` records it.
EXPECTED = {
    ('dynamic/sia2016', False, 0): (
        (('qG', M, 0), ('tweetContains', B, 1021),),
        ((0,), (1,),),
        11.0584375),
    ('dynamic/sia2016', False, 1): (
        (('qG', M, 0), ('tweetContains', B, 1),),
        ((0,), (1,),),
        11.0584375),
    ('dynamic/sia2016', True, 0): (
        (('qG', M, 0), ('tweetContains', B, 1021),),
        ((0,), (1,),),
        11.0584375),
    ('dynamic/sia2016', True, 1): (
        (('qG', M, 0), ('tweetContains', B, 1),),
        ((0,), (1,),),
        11.0584375),
    ('factcheck/agriculture', False, 0): (
        (('qG', M, 0), ('claims', M, 0), ('datasetRegistry', M, 0), ('statistics', B, 682),),
        ((0,), (1,), (2,), (3,),),
        12.063062500000001),
    ('factcheck/agriculture', False, 1): (
        (('qG', M, 0), ('claims', M, 0), ('datasetRegistry', M, 0), ('statistics', B, 1),),
        ((0,), (1,), (2,), (3,),),
        12.063062500000001),
    ('factcheck/agriculture', True, 0): (
        (('qG', M, 0), ('claims', B, 1024), ('datasetRegistry', M, 0), ('statistics', B, 682),),
        ((0,), (1,), (2,), (3,),),
        12.049),
    ('factcheck/agriculture', True, 1): (
        (('qG', M, 0), ('claims', B, 1), ('datasetRegistry', M, 0), ('statistics', B, 1),),
        ((0,), (1,), (2,), (3,),),
        12.049),
    ('factcheck/chomage', False, 0): (
        (('qG', M, 0), ('claims', M, 0), ('datasetRegistry', M, 0), ('statistics', B, 682),),
        ((0,), (1,), (2,), (3,),),
        12.327562499999999),
    ('factcheck/chomage', False, 1): (
        (('qG', M, 0), ('claims', M, 0), ('datasetRegistry', M, 0), ('statistics', B, 1),),
        ((0,), (1,), (2,), (3,),),
        12.327562499999999),
    ('factcheck/chomage', True, 0): (
        (('qG', M, 0), ('claims', B, 1024), ('datasetRegistry', M, 0), ('statistics', B, 682),),
        ((0,), (1,), (2,), (3,),),
        12.081),
    ('factcheck/chomage', True, 1): (
        (('qG', M, 0), ('claims', B, 1), ('datasetRegistry', M, 0), ('statistics', B, 1),),
        ((0,), (1,), (2,), (3,),),
        12.081),
    ('party/merci', False, 0): (
        (('qG', M, 0), ('tweetMentions', M, 0),),
        ((0,), (1,),),
        7.619999999999999),
    ('party/merci', False, 1): (
        (('qG', M, 0), ('tweetMentions', M, 0),),
        ((0,), (1,),),
        7.619999999999999),
    ('party/merci', True, 0): (
        (('qG', M, 0), ('tweetMentions', M, 0),),
        ((0, 1),),
        7.619999999999999),
    ('party/merci', True, 1): (
        (('qG', M, 0), ('tweetMentions', M, 0),),
        ((0, 1),),
        7.619999999999999),
    ('party/urgence', False, 0): (
        (('qG', M, 0), ('tweetMentions', M, 0),),
        ((0,), (1,),),
        7.529999999999999),
    ('party/urgence', False, 1): (
        (('qG', M, 0), ('tweetMentions', M, 0),),
        ((0,), (1,),),
        7.529999999999999),
    ('party/urgence', True, 0): (
        (('qG', M, 0), ('tweetMentions', M, 0),),
        ((0, 1),),
        7.529999999999999),
    ('party/urgence', True, 1): (
        (('qG', M, 0), ('tweetMentions', M, 0),),
        ((0, 1),),
        7.529999999999999),
    ('qsia/etatdurgence', False, 0): (
        (('qG', M, 0), ('tweetContains', M, 0),),
        ((0,), (1,),),
        8.81),
    ('qsia/etatdurgence', False, 1): (
        (('qG', M, 0), ('tweetContains', M, 0),),
        ((0,), (1,),),
        8.81),
    ('qsia/etatdurgence', True, 0): (
        (('qG', M, 0), ('tweetContains', B, 868),),
        ((0,), (1,),),
        6.122187499999999),
    ('qsia/etatdurgence', True, 1): (
        (('qG', M, 0), ('tweetContains', B, 1),),
        ((0,), (1,),),
        6.122187499999999),
    ('qsia/sia2016', False, 0): (
        (('qG', M, 0), ('tweetContains', M, 0),),
        ((0,), (1,),),
        6.050000000000001),
    ('qsia/sia2016', False, 1): (
        (('qG', M, 0), ('tweetContains', M, 0),),
        ((0,), (1,),),
        6.050000000000001),
    ('qsia/sia2016', True, 0): (
        (('qG', M, 0), ('tweetContains', B, 1024),),
        ((0,), (1,),),
        6.035937499999999),
    ('qsia/sia2016', True, 1): (
        (('qG', M, 0), ('tweetContains', B, 1),),
        ((0,), (1,),),
        6.035937499999999),
    ('qsia_json/sia2016', False, 0): (
        (('qG', M, 0), ('tweetJson', M, 0), ('unemployment', B, 712),),
        ((0,), (1,), (2,),),
        4.598),
    ('qsia_json/sia2016', False, 1): (
        (('qG', M, 0), ('tweetJson', M, 0), ('unemployment', B, 1),),
        ((0,), (1,), (2,),),
        4.598),
    ('qsia_json/sia2016', True, 0): (
        (('qG', M, 0), ('tweetJson', B, 1024), ('unemployment', B, 712),),
        ((0,), (1,), (2,),),
        4.6025),
    ('qsia_json/sia2016', True, 1): (
        (('qG', M, 0), ('tweetJson', B, 1), ('unemployment', B, 1),),
        ((0,), (1,), (2,),),
        4.6025),
    ('wide/10', False, 0): (
        (('accounts', M, 0), ('parties', M, 0), ('regionOf', M, 0), ('partyLabel', M, 0),
         ('profiles', M, 0), ('lookup', B, 1024), ('regionLabel', M, 0), ('posts', B, 963),
         ('politics', M, 0), ('tweetJson', M, 0),),
        ((0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,),),
        22.30375),
    ('wide/10', False, 1): (
        (('accounts', M, 0), ('parties', M, 0), ('regionOf', M, 0), ('partyLabel', M, 0),
         ('profiles', M, 0), ('lookup', B, 1), ('regionLabel', M, 0), ('posts', B, 1),
         ('politics', M, 0), ('tweetJson', M, 0),),
        ((0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,),),
        26.30375),
    ('wide/10', True, 0): (
        (('profiles', M, 0), ('lookup', B, 1024), ('accounts', B, 1024), ('regionLabel', M, 0),
         ('regionOf', B, 1024), ('parties', B, 1024), ('partyLabel', B, 1024),
         ('politics', B, 1024), ('tweetJson', B, 1024), ('posts', B, 963),),
        ((0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,),),
        21.834999999999997),
    ('wide/10', True, 1): (
        (('regionLabel', M, 0), ('regionOf', M, 0), ('accounts', M, 0), ('parties', M, 0),
         ('partyLabel', M, 0), ('profiles', M, 0), ('lookup', B, 1), ('politics', B, 1),
         ('tweetJson', B, 1), ('posts', B, 1),),
        ((0, 1, 2, 3, 4, 5), (6,), (7,), (8,), (9,),),
        26.078750000000003),
    ('wide/12', False, 0): (
        (('accounts', M, 0), ('parties', M, 0), ('regionOf', M, 0), ('partyLabel', M, 0),
         ('profiles', M, 0), ('lookup', B, 1024), ('regionLabel', M, 0), ('posts', B, 963),
         ('politics', M, 0), ('tweetJson', M, 0), ('likesOf', B, 1024), ('accountAgain', M, 0),),
        ((0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (10,), (11,),),
        24.940250000000002),
    ('wide/12', False, 1): (
        (('accounts', M, 0), ('parties', M, 0), ('regionOf', M, 0), ('partyLabel', M, 0),
         ('profiles', M, 0), ('lookup', B, 1), ('regionLabel', M, 0), ('posts', B, 1),
         ('politics', M, 0), ('tweetJson', M, 0), ('likesOf', B, 1), ('accountAgain', M, 0),),
        ((0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (10,), (11,),),
        28.940250000000002),
    ('wide/12', True, 0): (
        (('partyLabel', M, 0), ('parties', M, 0), ('accounts', M, 0), ('regionOf', M, 0),
         ('accountAgain', M, 0), ('tweetJson', M, 0), ('likesOf', B, 1024),
         ('regionLabel', M, 0), ('profiles', B, 1024), ('lookup', B, 1024),
         ('politics', B, 1024), ('posts', B, 963),),
        ((0, 1, 2, 3, 4, 5), (6,), (7,), (8,), (9,), (10,), (11,),),
        24.805),
    ('wide/12', True, 1): (
        (('partyLabel', M, 0), ('parties', M, 0), ('accounts', M, 0), ('regionOf', M, 0),
         ('accountAgain', M, 0), ('tweetJson', M, 0), ('regionLabel', M, 0),
         ('profiles', M, 0), ('likesOf', B, 1), ('lookup', B, 1), ('politics', B, 1),
         ('posts', B, 1),),
        ((0, 1, 2, 3, 4, 5, 6, 7), (8,), (9,), (10,), (11,),),
        28.272),
    ('wide/tie-break', False, 0): (
        (('partyLabel', M, 0), ('regionOf', M, 0), ('tweetJson', M, 0), ('lookup', B, 1024),
         ('regionLabel', M, 0), ('accounts', M, 0),),
        ((0,), (1,), (2,), (3,), (4,), (5,),),
        10.350000000000001),
    ('wide/tie-break', False, 1): (
        (('partyLabel', M, 0), ('regionOf', M, 0), ('tweetJson', M, 0), ('lookup', B, 1),
         ('regionLabel', M, 0), ('accounts', M, 0),),
        ((0,), (1,), (2,), (3,), (4,), (5,),),
        170.35000000000002),
    ('wide/tie-break', True, 0): (
        (('tweetJson', M, 0), ('lookup', B, 1024), ('regionLabel', M, 0), ('regionOf', M, 0),
         ('accounts', B, 1024), ('partyLabel', M, 0),),
        ((0,), (1,), (2, 3), (4,), (5,),),
        8.913),
    ('wide/tie-break', True, 1): (
        (('regionLabel', M, 0), ('regionOf', M, 0), ('accounts', M, 0), ('lookup', B, 1),
         ('tweetJson', M, 0), ('partyLabel', M, 0),),
        ((0, 1, 2), (3,), (4, 5),),
        16.973),
}


@pytest.fixture(scope="module")
def table():
    return plan_table(build_demo(), four_model_instance())


def test_every_case_is_pinned(table):
    assert set(table) == set(EXPECTED)


@pytest.mark.parametrize("key", sorted(EXPECTED), ids=lambda key: f"{key[0]}-{key[1]}-{key[2]}")
def test_plan_is_identical(table, key):
    steps, stages, total_cost = table[key]
    expected_steps, expected_stages, expected_cost = EXPECTED[key]
    assert steps == expected_steps
    assert stages == expected_stages
    assert total_cost == pytest.approx(expected_cost, rel=1e-9, abs=1e-9)


def test_the_wide_cmqs_straddle_the_dp_limit():
    instance = four_model_instance()
    sizes = {name: len(build().atoms) for name, build in wide_cases(instance).items()}
    assert sizes == {"wide/10": DP_ATOM_LIMIT, "wide/12": DP_ATOM_LIMIT + 2,
                     "wide/tie-break": 6}
