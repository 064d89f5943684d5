"""Every configuration answers what the oracle answers, between writes.

A hypothesis state machine interleaves warm askings of the five CMQ
classes of the demonstration (qSIA over the full-text store, qSIA with
a dynamically discovered source, qSIA over JSON + SQL, the party
vocabulary, the fact check) and of a glue asking that reads an
*entailed* fact (``memberOf`` ⊑ ``affiliatedWith``) with insert, upsert
and remove batches on the full-text, JSON and glue stores and insert
batches on the SQL store (the relational store has no other write).
Every asking draws one configuration — result cache on or off, delta
repair on or off, through the service (two concurrent tickets) or
directly, bind batches of 1, 7 or 256 bindings, locally or
remotely — and every answer must be the oracle's multiset
(:mod:`oracle`), undegraded.  A remote asking asks a front instance
whose tweet, JSON, INSEE and DBpedia sources are :class:`RemoteSource`
wrappers over the loopback wire, serving the live stores the writes
reach; behind a ``FaultyTransport`` dropping or tampering with one
frame in ten, its answer is the oracle's or is flagged degraded.  A pin
held across a write answers what the oracle answered before it.  One
metamorphic rule needs no oracle: a glue step bound to a value answers
what the step materialised answers for that value, under every spelling
the mediator's ``==`` equates.  Outside the machine, one fixed check asks
each class warm under each of its constants in turn, so no draw decides
whether askings that differ only in a constant are ever compared, and
another asks qSIA directly on both sides of a removal, so no remote draw
decides whether a catalog pinned before a write is caught.
"""

from __future__ import annotations

import copy
from collections import Counter

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from oracle import Oracle, multiset
from repro.core import MixedInstance
from repro.core.cmq import GLUE_SOURCE, CMQBuilder, SourceAtom
from repro.core.planner import PlannerOptions
from repro.rdf.source import RDFQuery
from repro.datasets import DemoConfig, build_demo_instance
from repro.datasets.loader import (
    DBPEDIA_URI,
    INSEE_URI,
    TWEETS_JSON_URI,
    TWEETS_URI,
    fact_checking_query,
    party_vocabulary_query,
    qsia_json_query,
    register_demo_templates,
)
from repro.rdf import Literal, URI, literal, triple, uri
from repro.remote import FaultyTransport, LocalTransport, RemoteOptions, RemoteSourceHandler
from repro.service import MediatorService, ServiceConfig

CONFIG = DemoConfig(politicians=12, weeks=2, seed=7)
HASHTAGS = ("sia2016", "etatdurgence", "chomage")
WORDS = ("france", "nation", "solidarite", "chomage")
ASKS = ([("qsia", tag) for tag in HASHTAGS] + [("dynamic", tag) for tag in HASHTAGS]
        + [("qsia_json", tag) for tag in HASHTAGS] + [("party", word) for word in WORDS]
        + [("factcheck", topic) for topic in ("chomage", "agriculture")]
        + [("affiliation", "")] + [("links", tag) for tag in HASHTAGS])
#: The sources a remote asking reaches over the wire.
REMOTE_URIS = (TWEETS_URI, TWEETS_JSON_URI, INSEE_URI, DBPEDIA_URI)
#: No hedging, no backoff and no breaker: an injected fault is retried or
#: degrades the asking it hits, never a later one.
REMOTE_OPTIONS = RemoteOptions(timeout=5.0, retries=2, backoff_base=0.0, hedge_delay=0,
                               breaker_failures=10**9)
#: Glue facts the askings read; a ``memberOf`` fact entails an
#: ``affiliatedWith`` one (and types), so what a glue insert adds to G∞
#: is not what it writes.
GLUE_PREDICATES = ("twitterAccount", "position", "politicalGroup", "birthDepartment",
                   "memberOf", "rank", "seat")
#: Per glue predicate, values the first politicians hold under two
#: spellings each — a number as an integer and as a double literal, a
#: CURIE as a URI and as a literal — and the bound values that must find
#: both.
SPELLED = {"rank": ((literal(5), literal(5.0)), (5, 5.0)),
           "seat": ((URI("seat:5"), Literal("seat:5")), ("seat:5",))}


def _cmq(cls: str, param: str, demo):
    if cls == "affiliation":
        return (CMQBuilder("affiliation", head=["x", "p", "id"])
                .graph("SELECT ?x ?p ?id WHERE { ?x ttn:affiliatedWith ?p . "
                       "?x ttn:twitterAccount ?id }").build())
    if cls == "qsia":
        return f'qSIA(t, id) :- qG(id), tweetContains(t, id, "{param}")'
    if cls == "dynamic":
        return f'qSIA(t, id) :- qG(id), tweetContains(t, id, "{param}")[dSolr]'
    if cls == "links":
        # A tweet's links are a list (a tuple in the answer): a column the
        # wire must tag.
        return (CMQBuilder("links", head=["t", "id", "urls"])
                .graph("SELECT ?id WHERE { ?x ttn:position ttn:headOfState . "
                       "?x ttn:twitterAccount ?id }")
                .fulltext("tweetLinks", source=TWEETS_URI, query=f"entities.hashtags:{param}",
                          fields={"t": "text", "id": "user.screen_name",
                                  "urls": "entities.urls"})
                .build())
    build = {"qsia_json": qsia_json_query, "party": party_vocabulary_query,
             "factcheck": fact_checking_query}[cls]
    return build(demo, param)


def _reads(document: dict, params) -> bool:
    """Whether an asking for one of ``params`` can read ``document``: it
    carries the hashtag or the word."""
    text = str(document.get("text", "")).lower()
    tags = {str(tag).lower() for tag in document.get("entities", {}).get("hashtags", [])}
    return any(param in tags or param in text for param in params)


def _reworded(document: dict, word: str, revision: int) -> dict:
    """A tweet carrying ``word`` in its text and hashtags, one retweet more."""
    document = copy.deepcopy(document)
    document["text"] = f"{document.get('text', '')} {word}"
    document.setdefault("entities", {})["hashtags"] = [word]
    document["retweet_count"] = document.get("retweet_count", 0) + revision
    return document


def _spelled(predicate: str, value=None):
    """The glue step ``?x ttn:<predicate> ?v . ?x ttn:twitterAccount ?id``
    alone: bound to ``value`` (a constant), or materialised (``None``)."""
    query = RDFQuery.from_text(f"SELECT ?id ?v WHERE {{ ?x ttn:{predicate} ?v . "
                               "?x ttn:twitterAccount ?id }")
    atom = SourceAtom("spelled", query, source=GLUE_SOURCE,
                      constants={} if value is None else {"v": value})
    return CMQBuilder("spelled", head=["id"] if value is not None else ["id", "v"]) \
        .atom(atom).build()


def _politicians(demo) -> list:
    return sorted(demo.instance.graph.subjects(predicate=uri("ttn:twitterAccount")), key=str)


class WarmAskingsUnderWrites(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.demo = build_demo_instance(CONFIG)
        self.twin = build_demo_instance(CONFIG)
        for demo in (self.demo, self.twin):
            politicians = iter(_politicians(demo))
            demo.instance.add_glue_triples(
                triple(next(politicians), f"ttn:{predicate}", value)
                for predicate, (values, _) in SPELLED.items() for value in values)
        self.oracle = Oracle(self.twin.instance)
        self.repair = self.demo.instance.cache.repair
        self.service = MediatorService(self.demo.instance,
                                       ServiceConfig(workers=2, tracing=False))
        self.revision = 0
        self.front, self.faults = self._front(self.demo.instance)
        self.front_repair = self.front.cache.repair

    @staticmethod
    def _front(instance) -> tuple[MixedInstance, list]:
        """An instance over ``instance``'s glue graph and sources, the
        :data:`REMOTE_URIS` ones each reached through its own wire."""
        front = MixedInstance(graph=instance.graph, name="front", schema=instance.schema)
        faults = []
        for index, source_uri in enumerate(instance.source_uris()):
            source = instance.source(source_uri)
            if source_uri not in REMOTE_URIS:
                front.register(source)
                continue
            faults.append(FaultyTransport(
                LocalTransport(RemoteSourceHandler(source).handle), seed=index))
            front.register_remote(faults[-1], uri=source_uri, model=source.model,
                                  name=source.name, size=source.size(),
                                  options=REMOTE_OPTIONS)
        register_demo_templates(front)
        return front, faults

    def teardown(self) -> None:
        self.service.shutdown(wait=True)

    def _write(self, write) -> None:
        """Apply one write batch to the instance and to the oracle's twin."""
        for demo in (self.demo, self.twin):
            write(demo)
        self.revision += 1

    # -- askings -------------------------------------------------------------
    @rule(ask=st.sampled_from(ASKS), cache=st.booleans(), repair=st.booleans(),
          service=st.booleans(), batch=st.sampled_from((1, 7, 256)),
          remote=st.sampled_from((None, "clean", "faulty")))
    def ask(self, ask, cache, repair, service, batch, remote=None) -> None:
        """``remote`` asks the front instance (``service`` then does not
        apply), its wire clean or faulty."""
        cls, param = ask
        options = PlannerOptions(result_cache=cache, bind_batch_size=batch)
        self.demo.instance.cache.repair = self.repair if repair else None
        cmq = _cmq(cls, param, self.demo)
        if remote is not None:
            self.front.cache.repair = self.front_repair if repair else None
            for transport in self.faults:
                transport.fault_rate = 0.1 if remote == "faulty" else 0.0
            results = [self.front.execute(cmq, options=options)]
        elif service:
            tickets = [self.service.submit(cmq, options=options) for _ in range(2)]
            results = [ticket.result(timeout=60) for ticket in tickets]
        else:
            results = [self.demo.instance.execute(cmq, options=options)]
        expected = self.oracle.answer(_cmq(cls, param, self.twin))
        for result in results:
            if remote == "faulty" and result.trace.degraded:
                continue
            assert not result.trace.degraded
            assert multiset(result) == expected, (ask, cache, repair, service, batch,
                                                  remote)

    @rule(ask=st.sampled_from(ASKS), kind=st.sampled_from(("upsert", "remove")),
          picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=3),
          word=st.sampled_from(HASHTAGS + WORDS), repair=st.booleans(),
          service=st.booleans(), batch=st.sampled_from((1, 7, 256)))
    def ask_rewrite_ask(self, ask, kind, picks, word, repair, service, batch) -> None:
        """Ask warm, upsert or remove documents the asking reads, ask
        again: cached rows a repair must take out, not only add to."""
        self.ask(ask, cache=True, repair=True, service=False, batch=batch)
        cls, param = ask
        store = "json" if cls == "qsia_json" else "fulltext"
        getattr(self, f"_write_{store}")(kind, picks, word, reads=(param,))
        self.ask(ask, cache=True, repair=repair, service=service, batch=batch)

    @rule(ask=st.sampled_from(ASKS), picks=st.lists(st.integers(0, 10**6), min_size=1,
                                                    max_size=3),
          word=st.sampled_from(HASHTAGS + WORDS), cache=st.booleans(),
          batch=st.sampled_from((1, 7, 256)))
    def ask_held_pin(self, ask, picks, word, cache, batch) -> None:
        """Pin, upsert documents the asking reads, then ask the held pin:
        it answers what the twin answered before the write — the store read
        back at the pin's version, rows and indexes alike."""
        cls, param = ask
        pinned = self.demo.instance.pin()
        expected = self.oracle.answer(_cmq(cls, param, self.twin))
        store = "json" if cls == "qsia_json" else "fulltext"
        getattr(self, f"_write_{store}")("upsert", picks, word, reads=(param,))
        options = PlannerOptions(result_cache=cache, bind_batch_size=batch)
        result = pinned.execute(self.demo.instance, _cmq(cls, param, self.demo),
                                options=options)
        assert not result.trace.degraded
        assert multiset(result) == expected, (ask, cache, batch)

    @rule(subject=st.integers(0, 10**6), donor=st.integers(0, 10**6),
          predicates=st.sampled_from((("memberOf",), ("memberOf", "twitterAccount"),
                                      ("twitterAccount",))),
          batch=st.sampled_from((1, 7, 256)))
    def ask_adopt_ask(self, subject, donor, predicates, batch) -> None:
        """Ask the entailed affiliation warm, give a politician another's
        party and/or account, ask again: the repair must seed from what
        the write added to G∞ (a party entails an affiliation the write
        does not hold), and join two new facts with each other."""
        ask = ("affiliation", "")
        self.ask(ask, cache=True, repair=True, service=False, batch=batch)
        politicians = _politicians(self.demo)
        taker, giver = (politicians[pick % len(politicians)] for pick in (subject, donor))
        graph = self.demo.instance.graph
        added = [triple(taker, uri(f"ttn:{name}"), obj) for name in predicates
                 for obj in sorted(graph.objects(giver, uri(f"ttn:{name}")), key=str)]
        self._write(lambda demo: demo.instance.add_glue_triples(added))
        self.ask(ask, cache=True, repair=True, service=False, batch=batch)

    @rule(predicate=st.sampled_from(sorted(SPELLED)), cache=st.booleans(),
          repair=st.booleans())
    def ask_spellings(self, predicate, cache, repair) -> None:
        """Metamorphic: the glue step bound to a value answers what the
        step materialised answers for it under the mediator's ``==``,
        whichever spelling the value comes in (5 or 5.0; a CURIE, stored
        as a URI and as a literal)."""
        options = PlannerOptions(result_cache=cache)
        self.demo.instance.cache.repair = self.repair if repair else None
        rows = self.demo.instance.execute(_spelled(predicate), options=options).rows
        for value in SPELLED[predicate][1]:
            bound = self.demo.instance.execute(_spelled(predicate, value), options=options)
            assert not bound.trace.degraded
            assert multiset(bound) == Counter((row["id"],) for row in rows
                                              if row["v"] == value), (predicate, value)

    # -- writes --------------------------------------------------------------
    @rule(store=st.sampled_from(("fulltext", "json", "glue", "sql")),
          kind=st.sampled_from(("insert", "upsert", "remove")),
          picks=st.lists(st.integers(0, 10**6), min_size=2, max_size=4),
          word=st.sampled_from(HASHTAGS + WORDS))
    def write(self, store, kind, picks, word) -> None:
        """One write batch on one store (the SQL store only inserts; a
        glue "upsert" gives another politician an existing fact)."""
        getattr(self, f"_write_{store}")(kind, picks, word)

    def _write_documents(self, uri, items, kind, picks, word, reads) -> None:
        def store(demo):
            return demo.instance.source(uri).store

        # Rewrite what the askings read, so that a repair has cached rows
        # to take out (an upsert or a removal) as well as rows to add.
        items = sorted(items(store(self.demo)), key=lambda item: str(item[0]))
        read = [item for item in items if _reads(item[1], reads)] or items
        chosen = dict(read[pick % len(read)] for pick in picks)
        if kind == "remove":
            self._write(lambda demo: [store(demo).remove(doc_id) for doc_id in chosen])
            return
        batch = [_reworded(document, word, self.revision + 1) for document in chosen.values()]
        if kind == "insert":
            for offset, document in enumerate(batch):
                document["id"] = 9_000_000 + 10 * self.revision + offset
        self._write(lambda demo: store(demo).add_all(copy.deepcopy(batch)))

    def _write_fulltext(self, kind, picks, word, reads=HASHTAGS + WORDS) -> None:
        self._write_documents(
            TWEETS_URI, lambda store: [(doc.doc_id, doc.fields) for doc in store.documents()],
            kind, picks, word, reads)

    def _write_json(self, kind, picks, word, reads=HASHTAGS + WORDS) -> None:
        self._write_documents(TWEETS_JSON_URI, lambda store: store.items(), kind, picks,
                              word, reads)

    def _write_glue(self, kind, picks, word) -> None:
        facts = sorted((t for t in self.demo.instance.graph
                        if t.predicate.value.endswith(GLUE_PREDICATES)), key=str)
        if kind == "remove":
            doomed = [facts[pick % len(facts)] for pick in picks]
            self._write(lambda demo: demo.instance.graph.remove_all(doomed))
            return
        subjects = sorted({t.subject for t in facts}, key=str)
        added = [triple(subjects[a % len(subjects)], facts[b % len(facts)].predicate,
                        facts[b % len(facts)].obj) for a, b in zip(picks, picks[1:])]
        self._write(lambda demo: demo.instance.add_glue_triples(added))

    def _write_sql(self, kind, picks, word) -> None:
        departments = sorted({t.obj.value for t in self.demo.instance.graph
                              if t.predicate.value.endswith("birthDepartment")})
        statements = [
            "INSERT INTO unemployment (dept_code, year, quarter, rate) VALUES "
            f"('{departments[pick % len(departments)]}', {2016 + pick % 3}, "
            f"{pick % 4 + 1}, {pick % 97 / 10})" for pick in picks]
        self._write(lambda demo: [demo.insee.execute(sql) for sql in statements])


WarmAskingsUnderWrites.TestCase.settings = settings(
    max_examples=20, stateful_step_count=20, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
TestWarmAskingsUnderWrites = WarmAskingsUnderWrites.TestCase


@pytest.mark.parametrize("cls", sorted({cls for cls, param in ASKS if param}))
def test_askings_differing_only_in_a_constant_share_no_entry(cls):
    """Ask one class warm under each of its constants in turn: every
    answer is the oracle's, so no asking is served another constant's
    cached rows."""
    demo, twin = build_demo_instance(CONFIG), build_demo_instance(CONFIG)
    oracle = Oracle(twin.instance)
    for ask_cls, param in ASKS:
        if ask_cls == cls:
            result = demo.instance.execute(_cmq(cls, param, demo))
            assert multiset(result) == oracle.answer(_cmq(cls, param, twin)), param


def test_a_local_asking_after_a_write_reads_the_write():
    """Ask qSIA directly, remove tweets it reads, ask directly again: the
    second answer is the oracle's, which moved.  The oracle's twin pins
    its sources itself, so an instance serving a catalog pinned before
    the write is caught here with no remote asking."""
    machine = WarmAskingsUnderWrites()
    try:
        ask = ("qsia", "sia2016")
        before = machine.oracle.answer(_cmq(*ask, machine.twin))
        machine.ask(ask, cache=False, repair=False, service=False, batch=7)
        machine._write_fulltext("remove", [0, 1, 2, 3], "chomage", reads=("sia2016",))
        assert machine.oracle.answer(_cmq(*ask, machine.twin)) != before
        machine.ask(ask, cache=False, repair=False, service=False, batch=7)
    finally:
        machine.teardown()
