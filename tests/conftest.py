"""Shared fixtures: small graphs, databases, stores and the demo instance."""

from __future__ import annotations

import pytest

from repro.datasets import DemoConfig, build_demo_instance


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "optimizer: cost-based planner suites (estimation accuracy, "
        "plan equivalence, drifted-plan retirement); run in isolation with "
        "`pytest -m optimizer`.")
    config.addinivalue_line(
        "markers",
        "stress: concurrent-service stress/equivalence suites (writer "
        "threads racing reader queries); run in isolation with "
        "`pytest -m stress`; thread/iteration budget shrinks via the "
        "REPRO_STRESS_* environment variables.")
    config.addinivalue_line(
        "markers",
        "obs: observability suites (span tracer, metrics registry, "
        "EXPLAIN ANALYZE, service instrumentation); run in isolation "
        "with `pytest -m obs`.")
    config.addinivalue_line(
        "markers",
        "json_matcher: JSON matcher suites (the index-assisted walk held "
        "to per-document reference scans, pinned readers and deep "
        "documents, including hypothesis property tests); run in "
        "isolation with `pytest -m json_matcher`.")
    config.addinivalue_line(
        "markers",
        "remote: remote source federation suites (wire protocol, "
        "retry/hedging/circuit-breaker resilience, graceful degradation "
        "and the deterministic chaos harness); run in isolation with "
        "`pytest -m remote`.")
    config.addinivalue_line(
        "markers",
        "streaming: streaming-ingestion suites (delta journals, "
        "batch version bumps, delta-join cache repair vs cold "
        "re-execution including hypothesis property tests, standing "
        "queries); run in isolation with `pytest -m streaming`.")
from repro.fulltext import tweet_store
from repro.rdf import Graph, RDFSchema, triple, uri
from repro.relational import Database


@pytest.fixture
def politics_graph() -> Graph:
    """A tiny glue-like RDF graph about two politicians."""
    g = Graph("politics")
    g.add(triple("ttn:POL1", "rdf:type", "ttn:politician"))
    g.add(triple("ttn:POL1", "ttn:position", "ttn:headOfState"))
    g.add(triple("ttn:POL1", "ttn:twitterAccount", "fhollande"))
    g.add(triple("ttn:POL1", "foaf:name", "François Hollande"))
    g.add(triple("ttn:POL2", "rdf:type", "ttn:politician"))
    g.add(triple("ttn:POL2", "ttn:position", "ttn:deputy"))
    g.add(triple("ttn:POL2", "ttn:twitterAccount", "mlepen"))
    g.add(triple("ttn:POL2", "foaf:name", "Marine LePen"))
    g.add(triple("ttn:POL1", "ttn:memberOf", "ttn:PARTY1"))
    g.add(triple("ttn:POL2", "ttn:memberOf", "ttn:PARTY2"))
    g.add(triple("ttn:PARTY1", "rdf:type", "ttn:party"))
    g.add(triple("ttn:PARTY2", "rdf:type", "ttn:party"))
    return g


@pytest.fixture
def politics_schema() -> RDFSchema:
    """An RDFS schema matching :func:`politics_graph`."""
    schema = RDFSchema()
    schema.add_subclass(uri("ttn:politician"), uri("ttn:person"))
    schema.add_subproperty(uri("ttn:memberOf"), uri("ttn:affiliatedWith"))
    schema.add_domain(uri("ttn:twitterAccount"), uri("ttn:politician"))
    schema.add_range(uri("ttn:memberOf"), uri("ttn:party"))
    return schema


@pytest.fixture
def small_database() -> Database:
    """A tiny INSEE-like database with two tables."""
    db = Database("mini_insee")
    db.execute(
        "CREATE TABLE departments (code TEXT PRIMARY KEY, name TEXT NOT NULL, "
        "population INTEGER)"
    )
    db.execute(
        "INSERT INTO departments (code, name, population) VALUES "
        "('75', 'Paris', 2165423), ('33', 'Gironde', 1601845), ('29', 'Finistere', 915090)"
    )
    db.execute(
        "CREATE TABLE unemployment (dept_code TEXT REFERENCES departments(code), "
        "year INTEGER, rate FLOAT)"
    )
    db.execute(
        "INSERT INTO unemployment (dept_code, year, rate) VALUES "
        "('75', 2015, 8.2), ('75', 2014, 8.6), ('33', 2015, 9.4), ('29', 2015, 7.9)"
    )
    return db


@pytest.fixture
def small_tweet_store():
    """A tweet store with a handful of hand-written documents."""
    store = tweet_store("mini_tweets")
    store.add_all([
        {
            "id": 1,
            "text": "Solidarité nationale avec nos agriculteurs #SIA2016",
            "created_at": "2016-03-01T10:00:00",
            "user": {"screen_name": "fhollande", "name": "François Hollande",
                     "followers_count": 1_500_000},
            "entities": {"hashtags": ["SIA2016"]},
            "retweet_count": 469, "favorite_count": 883,
        },
        {
            "id": 2,
            "text": "L'état d'urgence doit être prolongé par le parlement",
            "created_at": "2015-11-20T09:00:00",
            "user": {"screen_name": "mlepen", "name": "Marine LePen",
                     "followers_count": 900_000},
            "entities": {"hashtags": ["EtatDurgence"]},
            "retweet_count": 120, "favorite_count": 210,
        },
        {
            "id": 3,
            "text": "Le chomage baisse, les chiffres le prouvent",
            "created_at": "2015-12-01T12:00:00",
            "user": {"screen_name": "fhollande", "name": "François Hollande",
                     "followers_count": 1_500_000},
            "entities": {"hashtags": []},
            "retweet_count": 300, "favorite_count": 150,
        },
    ])
    return store


@pytest.fixture(scope="session")
def demo():
    """A small but complete demonstration instance (built once per session)."""
    return build_demo_instance(DemoConfig(politicians=18, weeks=4,
                                          tweets_per_politician_per_week=2.0, seed=42))


@pytest.fixture(scope="session")
def demo_catalog(demo):
    """Digest catalog of the session demo instance."""
    return demo.instance.build_digests()
