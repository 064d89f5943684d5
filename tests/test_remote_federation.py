"""Remote source federation: protocol fidelity, resilience, chaos.

The suite covers the layers of :mod:`repro.remote` bottom-up:

* wire-protocol codec round trips (values, rows, all four query kinds,
  column-major answers), and typed errors for malformed frames and
  peers of another revision;
* `RemoteSource` ≡ in-process wrapper equivalence, over real TCP and over
  the in-process loopback (a hypothesis property across all four models);
* the resilience mechanisms one by one — retries, hedged requests,
  circuit-breaker state machine (scripted clock), graceful degradation
  from the stale result cache;
* the executor/service seams — ``SourceDispatchError`` attribution,
  deadline-bounded dispatch waits on a hung source, breaker state in
  ``MediatorService.stats()``;
* the round-trip budget — a CMQ pins a remote source once, with the first
  frame it sends it, sends an unreached source nothing and asks for an
  estimate once per source version — with snapshot isolation under writes
  that land between two sub-query calls of one CMQ, the estimate memo and
  the plan key over reachable sources;
* a deterministic chaos run: every source behind a seeded
  ``FaultyTransport`` (10% faults plus one scripted full outage), where
  every query must retry to the correct answer, degrade with a flag, or
  fail with a typed ``RemoteError`` — never return wrong rows.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import zlib
from datetime import date, datetime

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CMQBuilder, MixedInstance, PlannerOptions
from repro.core.cmq import GLUE_SOURCE
from repro.core.executor import MixedQueryExecutor
from repro.core.sources import DataSource
from repro.rdf.source import RDFQuery
from repro.engine.batch import BindingBatch, as_batches, dict_rows
from repro.errors import (
    CircuitOpenError,
    QueryTimeoutError,
    RemoteError,
    RemoteProtocolError,
    SourceDispatchError,
    SourceUnavailableError,
)
from repro.fulltext.store import FieldConfig, FullTextStore
from repro.json.store import JSONDocumentStore
from repro.obs.explain import explain_analyze
from repro.rdf import Graph, triple
from repro.rdf.bgp import BGPQuery
from repro.relational import Database
from repro.remote import (
    CircuitBreaker,
    FaultyTransport,
    LocalTransport,
    RemoteOptions,
    RemoteSource,
    RemoteSourceHandler,
    SourceServer,
    TCPTransport,
    Transport,
)
from repro.remote import protocol
from repro.service import MediatorService, ServiceConfig
from repro.stats.catalog import ESTIMATE_MEMO_ENTRIES, StatisticsCatalog
from repro.stats.cost import MIN_BIND_BATCH, CostModel

pytestmark = pytest.mark.remote

HANDLES = [f"u{i}" for i in range(8)]
TOPICS = ["politics", "sports", "culture"]

#: Test-friendly resilience knobs: real retry/breaker semantics, but with
#: millisecond backoffs and hedging off (hedging has its own test).
FAST = RemoteOptions(timeout=2.0, retries=2, backoff_base=0.001,
                     backoff_max=0.004, hedge_delay=0,
                     breaker_failures=4, breaker_reset=0.05)


def build_instance(name: str = "fed") -> MixedInstance:
    """A four-model instance: glue RDF + RDF + relational + full-text + JSON."""
    glue = Graph(f"{name}-glue")
    people = Graph(f"{name}-people")
    database = Database(f"{name}-profiles")
    store = FullTextStore(f"{name}-posts", fields=[
        FieldConfig("text", "text"),
        FieldConfig("user.screen_name", "keyword"),
    ], default_field="text")
    documents = JSONDocumentStore(f"{name}-tweets")
    for i, handle in enumerate(HANDLES):
        glue.add(triple(f"ttn:P{i}", "ttn:twitterAccount", handle))
        glue.add(triple(f"ttn:P{i}", "ttn:memberOf", f"ttn:PARTY{i % 3}"))
        people.add(triple(f"ttn:P{i}", "ttn:account", handle))
        people.add(triple(f"ttn:P{i}", "ttn:hometown", f"City{i % 3}"))
    database.create_table_from_rows(
        "profiles", [{"handle": handle, "followers": 100 * (i + 1)}
                     for i, handle in enumerate(HANDLES)])
    for i in range(24):
        handle = HANDLES[i % len(HANDLES)]
        topic = TOPICS[i % len(TOPICS)]
        store.add({"id": i, "text": f"post about {topic} by {handle}",
                   "user": {"screen_name": handle}})
        documents.add({"id": i, "author": handle, "topic": topic,
                       "likes": (i * 7) % 40})
    instance = MixedInstance(graph=glue, name=name, entailment=False)
    instance.register_rdf("rdf://people", people)
    instance.register_relational("sql://profiles", database)
    instance.register_fulltext("solr://posts", store)
    instance.register_json("json://tweets", documents)
    return instance


def queries(instance: MixedInstance) -> list:
    """CMQs spanning every model (all bind joins on ``id``)."""
    out = []
    builder = instance.builder("q_profiles")
    builder.graph("SELECT ?id ?p WHERE { ?x ttn:twitterAccount ?id . "
                  "?x ttn:memberOf ?p }")
    builder.sql("prof", source="sql://profiles",
                sql="SELECT handle AS id, followers AS f FROM profiles "
                    "WHERE handle = {id}")
    out.append(builder.build())
    builder = instance.builder("q_home")
    builder.graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
    builder.rdf("home", "SELECT ?id ?town WHERE { ?p ttn:account ?id . "
                        "?p ttn:hometown ?town }", source="rdf://people")
    out.append(builder.build())
    builder = instance.builder("q_tweets")
    builder.graph("SELECT ?id ?p WHERE { ?x ttn:twitterAccount ?id . "
                  "?x ttn:memberOf ?p }")
    builder.json("tweets", source="json://tweets",
                 pattern='{ author: ?id, topic: "politics", likes: ?l }')
    out.append(builder.build())
    builder = instance.builder("q_posts")
    builder.graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
    builder.fulltext("posts", source="solr://posts",
                     query="user.screen_name:{id}",
                     fields={"t": "text", "id": "user.screen_name"})
    out.append(builder.build())
    return out


def atom_queries(instance: MixedInstance) -> dict:
    """uri -> one representative SourceQuery per external source."""
    out = {}
    for cmq in queries(instance):
        for atom in cmq.atoms:
            if not atom.is_glue():
                out[atom.source] = atom.query
    return out


def result_set(result):
    return sorted(tuple(sorted((k, str(v)) for k, v in row.items()))
                  for row in result.rows)


def remote_wrap(base: MixedInstance, options: RemoteOptions = FAST,
                fault=None):
    """A parallel instance whose every source is remote over loopback.

    ``fault(uri, transport)`` may wrap each loopback transport (chaos
    tests pass a ``FaultyTransport`` factory).  Returns the instance and
    the per-URI transports (the outermost layer).
    """
    inst = MixedInstance(graph=base.graph, name=base.name + "-remote",
                         entailment=False)
    transports = {}
    for uri in base.source_uris():
        source = base.source(uri)
        transport: Transport = LocalTransport(RemoteSourceHandler(source).handle)
        if fault is not None:
            transport = fault(uri, transport)
        transports[uri] = transport
        inst.register_remote(transport, uri=uri, model=source.model,
                             name=source.name, size=source.size(),
                             options=options)
    return inst, transports


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------

def test_value_codec_roundtrip():
    row = {
        "n": 42, "f": 1.5, "s": "héllo", "none": None, "flag": True,
        "tup": (1, "two", (3,)),
        "day": date(2016, 3, 1),
        "stamp": datetime(2016, 3, 1, 10, 30, 15),
        "weird": {"$": "not-a-tag", "v": [1, 2]},
        "nested": {"list": [1, {"k": (2, 3)}]},
    }
    over_the_wire = json.loads(json.dumps(protocol.encode_row(row)))
    assert protocol.decode_row(over_the_wire) == row


def test_estimate_codec_handles_infinity():
    assert protocol.encode_estimate(float("inf")) is None
    assert protocol.decode_estimate(None) == float("inf")
    assert protocol.decode_estimate(protocol.encode_estimate(12.5)) == 12.5


def test_query_codec_roundtrip_all_kinds():
    base = build_instance("codec")
    seen_kinds = set()
    for cmq in queries(base):
        for atom in cmq.atoms:
            source = (base.glue_source if atom.is_glue()
                      else base.source(atom.source))
            wire = json.loads(json.dumps(protocol.encode_query(atom.query)))
            seen_kinds.add(wire["kind"])
            decoded = protocol.decode_query(wire)
            bindings = {"id": HANDLES[3]}
            assert (source.execute(decoded, bindings)
                    == source.execute(atom.query, bindings))
    assert seen_kinds == {"rdf", "sql", "fulltext", "json"}


def _typed(value):
    """``value`` with every type spelled out (``True`` is not ``1``, a
    tuple is not a list) and NaN equal to itself."""
    if isinstance(value, float) and value != value:
        return ("nan",)
    if isinstance(value, dict):
        return ("dict", {key: _typed(item) for key, item in value.items()})
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [_typed(item) for item in value])
    return (type(value).__name__, value)


def over_the_wire(answer: list) -> list:
    """One binding's answer (batches) through a frame, as dict rows."""
    frame = protocol.encode_answers([answer], {"ok": True})
    (decoded,) = protocol.decode_answers(protocol.roundtrip(frame), 1)
    return dict_rows(decoded)


_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
              st.dates(), st.datetimes()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple), st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["$", "v", "k"]), inner, max_size=3)),
    max_leaves=6)


@st.composite
def _batches(draw):
    columns = draw(st.lists(st.sampled_from("abcd"), unique=True, max_size=3))
    rows = draw(st.lists(st.tuples(*[_VALUES] * len(columns)), max_size=4))
    return BindingBatch(columns, rows)


@settings(max_examples=150, deadline=None)
@given(answer=st.lists(_batches(), max_size=3))
def test_answer_codec_roundtrip(answer):
    """Every value the mediator holds survives a frame with its
    type: None, bool, int, float (inf, NaN), str, tuple, list, dicts with a
    ``"$"`` key, dates and datetimes, alone or mixed in one column."""
    assert _typed(over_the_wire(answer)) == _typed(dict_rows(answer))


def test_only_a_column_holding_a_non_json_value_is_tagged():
    batch = BindingBatch(("s", "mixed", "plain"),
                         [("a", 1, None), ("b", (1, 2), 2.5), ("c", date(2016, 1, 1), True)])
    ((encoded,),) = protocol.encode_answers([[batch]], {})["answers"]
    assert encoded[1] == 3 and encoded[3] == [1]
    rows = over_the_wire([batch])
    assert rows == batch.dicts()
    assert [type(row["plain"]) for row in rows] == [type(None), float, bool]


def test_one_empty_row_stays_distinct_from_no_rows():
    """A BGP without output variables answers "yes" as one empty row."""
    for rows in ([], [{}], [{}, {}]):
        assert over_the_wire(as_batches(rows)) == rows
    base = build_instance("yes")
    local = base.source("rdf://people")
    remote = RemoteSource(LocalTransport(RemoteSourceHandler(local).handle),
                          uri=local.uri, model=local.model, options=FAST)
    for handle, expected in (("u0", [{}]), ("u1", [])):
        query = RDFQuery(bgp=BGPQuery.create(head=[],
                                             patterns=[("ttn:P0", "ttn:account", handle)]))
        assert list(map(dict_rows, local.execute_batch(query, [{}, {}]))) == [expected, expected]
        assert list(map(dict_rows, remote.execute_batch(query, [{}, {}]))) == [expected, expected]
        assert remote.execute(query) == expected


def test_a_key_set_change_inside_one_answer_keeps_row_order():
    rows = [{"a": 1}, {"a": 2, "b": (3,)}, {"b": (4,), "a": 5}, {"a": 6}, {}, {"a": 7}]
    batches = as_batches(rows)
    assert len(batches) == 5
    assert over_the_wire(batches) == rows


@pytest.mark.parametrize("answer", [
    [[["a"], 2, [[1]], []]],                 # a column shorter than the count
    [[["a"], 1, [[1, 2]], []]],              # ... or longer
    [[["a", "b"], 1, [[1]], []]],            # a column missing
    [[[], -1, [], []]],                      # a negative count
    [[["a"], 1, [[1]], [1]]],                # a tagged index out of range
    [[["a", "a"], 1, [[1], [2]], []]],       # a column named twice
    [[[1], 1, [[1]], []]],                   # a column name that is not one
    [[["a"], 1, [[1]]]],                     # three fields
    [{"a": [1]}],                            # a revision-2 row
    {"a": [1]},                              # not a list of batches
    [[["a"], 1, [[{"$": "tuple"}]], [0]]],   # a tagged value without payload
], ids=lambda answer: str(answer)[:40])
def test_a_malformed_answer_is_a_typed_error(answer):
    with pytest.raises(RemoteProtocolError):
        protocol.decode_answers({"answers": [answer]}, 1)


# ---------------------------------------------------------------------------
# Revision 4: wide columns travel as bytes after the frame's JSON body
# ---------------------------------------------------------------------------

#: Characters per value that pack a text column of the fewest rows.
LONG = -(-protocol.PACKED_MIN_CHARS // protocol.PACKED_MIN_ROWS)

#: Per column kind: its plain values, and values that keep a column of
#: them off the tail (or test what the tail decodes to).
_WIDE_KINDS = {
    "short text": (st.text(max_size=6), ["", "\x00", "a\x00b", "\ud800", "x\udfffy", 5]),
    "long text": (st.text(min_size=LONG + 8, max_size=LONG + 16),
                  ["", "\x00" * 30, "\udc80" * 30, "é" * 30, None]),
    "int": (st.integers(-2 ** 63, 2 ** 63 - 1),
            [2 ** 63, -2 ** 63 - 1, True, False, 1.0, 0]),
    "mixed": (st.one_of(st.floats(), st.booleans(), st.none()),
              [float("nan"), (1, "a"), date(2016, 1, 1), ""]),
}


@st.composite
def _wide_batches(draw):
    """A batch of 0-3 columns, each of one kind, past the packing
    threshold; a column may hold a few of its kind's odd values."""
    count = draw(st.integers(protocol.PACKED_MIN_ROWS, protocol.PACKED_SHORT_TEXT_ROWS + 8))
    kinds = draw(st.lists(st.sampled_from(sorted(_WIDE_KINDS)), max_size=3))
    columns = []
    for kind in kinds:
        plain, odd = _WIDE_KINDS[kind]
        values = draw(st.lists(plain, min_size=count, max_size=count))
        for _ in range(draw(st.integers(0, 2))):
            values[draw(st.integers(0, count - 1))] = draw(st.sampled_from(odd))
        columns.append(values)
    names = [f"c{i}" for i in range(len(columns))]
    return BindingBatch(names, list(zip(*columns)) if columns else [()] * count)


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(answers=st.lists(st.lists(_wide_batches(), max_size=2), min_size=1, max_size=2))
def test_a_wide_answer_survives_a_revision_4_frame_with_its_types(answers):
    """Batches past the packing threshold, each value back with its exact
    type: a separator inside a text value, lone surrogates, empty strings,
    ints beyond int64, ``bool`` beside ``int``, NaN, one column and none."""
    frame = protocol.dump_message(protocol.encode_answers(answers, {"ok": True}))
    decoded = protocol.decode_answers(protocol.load_message(frame[4:]), len(answers))
    assert [_typed(dict_rows(answer)) for answer in decoded] == \
        [_typed(dict_rows(answer)) for answer in answers]


def test_wide_columns_pack_by_kind_and_size():
    """A column packs when every value is exactly ``str`` (long enough, or
    enough of them) or exactly ``int`` within int64, and the text holds no
    separator and encodes as strict UTF-8; every other column is JSON."""
    rows = protocol.PACKED_SHORT_TEXT_ROWS
    long_text = "x" * LONG
    cases = {
        "long": ([long_text] * protocol.PACKED_MIN_ROWS, "text"),
        "too few characters": (["x" * (LONG - 1)] * protocol.PACKED_MIN_ROWS, None),
        "short": (["x"] * rows, "text"),
        "few short": (["x"] * (rows - 1), None),
        "too few": ([long_text] * (protocol.PACKED_MIN_ROWS - 1), None),
        "separator": ([long_text] * (rows - 1) + ["a\x00b"], None),
        "surrogate": ([long_text] * (rows - 1) + ["\ud800"], None),
        "str subclass": ([long_text] * (rows - 1) + [type("S", (str,), {})("s")], None),
        "ints": (list(range(protocol.PACKED_MIN_INTS)), "int64"),
        "few ints": (list(range(protocol.PACKED_MIN_INTS - 1)), None),
        "int64 bounds": ([-2 ** 63, 2 ** 63 - 1] * rows, "int64"),
        "beyond int64": ([2 ** 63] + [0] * rows, None),
        "bool beside int": ([True] + [0] * rows, None),
        "bools": ([True] * rows, None),
    }
    for name, (values, packed) in cases.items():
        batch = BindingBatch(("c",), [(value,) for value in values])
        response = protocol.encode_answers([[batch]], {})
        ((_, count, (column,), tagged),), = response["answers"]
        assert count == len(values), name
        if packed is None:
            assert type(column) is not dict and "tail" not in response, name
        else:
            assert column == {"$": packed, "at": 0, "size": len(response["tail"])}, name
        (answer,) = protocol.decode_answers(protocol.roundtrip(response), 1)
        assert dict_rows(answer) == batch.dicts(), name


def test_a_frame_without_packed_columns_is_a_revision_3_frame():
    """No tail, no tail size: the body is the payload's compact JSON."""
    batch = BindingBatch(("s", "n", "f"), [("é", 1, float("nan")), ("\x00", 2, float("inf"))])
    payload = protocol.encode_answers([[batch]], {"ok": True, "version": 7})
    frame = protocol.dump_message(payload)
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    assert "tail" not in payload and frame == len(body).to_bytes(4, "big") + body


def _packed_frame(descriptor=lambda tail, descriptors: None, tail_bytes=None,
                  head=None) -> bytes:
    """The body of a frame answering one binding with one batch of a long
    text column and an int column, both packed, after three edits: of
    the column descriptors, of the tail's bytes, of the JSON body's text."""
    rows = max(protocol.PACKED_MIN_ROWS, protocol.PACKED_MIN_INTS)
    batch = BindingBatch(("t", "n"), [(f"value {i:04d} " * 4, i) for i in range(rows)])
    response = protocol.encode_answers([[batch]], {"ok": True})
    descriptors = response["answers"][0][0][2]
    assert [d["$"] for d in descriptors] == ["text", "int64"]
    descriptor(response["tail"], descriptors)
    if tail_bytes is not None:
        response["tail"] = tail_bytes(response["tail"])
        if response["tail"] is None:
            del response["tail"]
    body = protocol.dump_message(response)[4:]
    return body if head is None else head(body)


def test_a_packed_frame_round_trips():
    (answer,) = protocol.decode_answers(protocol.load_message(_packed_frame()), 1)
    assert [row[1] for row in answer[0].rows] == list(range(len(answer[0].rows)))


def _set(column: int, **fields):
    return lambda tail, descriptors: descriptors[column].update(fields)


def _one_value_short(tail, descriptors):
    text = descriptors[0]
    last = bytes(tail).rindex(b"\x00", text["at"], text["at"] + text["size"])
    text["size"] = last - text["at"]


def _lying_tail_size(by: int):
    def edit(body: bytes) -> bytes:
        size = int(body[len(b'{"tail":'):body.index(b",")])
        return body.replace(b'{"tail":%d,' % size, b'{"tail":%d,' % (size + by), 1)
    return edit


@pytest.mark.parametrize("frame", [
    dict(descriptor=lambda tail, d: d[0].update(at=len(tail))),
    dict(descriptor=lambda tail, d: d[1].update(size=len(tail) + 8)),
    dict(descriptor=_set(0, at=-1)),
    dict(descriptor=_set(0, at="0")),
    dict(descriptor=_one_value_short),
    dict(tail_bytes=lambda tail: b"\xff" + tail[1:]),
    dict(descriptor=lambda tail, d: d[1].update(size=d[1]["size"] - 8)),
    dict(descriptor=lambda tail, d: d[1].update(size=d[1]["size"] - 1)),
    dict(descriptor=_set(1, **{"$": "float64"})),
    dict(head=_lying_tail_size(+1)),
    dict(head=_lying_tail_size(-1)),
    dict(head=_lying_tail_size(+10 ** 9)),
    dict(tail_bytes=lambda tail: None),
    dict(head=lambda body: b'{"tail":"7",' + body[body.index(b",") + 1:]),
], ids=["offset-past-the-frame", "size-past-the-frame", "negative-offset",
        "offset-not-an-int", "wrong-piece-count", "invalid-utf8",
        "int-size-not-8-per-row", "int-size-not-a-multiple-of-8", "unknown-kind",
        "tail-length-lies-long", "tail-length-lies-short", "tail-past-the-frame",
        "descriptors-without-a-tail", "tail-size-not-a-number"])
def test_a_malformed_tail_is_a_typed_error(frame):
    with pytest.raises(RemoteProtocolError):
        protocol.decode_answers(protocol.load_message(_packed_frame(**frame)), 1)


def test_a_frame_bound_counts_its_tail():
    batch = BindingBatch(("t",), [("x" * 64,)] * protocol.PACKED_SHORT_TEXT_ROWS)
    response = protocol.encode_answers([[batch]], {"ok": True})
    size = len(protocol.dump_message(response))
    assert len(response["tail"]) > size // 2
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "MAX_FRAME_BYTES", size - 5)
        with pytest.raises(RemoteProtocolError, match="frame bound"):
            protocol.dump_message(response)


def test_the_server_decodes_each_distinct_sub_query_once(monkeypatch):
    """A repeated sub-query is decoded once, estimates share the memo, a
    payload that fails to decode is decoded (and refused) each time, and
    the memo stays bounded."""
    from repro.remote import server

    base = build_instance("decoded")
    source = base.source("json://tweets")
    handler = RemoteSourceHandler(source)
    decoded = []
    decode = protocol.decode_query
    monkeypatch.setattr(protocol, "decode_query",
                        lambda payload: decoded.append(payload) or decode(payload))
    query = protocol.encode_query(atom_queries(base)["json://tweets"])

    def ask(payload, op="execute_batch"):
        return handler.handle({"op": op, "protocol": protocol.PROTOCOL_VERSION,
                               "query": payload, "bindings_batch": [{"id": HANDLES[0]}],
                               "bound_variables": []})

    answers = [ask(query) for _ in range(3)]
    assert all(answer["ok"] for answer in answers) and len(decoded) == 1
    assert ask(dict(query))["answers"] == answers[0]["answers"] and len(decoded) == 1
    assert ask(query, "estimate")["ok"] and len(decoded) == 1
    # JSON values of another type are another sub-query.
    assert ask(dict(query, limit=1))["ok"] and ask(dict(query, limit=True))["ok"]
    assert len(decoded) == 3
    for _ in range(2):
        refused = ask({"kind": "json"})
        assert refused["error"]["type"] == "RemoteProtocolError"
    assert len(decoded) == 5
    for limit in range(2 * server.MAX_DECODED_QUERIES):
        assert ask(dict(query, limit=limit + 2))["ok"]
    assert len(handler._queries) == server.MAX_DECODED_QUERIES


# ---------------------------------------------------------------------------
# A malformed request is answered with a typed error, not a crash
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("request_fields", [
    {"query": {"kind": "sql"}, "bindings_batch": [{}]},
    {"query": {"kind": "sql", "sql": 5}, "bindings_batch": [{}]},
    {"query": {"kind": "rdf", "head": [],
               "patterns": [[{"$": "var"}, {"$": "uri", "v": "ttn:a"},
                             {"$": "uri", "v": "ttn:b"}]]},
     "bindings_batch": [{}]},
    {"query": {"kind": "rdf", "patterns": [[{"$": "uri", "v": "ttn:a"}]]},
     "bindings_batch": [{}]},
    {"query": "PROFILES", "bindings_batch": [{"id": {"$": "tuple"}}]},
    {"query": "PROFILES", "bindings_batch": [{"id": {"$": "date", "v": "monday"}}]},
    {"query": "PROFILES", "bindings_batch": [{"id": {"$": ["tuple"], "v": []}}]},
    {"query": "PROFILES", "bindings_batch": {"id": "u0"}},
], ids=["sql-without-text", "sql-not-text", "rdf-var-without-name", "rdf-short-pattern",
        "tuple-without-payload", "date-not-iso", "unhashable-tag", "batch-not-a-list"])
def test_a_malformed_request_gets_a_typed_error(request_fields, caplog):
    base = build_instance("malformed")
    source = base.source("sql://profiles")
    handler = RemoteSourceHandler(source)
    request = {"op": "execute_batch", "protocol": protocol.PROTOCOL_VERSION,
               **request_fields}
    if request["query"] == "PROFILES":
        request["query"] = protocol.encode_query(atom_queries(base)["sql://profiles"])
    with caplog.at_level("ERROR", logger="repro.remote.server"):
        response = handler.handle(request)
    assert not response["ok"]
    assert response["error"]["type"] == "RemoteProtocolError", response
    assert not caplog.records  # refused, not logged as an internal failure
    # A client sending it gets the same type back, not a MixedQueryError.
    remote = RemoteSource(HookTransport(LocalTransport(handler.handle),
                                        lambda payload: payload.update(request)),
                          uri=source.uri, model=source.model, options=FAST)
    with pytest.raises(RemoteProtocolError):
        remote.execute(atom_queries(base)["sql://profiles"], {"id": HANDLES[0]})


# ---------------------------------------------------------------------------
# Equivalence: remote wrappers answer exactly like in-process ones
# ---------------------------------------------------------------------------

def test_tcp_equivalence_and_keepalive():
    base = build_instance("tcp")
    servers = {uri: SourceServer(base.source(uri)).start()
               for uri in base.source_uris()}
    inst = MixedInstance(graph=base.graph, name="tcp-remote", entailment=False)
    transports = []
    try:
        for uri, server in servers.items():
            host, port = server.address
            transport = TCPTransport(host, port)
            transports.append(transport)
            # No uri/model given: the wrapper learns both from `hello`.
            remote = inst.register_remote(transport, options=FAST)
            assert remote.uri == uri
            assert remote.model == base.source(uri).model
        for cmq in queries(base):
            assert result_set(inst.execute(cmq)) == result_set(base.execute(cmq))
        # Keep-alive: far fewer sockets than requests.
        remote = inst.source("sql://profiles")
        stats = remote.stats()
        assert stats["calls"] > stats["connections_opened"] >= 1
        assert stats["breaker"] == CircuitBreaker.CLOSED
        # Pinning observes the same snapshot the live source serves,
        # from the clone's first use on.
        pinned = inst.source("json://tweets").pin()
        assert pinned.pinned_at is None
        assert pinned.version() == base.source("json://tweets").version()
        assert pinned.pinned_at == pinned.version()
        query = atom_queries(base)["json://tweets"]
        assert (pinned.execute(query, {"id": HANDLES[0]})
                == base.source("json://tweets").execute(query, {"id": HANDLES[0]}))
    finally:
        for transport in transports:
            transport.close()
        for server in servers.values():
            server.close()


@pytest.fixture(scope="module")
def loopback_pair():
    base = build_instance("prop")
    remote, _ = remote_wrap(base)
    return base, remote, atom_queries(base)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_remote_equivalence_property(loopback_pair, data):
    """RemoteSource ≡ in-process wrapper for every model and binding batch."""
    base, remote, query_map = loopback_pair
    uri = data.draw(st.sampled_from(sorted(query_map)))
    query = query_map[uri]
    batch = [{"id": handle}
             for handle in data.draw(st.lists(st.sampled_from(HANDLES),
                                              min_size=1, max_size=5))]
    local, wrapped = base.source(uri), remote.source(uri)
    assert (list(map(dict_rows, wrapped.execute_batch(query, batch)))
            == list(map(dict_rows, local.execute_batch(query, batch))))
    assert wrapped.execute(query, batch[0]) == local.execute(query, batch[0])
    assert wrapped.estimate(query, {"id"}) == local.estimate(query, {"id"})


# ---------------------------------------------------------------------------
# Resilience mechanisms
# ---------------------------------------------------------------------------

class SteppedTransport(Transport):
    """Loopback whose i-th physical request sleeps ``delays[i]`` seconds."""

    def __init__(self, handler, delays):
        self._inner = LocalTransport(handler.handle)
        self.delays = delays
        self._lock = threading.Lock()
        self._index = 0

    def request(self, payload, timeout=None):
        with self._lock:
            index = self._index
            self._index += 1
        time.sleep(self.delays[min(index, len(self.delays) - 1)])
        return self._inner.request(payload, timeout=timeout)


def test_hedged_request_cuts_tail_without_duplicating_rows():
    base = build_instance("hedge")
    source = base.source("sql://profiles")
    handler = RemoteSourceHandler(source)
    transport = SteppedTransport(handler, delays=[0.6, 0.0, 0.0])
    remote = RemoteSource(
        transport, uri=source.uri, model=source.model,
        options=RemoteOptions(timeout=5.0, retries=0, hedge_delay=0.02))
    query = atom_queries(base)["sql://profiles"]
    started = time.perf_counter()
    rows = remote.execute(query, {"id": HANDLES[1]})
    elapsed = time.perf_counter() - started
    # The hedge answered long before the 0.6s primary; the rows are the
    # plain single answer — racing two identical reads duplicates nothing.
    assert rows == source.execute(query, {"id": HANDLES[1]})
    assert elapsed < 0.5
    stats = remote.stats()
    assert stats["hedges"] == 1 and stats["hedge_wins"] == 1
    assert stats["retries"] == 0
    assert transport._index == 2  # two physical legs, one logical call
    remote.close()


def test_default_options_never_hedge():
    """Nine quick calls, then a slow one: without a stated ``hedge_delay``
    the slow call is waited for, never raced."""
    base = build_instance("unhedged")
    source = base.source("sql://profiles")
    transport = SteppedTransport(RemoteSourceHandler(source), delays=[0.0] * 9 + [0.2])
    remote = RemoteSource(transport, uri=source.uri, model=source.model)
    query = atom_queries(base)["sql://profiles"]
    for _ in range(10):
        assert remote.execute(query, {"id": HANDLES[1]}) == \
            source.execute(query, {"id": HANDLES[1]})
    stats = remote.stats()
    assert (stats["calls"], stats["hedges"], transport._index) == (10, 0, 10)
    remote.close()


def test_retries_recover_from_transient_faults():
    base = build_instance("retry")
    handler = RemoteSourceHandler(base.source("sql://profiles"))
    # seed=1, fault_rate=0.5: deterministic mix of injected timeouts /
    # resets; retries must still land every call on the correct rows.
    faulty = FaultyTransport(LocalTransport(handler.handle), seed=1,
                             fault_rate=0.5)
    remote = RemoteSource(
        faulty, uri="sql://profiles", model="relational",
        options=RemoteOptions(timeout=2.0, retries=4, backoff_base=0.001,
                              backoff_max=0.002, hedge_delay=0,
                              breaker_failures=50))
    query = atom_queries(base)["sql://profiles"]
    for handle in HANDLES:
        assert (remote.execute(query, {"id": handle})
                == base.source("sql://profiles").execute(query, {"id": handle}))
    assert remote.stats()["retries"] > 0
    assert faulty.injected["timeout"] + faulty.injected["reset"] > 0
    assert remote.stats()["breaker"] == "closed"


def test_circuit_breaker_state_machine_with_scripted_clock():
    now = [0.0]
    breaker = CircuitBreaker("src", failures=2, reset_after=5.0,
                             clock=lambda: now[0])
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.CLOSED
    breaker.record_failure()
    assert breaker.state == CircuitBreaker.OPEN
    with pytest.raises(CircuitOpenError):
        breaker.before_call()
    now[0] = 5.5
    assert breaker.state == CircuitBreaker.HALF_OPEN
    breaker.before_call()  # the single admitted probe
    with pytest.raises(CircuitOpenError):
        breaker.before_call()  # second concurrent probe is rejected
    breaker.record_failure()  # probe failed: straight back to open
    assert breaker.state == CircuitBreaker.OPEN
    now[0] = 11.0
    breaker.before_call()
    breaker.record_success()
    assert breaker.state == CircuitBreaker.CLOSED
    assert breaker.transitions == [
        (CircuitBreaker.CLOSED, CircuitBreaker.OPEN),
        (CircuitBreaker.OPEN, CircuitBreaker.HALF_OPEN),
        (CircuitBreaker.HALF_OPEN, CircuitBreaker.OPEN),
        (CircuitBreaker.OPEN, CircuitBreaker.HALF_OPEN),
        (CircuitBreaker.HALF_OPEN, CircuitBreaker.CLOSED),
    ]


def test_breaker_trips_fails_fast_and_recovers_after_outage():
    base = build_instance("breaker")
    handler = RemoteSourceHandler(base.source("sql://profiles"))
    faulty = FaultyTransport(LocalTransport(handler.handle),
                             outages=((0, 10 ** 9),))
    now = [0.0]
    remote = RemoteSource(
        faulty, uri="sql://profiles", model="relational",
        options=RemoteOptions(timeout=1.0, retries=0, backoff_base=0.0,
                              hedge_delay=0, breaker_failures=2,
                              breaker_reset=5.0),
        clock=lambda: now[0])
    query = atom_queries(base)["sql://profiles"]
    for _ in range(2):
        with pytest.raises(SourceUnavailableError):
            remote.execute(query, {"id": HANDLES[0]})
    assert remote.breaker.state == CircuitBreaker.OPEN
    reached_network = faulty.calls
    with pytest.raises(CircuitOpenError):
        remote.execute(query, {"id": HANDLES[0]})
    assert faulty.calls == reached_network  # failed fast, no network touch
    # The outage ends and the reset window elapses: one half-open probe
    # succeeds and closes the circuit again.
    faulty.outages = ()
    now[0] = 6.0
    assert (remote.execute(query, {"id": HANDLES[0]})
            == base.source("sql://profiles").execute(query, {"id": HANDLES[0]}))
    assert remote.breaker.state == CircuitBreaker.CLOSED
    assert remote.breaker.transitions == [
        (CircuitBreaker.CLOSED, CircuitBreaker.OPEN),
        (CircuitBreaker.OPEN, CircuitBreaker.HALF_OPEN),
        (CircuitBreaker.HALF_OPEN, CircuitBreaker.CLOSED),
    ]


# ---------------------------------------------------------------------------
# Graceful degradation
# ---------------------------------------------------------------------------

def test_stale_cache_degradation_is_flagged_in_trace_and_explain():
    base = build_instance("degrade")
    remote, transports = remote_wrap(
        base, fault=lambda uri, transport: FaultyTransport(transport))
    cmq = queries(remote)[0]  # glue |> sql bind join
    warm = remote.execute(cmq)
    assert not warm.trace.degraded
    expected = result_set(warm)
    assert expected == result_set(base.execute(queries(base)[0]))
    # Every remote source goes fully dark; the cached answers survive.
    for transport in transports.values():
        transport.outages = ((0, 10 ** 9),)
    degraded = remote.execute(cmq)
    assert result_set(degraded) == expected
    assert degraded.trace.degraded
    assert any(reason == "stale_cache" and source == "sql://profiles"
               for _, source, reason in degraded.trace.degraded_atoms)
    assert any(call.degraded for call in degraded.trace.calls)
    assert "DEGRADED" in degraded.trace.summary()
    report = explain_analyze(degraded)
    assert report.degraded
    rendered = report.render()
    assert "DEGRADED result" in rendered and "stale_cache" in rendered


def test_prebuilt_plan_executes_under_its_own_options():
    """``execute(q, plan=...)`` runs the plan it is given, under the
    options it was built with, through the one failure policy: a
    reference plan (``cost_based=False``) degrades and flags its result
    on a default executor, and is not retired."""
    base = build_instance("planopts")
    remote, transports = remote_wrap(
        base, fault=lambda uri, transport: FaultyTransport(transport))
    cmq = queries(remote)[0]
    plan = remote.plan(cmq, PlannerOptions(cost_based=False))
    for transport in transports.values():
        transport.outages = ((0, 10 ** 9),)
    executor = remote.pin().executor(remote)
    assert executor.options.cost_based
    prebuilt = executor.execute(cmq, plan=plan)
    assert prebuilt.trace.plan is plan and prebuilt.trace.degraded
    assert not prebuilt.trace.plan_retired
    assert executor.execute(cmq).trace.degraded


# ---------------------------------------------------------------------------
# Executor / service seams
# ---------------------------------------------------------------------------

class ExplodingSource(DataSource):
    """A wrapper raising a *non-repro* error from its execute path."""

    model = "fulltext"

    def accepts(self, query) -> bool:
        return True

    def estimate(self, query, bound_variables=None) -> float:
        return 1.0

    def execute(self, query, bindings=None):
        raise ValueError("boom")

    def execute_batch(self, query, bindings_batch):
        raise ValueError("boom")

    def size(self) -> int:
        return 1


class HungSource(DataSource):
    """A wrapper whose every dispatch blocks for ``delay`` seconds."""

    model = "fulltext"

    def __init__(self, uri: str, delay: float):
        super().__init__(uri, name="hung")
        self.delay = delay

    def accepts(self, query) -> bool:
        return True

    def estimate(self, query, bound_variables=None) -> float:
        return 1.0

    def execute(self, query, bindings=None):
        time.sleep(self.delay)
        return []

    def execute_batch(self, query, bindings_batch):
        time.sleep(self.delay)
        return [[] for _ in bindings_batch]

    def size(self) -> int:
        return 1


def _one_atom_query(instance: MixedInstance, uri: str):
    builder = instance.builder("q_seam")
    builder.graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
    builder.fulltext("posts", source=uri, query="user.screen_name:{id}",
                     fields={"t": "text", "id": "user.screen_name"})
    return builder.build()


def test_unexpected_wrapper_error_carries_source_and_atom():
    glue = Graph("seam-glue")
    for handle in HANDLES[:3]:
        glue.add(triple("ttn:P0", "ttn:twitterAccount", handle))
    instance = MixedInstance(graph=glue, name="seam", entailment=False)
    instance.register(ExplodingSource("solr://boom"))
    cmq = _one_atom_query(instance, "solr://boom")
    with pytest.raises(SourceDispatchError) as err:
        instance.execute(cmq)
    assert err.value.source_uri == "solr://boom"
    assert err.value.atom == "posts"
    assert isinstance(err.value.__cause__, ValueError)


def test_executor_deadline_times_out_mid_stage_on_hung_source():
    glue = Graph("hung-glue")
    for handle in HANDLES[:3]:
        glue.add(triple("ttn:P0", "ttn:twitterAccount", handle))
    instance = MixedInstance(graph=glue, name="hung", entailment=False)
    hung = instance.register(HungSource("solr://hung", delay=3.0))
    cmq = _one_atom_query(instance, "solr://hung")
    started = time.monotonic()
    executor = MixedQueryExecutor({hung.uri: hung}, instance.glue_source)
    with pytest.raises(QueryTimeoutError):
        executor.execute(cmq, deadline=lambda: 0.4 - (time.monotonic() - started))
    assert time.monotonic() - started < 2.5  # not the 3s the source hangs


def test_service_deadline_bounds_hung_dispatch():
    glue = Graph("svc-hung-glue")
    for handle in HANDLES[:3]:
        glue.add(triple("ttn:P0", "ttn:twitterAccount", handle))
    instance = MixedInstance(graph=glue, name="svc-hung", entailment=False)
    instance.register(HungSource("solr://hung", delay=3.0))
    cmq = _one_atom_query(instance, "solr://hung")
    with MediatorService(instance, ServiceConfig(workers=1)) as service:
        started = time.monotonic()
        ticket = service.submit(cmq, deadline=0.4)
        with pytest.raises(QueryTimeoutError):
            ticket.result(timeout=10.0)
        assert ticket.status == "timed_out"
        assert time.monotonic() - started < 2.5


def test_service_stats_expose_breaker_state_per_remote_source():
    base = build_instance("svc-stats")
    remote, _ = remote_wrap(base)
    with MediatorService(remote, ServiceConfig(workers=1)) as service:
        result = service.execute(queries(remote)[0], timeout=30.0)
        assert result_set(result) == result_set(base.execute(queries(base)[0]))
        stats = service.stats()
    assert set(stats["remote"]) == set(base.source_uris())
    for uri, snapshot in stats["remote"].items():
        assert snapshot["breaker"] == CircuitBreaker.CLOSED
        assert snapshot["uri"] == uri
    assert stats["remote"]["sql://profiles"]["calls"] > 0


def test_cost_model_prefers_bigger_batches_for_remote_sources():
    model = CostModel()
    assert model.batch_size(64.0, ("remote",)) > model.batch_size(64.0, ("fulltext",))
    # Local kinds keep the historical curve exactly.
    assert model.batch_size(64.0, ("rdf",)) == model.batch_size(64.0)
    assert model.batch_size(float("inf"), ("remote",)) == MIN_BIND_BATCH


# ---------------------------------------------------------------------------
# Round-trip budget: pinned per CMQ, on first use
# ---------------------------------------------------------------------------

CONTROL_OPS = ("pin", "version", "estimate")
DATA_OPS = ("execute_batch",)


def frames(instance: MixedInstance) -> dict:
    """uri -> frames by op, as the wrappers counted them."""
    return {uri: dict(instance.source(uri).stats()["calls_by_op"])
            for uri in instance.source_uris()}


def frames_since(instance: MixedInstance, before: dict) -> dict:
    return {uri: {op: count - before[uri][op] for op, count in ops.items()}
            for uri, ops in frames(instance).items()}


def check_budget(sent: dict, result, cmq, estimates) -> None:
    """One cold CMQ: a pin per reached source, its data frames, nothing else."""
    reached = {atom.source for atom in cmq.atoms if not atom.is_glue()}
    for uri, ops in sent.items():
        if uri not in reached:
            assert not any(ops.values()), (uri, ops)
            continue
        calls = [c for c in result.trace.calls if c.source_uri == uri]
        assert ops["version"] == 0
        assert ops["pin"] == 1
        assert sum(ops[op] for op in DATA_OPS) == len(calls) > 0
        assert ops["estimate"] in estimates, (uri, ops)


@pytest.mark.parametrize("served", [False, True], ids=["direct", "service"])
def test_a_cold_cmq_pins_what_it_reaches_once_and_asks_nothing_else(served):
    base = build_instance("budget")
    for index, expected in enumerate(queries(base)):
        remote, _ = remote_wrap(base)
        cmq = queries(remote)[index]
        service = (MediatorService(remote, ServiceConfig(workers=1))
                   if served else None)
        run = (lambda: service.execute(cmq, timeout=30.0)) if served \
            else (lambda: remote.execute(cmq))
        try:
            # First sight of the shape: at most one estimate per (atom,
            # bound) the planner prices — bound by the join key, and free.
            before = frames(remote)
            first = run()
            check_budget(frames_since(remote, before), first, cmq, {1, 2})
            # The same CMQ, cold again, on an unchanged source: none.
            remote.clear_caches()
            before = frames(remote)
            second = run()
            check_budget(frames_since(remote, before), second, cmq, {0})
        finally:
            if service is not None:
                service.shutdown(wait=True)
        assert result_set(first) == result_set(second) \
            == result_set(base.execute(expected))
        assert not first.trace.degraded and not second.trace.degraded


def test_pin_is_lazy_shared_and_counted_once_per_clone():
    base = build_instance("lazy")
    remote, _ = remote_wrap(base)
    live = remote.source("sql://profiles")
    clone = live.pin()
    assert clone is not live and clone.pin() is clone
    assert type(clone) is type(live) and clone.cache_token == live.cache_token
    assert live.stats()["calls"] == 0  # pin() is not a round trip
    # Sixteen readers of one clone (an admission group shares it), made
    # to interleave: one frame, and everybody reads the version it pinned.
    barrier = threading.Barrier(16)
    seen = []

    def read() -> None:
        barrier.wait(timeout=10)
        seen.append(clone.version())

    readers = [threading.Thread(target=read) for _ in range(16)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for reader in readers:
            reader.start()
        for reader in readers:
            reader.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert seen == [base.source("sql://profiles").version()] * 16
    assert clone.pinned_at == seen[0]
    assert live.stats()["calls_by_op"]["pin"] == 1
    assert live.stats()["calls"] == 1
    # The live wrapper still asks every time.
    assert live.version() == clone.pinned_at and live.pinned_at is None
    assert live.stats()["calls_by_op"]["version"] == 1


def test_a_dark_source_pins_nothing_and_degrades():
    base = build_instance("dark")
    remote, transports = remote_wrap(
        base, fault=lambda uri, transport: FaultyTransport(transport))
    cmq = queries(remote)[0]
    expected = result_set(remote.execute(cmq))
    transports["sql://profiles"].outages = ((0, 10 ** 9),)
    pinned = remote.pin()
    result = pinned.execute(remote, cmq)
    assert result.trace.degraded and result_set(result) == expected
    # The query reached the source and learned no version; the others it
    # never reached, so their entry is empty too — and stays off the wire.
    assert pinned.versions["sql://profiles"] is None
    assert pinned.versions["json://tweets"] is None
    assert pinned.versions[GLUE_SOURCE] == remote.glue_source.version()
    assert remote.source("json://tweets").stats()["calls"] == 0


# ---------------------------------------------------------------------------
# Snapshot isolation: one version per source for the whole CMQ
# ---------------------------------------------------------------------------

class HookTransport(Transport):
    """Loopback calling ``hook(payload)`` before it forwards a frame."""

    def __init__(self, inner: Transport, hook):
        self.inner = inner
        self.hook = hook

    def request(self, payload, timeout=None):
        self.hook(payload)
        return self.inner.request(payload, timeout=timeout)


def two_remote_atoms(instance: MixedInstance):
    """glue, then two remote bind joins: two sub-query calls at least."""
    builder = instance.builder("q_two")
    builder.graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
    builder.sql("prof", source="sql://profiles",
                sql="SELECT handle AS id, followers AS f FROM profiles "
                    "WHERE handle = {id}")
    builder.json("tweets", source="json://tweets",
                 pattern='{ author: ?id, topic: "politics", likes: ?l }')
    return builder.build()


def write(base: MixedInstance, kind: int, serial: int) -> None:
    """One answer-changing write to one of the four served stores."""
    handle = HANDLES[serial % len(HANDLES)]
    if kind == 0:
        base.source("json://tweets").store.add(
            {"id": 1000 + serial, "author": handle, "topic": "politics",
             "likes": serial % 40})
    elif kind == 1:
        base.source("sql://profiles").database.execute(
            f"INSERT INTO profiles (handle, followers) "
            f"VALUES ('{handle}', {5000 + serial})")
    elif kind == 2:
        base.source("solr://posts").store.add(
            {"id": 1000 + serial, "text": f"late post by {handle}",
             "user": {"screen_name": handle}})
    else:
        base.source("rdf://people").graph.add(
            triple(f"ttn:P{serial % len(HANDLES)}", "ttn:hometown",
                   f"Town{serial}"))


@settings(max_examples=25, deadline=None)
@given(steps=st.lists(
    st.tuples(st.integers(0, 4),                          # which CMQ
              st.lists(st.integers(0, 3), max_size=2),    # writes before it
              st.lists(st.integers(0, 3), max_size=3)),   # writes inside it
    min_size=1, max_size=5))
def test_answers_are_the_oracle_at_the_pinned_versions_never_a_mix(steps):
    base = build_instance("iso")
    state = {"data_frames": 0, "inside": [], "serial": 0}

    def next_write(kind: int) -> None:
        state["serial"] += 1
        write(base, kind, state["serial"])

    def hook(payload: dict) -> None:
        if payload["op"] not in DATA_OPS:
            return
        state["data_frames"] += 1
        if state["data_frames"] == 2:
            # Between the first and the second sub-query call of the CMQ.
            for kind in state["inside"]:
                next_write(kind)

    remote, _ = remote_wrap(
        base, fault=lambda uri, transport: HookTransport(transport, hook))
    for which, before, inside in steps:
        for kind in before:
            next_write(kind)
        local = queries(base) + [two_remote_atoms(base)]
        cmq = (queries(remote) + [two_remote_atoms(remote)])[which]
        # The oracle: the local stores as they are when the CMQ starts.
        versions = {uri: base.source(uri).version()
                    for uri in base.source_uris()}
        expected = result_set(base.execute(local[which]))
        state.update(data_frames=0, inside=inside)
        pinned = remote.pin()
        result = pinned.execute(remote, cmq)
        assert not result.trace.degraded
        assert result_set(result) == expected
        for uri, version in pinned.versions.items():
            if uri != GLUE_SOURCE and version is not None:
                assert version == versions[uri]
        reached = {atom.source for atom in cmq.atoms if not atom.is_glue()}
        assert {uri for uri, version in pinned.versions.items()
                if uri != GLUE_SOURCE and version is not None} == reached


def test_an_evicted_server_snapshot_is_a_typed_retried_error():
    base = build_instance("evict")
    source = base.source("json://tweets")
    remote = RemoteSource(LocalTransport(RemoteSourceHandler(source).handle),
                          uri=source.uri, model=source.model, options=FAST)
    query = atom_queries(base)["json://tweets"]
    mine = remote.pin()
    before = mine.execute(query, {"id": HANDLES[0]})
    # Nine later versions, each pinned by somebody: the server keeps eight.
    for serial in range(9):
        write(base, 0, serial)
        assert remote.pin().version() == source.version()
    with pytest.raises(RemoteError, match="instead of pinned"):
        mine.execute(query, {"id": HANDLES[0]})
    assert remote.stats()["retries"] == FAST.retries
    # A new CMQ pins afresh and reads the current state.
    assert remote.pin().execute(query, {"id": HANDLES[0]}) != before


# ---------------------------------------------------------------------------
# The estimate memo: once per (source version, sub-query, bound, constants)
# ---------------------------------------------------------------------------

def test_memoised_estimates_are_the_unmemoised_numbers():
    from repro.json.source import JSONQuery, JSONSource
    from repro.datasets import DemoConfig, build_demo_instance
    from repro.datasets.loader import TWEETS_JSON_URI
    from test_statistics_estimation import (
        _DEMO_GOLDEN, _FIXTURE_GOLDEN, _WRITTEN_GOLDEN, TestJSONEstimates)

    def check(memo: StatisticsCatalog, source, golden: list) -> None:
        for text, bound, values, _, catalog in golden:
            query = JSONQuery.from_text(text)
            fresh = StatisticsCatalog().estimate(source, query, set(bound), values)
            assert fresh == pytest.approx(catalog)
            hits = memo.estimates.stats.hits
            assert memo.estimate(source, query, set(bound), values) == fresh
            assert memo.estimates.stats.hits == hits  # computed ...
            assert memo.estimate(source, query, set(bound), values) == fresh
            assert memo.estimates.stats.hits == hits + 1  # ... once

    assert len(_DEMO_GOLDEN + _FIXTURE_GOLDEN + _WRITTEN_GOLDEN) == 32
    demo = build_demo_instance(DemoConfig(politicians=12, weeks=2, seed=42))
    check(StatisticsCatalog(), demo.instance.source(TWEETS_JSON_URI), _DEMO_GOLDEN)
    memo = StatisticsCatalog()
    source = TestJSONEstimates.source.__wrapped__(None)
    assert isinstance(source, JSONSource)
    check(memo, source, _FIXTURE_GOLDEN)
    # A version bump misses: the same catalog answers the written numbers.
    source.store.add_all(
        {"id": i, "author": f"a{i % 5}", "likes": 55, "topic": "politics",
         "geo": {"lat": 1.0}} for i in range(120, 150))
    source.store.add_all({"id": i, "author": "a3", "likes": 1, "topic": "other"}
                         for i in range(0, 30, 3))
    check(memo, source, _WRITTEN_GOLDEN)
    # The pinned wrapper shares token and version, hence the memo.
    text, bound, values, _, catalog = _WRITTEN_GOLDEN[0]
    hits = memo.estimates.stats.hits
    assert memo.estimate(source.pin(), JSONQuery.from_text(text), set(bound),
                         values) == pytest.approx(catalog)
    assert memo.estimates.stats.hits == hits + 1
    # Feedback still wins over a remembered estimate.
    query = JSONQuery.from_text(text)
    assert memo.record(source, query, set(bound), 777.0)
    assert memo.estimate(source, query, set(bound), values) == 777.0


def test_the_memo_forgets_nothing_it_should_not_and_stays_bounded():
    from repro.json.source import JSONQuery

    base = build_instance("memo")
    remote, transports = remote_wrap(
        base, fault=lambda uri, transport: FaultyTransport(transport))
    memo = StatisticsCatalog()
    query = atom_queries(base)["json://tweets"]
    expected = base.source("json://tweets").estimate(query, {"id"})
    # A source that goes dark after the pin answers ``inf`` — for now.
    clone = remote.source("json://tweets").pin()
    assert clone.version() is not None
    transports["json://tweets"].outages = ((0, 10 ** 9),)
    assert memo.estimate(clone, query, {"id"}) == float("inf")
    transports["json://tweets"].outages = ()
    time.sleep(FAST.breaker_reset * 2)
    assert memo.estimate(clone, query, {"id"}) == expected
    sent = clone.stats()["calls_by_op"]["estimate"]
    assert memo.estimate(clone, query, {"id"}) == expected
    assert clone.stats()["calls_by_op"]["estimate"] == sent
    # A source without a version is asked every time.
    transports["sql://profiles"].outages = ((0, 10 ** 9),)
    dark = remote.source("sql://profiles").pin()
    sql = atom_queries(base)["sql://profiles"]
    assert memo.estimate(dark, sql, {"id"}) == float("inf")
    assert dark.version() is None and len(memo.estimates) == 1
    # Ten thousand distinct shapes: the memo is an LRU, not a leak.
    local = base.source("json://tweets")
    for threshold in range(10_000):
        memo.estimate(local, JSONQuery.from_text(f"{{ likes: ?l >= {threshold} }}"))
    assert len(memo.estimates) == ESTIMATE_MEMO_ENTRIES
    assert memo.estimates.stats.evictions > 0


# ---------------------------------------------------------------------------
# The plan key: the glue graph plus the sources the atoms can reach
# ---------------------------------------------------------------------------

def test_plan_survives_writes_to_sources_it_cannot_reach():
    """A write keeps every plan; what makes a key miss is a registration
    change among the sources its atoms reach (not elsewhere) or a
    statistics revision."""
    base = build_instance("plankey")
    more = FullTextStore("plankey-more", fields=[
        FieldConfig("text", "text"),
        FieldConfig("user.screen_name", "keyword"),
    ], default_field="text")
    more.add({"id": 0, "text": "elsewhere", "user": {"screen_name": "u0"}})
    base.register_fulltext("solr://more", more)
    named = queries(base)[0]  # glue |> sql://profiles
    builder = base.builder("q_free")
    builder.graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
    builder.fulltext("posts", source_variable="d",
                     query="user.screen_name:{id}", fields={"t": "text"})
    free = builder.build()
    for cmq in (named, free):
        assert not base.plan(cmq).cached
        assert base.plan(cmq).cached
    # Writes to sources reached or not, and to the glue graph.
    write(base, 0, 1)
    write(base, 1, 2)
    more.add({"id": 1, "text": "more", "user": {"screen_name": "u1"}})
    write(base, 2, 3)
    base.add_glue_triples([triple("ttn:P0", "ttn:twitterAccount", "u99")])
    assert base.plan(named).cached and base.plan(free).cached
    # ``named`` reaches the relational source, ``free`` does not.
    profiles = base.source("sql://profiles")
    base.register_relational("sql://profiles", profiles.database)
    assert not base.plan(named).cached and base.plan(named).cached
    assert base.plan(free).cached
    # Every full-text source is a candidate of the free source variable.
    base.register_fulltext("solr://more", more)
    assert not base.plan(free).cached and base.plan(free).cached
    assert base.plan(named).cached
    # The statistics revision is in every key.
    query = named.atoms[-1].query
    assert base.statistics().record(base.source("sql://profiles"), query, {"id"}, 7.0)
    assert not base.plan(named).cached and not base.plan(free).cached


def test_planning_contacts_only_the_sources_the_atoms_reach():
    base = build_instance("planwire")
    remote, _ = remote_wrap(base)
    cmq = queries(remote)[2]  # glue |> json://tweets
    pinned = remote.pin()
    plan = pinned.executor(remote).planner.plan(cmq)
    assert not plan.cached
    sent = frames(remote)
    assert sent.pop("json://tweets") == {
        "pin": 1, "version": 0, "estimate": 2, "execute_batch": 0}
    assert all(not any(ops.values()) for ops in sent.values())


# ---------------------------------------------------------------------------
# Protocol revision and round-trip accounting
# ---------------------------------------------------------------------------

def test_a_peer_of_another_revision_gets_a_typed_error_naming_both():
    base = build_instance("revision")
    source = base.source("sql://profiles")
    handler = RemoteSourceHandler(source)
    # An old client: no revision in its frames.
    refused = handler.handle({"op": "version"})
    assert not refused["ok"] and refused["error"]["type"] == "RemoteProtocolError"
    assert "None" in refused["error"]["message"]
    assert repr(protocol.PROTOCOL_VERSION) in refused["error"]["message"]
    assert handler.handle({"op": "size", "protocol": protocol.PROTOCOL_VERSION}
                          )["error"]["message"] == "unknown operation 'size'"
    hello = handler.handle({"op": "hello", "protocol": protocol.PROTOCOL_VERSION})
    assert hello["protocol"] == protocol.PROTOCOL_VERSION
    # A client from the future: refused once, not retried, breaker untouched.
    future = HookTransport(
        LocalTransport(handler.handle),
        lambda payload: payload.update(protocol=protocol.PROTOCOL_VERSION + 1))
    remote = RemoteSource(future, uri=source.uri, model=source.model,
                          options=FAST)
    query = atom_queries(base)["sql://profiles"]
    with pytest.raises(RemoteProtocolError) as err:
        remote.execute(query, {"id": HANDLES[0]})
    assert f"client speaks {protocol.PROTOCOL_VERSION + 1}" in str(err.value)
    assert f"server speaks {protocol.PROTOCOL_VERSION}" in str(err.value)
    stats = remote.stats()
    assert stats["calls"] == 1 and stats["retries"] == 0
    assert stats["breaker"] == CircuitBreaker.CLOSED
    assert remote.breaker.transitions == []
    with pytest.raises(RemoteProtocolError, match="revision mismatch"):
        RemoteSource(future)  # the hello is refused


def test_a_revision_3_peer_gets_a_typed_error_in_both_directions():
    """Revision 3 sent every answer column as JSON; neither side may
    misread the other, and each error names both revisions."""
    assert protocol.PROTOCOL_VERSION == 4
    base = build_instance("revision3")
    source = base.source("sql://profiles")
    query = atom_queries(base)["sql://profiles"]
    # A revision-3 client asking this server.
    old_client = HookTransport(LocalTransport(RemoteSourceHandler(source).handle),
                               lambda payload: payload.update(protocol=3))
    remote = RemoteSource(old_client, uri=source.uri, model=source.model, options=FAST)
    with pytest.raises(RemoteProtocolError,
                       match="the client speaks 3, the server speaks 4"):
        remote.execute(query, {"id": HANDLES[0]})

    # A revision-3 server asked by this client: its hello advertises 3, and
    # it refuses every revision-4 frame the way revision 3 refused others.
    class Revision3Server(Transport):
        def request(self, payload, timeout=None):
            if payload.get("protocol") != 3:
                return {"ok": False, "error": {
                    "type": "RemoteProtocolError",
                    "message": protocol.revision_mismatch(payload.get("protocol"), 3)}}
            return {"ok": True, "protocol": 3, "uri": source.uri, "model": source.model}

    with pytest.raises(RemoteProtocolError,
                       match="the client speaks 4, the server speaks 3"):
        RemoteSource(Revision3Server())
    remote = RemoteSource(Revision3Server(), uri=source.uri, model=source.model,
                          options=FAST)
    with pytest.raises(RemoteProtocolError,
                       match="the client speaks 4, the server speaks 3"):
        remote.execute(query, {"id": HANDLES[0]})
    # A revision-4 frame with packed columns, had it reached a revision-3
    # reader, is refused there (its JSON body has bytes after it), not read
    # as no rows; and an answer layout without ``answers`` is refused here.
    wide = BindingBatch(("t",), [("x" * LONG,)] * protocol.PACKED_MIN_ROWS)
    frame = protocol.dump_message(protocol.encode_answers([[wide]], {"ok": True}))
    with pytest.raises(json.JSONDecodeError, match="Extra data"):
        json.loads(frame[4:].decode("utf-8"))

    class Revision2Answer(Transport):
        def request(self, payload, timeout=None):
            return {"ok": True, "groups": [[{"id": HANDLES[0], "f": 100}]]}

    remote = RemoteSource(Revision2Answer(), uri=source.uri, model=source.model,
                          options=FAST)
    with pytest.raises(RemoteProtocolError, match="did not answer each"):
        remote.execute(query, {"id": HANDLES[0]})


def test_round_trips_split_into_control_data_wire_and_server():
    from repro.obs import get_registry

    base = build_instance("roundtrips")
    remote, _ = remote_wrap(base)
    cmq = queries(remote)[0]
    with MediatorService(remote, ServiceConfig(workers=1)) as service:
        ticket = service.submit(cmq)
        report = ticket.explain_analyze(timeout=30.0)
        stats = service.stats()["remote"]["sql://profiles"]
    by_op = stats["calls_by_op"]
    assert set(by_op) == set(CONTROL_OPS + DATA_OPS)
    assert sum(by_op.values()) == stats["calls"] == 4
    assert by_op["pin"] == 1 and by_op["execute_batch"] == 1
    assert 0 < stats["server_s"] < stats["busy_s"]
    assert stats["wire_s"] == pytest.approx(stats["busy_s"] - stats["server_s"])
    assert get_registry().counter(
        "remote_calls_total", source="sql://profiles", op="pin").value >= 1
    # The same split on the query's own report, from its ``remote.call`` spans.
    assert report.remote_calls == 4
    assert 0 < report.remote_server_seconds < report.remote_seconds
    assert "remote: 4 round trip(s)" in report.render()
    assert all("server_us" in span.attributes
               for span in ticket.span_tree.find("remote.call"))


# ---------------------------------------------------------------------------
# Deterministic chaos
# ---------------------------------------------------------------------------

def test_chaos_faults_never_produce_wrong_rows():
    base = build_instance("chaos")
    workload = queries(base)
    baselines = {cmq.name: result_set(base.execute(cmq)) for cmq in workload}
    options = RemoteOptions(timeout=2.0, retries=3, backoff_base=0.001,
                            backoff_max=0.004, hedge_delay=0,
                            breaker_failures=4, breaker_reset=0.02)
    remote, transports = remote_wrap(
        base, options=options,
        fault=lambda uri, transport: FaultyTransport(
            transport, seed=zlib.crc32(uri.encode()), fault_rate=0.10,
            latency_range=(0.0, 0.001)))
    # One scripted full outage on the relational source mid-workload.  A
    # CMQ sends the source a frame only when it reaches it, and then two
    # (its pin and its batch; two estimates more the first time): round 1
    # is frames 0-3, the outage swallows the next six.
    transports["sql://profiles"].outages = ((4, 10),)
    outcomes = {"ok": 0, "degraded": 0, "typed_error": 0}
    for _ in range(6):
        for cmq in workload:
            try:
                result = remote.execute(cmq)
            except RemoteError:
                outcomes["typed_error"] += 1
                continue
            rows = result_set(result)
            expected = baselines[cmq.name]
            if result.trace.degraded:
                outcomes["degraded"] += 1
                # Stale/partial answers may miss rows, never invent them.
                assert set(rows) <= set(expected)
            else:
                outcomes["ok"] += 1
                assert rows == expected
    assert outcomes["ok"] > 0
    assert transports["sql://profiles"].injected["outage"] > 0
    injected = {uri: dict(transport.injected)
                for uri, transport in transports.items()}
    assert sum(sum(counts.values()) for counts in injected.values()) > 0, injected
    assert sum(remote.source(uri).stats()["retries"]
               for uri in remote.source_uris()) > 0


def test_batching_cuts_remote_calls_and_keeps_the_rows():
    """A remote bind join over 100 bindings: the batched plan sends at
    least five times fewer frames than one call per binding."""
    glue = Graph("accounts-glue")
    database = Database("accounts-db")
    for i in range(100):
        glue.add(triple(f"ttn:P{i}", "ttn:twitterAccount", f"user{i:05d}"))
    database.create_table_from_rows(
        "accounts", [{"handle": f"user{i:05d}", "followers": (i * 37) % 10_000}
                     for i in range(100)])
    local = MixedInstance(graph=glue, name="accounts", entailment=False, cache=False)
    source = local.register_relational("sql://accounts", database)
    remote = MixedInstance(graph=glue, name="accounts-remote", entailment=False,
                           cache=False)
    wrapper = remote.register_remote(LocalTransport(RemoteSourceHandler(source).handle),
                                     uri=source.uri, model=source.model,
                                     name=source.name, size=source.size(), options=FAST)

    def cmq(instance):
        return (instance.builder("qRemote", head=["id", "f"])
                .graph("SELECT ?id WHERE { ?x ttn:twitterAccount ?id }")
                .sql("followers", source="sql://accounts",
                     sql="SELECT handle AS id, followers AS f FROM accounts "
                         "WHERE handle = {id}")
                .build())

    expected = result_set(local.execute(cmq(local)))
    frames = []
    for options in (PlannerOptions(bind_batch_size=1), PlannerOptions()):
        before = wrapper.stats()["calls"]
        assert result_set(remote.execute(cmq(remote), options=options)) == expected
        frames.append(wrapper.stats()["calls"] - before)
    per_binding, batched = frames
    assert per_binding >= 100
    assert 5 * batched <= per_binding
