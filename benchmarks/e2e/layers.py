"""The per-layer numbers: a traced pass plus a micro pass per layer.

``traced_run`` runs the workload's fixed-count pass twice on two fresh
set-ups — untraced, then with the span wrappers of :mod:`spans`
installed — so that the traced pass can be checked against the untraced
one (same answers, same source calls) and the tracing overhead is a
measured number.  Every layer metric that a span tree cannot give (a
cached plan, a cache hit, a join over captured rows, one wire round
trip, a write batch) is timed directly around the layer's public
functions in ``micro_pass``, on the rows and atoms of the workload's own
CMQs.  All of it runs with ONE client.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import statistics
import threading
import time
from pathlib import Path
from typing import Callable, Iterator

import spans
import workloads as W
from repro.cache.results import CachedSource, SubQueryResultCache
from repro.core.cmq import GLUE_SOURCE
from repro.core.instance import MixedInstance
from repro.core.planner import PlannerOptions, QueryPlanner
from repro.datasets.loader import INSEE_URI, TWEETS_JSON_URI, TWEETS_URI
from repro.datasets.tweets import Tweet
from repro.engine.iterators import BatchBindJoin, Distinct, HashJoin, MaterializedScan
from repro.fulltext.store import tweet_store
from repro.json.accel import StoreEncoding
from repro.json.matcher import TreePatternMatcher
from repro.json.store import JSONDocumentStore
from repro.rdf import triple
from repro.rdf.bgp import evaluate_bgp
from repro.relational import Database
from repro.remote import RemoteSource, SourceServer, TCPTransport, protocol
from repro.service.mediator import MediatorService, ServiceConfig
from repro.stats.catalog import StatisticsCatalog

MODELS = ("fulltext", "json", "relational", "rdf")


#: Most of an operation's wall time that no layer span may cover.
UNATTRIBUTED_LIMIT_PCT = 5.0

#: Seconds each micro measurement may repeat its call for; ``--smoke``
#: divides it by ten.
BUDGET = 0.2


def timed(call: Callable[[], object], budget: float, least: int = 5,
          most: int = 2000) -> float:
    """Median seconds of ``call`` over as many runs as fit ``budget``."""
    samples = []
    deadline = time.perf_counter() + budget
    while len(samples) < least or (len(samples) < most
                                   and time.perf_counter() < deadline):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _gc_collections() -> int:
    return sum(generation["collections"] for generation in gc.get_stats())


# ---------------------------------------------------------------------------
# Traced pass
# ---------------------------------------------------------------------------

def _fixed_pass(inputs: W.Inputs, ops: int, recorder=None):
    """One fresh set-up and one single-client fixed-count pass on it."""
    context = W.Context(inputs)
    try:
        cache_before = context.instance.cache_statistics()
        collections = _gc_collections()
        if recorder is None:
            measured = W.run_pass(context, ops=ops)
        else:
            with spans.installed(recorder):
                measured = W.run_pass(context, ops=ops, recorder=recorder)
        collections = _gc_collections() - collections
        cache_after = context.instance.cache_statistics()
    except BaseException:
        context.close()
        raise
    return context, measured, (cache_before, cache_after), collections


def _hit_rate(before: dict, after: dict, cache: str) -> float:
    """Hits over probes of one cache between two ``cache_statistics()``."""
    hits = after[cache]["hits"] - before[cache]["hits"]
    probes = hits + after[cache]["misses"] - before[cache]["misses"]
    return hits / probes if probes else 0.0


def traced_run(inputs: W.Inputs, ops: int, out: str | None, smoke: bool) -> dict:
    plain_context, plain, _, _ = _fixed_pass(inputs, ops)
    plain_context.close()
    recorder = spans.Recorder()
    context, traced, (before, after), collections = _fixed_pass(inputs, ops, recorder)
    try:
        failed = W.check(inputs, [traced], W.Oracle(inputs))
        # The wrappers must not change what the program does.
        same_answers = ([item[1:] for item in plain.answers]
                        == [item[1:] for item in traced.answers])
        same_calls = plain.source_calls == traced.source_calls
        tree = spans.analyse(recorder)
        values = _trace_metrics(context, tree, plain, traced, before, after)
        # Hard limits of the traced pass; each counts as a failed operation.
        # A smoke pass is a tenth of a second of operations, of which one
        # preemption is 5 %: there the share is only reported.
        problems = [text for text, broken in (
            ("answers differ from the untraced pass", not same_answers),
            ("source calls differ from the untraced pass", not same_calls),
            (f"more than {UNATTRIBUTED_LIMIT_PCT} % of the time unattributed",
             not smoke and values["trace.unattributed_pct"] > UNATTRIBUTED_LIMIT_PCT),
        ) if broken]
        failed += len(problems)
        values["gc.collections"] = collections
        values["remote.wire_share"] = _wire_share(inputs, ops, plain)
        values.update(micro_pass(context, traced, BUDGET / 10 if smoke else BUDGET))
    finally:
        context.close()
    if out:
        Path(out).write_text(json.dumps(recorder.dump()) + "\n")
    return {
        "attempted": traced.operations, "failed": failed, "values": values,
        "problems": problems,
        "counts": {"cmq_samples": len(traced.latencies()), "clients": 1,
                   "write_batches": traced.write_batches,
                   "source_calls": traced.source_calls,
                   "rows_fetched": traced.rows_fetched,
                   "spans": len(recorder.spans),
                   "same_answers_as_untraced": same_answers,
                   "same_source_calls_as_untraced": same_calls},
    }


def _trace_metrics(context: W.Context, tree: dict, plain: W.Pass,
                   traced: W.Pass, before: dict, after: dict) -> dict:
    busy, calls = tree["busy_seconds"], tree["calls"]
    values: dict[str, float] = {}
    executor_self = [names.get("execute", 0.0) * 1000.0
                     for names in tree["per_op"].values()]
    values["core.executor.self_ms"] = W.median(executor_self)
    values["core.executor.source_calls"] = traced.source_calls
    values["core.executor.rows_fetched"] = traced.rows_fetched
    answers = sum(count for _, count, _, _ in traced.answers)
    values["core.executor.rows_fetched_per_answer"] = (
        traced.rows_fetched / answers if answers else 0.0)
    for cls in W.CLASSES:
        values[f"core.executor.class_p50_ms.{cls}"] = W.median(traced.latencies(cls))
    rows_by_model: dict[str, int] = {}
    for uri, rows in traced.rows_by_source.items():
        model = context.instance.source(uri).model
        rows_by_model[model] = rows_by_model.get(model, 0) + rows
    for model in MODELS:
        name = f"source.{model}"
        values[f"core.sources.{model}.busy_ms"] = busy.get(name, 0.0) * 1000.0
        values[f"core.sources.{model}.calls"] = calls.get(name, 0)
        values[f"core.sources.{model}.rows"] = rows_by_model.get(model, 0)
    values["cache.results.hit_rate"] = _hit_rate(before, after, "results")
    values["cache.results.evictions"] = (after["results"]["evictions"]
                                         - before["results"]["evictions"])
    values["cache.plans.hit_rate"] = _hit_rate(before, after, "plans")
    repair_before, repair_after = before["repair"], after["repair"]
    repairs = repair_after["repaired"] - repair_before["repaired"]
    attempts = repair_after["attempts"] - repair_before["attempts"]
    values["cache.repair.repairs"] = repairs
    values["cache.repair.fallbacks"] = (sum(repair_after["fallbacks"].values())
                                        - sum(repair_before["fallbacks"].values()))
    values["cache.repair.success_ratio"] = repairs / attempts if attempts else 0.0
    remote = [source.stats() for source in context.remote_sources()]
    values["remote.calls"] = sum(item["calls"] for item in remote)
    values["remote.retries"] = sum(item["retries"] for item in remote)
    values["remote.busy_ms"] = busy.get("source.remote", 0.0) * 1000.0
    values["cache.repair.busy_ms"] = busy.get("repair", 0.0) * 1000.0
    values["service.pin_ms"] = busy.get("pin", 0.0) * 1000.0
    if context.service is not None:
        wait = context.service.stats()["queue_wait_seconds"]
        values["service.queue_wait_p50_us"] = wait["p50"] * 1e6
    else:
        values["service.queue_wait_p50_us"] = 0.0
    values["ingest.post_write_cmq_p50_ms"] = W.median(traced.post_write_ms())
    values["ingest.docs_per_s"] = (traced.docs_written / traced.docs_seconds
                                   if traced.docs_seconds else 0.0)
    values["trace.unattributed_pct"] = tree["unattributed_pct"]
    # At the reference speed: the host may slow between the two passes.
    plain_p50, traced_p50 = (W.median([sample.ms for sample in measured.cmqs()])
                             for measured in (plain, traced))
    values["bench.trace_overhead_pct"] = 100.0 * (traced_p50 - plain_p50) / plain_p50
    # The untraced slice as the clock saw it: every sample, the collector's
    # pauses and the host's slow stretches included (the end-to-end
    # metrics are taken at the reference speed, see ``W.steady``).
    values["plain.cmq_p50_ms"] = W.median(plain.latencies())
    values["plain.cmq_p95_ms"] = W.percentile(plain.latencies(), 0.95)
    values["plain.cmq_per_s"] = plain.per_second()
    return values


def _wire_share(inputs: W.Inputs, ops: int, federated: W.Pass) -> float:
    """Share of the federated median latency that the wire adds: the
    same seeded stream run on the same data with every source local."""
    if inputs.workload != "federated_loopback":
        return 0.0
    local, measured, _, _ = _fixed_pass(
        W.Inputs.make("adhoc_cold", inputs.seed, inputs.scale), ops)
    local.close()
    return 1.0 - W.median(measured.latencies()) / W.median(federated.latencies())


# ---------------------------------------------------------------------------
# Micro pass
# ---------------------------------------------------------------------------

def micro_pass(context: W.Context, traced: W.Pass, budget: float) -> dict:
    """Each layer's public functions, timed directly (see module doc)."""
    distinct: dict[W.Op, None] = {}
    for op, *_ in traced.answers:
        distinct.setdefault(op)
    ops = list(distinct) or list(context.inputs.panel)
    values: dict[str, float] = {}
    values.update(_micro_front_end(context, ops, budget))
    atoms = _party_atoms(context, ops)
    values.update(_micro_stores(context, atoms, budget))
    values.update(_micro_cache(context, atoms, budget))
    values.update(_micro_engine(atoms, budget))
    values.update(_micro_remote(context, atoms, budget))
    values.update(_micro_service(context, ops, budget))
    values.update(_micro_writes(context))
    return values


def _micro_front_end(context: W.Context, ops: list[W.Op], budget: float) -> dict:
    instance = context.instance
    texts = [W.TEXTUAL[op.cls] % op.param for op in ops if op.cls in W.TEXTUAL]
    texts = texts or [W.TEXTUAL["qsia"] % W.VOCABULARY["qsia"][0]]
    parse = timed(lambda: [instance.parse(text) for text in texts], budget) / len(texts)
    cmqs = [instance.parse(cmq) if isinstance(cmq, str) else cmq
            for cmq in (context.cmq(op) for op in ops)]
    planner = instance.planner()
    cold, cached = [], []
    for cmq in cmqs:
        planner.forget(cmq)
        start = time.perf_counter()
        planner.plan(cmq)
        cold.append(time.perf_counter() - start)
        cached.append(timed(lambda: planner.plan(cmq), budget / 10))
    # A fresh statistics catalog against a warm one, plan cache off: what
    # the catalog has to build before the first plan of each CMQ.
    sources = {uri: instance.source(uri) for uri in instance.source_uris()}
    options = PlannerOptions(plan_cache=False)

    def plan_all(catalog: StatisticsCatalog) -> float:
        fresh = QueryPlanner(sources, instance.glue_source, options,
                             statistics=catalog)
        start = time.perf_counter()
        for cmq in cmqs:
            fresh.plan(cmq)
        return time.perf_counter() - start

    catalog = StatisticsCatalog()
    first, second = plan_all(catalog), plan_all(catalog)
    statistics_ = instance.statistics()
    estimates = [(instance.source(atom.source), atom.query)
                 for cmq in cmqs for atom in cmq.atoms
                 if atom.source is not None and atom.source != GLUE_SOURCE]
    estimate = timed(lambda: [statistics_.estimate(source, query)
                              for source, query in estimates],
                     budget) / max(1, len(estimates))
    return {
        "core.cmq.parse_us": parse * 1e6,
        "core.planner.plan_cold_ms": W.median(cold) * 1000.0,
        "core.planner.plan_cached_us": W.median(cached) * 1e6,
        "stats.catalog_build_ms": max(0.0, first - second) * 1000.0,
        "stats.estimate_us": estimate * 1e6,
    }


def _party_atoms(context: W.Context, ops: list[W.Op]) -> dict:
    """The atoms of the workload's first party CMQ (the Zipf head word
    when it asked none), with the rows they return."""
    word = next((op.param for op in ops if op.cls == "party"),
                W.VOCABULARY["party"][0])
    tag = next((op.param for op in ops if op.cls == "qsia_json"),
               W.VOCABULARY["qsia_json"][0])
    demo = context.demo
    party = context.cmq(W.Op("party", word))
    glue_atom, text_atom = party.atoms
    json_atom = context.cmq(W.Op("qsia_json", tag)).atoms[1]
    # The fact-check's dataset-registry lookup: one row, no bindings.
    sql_atom = context.cmq(W.Op("factcheck", W.VOCABULARY["factcheck"][0])).atoms[2]
    glue_rows = demo.instance.glue_source.execute(glue_atom.query)
    text_rows = demo.instance.source(TWEETS_URI).execute(text_atom.query)
    return {"word": word, "glue": glue_atom, "text": text_atom, "json": json_atom,
            "sql": sql_atom,
            "glue_rows": glue_rows, "text_rows": text_rows}


def _micro_stores(context: W.Context, atoms: dict, budget: float) -> dict:
    instance = context.demo.instance
    store = instance.source(TWEETS_URI).store
    json_store = instance.source(TWEETS_JSON_URI).store
    text_query = atoms["text"].query.query_template
    search = timed(lambda: store.search(text_query, limit=None), budget)
    json_store.encoding_view()
    matcher = TreePatternMatcher(json_store)
    pattern = atoms["json"].query.pattern
    match = timed(lambda: matcher.match(pattern), budget)
    start = time.perf_counter()
    StoreEncoding().extend(json_store.items())
    accel_build = time.perf_counter() - start
    dept = W.DEPARTMENTS[0][0]
    sql = ("SELECT dept_code AS dept, year AS year, rate AS rate "
           f"FROM unemployment WHERE dept_code = '{dept}'")
    query = timed(lambda: context.demo.insee.query(sql), budget)
    graph = instance.glue_source.effective_graph()
    bgp = atoms["glue"].query.bgp
    bgp_seconds = timed(lambda: list(evaluate_bgp(bgp, graph)), budget)
    return {
        "fulltext.search_ms": search * 1000.0,
        "json.match_ms": match * 1000.0,
        "json.accel_build_s": accel_build,
        "relational.query_ms": query * 1000.0,
        "rdf.bgp_ms": bgp_seconds * 1000.0,
    }


def _micro_cache(context: W.Context, atoms: dict, budget: float) -> dict:
    source = context.demo.instance.source(INSEE_URI)
    query = atoms["sql"].query
    cache = SubQueryResultCache(64)
    cached = CachedSource(source, cache)
    cached.execute(query, {})
    hit = timed(lambda: cached.execute(query, {}), budget)

    def miss() -> None:
        cache.clear()
        cached.execute(query, {})

    missed = timed(miss, budget)
    bare = timed(lambda: source.execute(query, {}), budget)
    return {"cache.results.hit_us": hit * 1e6,
            "cache.results.miss_overhead_us": (missed - bare) * 1e6}


def _micro_engine(atoms: dict, budget: float) -> dict:
    left, right = atoms["glue_rows"], atoms["text_rows"]
    if not left or not right:
        return {"engine.hash_join_rows_per_s": 0.0,
                "engine.batch_bind_join_rows_per_s": 0.0,
                "engine.distinct_rows_per_s": 0.0}
    left_scan, right_scan = MaterializedScan(left), MaterializedScan(right)
    joined = HashJoin(left_scan, right_scan).rows()
    hash_join = timed(lambda: HashJoin(left_scan, right_scan).rows(), budget)
    by_id: dict[object, list] = {}
    for row in right:
        by_id.setdefault(row["id"], []).append(row)

    def fetch_batch(bindings: list[dict]) -> list[list[dict]]:
        return [by_id.get(binding["id"], []) for binding in bindings]

    bind_join = timed(lambda: BatchBindJoin(left_scan, fetch_batch).rows(), budget)
    joined_scan = MaterializedScan(joined)
    distinct = timed(lambda: Distinct(joined_scan).rows(), budget)
    rows_in = len(left) + len(right)
    return {
        "engine.hash_join_rows_per_s": rows_in / hash_join,
        "engine.batch_bind_join_rows_per_s": rows_in / bind_join,
        "engine.distinct_rows_per_s": len(joined) / distinct if joined else 0.0,
    }


def _micro_remote(context: W.Context, atoms: dict, budget: float) -> dict:
    source = context.demo.instance.source(INSEE_URI)
    query = atoms["sql"].query
    rows = atoms["text_rows"] or [{"t": "", "id": ""}]
    with SourceServer(source) as server:
        remote = RemoteSource(TCPTransport(*server.address),
                              options=W.REMOTE_OPTIONS)
        try:
            # The smallest query of the workload: one row, no bindings.
            remote.execute(query, {})
            rtt = timed(lambda: remote.execute(query, {}), budget)
            pin = timed(remote.pin, budget)
        finally:
            remote.close()

    def codec() -> None:
        payload = {"ok": True, "rows": [protocol.encode_row(row) for row in rows]}
        for row in protocol.roundtrip(payload)["rows"]:
            protocol.decode_row(row)

    frame = protocol.dump_message(
        {"ok": True, "rows": [protocol.encode_row(row) for row in rows]})
    return {
        "remote.rtt_us": rtt * 1e6,
        "remote.pin_ms": pin * 1000.0,
        "remote.encode_decode_us_per_row": timed(codec, budget) / len(rows) * 1e6,
        "remote.bytes_per_row": len(frame) / len(rows),
    }


def _closed_loop(service: MediatorService, cmqs: list, clients: int,
                 seconds: float) -> tuple[float, list[float]]:
    """CMQs per second and the latencies of ``clients`` closed loops."""
    latencies: list[list[float]] = [[] for _ in range(clients)]
    deadline = time.perf_counter() + seconds

    def client(index: int) -> None:
        position = index
        while time.perf_counter() < deadline:
            start = time.perf_counter()
            service.execute(cmqs[position % len(cmqs)])
            latencies[index].append(time.perf_counter() - start)
            position += clients

    threads = [threading.Thread(target=client, args=(index,))
               for index in range(1, clients)]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    client(0)
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began
    merged = [value for part in latencies for value in part]
    return len(merged) / wall, merged


@contextlib.contextmanager
def _every_cpu() -> Iterator[None]:
    """Lift ``workloads.pin_to_one_cpu`` for the block: two clients on
    one CPU would say nothing about scaling."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, range(os.cpu_count() or 1))
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def _micro_service(context: W.Context, ops: list[W.Op], budget: float) -> dict:
    """A warm panel through a service of its own: the service's self
    time, 2-client over 1-client throughput, and the program's own span
    tracing on against off (alternating slices of the same CMQs)."""
    instance = context.instance
    cmqs = [context.cmq(op) for op in ops[:19]]
    light = context.cmq(next((op for op in ops if op.cls == "qsia"),
                             W.Op("qsia", W.VOCABULARY["qsia"][0])))
    config = ServiceConfig(workers=2, tracing=False)
    with MediatorService(instance, config) as service, \
            MediatorService(instance, ServiceConfig(workers=2, tracing=True)) as traced:
        for cmq in cmqs + [light]:
            service.execute(cmq)
        direct = timed(lambda: instance.execute(light), budget)
        served = timed(lambda: service.execute(light), budget)
        with _every_cpu():
            one, _ = _closed_loop(service, cmqs, 1, 3 * budget)
            shared_before = service.stats()["mqo"]
            two, _ = _closed_loop(service, cmqs, 2, 3 * budget)
            shared = service.stats()["mqo"]
        off: list[float] = []
        on: list[float] = []
        for _ in range(3):
            off += _closed_loop(service, cmqs, 1, budget)[1]
            on += _closed_loop(traced, cmqs, 1, budget)[1]
    return {
        "service.self_us": (served - direct) * 1e6,
        "service.scaling_2c_over_1c": two / one,
        "service.mqo.shared": shared["shared_subqueries"] - shared_before["shared_subqueries"],
        "service.mqo.fused": shared["fused_probes"] - shared_before["fused_probes"],
        "service.mqo.groups": shared["groups"] - shared_before["groups"],
        "obs.tracing_overhead_pct": 100.0 * (W.median(on) - W.median(off)) / W.median(off),
    }


def _micro_writes(context: W.Context) -> dict:
    """Store write paths on scratch stores fed the instance's own tweets,
    then one snapshot per model after a one-item write to the live store
    (last: it mutates the instance)."""
    demo = context.demo
    tweets = [Tweet.from_record(record) for record in demo.tweets[:1000]]
    records = [tweet.record() for tweet in tweets]
    documents = [tweet.to_json() for tweet in tweets]
    values: dict[str, float] = {}

    def rate(name: str, count: int, call: Callable[[], object]) -> None:
        start = time.perf_counter()
        call()
        values[name] = count / (time.perf_counter() - start)

    text = tweet_store("scratch")
    rate("fulltext.add_all_docs_per_s", len(records), lambda: text.add_all(records))
    store = JSONDocumentStore(name="scratch", id_field="id", text_path="text")
    rate("json.add_all_docs_per_s", len(documents), lambda: store.add_all(documents))
    rate("json.upsert_docs_per_s", len(documents), lambda: store.add_all(documents))
    scratch = MixedInstance(name="scratch")
    triples = [triple(f"ttn:Evt{index}", "ttn:observedAt", index)
               for index in range(1000)]
    rate("rdf.add_triples_per_s", len(triples),
         lambda: scratch.add_glue_triples(triples))
    database = Database("scratch")
    database.create_table_from_rows(
        "unemployment", [{"dept_code": "75", "year": 2015, "quarter": 1, "rate": 9.0}])
    insert = ("INSERT INTO unemployment (dept_code, year, quarter, rate) VALUES "
              + ", ".join(f"('75', {2016 + index}, 1, 9.5)" for index in range(200)))
    rate("relational.insert_rows_per_s", 200, lambda: database.execute(insert))

    instance = demo.instance
    writes = {
        "fulltext": (instance.source(TWEETS_URI),
                     lambda index: instance.source(TWEETS_URI).store.add(records[index])),
        "json": (instance.source(TWEETS_JSON_URI),
                 lambda index: instance.source(TWEETS_JSON_URI).store.add(documents[index])),
        "relational": (instance.source(INSEE_URI),
                       lambda index: demo.insee.execute(
                           "INSERT INTO unemployment (dept_code, year, quarter, rate) "
                           f"VALUES ('75', {2100 + index}, 1, 9.5)")),
        "rdf": (instance.glue_source,
                lambda index: instance.add_glue_triples(
                    [triple(f"ttn:Snap{index}", "ttn:observedAt", index)])),
    }
    for model, (source, write) in writes.items():
        samples = []
        for index in range(5):
            write(index)
            start = time.perf_counter()
            source.pin()
            samples.append(time.perf_counter() - start)
        values[f"{model}.snapshot_ms"] = statistics.median(samples) * 1000.0
    return values
