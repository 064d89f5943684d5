"""Inputs, set-up, oracle and the four workload drivers of the e2e benchmark.

Everything the program sees is generated here from ``--seed``: the
demonstration instance, the CMQ stream (qSIA family, parameters drawn
Zipf(1.1) from the generator vocabulary), the dashboard panel and the
ingest stream.  The drivers are closed loops: a client submits its next
CMQ only after the previous answer arrived.

The same driver serves the untraced pass and the traced pass — tracing
is installed from outside (see :mod:`spans`), the loop only opens one
``op`` span per operation when a recorder is given.
"""

from __future__ import annotations

import contextlib
import dataclasses
from collections import Counter
import gc
import itertools
import os
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

from repro.baselines.naive import naive_options
from repro.core.instance import MixedInstance
from repro.datasets import DemoConfig, build_demo_instance
from repro.datasets.loader import (
    DBPEDIA_URI,
    INSEE_URI,
    TWEETS_JSON_URI,
    TWEETS_URI,
    DemoInstance,
    fact_checking_query,
    party_vocabulary_query,
    qsia_json_query,
    register_demo_templates,
)
from repro.datasets.tweets import Tweet, TweetGeneratorConfig, generate_tweet_objects
from repro.datasets.vocabulary import DEPARTMENTS, FILLER_TERMS, TOPICS
from repro.rdf import triple
from repro.remote import RemoteOptions, SourceServer, TCPTransport
from repro.service.mediator import MediatorService, ServiceConfig

WORKLOADS = ("adhoc_cold", "dashboard_warm", "ingest_mixed", "federated_loopback")

#: Sources served over TCP on 127.0.0.1 in ``federated_loopback``; the
#: glue graph and the three remaining sources stay local.
REMOTE_URIS = (TWEETS_URI, TWEETS_JSON_URI, INSEE_URI, DBPEDIA_URI)

#: Hedging off and a generous timeout: a duplicate request raced at the
#: p95 makes ``remote.calls`` irreproducible, and a 1 s timeout turns a
#: collector pause into a retry.
REMOTE_OPTIONS = RemoteOptions(timeout=10.0, hedge_delay=0)

#: CMQ classes with their share of the ad-hoc stream.  ``qsia`` and
#: ``dynamic`` are submitted in the textual syntax (half of the stream),
#: so ``parse_cmq`` is on the measured path.
CLASS_SHARES = (("qsia", 0.25), ("dynamic", 0.25), ("qsia_json", 0.20),
                ("party", 0.15), ("factcheck", 0.15))
CLASSES = tuple(name for name, _ in CLASS_SHARES)
TEXTUAL = {
    "qsia": 'qSIA(t, id) :- qG(id), tweetContains(t, id, "%s")',
    "dynamic": 'qSIA(t, id) :- qG(id), tweetContains(t, id, "%s")[dSolr]',
}

_BUILDERS = {"qsia_json": qsia_json_query, "party": party_vocabulary_query,
             "factcheck": fact_checking_query}

ZIPF_EXPONENT = 1.1
INGEST_BATCH = 50
UPSERT_EVERY = 5
#: ``ingest_mixed`` asks its panel three times per round: once post-write
#: (``True``), twice warm.  Asked twice, exactly half of the samples are
#: warm hits and half pay for the write, and the median flips between
#: the two (1.5 ms against 2.7 ms at the 45th and 55th percentile) with
#: the rank of a single sample; now it lies inside the warm ones and the
#: post-write third holds the p95.
PANEL_ASKINGS = (True, False, False)

#: Set-ups per untraced run.  Each is followed by one measured slice, so
#: ``setup_s`` is the median of three and every slice starts from the
#: same fresh state (``ingest_mixed`` grows with every round).
SETUPS = 3

#: ``run_seconds`` of BENCHMARK.json, which ``FULL_BLOCKS`` is sized to.
RUN_SECONDS = 12

# The one run-length budget: a fixed operation count per slice (CMQs;
# rounds for ``ingest_mixed``), so that counts repeat exactly and
# a fast and a slow machine time the same operations.  A full run is
# whole blocks (see ``block_ops``), sized so that the three slices last
# about ``RUN_SECONDS`` on the 2-core box the baselines come from and
# hold at least 400 CMQ samples; ``--seconds`` scales the block count.
FULL_BLOCKS = {"adhoc_cold": 3, "dashboard_warm": 10, "ingest_mixed": 2,
               "federated_loopback": 3}
SMOKE_OPS = {"adhoc_cold": 14, "dashboard_warm": 38, "ingest_mixed": 4,
             "federated_loopback": 14}


#: The demonstration data is the same on every ``--seed``: the seed
#: drives the order of the CMQ stream, the walk over the panel and the
#: ingest stream.  A seed-dependent corpus moves every latency by what
#: the head of state happened to tweet (qSIA joins on that one account),
#: which no change to the program could be told apart from.
DATA_SEED = 2016


def pin_to_one_cpu() -> None:
    """Confine this process to one CPU (the highest it may use).

    One operation is in flight, and under the interpreter lock its
    threads (client, dispatch pool, service workers, loopback servers)
    take turns anyway.  Spread over two virtual CPUs every hand-off wakes
    a halted one, which costs 0.1-0.5 ms here and drifts with the host's
    state: unpinned, ``federated_loopback`` ran at a median of 8.4 ms
    after an idle minute and at 16 ms half an hour into a sustained run;
    on one CPU it stays at 9.2-10.2 ms.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


@dataclass(frozen=True)
class Scale:
    """Size of the demonstration instance (≈5.5k tweets at scale 1)."""

    politicians: int = 120
    weeks: int = 8
    tweets_per_week: float = 4.0

    def config(self) -> DemoConfig:
        return DemoConfig(politicians=self.politicians, weeks=self.weeks,
                          tweets_per_politician_per_week=self.tweets_per_week,
                          seed=DATA_SEED)


SMOKE_SCALE = Scale(politicians=24, weeks=3, tweets_per_week=2.0)


@dataclass(frozen=True)
class Op:
    """One CMQ of the stream: a template class and its parameter."""

    cls: str
    param: str


def build_cmq(demo: DemoInstance, op: Op):
    """The CMQ of ``op``: text for the textual classes, else a CMQ object."""
    template = TEXTUAL.get(op.cls)
    if template is not None:
        return template % op.param
    return _BUILDERS[op.cls](demo, op.param)


def _vocabulary() -> dict[str, list[str]]:
    """Parameter vocabulary per class, in the generator's own order.

    The order is fixed (not shuffled by the seed), so the Zipf head is
    the same words on every seed; the seed drives the draws only.
    """
    words: dict[str, None] = {}
    for topic in TOPICS.values():
        for term in topic.shared_terms:
            words.setdefault(term)
    for topic in TOPICS.values():
        for phase in topic.phases:
            for term in phase.core_terms:
                words.setdefault(term)
        for terms in topic.group_terms.values():
            for term in terms:
                words.setdefault(term)
    for term in FILLER_TERMS:
        if "'" not in term and "-" not in term:
            words.setdefault(term)
    hashtags = [topic.hashtag.lower() for topic in TOPICS.values()]
    return {"qsia": hashtags, "dynamic": hashtags, "qsia_json": hashtags,
            "party": list(words),
            # Only topics whose registered dataset has the queried table.
            "factcheck": ["chomage", "agriculture"]}


VOCABULARY = _vocabulary()


def _zipf_quantiles(items: list[str], count: int) -> list[str]:
    """``count`` parameters at evenly spaced quantiles of Zipf(1.1) over
    ``items``: a stratified sample, the same on every seed."""
    weights = [1.0 / (rank ** ZIPF_EXPONENT) for rank in range(1, len(items) + 1)]
    total = sum(weights)
    chosen, rank, reached = [], 0, weights[0] / total
    for index in range(count):
        quantile = (index + 0.5) / count
        while reached < quantile:
            rank += 1
            reached += weights[rank] / total
        chosen.append(items[rank])
    return chosen


#: One block of the ad-hoc stream: every class at exactly its share,
#: parameters at the Zipf quantiles of the class vocabulary.
STREAM_BLOCK = [Op(cls, param) for cls, share in CLASS_SHARES
                for param in _zipf_quantiles(VOCABULARY[cls], round(share * 100))]


def op_stream(seed: int) -> Iterator[Op]:
    """The endless ad-hoc stream: ``STREAM_BLOCK`` over and over, each
    time in a fresh seeded order.

    Drawing every parameter at random instead puts the p95 on whichever
    party words a seed happens to draw; stratifying keeps the multiset of
    CMQs fixed and leaves the seed the order — which the statistics
    feedback, the adaptive re-planner and the caches do see.
    """
    rng = random.Random(seed)
    while True:
        block = list(STREAM_BLOCK)
        rng.shuffle(block)
        yield from block


def dashboard_panel() -> list[Op]:
    """The 19-CMQ newsroom panel: every hashtag under the three hashtag
    classes, eight words at doubling Zipf ranks (1, 2, 3, 5, 9 … 65: from
    2000-row answers down to near-empty ones), both fact-check topics."""
    panel = [Op(cls, tag) for cls in ("qsia", "qsia_json", "dynamic")
             for tag in VOCABULARY[cls]]
    panel += [Op("party", VOCABULARY["party"][rank])
              for rank in (0, 1, 2, 4, 8, 16, 32, 64)]
    panel += [Op("factcheck", topic) for topic in VOCABULARY["factcheck"]]
    return panel


def ingest_panel() -> list[Op]:
    """The 8-CMQ panel re-asked after every ingest batch."""
    by_class = {cls: [op for op in dashboard_panel() if op.cls == cls]
                for cls in CLASSES}
    return (by_class["qsia"][:2] + by_class["qsia_json"][:2]
            + by_class["dynamic"][:1] + by_class["party"][:2]
            + by_class["factcheck"][:1])


def panel_picks(seed: int, size: int) -> Iterator[int]:
    """The client's endless walk over the panel: one seeded permutation
    after another, so every CMQ is asked equally often."""
    rng = random.Random(seed * 7919)
    order = list(range(size))
    while True:
        rng.shuffle(order)
        yield from order


# ---------------------------------------------------------------------------
# Ingest stream
# ---------------------------------------------------------------------------

def is_upsert(index: int) -> bool:
    """Whether ingest batch ``index`` rewrites existing tweets."""
    return index % UPSERT_EVERY == UPSERT_EVERY - 1


@dataclass
class IngestBatch:
    tweets: list[Tweet]
    triples: list
    sql: str


class IngestStream:
    """Seeded write batches: 50 tweets to both tweet stores, two glue
    triples and one SQL insert; every fifth batch instead rewrites 50
    existing tweets with a changed ``retweet_count`` (upserts).

    Like the corpus and the CMQ stream, the new tweets are the same on
    every seed — as many as one slice of a full run inserts — and the
    seed orders them (and picks the upserted tweets and the SQL rows):
    how many new tweets match the panel decides what a repair costs.
    """

    def __init__(self, demo: DemoInstance, seed: int):
        self._rng = random.Random(seed ^ 0x1265)
        self._existing = [Tweet.from_record(record) for record in demo.tweets]
        inserted = (INGEST_BATCH * (UPSERT_EVERY - 1)
                    * FULL_BLOCKS["ingest_mixed"])
        generated = generate_tweet_objects(
            demo.politicians,
            TweetGeneratorConfig(topic=demo.topic, weeks=4,
                                 tweets_per_politician_per_week=4.0,
                                 seed=DATA_SEED + 101))
        # Evenly spaced, so that every week and author is among them.
        self._pool = generated[::max(1, len(generated) // inserted)][:inserted]
        self._rng.shuffle(self._pool)
        self._next_id = max(tweet.tweet_id for tweet in self._existing) + 1
        self._batches: list[IngestBatch] = []

    def batch(self, index: int) -> IngestBatch:
        while len(self._batches) <= index:
            self._batches.append(self._make(len(self._batches)))
        return self._batches[index]

    def _make(self, index: int) -> IngestBatch:
        rng = self._rng
        if is_upsert(index):
            tweets = [dataclasses.replace(tweet, retweet_count=tweet.retweet_count + 1 + index)
                      for tweet in rng.sample(self._existing, INGEST_BATCH)]
        else:
            tweets = []
            for offset in range(INGEST_BATCH):
                source = self._pool[(index * INGEST_BATCH + offset) % len(self._pool)]
                tweets.append(dataclasses.replace(source, tweet_id=self._next_id))
                self._next_id += 1
        dept = rng.choice(DEPARTMENTS)[0]
        return IngestBatch(
            tweets=tweets,
            triples=[triple(f"ttn:Evt{index}", "ttn:observedAt", index),
                     triple(f"ttn:Evt{index}", "ttn:severity", index % 5)],
            sql=("INSERT INTO unemployment (dept_code, year, quarter, rate) "
                 f"VALUES ('{dept}', {2016 + index // 4}, {index % 4 + 1}, "
                 f"{round(7.0 + rng.random() * 6.0, 2)})"))


def apply_batch(demo: DemoInstance, batch: IngestBatch) -> tuple[float, float]:
    """Write one batch; returns (seconds in the two ``add_all`` calls,
    seconds in all four write calls)."""
    instance = demo.instance
    records = [tweet.record() for tweet in batch.tweets]
    documents = [tweet.to_json() for tweet in batch.tweets]
    start = time.perf_counter()
    instance.source(TWEETS_URI).store.add_all(records)
    instance.source(TWEETS_JSON_URI).store.add_all(documents)
    docs = time.perf_counter()
    instance.add_glue_triples(batch.triples)
    demo.insee.execute(batch.sql)
    end = time.perf_counter()
    return docs - start, end - start


# ---------------------------------------------------------------------------
# The host's speed
# ---------------------------------------------------------------------------

#: Seconds ``probe`` takes on the box the baselines come from when it has
#: the processor to itself: the speed every latency is reported at.
REFERENCE_PROBE = 40e-6


def probe() -> float:
    """Seconds a fixed piece of interpreter work takes right now (the
    median of five goes of ~40 us).

    The shared host runs this process at anything between full and half
    speed, for a quarter of a second to minutes at a time (this loop
    reads 44 us, 70 us and 95 us within ten seconds; a busy second CPU
    of this VM alone makes it 69 us), and slows the program and this
    loop alike.  Taken right before and right after an operation it says
    how slow the host was around it, and ``Sample.ms`` divides that out.
    """
    goes = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for index in range(1000):
            total += index * index % 7
        goes.append(time.perf_counter() - start)
    goes.sort()
    return goes[2]


class HostSampler:
    """Probes the host every ``PERIOD`` seconds on a thread of its own,
    for a piece of work too long to probe around: the set-up."""

    PERIOD = 0.02

    def __init__(self) -> None:
        self._readings: list[tuple[float, float]] = []
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _read(self) -> None:
        self._readings.append((time.perf_counter(), probe()))

    def _run(self) -> None:
        while not self._done.wait(self.PERIOD):
            self._read()

    def __enter__(self) -> "HostSampler":
        self._read()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._done.set()
        self._thread.join()
        self._read()

    def reference_seconds(self) -> float:
        """The sampled stretch of time at the reference speed: each gap
        between two readings over how slow the host was across it."""
        readings = self._readings
        return sum((later - earlier) * REFERENCE_PROBE / ((slow + slower) / 2)
                   for (earlier, slow), (later, slower) in zip(readings, readings[1:]))


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    """Everything generated from the seed before the program runs."""

    workload: str
    seed: int
    scale: Scale
    panel: list[Op]
    #: The write stream of ``ingest_mixed``, shared by every set-up of a
    #: run and by the oracle's replay (needs the built corpus, so the
    #: first set-up creates it — outside its timed part).
    ingest: Optional[IngestStream] = None

    @classmethod
    def make(cls, workload: str, seed: int, scale: Scale) -> "Inputs":
        if workload == "dashboard_warm":
            panel = dashboard_panel()
        elif workload == "ingest_mixed":
            panel = ingest_panel()
        else:
            # First-touch list of the ad-hoc workloads: one CMQ per class.
            panel = [Op(cls, VOCABULARY[cls][0]) for cls in CLASSES]
        return cls(workload, seed, scale, panel)


class Context:
    """A set-up workload: the data instance, what CMQs are submitted to,
    and whatever must be stopped afterwards."""

    def __init__(self, inputs: Inputs):
        self.inputs = inputs
        self.servers: list[SourceServer] = []
        self.service: Optional[MediatorService] = None
        self._cmqs: dict[Op, object] = {}
        began = time.perf_counter()
        with HostSampler() as host:
            self._set_up()
        #: Seconds the program spent getting ready (inputs excluded): as
        #: the clock saw them, and at the reference speed.
        self.setup_wall_seconds = time.perf_counter() - began
        self.setup_seconds = host.reference_seconds()
        if inputs.workload == "ingest_mixed" and inputs.ingest is None:
            inputs.ingest = IngestStream(self.demo, inputs.seed)

    def _set_up(self) -> None:
        inputs = self.inputs
        self.demo = build_demo_instance(inputs.scale.config())
        self.instance: MixedInstance = self.demo.instance
        try:
            if inputs.workload == "federated_loopback":
                self.instance = self._federate()
            if inputs.workload in ("dashboard_warm", "ingest_mixed"):
                self.service = MediatorService(
                    self.instance, ServiceConfig(workers=2, tracing=False))
            # First touch of every lazy structure (statistics, JSON
            # encoding, glue saturation, sockets) and, for the panel
            # workloads, the warm-up itself.
            for op in inputs.panel:
                self.execute(self.cmq(op))
            if self.service is None:
                self.instance.clear_caches()
        except BaseException:
            self.close()
            raise

    def _federate(self) -> MixedInstance:
        demo = self.demo
        front = MixedInstance(graph=demo.landscape.graph, name="federated",
                              schema=demo.landscape.schema)
        for uri in demo.instance.source_uris():
            source = demo.instance.source(uri)
            if uri in REMOTE_URIS:
                server = SourceServer(source).start()
                self.servers.append(server)
                front.register_remote(TCPTransport(*server.address),
                                      options=REMOTE_OPTIONS)
            else:
                front.register(source)
        register_demo_templates(front)
        return front

    def cmq(self, op: Op):
        """The CMQ of ``op``, built once per distinct operation."""
        cmq = self._cmqs.get(op)
        if cmq is None:
            cmq = self._cmqs[op] = build_cmq(self.demo, op)
        return cmq

    def execute(self, cmq):
        if self.service is not None:
            return self.service.execute(cmq)
        return self.instance.execute(cmq)

    def remote_sources(self) -> list:
        return [source for source in self.instance.sources()
                if getattr(source, "cost_kind", None) == "remote"]

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown(wait=True)
            self.service = None
        for source in self.remote_sources():
            source.close()
        # ``SourceServer.close`` waits out a 0.5 s poll: close them at once.
        closers = [threading.Thread(target=server.close) for server in self.servers]
        for closer in closers:
            closer.start()
        for closer in closers:
            closer.join()
        self.servers = []


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

_MASK = (1 << 61) - 1


def fingerprint(result) -> tuple[int, int]:
    """Row count and an order-independent hash of the answer multiset."""
    keys = sorted(result.variables)
    total = 0
    for row in result.rows:
        values = tuple([row.get(key) for key in keys])
        try:
            total += hash(values)
        except TypeError:
            total += hash(repr(values))
    return len(result.rows), total & _MASK


class Oracle:
    """Reference answers from a twin instance evaluated without caches
    under the naive strategy (no bind joins, syntactic order, serial)."""

    def __init__(self, inputs: Inputs):
        self.twin = build_demo_instance(inputs.scale.config())
        self.twin.instance.cache = None
        self._options = naive_options()
        self._answers: dict[Op, tuple[int, int]] = {}

    def evaluate(self, op: Op) -> tuple[int, int]:
        return fingerprint(self.twin.instance.execute(build_cmq(self.twin, op),
                                                      options=self._options))

    def answer(self, op: Op) -> tuple[int, int]:
        """The (memoised) reference answer on the unchanging twin."""
        if op not in self._answers:
            self._answers[op] = self.evaluate(op)
        return self._answers[op]


# ---------------------------------------------------------------------------
# Measured pass
# ---------------------------------------------------------------------------

WRITE = "write"


class Sample(NamedTuple):
    """One timed operation."""

    #: CMQ class, or ``WRITE`` for an ingest batch.
    cls: str
    #: Latency as the clock saw it.
    wall_ms: float
    #: Repeats of one operation share it (see ``steady``).
    key: tuple
    #: How slow the host was around it: mean of the probes before and
    #: after over ``REFERENCE_PROBE``.
    host: float

    @property
    def ms(self) -> float:
        """Latency at the reference speed."""
        return self.wall_ms / self.host


@dataclass
class Pass:
    """What one measured pass produced."""

    #: One per operation in submission order (CMQs and ingest batches).
    samples: list[Sample] = field(default_factory=list)
    #: Per CMQ: (op, row count, hash, ingest round or -1).
    answers: list[tuple[Op, int, int, int]] = field(default_factory=list)
    docs_written: int = 0
    docs_seconds: float = 0.0
    raised: int = 0
    degraded: int = 0
    source_calls: int = 0
    rows_fetched: int = 0
    #: Rows returned per source URI (from the program's own call trace).
    rows_by_source: Counter = field(default_factory=Counter)

    @property
    def operations(self) -> int:
        return len(self.samples) + self.raised

    @property
    def write_batches(self) -> int:
        return sum(1 for sample in self.samples if sample.cls == WRITE)

    def cmqs(self, cls: str | None = None) -> list[Sample]:
        """The CMQ samples (of one class)."""
        return [sample for sample in self.samples
                if sample.cls != WRITE and (cls is None or sample.cls == cls)]

    def latencies(self, cls: str | None = None) -> list[float]:
        """CMQ latencies in ms as the clock saw them (of one class)."""
        return [sample.wall_ms for sample in self.cmqs(cls)]

    def post_write_ms(self) -> list[float]:
        """Clock latencies of the first askings after an ingest batch."""
        return [sample.wall_ms for sample in self.cmqs()
                if sample.key[1].startswith("post")]

    def per_second(self) -> float:
        """Operations over the clock time inside them (the harness's own
        time between operations left out)."""
        return len(self.samples) / (sum(s.wall_ms for s in self.samples) / 1000.0)


def steady(passes: list[Pass]) -> tuple[list[float], list[float]]:
    """The run's latencies (ms) at the reference speed, each sample
    counted as the lower quartile of the repeats of its operation:
    (CMQs only, every operation).

    The multiset of operations is fixed and each is repeated (whole
    blocks, several slices).  What is left of the host after the probes
    (and a collector pause, see ``plain.*``) stretches single repeats and
    never shrinks one, so the lower quartile of an operation's repeats is
    what two runs of the same code agree on; a noisy probe can make one
    repeat look fast, which is why it is not the minimum.
    """
    repeats: dict[tuple, list[float]] = {}
    for measured in passes:
        for sample in measured.samples:
            repeats.setdefault(sample.key, []).append(sample.ms)
    typical = {key: percentile(values, 0.25) for key, values in repeats.items()}
    cmqs = [typical[sample.key] for measured in passes for sample in measured.cmqs()]
    every = [typical[sample.key] for measured in passes for sample in measured.samples]
    return cmqs, every


def block_ops(workload: str, panel: list[Op]) -> int:
    """Operations (rounds for ``ingest_mixed``) after which the client has
    submitted the same multiset again: one permuted stream block, five
    panel walks, one upsert cycle.  A run of whole blocks asks the same
    CMQs on every seed; the seed only orders them."""
    if workload == "dashboard_warm":
        return 5 * len(panel)
    if workload == "ingest_mixed":
        return UPSERT_EVERY
    return len(STREAM_BLOCK)


def slice_ops(inputs: Inputs, seconds: float, smoke: bool) -> int:
    """The fixed operation count of one slice (see ``FULL_BLOCKS``)."""
    if smoke:
        return SMOKE_OPS[inputs.workload]
    blocks = max(1, round(FULL_BLOCKS[inputs.workload] * seconds / RUN_SECONDS))
    return blocks * block_ops(inputs.workload, inputs.panel)


def _ask(context: Context, op: Op, out: Pass, recorder,
         round_index: int = -1, asking: str = "") -> None:
    """Submit one CMQ, time it, and keep its fingerprint for the check.

    ``asking`` tells repeats of ``op`` apart that do different work:
    ``post-insert`` / ``post-upsert`` (first asking after a write batch:
    repair or re-evaluation) and ``warm`` on ``ingest_mixed``."""
    cmq = context.cmq(op)
    scope = recorder.span("op") if recorder is not None else contextlib.nullcontext()
    before = probe()
    with scope:
        start = time.perf_counter()
        try:
            result = context.execute(cmq)
        except Exception:  # noqa: BLE001 - a failed operation is a finding
            out.raised += 1
            return
        elapsed = (time.perf_counter() - start) * 1000.0
    host = (before + probe()) / 2 / REFERENCE_PROBE
    out.samples.append(Sample(op.cls, elapsed, (op, asking), host))
    trace = result.trace
    if trace.degraded:
        out.degraded += 1
    out.source_calls += len(trace.calls)
    out.rows_fetched += trace.total_rows_fetched()
    for call in trace.calls:
        out.rows_by_source[call.source_uri] += call.rows_out
    out.answers.append((op, *fingerprint(result), round_index))


def run_pass(context: Context, ops: int, recorder=None) -> Pass:
    """Run ``ops`` operations of the context's workload (CMQs; rounds
    for ``ingest_mixed``)."""
    inputs = context.inputs
    out = Pass()
    gc.collect()
    if inputs.workload in ("adhoc_cold", "federated_loopback"):
        for op in itertools.islice(op_stream(inputs.seed), ops):
            # Untimed: every CMQ takes the first-ask path.
            context.instance.clear_caches()
            _ask(context, op, out, recorder)
    elif inputs.workload == "dashboard_warm":
        picks = panel_picks(inputs.seed, len(inputs.panel))
        for pick in itertools.islice(picks, ops):
            _ask(context, inputs.panel[pick], out, recorder)
    else:
        for round_index in range(ops):
            batch = inputs.ingest.batch(round_index)
            before = probe()
            docs_seconds, write_seconds = apply_batch(context.demo, batch)
            host = (before + probe()) / 2 / REFERENCE_PROBE
            kind = "upsert" if is_upsert(round_index) else "insert"
            out.samples.append(Sample(WRITE, write_seconds * 1000.0, (WRITE, kind), host))
            out.docs_written += len(batch.tweets)
            out.docs_seconds += docs_seconds
            for post_write in PANEL_ASKINGS:
                asking = f"post-{kind}" if post_write else "warm"
                for op in inputs.panel:
                    _ask(context, op, out, recorder, round_index, asking)
    return out


def check(inputs: Inputs, passes: list[Pass], oracle: Oracle,
          checkpoints: int = 20) -> int:
    """How many CMQs of ``passes`` raised, were degraded or answered
    differently from the oracle.

    Every pass of ``ingest_mixed`` starts from a fresh set-up and writes
    the same stream, so the stream is replayed once on the twin and the
    panel compared at ``checkpoints`` evenly spaced rounds (the
    post-write and the warm asking of each, in every pass); the other
    workloads read an unchanging instance, so every answer is compared.
    """
    failed = sum(result.raised + result.degraded for result in passes)
    if inputs.workload != "ingest_mixed":
        return failed + sum(1 for result in passes
                            for op, count, digest, _ in result.answers
                            if (count, digest) != oracle.answer(op))
    rounds = max(result.write_batches for result in passes)
    stride = max(1, rounds // checkpoints)
    by_round: dict[int, list] = {}
    for result in passes:
        for op, count, digest, round_index in result.answers:
            by_round.setdefault(round_index, []).append((op, count, digest))
    for round_index in range(rounds):
        apply_batch(oracle.twin, inputs.ingest.batch(round_index))
        if round_index % stride and round_index != rounds - 1:
            continue
        expected = {op: oracle.evaluate(op) for op in inputs.panel}
        failed += sum(1 for op, count, digest in by_round.get(round_index, ())
                      if (count, digest) != expected[op])
    return failed


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
