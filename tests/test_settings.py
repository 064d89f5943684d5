"""The settings a caller can pass, pinned field by field.

A value no caller sets is a module constant, not a field: each new field
of these configuration objects is another configuration that tests and
the benchmark must cover.  This test names every field, so adding one
shows up as an edit here.
"""

from __future__ import annotations

import dataclasses

from repro.core.planner import PlannerOptions
from repro.datasets import DemoConfig
from repro.datasets.tweets import TweetGeneratorConfig
from repro.fulltext.analysis import Analyzer
from repro.remote import RemoteOptions
from repro.service.mediator import ServiceConfig


def test_configuration_objects_have_only_the_fields_callers_set():
    fields = {config.__name__: tuple(field.name for field in dataclasses.fields(config))
              for config in (ServiceConfig, RemoteOptions, PlannerOptions, DemoConfig,
                             TweetGeneratorConfig, Analyzer)}
    assert fields == {
        "ServiceConfig": ("workers", "max_queue_depth", "max_in_flight", "tracing"),
        "RemoteOptions": ("timeout", "retries", "backoff_base", "backoff_max",
                          "hedge_delay", "breaker_failures", "breaker_reset"),
        "PlannerOptions": ("bind_batch_size", "result_cache", "plan_cache", "cost_based"),
        "DemoConfig": ("politicians", "weeks", "tweets_per_politician_per_week",
                       "topic", "seed"),
        "TweetGeneratorConfig": ("topic", "weeks", "tweets_per_politician_per_week",
                                 "seed"),
        "Analyzer": ("language", "keep_hashtags", "extra_stopwords"),
    }
