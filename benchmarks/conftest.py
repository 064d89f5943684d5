"""Shared fixtures and reporting helpers for the benchmark harness.

Each ``bench_*.py`` file regenerates one experiment of DESIGN.md (E1–E10).
Benchmarks print the paper-style series they produce (who wins, by what
factor, where crossovers fall); absolute timings depend on the machine and
are reported by pytest-benchmark itself.
"""

from __future__ import annotations

import pytest

from repro.datasets import DemoConfig, build_demo_instance


def small_config() -> DemoConfig:
    return DemoConfig(politicians=20, weeks=4, tweets_per_politician_per_week=2.0, seed=42)


def medium_config() -> DemoConfig:
    return DemoConfig(politicians=60, weeks=4, tweets_per_politician_per_week=3.0, seed=42)


@pytest.fixture(scope="session")
def demo_small():
    """A small demonstration instance (fast, used by most benches)."""
    return build_demo_instance(small_config())


@pytest.fixture(scope="session")
def demo_medium():
    """A larger demonstration instance (used by the scaling benches)."""
    return build_demo_instance(medium_config())


@pytest.fixture(scope="session")
def catalog_small(demo_small):
    """Digest catalog of the small instance."""
    return demo_small.instance.build_digests()


def report(title: str, rows: list[dict], columns: list[str] | None = None) -> None:
    """Print a small fixed-width table (the series a paper figure would plot)."""
    if not rows:
        print(f"\n[{title}] (no rows)")
        return
    columns = columns or list(rows[0].keys())
    widths = {c: max(len(c), max(len(_fmt(r.get(c))) for r in rows)) for c in columns}
    print(f"\n[{title}]")
    print("  " + " | ".join(c.ljust(widths[c]) for c in columns))
    print("  " + "-+-".join("-" * widths[c] for c in columns))
    for row in rows:
        print("  " + " | ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return "" if value is None else str(value)
