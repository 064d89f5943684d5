"""Setuptools entry point (kept for legacy editable installs without wheel)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "TATOOINE reproduction: mixed-instance querying, a lightweight "
        "integration architecture for data journalism (VLDB 2016)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    extras_require={"test": ["pytest", "hypothesis"]},
)
