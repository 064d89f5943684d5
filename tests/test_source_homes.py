"""Each model's wrapper lives beside its store, and the protocol they share
says once what they all do.

* every wrapper module, and the protocol module, imports first in a fresh
  interpreter (no import cycle);
* ``repro.core.sources`` still serves the four wrapper classes to code
  importing them from there, as the very class objects of their homes, and
  nothing under ``src/`` or ``tests/`` relies on that;
* a query of another model is refused once, for every wrapper and for a
  remote source, before it reaches the store or the wire, and counts as a
  source error;
* the cache, statistics and digest layers name no model: no module under
  ``repro/cache``, ``repro/stats`` or ``repro/digest`` imports a model
  package (each model answers their questions through the protocol's
  hooks, its digest and keyword sub-query included), and no module under
  ``src/`` reads ``trust_wrapper_estimate``;
* every query language is read through ``repro.lexing``: each of the six
  readers imports it, the CMQ reader and the warehouse baseline import no
  ``re``, and none of the retired hand-rolled lexers is defined again.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.sources import DataSource
from repro.errors import MixedQueryError
from repro.fulltext import FieldConfig, FullTextStore
from repro.fulltext.source import FullTextQuery, FullTextSource
from repro.json.source import JSONQuery, JSONSource
from repro.json.store import JSONDocumentStore
from repro.obs.metrics import get_registry
from repro.rdf import Graph, triple
from repro.rdf.source import RDFQuery, RDFSource
from repro.relational import Database
from repro.relational.source import RelationalSource, SQLQuery
from repro.remote import LocalTransport, RemoteSource, RemoteSourceHandler

ROOT = Path(__file__).resolve().parent.parent
HOMES = ("repro.rdf.source", "repro.relational.source",
         "repro.fulltext.source", "repro.json.source")

#: Every name that moved out of ``repro.core.sources``.
MOVED = {
    "RDFQuery", "RDFSource", "_Closure", "to_rdf_term", "_to_rdf_term",
    "_binding_term_variants", "_CURIE_RE", "_BINDING",
    "SQLQuery", "RelationalSource", "_scalar", "_partition_exact",
    "FullTextQuery", "FullTextSource", "_row_projector", "_loose_equal",
    "JSONQuery", "JSONSource",
}


def _run(code: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run([sys.executable, "-c", code],
                               env=env, capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr


@pytest.mark.parametrize("module", HOMES + ("repro.core.sources",))
def test_each_module_imports_first_in_a_fresh_interpreter(module):
    _run(f"import {module}")


def test_the_protocol_module_serves_the_homes_own_wrapper_classes():
    """Run as text, in a fresh interpreter: the one import the check below
    forbids, made as the end-to-end benchmark makes it."""
    _run("from repro.core.sources import FullTextSource, JSONSource, RDFSource, RelationalSource\n"
         "import repro.fulltext.source, repro.json.source, repro.rdf.source, "
         "repro.relational.source\n"
         "assert FullTextSource is repro.fulltext.source.FullTextSource\n"
         "assert JSONSource is repro.json.source.JSONSource\n"
         "assert RDFSource is repro.rdf.source.RDFSource\n"
         "assert RelationalSource is repro.relational.source.RelationalSource\n"
         "import repro.core.sources\n"
         "assert not hasattr(repro.core.sources, 'RDFQuery')\n")


def _protocol_module_aliases(tree: ast.AST) -> set[str]:
    """The names a module binds ``repro.core.sources`` to."""
    aliases = {"repro.core.sources"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {alias.asname for alias in node.names
                        if alias.name == "repro.core.sources" and alias.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "repro.core":
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "sources"}
    return aliases


def test_no_module_imports_a_moved_name_from_the_protocol_module():
    offenders = []
    for top in ("src", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            aliases = _protocol_module_aliases(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "repro.core.sources":
                    names = {alias.name for alias in node.names}
                elif isinstance(node, ast.Attribute) and ast.unparse(node.value) in aliases:
                    names = {node.attr}
                else:
                    continue
                offenders += [f"{path.relative_to(ROOT)}:{node.lineno} {name}"
                              for name in sorted(names & MOVED)]
    assert offenders == []


MODELS = ("repro.rdf", "repro.relational", "repro.fulltext", "repro.json")
#: The retired flag that let a wrapper's ``estimate()`` overrule the catalog.
RETIRED = "trust_wrapper_estimate"


def _imported(node: ast.AST) -> list[str]:
    """The modules an import statement names (``from m import n``: ``m``
    and ``m.n``, either of which may be a package's module)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def test_the_cache_and_statistics_layers_name_no_model():
    offenders = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        layer = path.relative_to(ROOT / "src" / "repro").parts[0]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if layer in ("cache", "stats", "digest"):
                offenders += [f"{path.relative_to(ROOT)}:{node.lineno} imports {module}"
                              for module in _imported(node)
                              if any(module == model or module.startswith(model + ".")
                                     for model in MODELS)]
            if RETIRED in (getattr(node, "attr", None), getattr(node, "id", None),
                           getattr(node, "value", None)):
                offenders.append(f"{path.relative_to(ROOT)}:{node.lineno} reads {RETIRED}")
    assert offenders == []


#: The module of each query language's reader, under ``src/repro``.
READERS = ("relational/parser.py", "fulltext/query.py", "json/parser.py",
           "rdf/sparql.py", "rdf/ntriples.py", "core/cmq.py")
#: Modules that read text through the readers' tokens, never through ``re``.
NO_REGEX = ("core/cmq.py", "baselines/warehouse.py")
#: Hand-rolled lexers and regex readers the shared lexer replaced.
RETIRED_LEXERS = {"_tokenize", "_split_statements", "_parse_literal_token",
                  "_split_atoms", "_ATOM_RE", "_SQL_RE"}


def _defined(node: ast.AST) -> list[str]:
    """The names a definition or an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [target.id for target in targets if isinstance(target, ast.Name)]
    return []


def test_every_query_language_is_read_through_the_shared_lexer():
    offenders = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = path.relative_to(ROOT / "src" / "repro").as_posix()
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        imported = {name for node in nodes for name in _imported(node)}
        if module in READERS and "repro.lexing" not in imported:
            offenders.append(f"{module} does not import repro.lexing")
        if module in NO_REGEX and imported & {"re", "regex"}:
            offenders.append(f"{module} imports re")
        offenders += [f"{module}:{node.lineno} defines {name}" for node in nodes
                      for name in _defined(node) if name in RETIRED_LEXERS]
    assert offenders == []


def _wrappers() -> list[DataSource]:
    graph = Graph("g")
    graph.add(triple("ttn:a", "ttn:p", "x"))
    database = Database("db")
    database.create_table_from_rows("t", [{"a": 1}])
    text = FullTextStore("s", fields=[FieldConfig("text", "text")], default_field="text")
    text.add({"id": 1, "text": "one"})
    documents = JSONDocumentStore("j")
    documents.add({"id": 1, "a": "x"})
    return [RDFSource("rdf://g", graph), RelationalSource("sql://db", database),
            FullTextSource("solr://s", text), JSONSource("json://j", documents)]


QUERIES = {
    "rdf": RDFQuery.from_text("SELECT ?o WHERE { ?s ttn:p ?o }"),
    "relational": SQLQuery("SELECT a FROM t"),
    "fulltext": FullTextQuery.create("text:one", {"doc": "id"}),
    "json": JSONQuery.from_text("{ a: ?v }"),
}


def _errors(source: DataSource) -> float:
    return get_registry().counter("source_errors_total", source=source.uri).value


@pytest.mark.parametrize("index", range(4))
def test_a_wrapper_refuses_another_models_query_and_counts_it(index):
    source = _wrappers()[index]
    assert source.accepts(QUERIES[source.model])
    assert len(source.execute(QUERIES[source.model])) == 1
    for model, query in QUERIES.items():
        if model == source.model:
            continue
        assert not source.accepts(query)
        before = _errors(source)
        with pytest.raises(MixedQueryError, match="cannot evaluate"):
            source.execute_batch(query, [{}])
        assert _errors(source) == before + 1


@pytest.mark.remote
def test_a_remote_source_refuses_another_models_query_without_a_frame():
    local = _wrappers()[1]
    frames: list[dict] = []
    handler = RemoteSourceHandler(local).handle

    def counted(payload: dict) -> dict:
        frames.append(payload)
        return handler(payload)

    remote = RemoteSource(LocalTransport(counted), uri="remote://db", model=local.model)
    assert len(remote.execute(QUERIES["relational"])) == 1
    sent = len(frames)
    before = _errors(remote)
    with pytest.raises(MixedQueryError, match="cannot evaluate"):
        remote.execute_batch(QUERIES["rdf"], [{}])
    assert len(frames) == sent
    assert _errors(remote) == before + 1
