"""Synthetic external RDF sources: a DBPedia-like and an IGN-like graph.

The paper's mixed instance includes "RDF data sources, such as French
territory description data from the National Geographic Institute (IGN),
and LOD sources, in particular DBPedia".  Both are replaced by small
deterministic graphs that reuse the identifiers appearing elsewhere in the
instance (DBPedia URIs stored in the glue graph, INSEE department codes
stored in the relational source) so the cross-source joins the paper
relies on exist.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.datasets.politicians import Politician
from repro.datasets.vocabulary import DEPARTMENTS
from repro.rdf.graph import Graph
from repro.rdf.terms import RDF_TYPE, Triple, URI, literal, uri

DBPEDIA_NS = "http://dbpedia.org/ontology/"
IGN_NS = "http://data.ign.fr/def/geofla#"


def dbo(local: str) -> URI:
    """A URI in the DBPedia ontology namespace."""
    return URI(DBPEDIA_NS + local)


def ign(local: str) -> URI:
    """A URI in the IGN GEOFLA namespace."""
    return URI(IGN_NS + local)


def build_dbpedia_graph(politicians: Sequence[Politician], seed: int = 3) -> Graph:
    """A DBPedia-like graph describing the politicians of the landscape.

    Resources are identified by the very DBPedia URIs recorded in the glue
    graph (``ttn:dbpediaURI``), providing the URI-reuse join the paper
    highlights.
    """
    rng = random.Random(seed)
    triples = []
    for politician in politicians:
        subject = uri(politician.dbpedia_uri)
        department = politician.birth_department
        triples += [
            Triple(subject, RDF_TYPE, dbo("Politician")),
            Triple(subject, dbo("birthYear"), literal(1945 + rng.randrange(40))),
            Triple(subject, dbo("birthPlace"),
                   URI(f"http://data.ign.fr/id/departement/{department}")),
            Triple(subject, dbo("abstract"),
                   literal(f"{politician.name} is a French politician "
                           f"({politician.group}).", language="en")),
            Triple(subject, dbo("twitterHandle"), literal(politician.twitter_account)),
        ]
        if rng.random() < 0.4:
            triples.append(Triple(subject, dbo("almaMater"),
                                  URI("http://dbpedia.org/resource/Sciences_Po")))
    return Graph(name="dbpedia", triples=triples)


def build_ign_graph(seed: int = 4) -> Graph:
    """An IGN-like graph describing French departments and regions.

    Department INSEE codes are stored as literals, matching the
    ``departments.code`` column of the INSEE database ("common naming for
    machines").
    """
    rng = random.Random(seed)
    triples = []
    regions = sorted({region for _, _, region in DEPARTMENTS})
    for region in regions:
        region_uri = URI(f"http://data.ign.fr/id/region/{_slug(region)}")
        triples += [Triple(region_uri, RDF_TYPE, ign("Region")),
                    Triple(region_uri, ign("nom"), literal(region))]
    for code, name, region in DEPARTMENTS:
        dept_uri = URI(f"http://data.ign.fr/id/departement/{code}")
        region_uri = URI(f"http://data.ign.fr/id/region/{_slug(region)}")
        triples += [
            Triple(dept_uri, RDF_TYPE, ign("Departement")),
            Triple(dept_uri, ign("codeINSEE"), literal(code)),
            Triple(dept_uri, ign("nom"), literal(name)),
            Triple(dept_uri, ign("region"), region_uri),
            Triple(dept_uri, ign("superficieKm2"), literal(round(1000 + rng.random() * 9000, 1))),
        ]
    return Graph(name="ign", triples=triples)


def _slug(text: str) -> str:
    return "".join(ch if ch.isalnum() else "-" for ch in text.lower()).strip("-")
