"""Synthetic politicians, parties and the glue RDF graph.

The paper's glue graph "contains basic (name, gender, date and place of
birth, ...) and detailed (DBPedia URI, personal website, Twitter ID,
Facebook ID, current political position, party affiliations, parliament
and senate group affiliations ...) information of top French politicians,
as well as political parties and currents".  This module generates a
deterministic population of that shape and converts it to RDF.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.datasets.vocabulary import (
    DEPARTMENTS,
    EUROPEAN_GROUPS,
    FIRST_NAMES,
    LAST_NAMES,
    PARTIES_BY_GROUP,
    POLITICAL_GROUPS,
    POSITIONS,
)
from repro.errors import DatasetError
from repro.rdf.graph import Graph
from repro.rdf.schema import RDFSchema
from repro.rdf.terms import FOAF_NS, RDF_TYPE, TATOOINE_NS, Triple, URI, literal, uri


def ttn(local: str) -> URI:
    """Build a URI in the TATOOINE application namespace."""
    return URI(TATOOINE_NS + local)


@dataclass(frozen=True)
class Party:
    """A political party with its current (group) and European affiliation."""

    party_id: str
    name: str
    group: str
    european_group: str

    @property
    def uri(self) -> URI:
        return ttn(self.party_id)


@dataclass(frozen=True)
class Politician:
    """One synthetic politician."""

    politician_id: str
    name: str
    gender: str
    party_id: str
    group: str
    position: str
    twitter_account: str
    facebook_account: str
    dbpedia_uri: str
    birth_department: str
    followers: int
    activity: float  # relative tweeting rate

    @property
    def uri(self) -> URI:
        return ttn(self.politician_id)


@dataclass
class PoliticalLandscape:
    """The generated population plus its RDF glue graph."""

    politicians: list[Politician]
    parties: list[Party]
    graph: Graph
    schema: RDFSchema

    def by_group(self) -> dict[str, list[Politician]]:
        """Politicians grouped by political current."""
        grouped: dict[str, list[Politician]] = {}
        for politician in self.politicians:
            grouped.setdefault(politician.group, []).append(politician)
        return grouped

    def head_of_state(self) -> Politician:
        """The (single) politician holding the ``headOfState`` position."""
        for politician in self.politicians:
            if politician.position == "headOfState":
                return politician
        raise DatasetError("the generated landscape has no head of state")

    def party(self, party_id: str) -> Party:
        """Return a party by id."""
        for party in self.parties:
            if party.party_id == party_id:
                return party
        raise DatasetError(f"unknown party {party_id!r}")


def generate_parties() -> list[Party]:
    """Generate one party object per entry of :data:`PARTIES_BY_GROUP`."""
    parties = []
    counter = 1
    for group in POLITICAL_GROUPS:
        for name in PARTIES_BY_GROUP[group]:
            parties.append(Party(
                party_id=f"PARTY{counter:03d}",
                name=name,
                group=group,
                european_group=EUROPEAN_GROUPS[group],
            ))
            counter += 1
    return parties


def generate_politicians(count: int = 60, seed: int = 42,
                         parties: list[Party] | None = None) -> list[Politician]:
    """Generate ``count`` deterministic politicians."""
    if count <= 0:
        raise DatasetError("politician count must be positive")
    rng = random.Random(seed)
    parties = parties if parties is not None else generate_parties()
    politicians: list[Politician] = []
    used_names: set[str] = set()
    for index in range(count):
        first = FIRST_NAMES[rng.randrange(len(FIRST_NAMES))]
        last = LAST_NAMES[rng.randrange(len(LAST_NAMES))]
        name = f"{first} {last}"
        suffix = 2
        while name in used_names:
            name = f"{first} {last} {suffix}"
            suffix += 1
        used_names.add(name)
        party = parties[rng.randrange(len(parties))]
        position = "headOfState" if index == 0 else POSITIONS[rng.randrange(1, len(POSITIONS))]
        handle = (first[0] + last).lower().replace(" ", "") + (str(index) if index else "")
        department = DEPARTMENTS[rng.randrange(len(DEPARTMENTS))][0]
        politicians.append(Politician(
            politician_id=f"POL{index + 1:05d}",
            name=name,
            gender=rng.choice(("female", "male")),
            party_id=party.party_id,
            group=party.group,
            position=position,
            twitter_account=handle,
            facebook_account=f"fb.{handle}",
            dbpedia_uri=f"http://dbpedia.org/resource/{first}_{last}_{index}",
            birth_department=department,
            followers=int(rng.lognormvariate(8, 1.2)),
            activity=0.3 + rng.random() * 1.7,
        ))
    return politicians


def build_schema() -> RDFSchema:
    """The RDFS schema of the glue graph (classes, properties, domains/ranges)."""
    schema = RDFSchema()
    schema.add_subclass(ttn("politician"), ttn("person"))
    schema.add_subclass(ttn("party"), ttn("organization"))
    schema.add_subclass(ttn("current"), ttn("concept"))
    schema.add_subproperty(ttn("memberOf"), ttn("affiliatedWith"))
    schema.add_subproperty(ttn("partOfCurrent"), ttn("affiliatedWith"))
    schema.add_domain(ttn("memberOf"), ttn("politician"))
    schema.add_range(ttn("memberOf"), ttn("party"))
    schema.add_domain(ttn("partOfCurrent"), ttn("party"))
    schema.add_range(ttn("partOfCurrent"), ttn("current"))
    schema.add_domain(ttn("twitterAccount"), ttn("politician"))
    schema.add_domain(ttn("position"), ttn("politician"))
    return schema


def build_glue_graph(politicians: list[Politician],
                     parties: list[Party]) -> tuple[Graph, RDFSchema]:
    """Build the custom application RDF graph from the generated population."""
    schema = build_schema()
    triples = list(schema.triples())
    foaf_name = URI(FOAF_NS + "name")
    for group in POLITICAL_GROUPS:
        group_uri = ttn(f"current_{group.replace('-', '_')}")
        triples += [Triple(group_uri, RDF_TYPE, ttn("current")),
                    Triple(group_uri, ttn("label"), literal(group))]

    for party in parties:
        triples += [
            Triple(party.uri, RDF_TYPE, ttn("party")),
            Triple(party.uri, foaf_name, literal(party.name)),
            Triple(party.uri, ttn("partOfCurrent"),
                   ttn(f"current_{party.group.replace('-', '_')}")),
            Triple(party.uri, ttn("currentLabel"), literal(party.group)),
            Triple(party.uri, ttn("europeanGroup"), literal(party.european_group)),
        ]

    for politician in politicians:
        subject = politician.uri
        triples += [
            Triple(subject, RDF_TYPE, ttn("politician")),
            Triple(subject, foaf_name, literal(politician.name)),
            Triple(subject, ttn("gender"), literal(politician.gender)),
            Triple(subject, ttn("position"), ttn(politician.position)),
            Triple(subject, ttn("memberOf"), ttn(politician.party_id)),
            Triple(subject, ttn("politicalGroup"), literal(politician.group)),
            Triple(subject, ttn("twitterAccount"), literal(politician.twitter_account)),
            Triple(subject, ttn("facebookAccount"), literal(politician.facebook_account)),
            Triple(subject, ttn("dbpediaURI"), uri(politician.dbpedia_uri)),
            Triple(subject, ttn("birthDepartment"), literal(politician.birth_department)),
        ]
    # One build is one write batch: one version, one journal record.
    return Graph(name="glue", triples=triples), schema


def generate_landscape(count: int = 60, seed: int = 42) -> PoliticalLandscape:
    """Generate the full political landscape (population + glue graph)."""
    parties = generate_parties()
    politicians = generate_politicians(count=count, seed=seed, parties=parties)
    graph, schema = build_glue_graph(politicians, parties)
    return PoliticalLandscape(politicians=politicians, parties=parties,
                              graph=graph, schema=schema)
