"""Exception hierarchy shared by every repro subsystem.

Every error raised by the library derives from :class:`ReproError`, so a
caller embedding the mediator can catch a single exception type.  More
specific subclasses exist per subsystem (RDF, relational, full-text,
mediator, digest) so tests and applications can distinguish failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the repro library."""


class ParseError(ReproError):
    """A query or data document could not be parsed.

    Attributes
    ----------
    message:
        Human readable description of the problem.
    position:
        Optional character offset into the parsed text where the problem
        was detected: where the offending token starts, or the length of
        the text when it ended too early.
    """

    def __init__(self, message: str, position: int | None = None):
        self.message = message
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class RDFError(ReproError):
    """Error raised by the RDF substrate (graph, entailment, BGP engine)."""


class RelationalError(ReproError):
    """Error raised by the relational substrate (schema, SQL engine)."""


class SQLParseError(ParseError, RelationalError):
    """A SQL statement could not be parsed."""


class SchemaError(RelationalError):
    """A table or column definition is invalid or violated."""


class FullTextError(ReproError):
    """Error raised by the Solr-like full-text substrate."""


class JSONError(ReproError):
    """Error raised by the JSON document substrate (store, tree patterns)."""


class MixedQueryError(ReproError):
    """Error raised while parsing, planning or evaluating a CMQ."""


class SourceDispatchError(MixedQueryError):
    """An unexpected exception escaped a wrapper during dispatch.

    The executor wraps any non-:class:`ReproError` exception raised by a
    wrapper's ``execute`` / ``execute_batch`` in this type, so a failed
    ticket always carries the *source URI* and *atom* that caused it
    (the original exception stays chained as ``__cause__``).
    """

    def __init__(self, message: str, source_uri: str = "", atom: str = ""):
        super().__init__(message)
        self.source_uri = source_uri
        self.atom = atom


class RemoteError(ReproError):
    """Base class of errors raised by the remote-source federation layer."""


class SourceUnavailableError(RemoteError):
    """A remote source could not be reached (refused, reset, outage)."""


class SourceTimeoutError(RemoteError):
    """A remote call did not answer within its per-call timeout."""


class RemoteProtocolError(RemoteError):
    """A remote peer answered with a malformed or wrong-version message."""


class CircuitOpenError(RemoteError):
    """The per-source circuit breaker is open: calls fail fast.

    Raised without touching the network while the breaker's reset window
    has not elapsed; half-open probe traffic is admitted separately.
    """


class PlanningError(MixedQueryError):
    """The planner could not produce a valid evaluation order.

    Typical cause: a sub-query targets a source variable that no other
    sub-query can ever bind.
    """


class UnknownSourceError(MixedQueryError):
    """A CMQ referenced a source URI that is not registered in the instance."""


class ServiceError(ReproError):
    """Error raised by the concurrent mediator serving layer."""


class AdmissionError(ServiceError):
    """The service refused a query: queue depth or in-flight limit hit."""


class QueryCancelledError(ServiceError):
    """A submitted query was cancelled before or during execution."""


class QueryTimeoutError(ServiceError):
    """A submitted query exceeded its deadline."""


class DigestError(ReproError):
    """Error raised while building or searching source digests."""


class KeywordSearchError(DigestError):
    """Keyword search could not produce a candidate mixed query."""


class DatasetError(ReproError):
    """Error raised by the synthetic dataset generators."""
