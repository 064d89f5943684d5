"""Iterator-based execution engine of the mediator.

The Python counterpart of the paper's "in-house iterator-based execution
engine (Java, approx. 10K lines)": Volcano-style operators over binding
tuples plus the dispatcher of a stage's independent source calls.  Operators
exchange columnar :class:`BindingBatch` objects; dict rows only
materialise at the interface boundary.

``__all__`` lists what the rest of the mediator uses (a tier-1 test
holds that); helpers the engine keeps to itself are imported from their
own modules.
"""

from repro.engine.batch import DEFAULT_BATCH_SIZE, BindingBatch
from repro.engine.iterators import (
    BatchBindJoin,
    Distinct,
    HashJoin,
    MaterializedScan,
    Operator,
    Project,
)
from repro.engine.parallel import run_calls

__all__ = [
    "BatchBindJoin",
    "BindingBatch",
    "DEFAULT_BATCH_SIZE",
    "Distinct",
    "HashJoin",
    "MaterializedScan",
    "Operator",
    "Project",
    "run_calls",
]
