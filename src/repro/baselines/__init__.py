"""Baselines used by the oracles and the comparison benchmarks.

* :mod:`repro.baselines.warehouse` — export every source into one RDF graph
  (the "standard data warehouse" the paper argues journalists cannot
  afford to maintain) and query it with BGPs;
* :mod:`repro.baselines.naive` — the reference plan (body order, no bind
  joins beyond the forced ones, one step per stage).
"""

from repro.baselines.naive import naive_options
from repro.baselines.warehouse import RDFWarehouse, WarehouseStats

__all__ = [
    "naive_options",
    "RDFWarehouse",
    "WarehouseStats",
]
