"""Continental-scale network ingestion.

Importers stream DIMACS ``.gr``/``.co`` and edge-list CSV files into
columnar on-disk edge tables (:mod:`~repro.network.ingest.columnar`);
:meth:`CSRGraph.from_columnar` compiles a frozen snapshot straight from a
table, and :meth:`~repro.network.graph.RoadNetwork.from_table` opens it as
a read-only network over those arrays -- no per-node objects on the
big-network path.  Requires numpy; Parquet chunks are
available when pyarrow is installed.
"""

from repro.network.ingest.columnar import (
    ColumnarEdgeTable,
    ColumnarWriter,
    open_table,
    parquet_available,
)
from repro.network.ingest.importers import IngestError, import_csv, import_dimacs

__all__ = [
    "ColumnarEdgeTable",
    "ColumnarWriter",
    "IngestError",
    "import_csv",
    "import_dimacs",
    "open_table",
    "parquet_available",
]
