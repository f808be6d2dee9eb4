"""Streaming importers: DIMACS ``.gr``/``.co`` and edge-list CSV -> columnar.

Both importers parse line by line, validate every row as it arrives, and
push fixed-size batches into a :class:`~.columnar.ColumnarWriter` -- the
transient footprint is O(chunk) python objects plus O(V) numpy scalars for
the node id/coordinate columns (which the CSR build needs whole anyway);
the edge list, which dominates continental inputs, is never resident.

Validation failures raise :class:`IngestError`, a ``ValueError`` whose
message starts with ``{path}:{line}`` so a bad row in a multi-gigabyte
download is directly addressable.  Checked per row:

* duplicate node ids (coordinate files and node CSVs),
* dangling endpoints (edges naming nodes outside the declared node set),
* weights breaking the weight rule ``0 < w < inf``
  (:mod:`repro.network.weights`): zero, negative, NaN or infinite,
* NaN or infinite coordinates.

DIMACS follows the 9th DIMACS Implementation Challenge conventions:
``p sp <n> <m>`` then ``a <u> <v> <w>`` arcs in ``.gr``, ``v <id> <x> <y>``
lines in ``.co``, node ids dense in ``1..n``.  The CSV form is positional:
``source,target,weight`` rows (node CSVs: ``id,x,y``), optional header
line, configurable delimiter.
"""

from __future__ import annotations

import csv
import math
import os
import pathlib
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.network.ingest.columnar import (
    DEFAULT_CHUNK_ROWS,
    ColumnarEdgeTable,
    ColumnarWriter,
)
from repro.network.weights import RULE, is_valid_weight

__all__ = ["IngestError", "import_dimacs", "import_csv"]

PathLike = Union[str, os.PathLike]


class IngestError(ValueError):
    """A malformed or invalid input row, located as ``{path}:{line}``."""

    def __init__(self, path: PathLike, line: Optional[int], message: str) -> None:
        location = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{location}: {message}")
        self.path = str(path)
        self.line = line


def _check_weight(path: PathLike, line: int, weight: float) -> float:
    if not is_valid_weight(weight):
        raise IngestError(path, line, f"weight {weight!r} {RULE}")
    return weight


def _check_coordinate(path: PathLike, line: int, value: float, axis: str) -> float:
    if not math.isfinite(value):
        raise IngestError(path, line, f"{axis} coordinate {value!r} is not finite")
    return value


# ----------------------------------------------------------------------
# DIMACS
# ----------------------------------------------------------------------
def _parse_co(path: PathLike, num_nodes: int):
    """Parse a ``.co`` coordinate file into dense ``x``/``y`` arrays."""
    xs = np.zeros(num_nodes, dtype=np.float64)
    ys = np.zeros(num_nodes, dtype=np.float64)
    seen = np.zeros(num_nodes + 1, dtype=bool)
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line[0] == "c":
                continue
            fields = line.split()
            if fields[0] == "p":
                try:
                    declared = int(fields[-1])
                except ValueError:
                    raise IngestError(path, line_number, f"malformed problem line {line!r}")
                if declared != num_nodes:
                    raise IngestError(
                        path,
                        line_number,
                        f"coordinate file declares {declared} nodes but the "
                        f"graph file declares {num_nodes}",
                    )
                continue
            if fields[0] != "v" or len(fields) != 4:
                raise IngestError(path, line_number, f"unrecognized line {line!r}")
            try:
                nid = int(fields[1])
                x = float(fields[2])
                y = float(fields[3])
            except ValueError:
                raise IngestError(path, line_number, f"malformed coordinate line {line!r}")
            if not 1 <= nid <= num_nodes:
                raise IngestError(
                    path, line_number, f"node id {nid} outside declared range 1..{num_nodes}"
                )
            if seen[nid]:
                raise IngestError(path, line_number, f"duplicate node id {nid}")
            seen[nid] = True
            xs[nid - 1] = _check_coordinate(path, line_number, x, "x")
            ys[nid - 1] = _check_coordinate(path, line_number, y, "y")
    return xs, ys


def import_dimacs(
    gr_path: PathLike,
    out_dir: PathLike,
    co_path: Optional[PathLike] = None,
    name: Optional[str] = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    use_parquet: bool = False,
) -> ColumnarEdgeTable:
    """Import a DIMACS ``.gr`` (plus optional ``.co``) into a columnar table.

    Node ids are the dense ``1..n`` range declared by the problem line;
    without a coordinate file every node sits at ``(0.0, 0.0)`` (spatial
    partitioners degrade, shortest paths are unaffected).  Arcs keep file
    order, which becomes the CSR adjacency order.
    """
    gr_path = pathlib.Path(gr_path)
    table_name = name or gr_path.stem
    num_nodes: Optional[int] = None
    num_arcs: Optional[int] = None
    writer: Optional[ColumnarWriter] = None
    src: List[int] = []
    dst: List[int] = []
    weights: List[float] = []
    arcs_seen = 0

    def flush_edges() -> None:
        nonlocal src, dst, weights
        if src and writer is not None:
            writer.append_edges(
                np.asarray(src, dtype=np.int64),
                np.asarray(dst, dtype=np.int64),
                np.asarray(weights, dtype=np.float64),
            )
            src, dst, weights = [], [], []

    with open(gr_path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line[0] == "c":
                continue
            fields = line.split()
            if fields[0] == "p":
                if num_nodes is not None:
                    raise IngestError(gr_path, line_number, "duplicate problem line")
                if len(fields) != 4 or fields[1] != "sp":
                    raise IngestError(
                        gr_path, line_number, f"unsupported problem line {line!r}"
                    )
                try:
                    num_nodes = int(fields[2])
                    num_arcs = int(fields[3])
                except ValueError:
                    raise IngestError(gr_path, line_number, f"malformed problem line {line!r}")
                if num_nodes < 0 or num_arcs < 0:
                    raise IngestError(
                        gr_path, line_number, "negative node or arc count"
                    )
                continue
            if fields[0] != "a":
                raise IngestError(gr_path, line_number, f"unrecognized line {line!r}")
            if num_nodes is None:
                raise IngestError(
                    gr_path, line_number, "arc line before the problem ('p sp') line"
                )
            if len(fields) != 4:
                raise IngestError(gr_path, line_number, f"malformed arc line {line!r}")
            try:
                u = int(fields[1])
                v = int(fields[2])
                w = float(fields[3])
            except ValueError:
                raise IngestError(gr_path, line_number, f"malformed arc line {line!r}")
            for endpoint in (u, v):
                if not 1 <= endpoint <= num_nodes:
                    raise IngestError(
                        gr_path,
                        line_number,
                        f"arc endpoint {endpoint} outside declared range "
                        f"1..{num_nodes} (dangling edge)",
                    )
            _check_weight(gr_path, line_number, w)
            if writer is None:
                # Nodes first: the table stores them in id order, the order
                # the CSR build sorts into anyway.
                if co_path is not None:
                    xs, ys = _parse_co(co_path, num_nodes)
                else:
                    xs = np.zeros(num_nodes, dtype=np.float64)
                    ys = np.zeros(num_nodes, dtype=np.float64)
                writer = ColumnarWriter(
                    out_dir, table_name, chunk_rows=chunk_rows, use_parquet=use_parquet
                )
                for start in range(0, num_nodes, chunk_rows):
                    stop = min(start + chunk_rows, num_nodes)
                    writer.append_nodes(
                        np.arange(start + 1, stop + 1, dtype=np.int64),
                        xs[start:stop],
                        ys[start:stop],
                    )
            src.append(u)
            dst.append(v)
            weights.append(w)
            arcs_seen += 1
            if len(src) >= chunk_rows:
                flush_edges()

    if num_nodes is None:
        raise IngestError(gr_path, None, "no problem ('p sp') line found")
    if writer is None:
        # A graph with zero arcs: still emit the node set.
        if co_path is not None:
            xs, ys = _parse_co(co_path, num_nodes)
        else:
            xs = np.zeros(num_nodes, dtype=np.float64)
            ys = np.zeros(num_nodes, dtype=np.float64)
        writer = ColumnarWriter(
            out_dir, table_name, chunk_rows=chunk_rows, use_parquet=use_parquet
        )
        for start in range(0, num_nodes, chunk_rows):
            stop = min(start + chunk_rows, num_nodes)
            writer.append_nodes(
                np.arange(start + 1, stop + 1, dtype=np.int64),
                xs[start:stop],
                ys[start:stop],
            )
    flush_edges()
    if num_arcs is not None and arcs_seen != num_arcs:
        raise IngestError(
            gr_path,
            None,
            f"problem line declares {num_arcs} arcs but the file holds {arcs_seen}",
        )
    return writer.finalize(
        source={
            "format": "dimacs-gr",
            "gr": str(gr_path),
            "co": str(co_path) if co_path is not None else None,
        }
    )


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
def _is_header(row: List[str]) -> bool:
    for field in row:
        try:
            float(field)
        except ValueError:
            return True
    return False


def _csv_rows(
    path: PathLike, delimiter: str, has_header: Optional[bool]
) -> Iterator[Tuple[int, List[str]]]:
    """Yield ``(line_number, fields)`` for data rows, skipping the header."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        header_decided = has_header is not None
        skip_header = bool(has_header)
        for row in reader:
            if not row or all(not field.strip() for field in row):
                continue
            fields = [field.strip() for field in row]
            if not header_decided:
                header_decided = True
                if _is_header(fields):
                    continue
            elif skip_header:
                skip_header = False
                continue
            yield reader.line_num, fields


def _parse_nodes_csv(
    path: PathLike, delimiter: str, has_header: Optional[bool], chunk_rows: int
):
    """Parse an ``id,x,y`` CSV into (sorted_ids, x_sorted, y_sorted) arrays."""
    ids: List[int] = []
    xs: List[float] = []
    ys: List[float] = []
    lines: List[int] = []
    chunks = []

    def flush() -> None:
        nonlocal ids, xs, ys, lines
        if ids:
            chunks.append(
                (
                    np.asarray(ids, dtype=np.int64),
                    np.asarray(xs, dtype=np.float64),
                    np.asarray(ys, dtype=np.float64),
                    np.asarray(lines, dtype=np.int64),
                )
            )
            ids, xs, ys, lines = [], [], [], []

    for line_number, fields in _csv_rows(path, delimiter, has_header):
        if len(fields) < 3:
            raise IngestError(path, line_number, f"expected id,x,y row, got {fields!r}")
        try:
            nid = int(fields[0])
            x = float(fields[1])
            y = float(fields[2])
        except ValueError:
            raise IngestError(path, line_number, f"malformed node row {fields!r}")
        _check_coordinate(path, line_number, x, "x")
        _check_coordinate(path, line_number, y, "y")
        ids.append(nid)
        xs.append(x)
        ys.append(y)
        lines.append(line_number)
        if len(ids) >= chunk_rows:
            flush()
    flush()
    if not chunks:
        raise IngestError(path, None, "no node rows found")
    all_ids = np.concatenate([c[0] for c in chunks])
    all_x = np.concatenate([c[1] for c in chunks])
    all_y = np.concatenate([c[2] for c in chunks])
    all_lines = np.concatenate([c[3] for c in chunks])
    order = np.argsort(all_ids, kind="stable")
    sorted_ids = all_ids[order]
    duplicate = np.nonzero(sorted_ids[1:] == sorted_ids[:-1])[0]
    if len(duplicate):
        # Report the *later* occurrence in file order, like the .co parser.
        position = duplicate[0] + 1
        culprit_lines = all_lines[order[[duplicate[0], position]]]
        raise IngestError(
            path,
            int(culprit_lines.max()),
            f"duplicate node id {int(sorted_ids[position])}",
        )
    return sorted_ids, all_x[order], all_y[order]


def import_csv(
    edges_path: PathLike,
    out_dir: PathLike,
    nodes_path: Optional[PathLike] = None,
    name: Optional[str] = None,
    delimiter: str = ",",
    has_header: Optional[bool] = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    use_parquet: bool = False,
) -> ColumnarEdgeTable:
    """Import a ``source,target,weight`` CSV into a columnar table.

    With ``nodes_path`` (an ``id,x,y`` CSV) the node set is explicit and
    every edge endpoint must be a declared node; without it the node set is
    the union of edge endpoints, each at coordinates ``(0.0, 0.0)``.
    ``has_header=None`` sniffs: a first row with any non-numeric field is
    treated as a header.  Edge file order becomes CSR adjacency order.
    """
    edges_path = pathlib.Path(edges_path)
    table_name = name or edges_path.stem
    writer = ColumnarWriter(
        out_dir, table_name, chunk_rows=chunk_rows, use_parquet=use_parquet
    )

    declared_ids = None
    if nodes_path is not None:
        declared_ids, node_x, node_y = _parse_nodes_csv(
            nodes_path, delimiter, has_header, chunk_rows
        )
        for start in range(0, len(declared_ids), chunk_rows):
            stop = min(start + chunk_rows, len(declared_ids))
            writer.append_nodes(
                declared_ids[start:stop], node_x[start:stop], node_y[start:stop]
            )

    seen_ids = np.empty(0, dtype=np.int64)
    src: List[int] = []
    dst: List[int] = []
    weights: List[float] = []
    lines: List[int] = []

    def flush() -> None:
        nonlocal src, dst, weights, lines, seen_ids
        if not src:
            return
        src_arr = np.asarray(src, dtype=np.int64)
        dst_arr = np.asarray(dst, dtype=np.int64)
        w_arr = np.asarray(weights, dtype=np.float64)
        line_arr = np.asarray(lines, dtype=np.int64)
        if declared_ids is not None:
            for endpoints in (src_arr, dst_arr):
                missing = ~np.isin(endpoints, declared_ids)
                if missing.any():
                    at = int(np.argmax(missing))
                    raise IngestError(
                        edges_path,
                        int(line_arr[at]),
                        f"edge endpoint {int(endpoints[at])} is not a "
                        "declared node (dangling edge)",
                    )
        else:
            seen_ids = np.union1d(seen_ids, np.concatenate([src_arr, dst_arr]))
        writer.append_edges(src_arr, dst_arr, w_arr)
        src, dst, weights, lines = [], [], [], []

    for line_number, fields in _csv_rows(edges_path, delimiter, has_header):
        if len(fields) < 3:
            raise IngestError(
                edges_path, line_number, f"expected source,target,weight row, got {fields!r}"
            )
        try:
            u = int(fields[0])
            v = int(fields[1])
            w = float(fields[2])
        except ValueError:
            raise IngestError(edges_path, line_number, f"malformed edge row {fields!r}")
        _check_weight(edges_path, line_number, w)
        src.append(u)
        dst.append(v)
        weights.append(w)
        lines.append(line_number)
        if len(src) >= chunk_rows:
            flush()
    flush()

    if declared_ids is None:
        # Implied node set: endpoints at origin coordinates, id order.
        for start in range(0, len(seen_ids), chunk_rows):
            stop = min(start + chunk_rows, len(seen_ids))
            block = seen_ids[start:stop]
            zeros = np.zeros(len(block), dtype=np.float64)
            writer.append_nodes(block, zeros, zeros)

    return writer.finalize(
        source={
            "format": "csv",
            "edges": str(edges_path),
            "nodes": str(nodes_path) if nodes_path is not None else None,
            "delimiter": delimiter,
        }
    )
