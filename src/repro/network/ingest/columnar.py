"""Columnar on-disk edge tables for continental-scale road networks.

A :class:`ColumnarEdgeTable` is a directory of fixed-schema column chunks
plus a ``manifest.json``::

    <dir>/
        manifest.json            counts, chunk list, content fingerprint
        nodes-00000.npz          ids: int64, x: float64, y: float64
        edges-00000.npz          src: int64, dst: int64, w: float64
        ...

Chunks are uncompressed ``.npz`` archives by default so on-disk bytes map
1:1 onto the in-memory arrays; when :mod:`pyarrow` is importable the writer
can emit ``.parquet`` chunks instead (same schema, better compression and
ecosystem interop).  Readers dispatch on the chunk file suffix, so a table
written with Parquet round-trips on any host that also has pyarrow, while
the ``.npz`` form needs only numpy.

Everything streams: the writer buffers at most ``chunk_rows`` rows before
flushing a chunk, and :meth:`ColumnarEdgeTable.iter_edge_chunks` yields one
chunk's arrays at a time -- O(chunk) transient memory regardless of table
size.  The manifest carries the same 128-bit multiset *network fingerprint*
:meth:`repro.network.graph.RoadNetwork.fingerprint` would compute over the
identical nodes and edges, so artifacts built from a columnar table key
into the engine and store caches interchangeably with dict-built networks.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.network.graph import _FINGERPRINT_MOD, RoadNetwork, _element_hash
from repro.network.weights import check_weights

__all__ = [
    "ColumnarEdgeTable",
    "ColumnarWriter",
    "open_table",
    "parquet_available",
]

#: Manifest schema identifier; bump on incompatible layout changes.
FORMAT = "repro-columnar-v1"

#: Default writer buffer: rows held in memory before a chunk is flushed.
DEFAULT_CHUNK_ROWS = 250_000

_MANIFEST = "manifest.json"


def parquet_available() -> bool:
    """Whether the optional Parquet chunk codec can be used on this host."""
    try:
        import pyarrow.parquet  # noqa: F401
    except ImportError:
        return False
    return True


def _write_chunk(path: pathlib.Path, columns: Dict[str, Any], use_parquet: bool) -> None:
    if use_parquet:
        import pyarrow
        import pyarrow.parquet

        table = pyarrow.table({name: pyarrow.array(col) for name, col in columns.items()})
        pyarrow.parquet.write_table(table, path)
        return
    # Uncompressed on purpose: the file is then byte-commensurate with the
    # arrays it holds, which is what the ingest benchmark's "CSR build peak
    # stays under 2x the columnar bytes" assertion measures against.
    np.savez(path, **columns)


def _read_chunk(path: pathlib.Path, names: Tuple[str, ...]):
    if path.suffix == ".parquet":
        import pyarrow.parquet

        table = pyarrow.parquet.read_table(path, columns=list(names))
        return tuple(np.ascontiguousarray(table.column(n).to_numpy()) for n in names)
    with np.load(path) as archive:
        return tuple(np.ascontiguousarray(archive[n]) for n in names)


def _sha256_file(path: pathlib.Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class ColumnarWriter:
    """Streaming writer for one :class:`ColumnarEdgeTable` directory.

    Importers push validated rows through :meth:`append_nodes` /
    :meth:`append_edges` in arrival order; the writer buffers up to
    ``chunk_rows`` rows per stream, flushes full chunks to disk, and folds
    every row into the running multiset fingerprint.  :meth:`finalize`
    writes the manifest and returns the opened table.

    Edge order across chunks is the append order -- the importer feeds file
    order, which is exactly the adjacency order
    :meth:`CSRGraph.from_columnar` must reproduce for bit-identity with a
    dict-built network.
    """

    def __init__(
        self,
        directory,
        name: str,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        use_parquet: bool = False,
    ) -> None:
        if chunk_rows <= 0:
            raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
        if use_parquet and not parquet_available():
            raise RuntimeError(
                "parquet chunk format requested but pyarrow is not "
                "installed; omit use_parquet to write .npz chunks"
            )
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.name = name
        self.chunk_rows = int(chunk_rows)
        self.use_parquet = use_parquet
        self._suffix = ".parquet" if use_parquet else ".npz"
        self._node_buffer: List[Tuple[Any, Any, Any]] = []
        self._edge_buffer: List[Tuple[Any, Any, Any]] = []
        self._node_buffered = 0
        self._edge_buffered = 0
        self._node_chunks: List[Dict[str, Any]] = []
        self._edge_chunks: List[Dict[str, Any]] = []
        self.num_nodes = 0
        self.num_edges = 0
        self._fingerprint_sum = 0
        self._finalized = False

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append_nodes(self, ids, xs, ys) -> None:
        """Append one batch of node rows (arrival order is preserved)."""
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        if not (len(ids) == len(xs) == len(ys)):
            raise ValueError("node column lengths disagree")
        if not len(ids):
            return
        self._fold_nodes(ids, xs, ys)
        self.num_nodes += len(ids)
        self._node_buffer.append((ids, xs, ys))
        self._node_buffered += len(ids)
        if self._node_buffered >= self.chunk_rows:
            self._flush_nodes()

    def append_edges(self, src, dst, weights) -> None:
        """Append one batch of edge rows (arrival order is adjacency order).

        Raises ``ValueError``, naming the edge row, for a weight that is not
        positive and finite; nothing of the batch is appended then.
        """
        src = np.ascontiguousarray(src, dtype=np.int64)
        dst = np.ascontiguousarray(dst, dtype=np.int64)
        weights = np.ascontiguousarray(weights, dtype=np.float64)
        if not (len(src) == len(dst) == len(weights)):
            raise ValueError("edge column lengths disagree")
        if not len(src):
            return
        check_weights(weights, "edge row", self.num_edges)
        self._fold_edges(src, dst, weights)
        self.num_edges += len(src)
        self._edge_buffer.append((src, dst, weights))
        self._edge_buffered += len(src)
        if self._edge_buffered >= self.chunk_rows:
            self._flush_edges()

    # ------------------------------------------------------------------
    # Fingerprint folding (RoadNetwork's element encoding)
    # ------------------------------------------------------------------
    def _fold_nodes(self, ids, xs, ys) -> None:
        element = RoadNetwork._node_element
        total = self._fingerprint_sum
        for row in zip(ids.tolist(), xs.tolist(), ys.tolist()):
            total += _element_hash(element(*row))
        self._fingerprint_sum = total % _FINGERPRINT_MOD

    def _fold_edges(self, src, dst, weights) -> None:
        element = RoadNetwork._edge_element
        total = self._fingerprint_sum
        for row in zip(src.tolist(), dst.tolist(), weights.tolist()):
            total += _element_hash(element(*row))
        self._fingerprint_sum = total % _FINGERPRINT_MOD

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def _concat(self, buffer):
        if len(buffer) == 1:
            return buffer[0]
        return tuple(np.concatenate(parts) for parts in zip(*buffer))

    def _flush_nodes(self) -> None:
        if not self._node_buffer:
            return
        ids, xs, ys = self._concat(self._node_buffer)
        file_name = f"nodes-{len(self._node_chunks):05d}{self._suffix}"
        path = self.directory / file_name
        _write_chunk(path, {"ids": ids, "x": xs, "y": ys}, self.use_parquet)
        self._node_chunks.append(
            {"file": file_name, "rows": int(len(ids)), "sha256": _sha256_file(path)}
        )
        self._node_buffer = []
        self._node_buffered = 0

    def _flush_edges(self) -> None:
        if not self._edge_buffer:
            return
        src, dst, weights = self._concat(self._edge_buffer)
        file_name = f"edges-{len(self._edge_chunks):05d}{self._suffix}"
        path = self.directory / file_name
        _write_chunk(path, {"src": src, "dst": dst, "w": weights}, self.use_parquet)
        self._edge_chunks.append(
            {"file": file_name, "rows": int(len(src)), "sha256": _sha256_file(path)}
        )
        self._edge_buffer = []
        self._edge_buffered = 0

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------
    def finalize(self, source: Optional[Dict[str, Any]] = None) -> "ColumnarEdgeTable":
        """Flush remaining buffers, write the manifest, and open the table."""
        if self._finalized:
            raise RuntimeError("writer already finalized")
        self._flush_nodes()
        self._flush_edges()
        manifest = {
            "format": FORMAT,
            "name": self.name,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "chunk_rows": self.chunk_rows,
            "chunk_format": "parquet" if self.use_parquet else "npz",
            "fingerprint": f"{self._fingerprint_sum:032x}",
            "node_chunks": self._node_chunks,
            "edge_chunks": self._edge_chunks,
            "source": source or {},
        }
        # Write-then-rename so a crashed import never leaves a directory
        # that parses as a complete table.
        staging = self.directory / f".{_MANIFEST}.{os.getpid()}.tmp"
        staging.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        os.replace(staging, self.directory / _MANIFEST)
        self._finalized = True
        return ColumnarEdgeTable(self.directory)


class ColumnarEdgeTable:
    """Read access to one columnar edge-table directory (see module doc)."""

    def __init__(self, directory) -> None:
        self.directory = pathlib.Path(directory)
        manifest_path = self.directory / _MANIFEST
        try:
            manifest = json.loads(manifest_path.read_text())
        except FileNotFoundError:
            raise FileNotFoundError(
                f"{self.directory} is not a columnar edge table (no {_MANIFEST})"
            ) from None
        if manifest.get("format") != FORMAT:
            raise ValueError(
                f"{manifest_path}: unsupported table format "
                f"{manifest.get('format')!r} (expected {FORMAT!r})"
            )
        if manifest.get("chunk_format") == "parquet" and not parquet_available():
            raise RuntimeError(
                f"{self.directory} stores parquet chunks but pyarrow is not "
                "installed; re-import without --parquet on this host"
            )
        self.manifest: Dict[str, Any] = manifest
        self.name: str = manifest["name"]
        self.num_nodes: int = int(manifest["num_nodes"])
        self.num_edges: int = int(manifest["num_edges"])
        #: 128-bit multiset fingerprint, identical to what a
        #: :class:`RoadNetwork` holding the same rows would report.
        self.fingerprint: str = manifest["fingerprint"]

    # ------------------------------------------------------------------
    # Chunk iteration
    # ------------------------------------------------------------------
    def _chunk_paths(self, kind: str) -> List[pathlib.Path]:
        return [self.directory / chunk["file"] for chunk in self.manifest[kind]]

    def iter_node_chunks(self) -> Iterator[Tuple[Any, Any, Any]]:
        """Yield ``(ids, x, y)`` arrays, one tuple per node chunk."""
        for path in self._chunk_paths("node_chunks"):
            yield _read_chunk(path, ("ids", "x", "y"))

    def iter_edge_chunks(self) -> Iterator[Tuple[Any, Any, Any]]:
        """Yield ``(src, dst, w)`` arrays in table (= adjacency) order."""
        for path in self._chunk_paths("edge_chunks"):
            yield _read_chunk(path, ("src", "dst", "w"))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def total_bytes(self) -> int:
        """On-disk size of all chunk files (the manifest is excluded)."""
        return sum(
            path.stat().st_size
            for kind in ("node_chunks", "edge_chunks")
            for path in self._chunk_paths(kind)
        )

    def verify(self) -> None:
        """Re-hash every chunk file against the manifest; raise on mismatch."""
        for kind in ("node_chunks", "edge_chunks"):
            for chunk in self.manifest[kind]:
                path = self.directory / chunk["file"]
                actual = _sha256_file(path)
                if actual != chunk["sha256"]:
                    raise ValueError(
                        f"{path}: content hash {actual} does not match "
                        f"manifest ({chunk['sha256']}); the chunk was "
                        "modified or corrupted after import"
                    )

    def stats(self) -> Dict[str, Any]:
        """Summary counters for CLI reporting."""
        return {
            "name": self.name,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "fingerprint": self.fingerprint,
            "chunk_format": self.manifest.get("chunk_format", "npz"),
            "node_chunks": len(self.manifest["node_chunks"]),
            "edge_chunks": len(self.manifest["edge_chunks"]),
            "bytes": self.total_bytes(),
        }

    # ------------------------------------------------------------------
    # Materialization (small tables / reference comparisons)
    # ------------------------------------------------------------------
    def to_network(self, name: Optional[str] = None):
        """Build a mutable :class:`RoadNetwork` row by row -- O(V + E) objects.

        Intended for tests and sampled-subgraph comparisons; continental
        tables should go through
        :meth:`~repro.network.graph.RoadNetwork.from_table` instead.
        """
        network = RoadNetwork(name=name or self.name)
        for ids, xs, ys in self.iter_node_chunks():
            for nid, x, y in zip(ids.tolist(), xs.tolist(), ys.tolist()):
                network.add_node(nid, x, y)
        for src, dst, weights in self.iter_edge_chunks():
            for s, t, w in zip(src.tolist(), dst.tolist(), weights.tolist()):
                network.add_edge(s, t, w)
        network.clear_delta()
        return network

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ColumnarEdgeTable(dir={str(self.directory)!r}, "
            f"nodes={self.num_nodes}, edges={self.num_edges})"
        )


def open_table(directory) -> ColumnarEdgeTable:
    """Open an existing columnar edge table directory."""
    return ColumnarEdgeTable(directory)
