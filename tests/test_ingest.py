"""Tests for the ingestion pipeline (repro.network.ingest).

Covers the streaming importers (DIMACS ``.gr``/``.co`` and edge-list CSV),
the columnar on-disk edge table, the dict-free CSR build path, the
read-only ``RoadNetwork.from_table`` network, the engine/CLI entry points,
and -- the strongest check -- a golden-trace replay: the generator's
120-node golden network, round-tripped through CSV export -> columnar
import -> ``from_table``, must reproduce the stored NR broadcast session
byte for byte.
"""

from __future__ import annotations

import io
import json
import random

import pytest

from oracles.dict_network import compile_csr
from oracles.dijkstra import dijkstra_distances, dijkstra_search
from repro.cli import main as cli_main
from repro.engine.system import AirSystem
from repro.network.algorithms import kernel
from repro.network.csr import CSRGraph, ImmutableSnapshotError
from repro.network.generators import GeneratorConfig, generate_road_network
from repro.network.graph import RoadNetwork
from repro.network.ingest import (
    IngestError,
    import_csv,
    import_dimacs,
    open_table,
    parquet_available,
)
from test_properties_kernel import assert_settled_scope

TINY_GR = """\
c tiny five-node network
p sp 5 7
a 1 2 3
a 2 3 4
a 3 4 1
a 4 5 2
a 5 1 6
a 1 3 9
a 2 5 5
"""

TINY_CO = """\
p aux sp co 5
v 1 0 0
v 2 10 0
v 3 10 10
v 4 0 10
v 5 5 5
"""

TINY_EDGES = [
    (1, 2, 3.0),
    (2, 3, 4.0),
    (3, 4, 1.0),
    (4, 5, 2.0),
    (5, 1, 6.0),
    (1, 3, 9.0),
    (2, 5, 5.0),
]


@pytest.fixture()
def tiny_dimacs(tmp_path):
    gr = tmp_path / "tiny.gr"
    co = tmp_path / "tiny.co"
    gr.write_text(TINY_GR)
    co.write_text(TINY_CO)
    return gr, co


def _write_csv_pair(tmp_path, network):
    """Export a dict network as node/edge CSVs in deterministic order."""
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.csv"
    with nodes.open("w") as handle:
        handle.write("id,x,y\n")
        for node in network.nodes():
            handle.write(f"{node.node_id},{node.x!r},{node.y!r}\n")
    with edges.open("w") as handle:
        handle.write("source,target,weight\n")
        for edge in network.edges():
            handle.write(f"{edge.source},{edge.target},{edge.weight!r}\n")
    return nodes, edges


# ----------------------------------------------------------------------
# DIMACS importer
# ----------------------------------------------------------------------
class TestDimacsImport:
    def test_counts_coordinates_and_edge_order(self, tiny_dimacs, tmp_path):
        gr, co = tiny_dimacs
        table = import_dimacs(gr, tmp_path / "table", co_path=co)
        stats = table.stats()
        assert stats["num_nodes"] == 5
        assert stats["num_edges"] == 7
        network = table.to_network()
        assert network.coordinates(2) == (10.0, 0.0)
        assert network.coordinates(5) == (5.0, 5.0)
        # Arcs keep file order inside each node's adjacency.
        assert network.neighbors(1) == [(2, 3.0), (3, 9.0)]
        assert network.neighbors(2) == [(3, 4.0), (5, 5.0)]

    def test_without_coordinate_file_nodes_sit_at_origin(self, tiny_dimacs, tmp_path):
        gr, _ = tiny_dimacs
        table = import_dimacs(gr, tmp_path / "table")
        network = table.to_network()
        assert all(network.coordinates(nid) == (0.0, 0.0) for nid in network.node_ids())
        assert network.num_edges == 7

    def test_fingerprint_matches_dict_network(self, tiny_dimacs, tmp_path):
        gr, co = tiny_dimacs
        table = import_dimacs(gr, tmp_path / "table", co_path=co)
        assert table.fingerprint == table.to_network().fingerprint()

    def test_reimport_is_deterministic(self, tiny_dimacs, tmp_path):
        gr, co = tiny_dimacs
        first = import_dimacs(gr, tmp_path / "a", co_path=co)
        second = import_dimacs(gr, tmp_path / "b", co_path=co)
        assert first.fingerprint == second.fingerprint

    def test_small_chunks_split_files_and_preserve_content(self, tiny_dimacs, tmp_path):
        gr, co = tiny_dimacs
        table = import_dimacs(gr, tmp_path / "table", co_path=co, chunk_rows=2)
        stats = table.stats()
        assert stats["node_chunks"] == 3
        assert stats["edge_chunks"] == 4
        edges = [
            (int(u), int(v), float(w))
            for src, dst, weights in table.iter_edge_chunks()
            for u, v, w in zip(src, dst, weights)
        ]
        assert edges == TINY_EDGES

    def test_zero_arc_graph_still_emits_nodes(self, tmp_path):
        gr = tmp_path / "lonely.gr"
        gr.write_text("p sp 3 0\n")
        table = import_dimacs(gr, tmp_path / "table")
        assert table.stats()["num_nodes"] == 3
        assert table.stats()["num_edges"] == 0

    def test_gzip_transparent_via_cli_format_inference(self, tiny_dimacs, tmp_path):
        gr, co = tiny_dimacs
        buffer = io.StringIO()
        code = cli_main(
            [
                "ingest",
                "--edges",
                str(gr),
                "--nodes",
                str(co),
                "--out",
                str(tmp_path / "table"),
            ],
            out=buffer,
        )
        assert code == 0
        assert "nodes" in buffer.getvalue()
        assert open_table(tmp_path / "table").stats()["num_nodes"] == 5


class TestDimacsMalformed:
    @pytest.mark.parametrize(
        "content, line",
        [
            ("p sp 5 1\np sp 5 1\na 1 2 3\n", 2),  # duplicate problem line
            ("a 1 2 3\n", 1),  # arc before the problem line
            ("p max 5 1\na 1 2 3\n", 1),  # unsupported problem kind
            ("p sp five 1\n", 1),  # non-integer counts
            ("p sp -5 1\n", 1),  # negative counts
            ("p sp 5 1\na 1 2\n", 2),  # short arc line
            ("p sp 5 1\na 1 two 3\n", 2),  # non-numeric arc field
            ("p sp 5 1\na 1 9 3\n", 2),  # endpoint out of range
            ("p sp 5 1\na 0 2 3\n", 2),  # endpoint below range
            ("p sp 5 1\na 1 2 0\n", 2),  # zero weight
            ("p sp 5 1\na 1 2 -4\n", 2),  # negative weight
            ("p sp 5 1\na 1 2 nan\n", 2),  # non-finite weight
            ("p sp 5 1\nq 1 2 3\n", 2),  # unrecognized line kind
        ],
    )
    def test_bad_gr_lines_are_located(self, tmp_path, content, line):
        gr = tmp_path / "bad.gr"
        gr.write_text(content)
        with pytest.raises(IngestError, match=f"bad.gr:{line}"):
            import_dimacs(gr, tmp_path / "table")

    def test_missing_problem_line(self, tmp_path):
        gr = tmp_path / "empty.gr"
        gr.write_text("c nothing here\n")
        with pytest.raises(IngestError, match="no problem"):
            import_dimacs(gr, tmp_path / "table")

    def test_arc_count_mismatch(self, tmp_path):
        gr = tmp_path / "short.gr"
        gr.write_text("p sp 3 2\na 1 2 3\n")
        with pytest.raises(IngestError, match="declares 2 arcs but the file holds 1"):
            import_dimacs(gr, tmp_path / "table")

    @pytest.mark.parametrize(
        "co_content, line",
        [
            ("p aux sp co 9\nv 1 0 0\n", 1),  # node count disagrees with .gr
            ("v 1 0 0\nv 1 1 1\n", 2),  # duplicate node id
            ("v 9 0 0\n", 1),  # id outside declared range
            ("v 1 0\n", 1),  # short coordinate line
            ("v 1 x 0\n", 1),  # non-numeric coordinate
            ("v 1 inf 0\n", 1),  # non-finite coordinate
        ],
    )
    def test_bad_co_lines_are_located(self, tmp_path, co_content, line):
        gr = tmp_path / "ok.gr"
        gr.write_text("p sp 5 1\na 1 2 3\n")
        co = tmp_path / "bad.co"
        co.write_text(co_content)
        with pytest.raises(IngestError, match=f"bad.co:{line}"):
            import_dimacs(gr, tmp_path / "table", co_path=co)


# ----------------------------------------------------------------------
# CSV importer
# ----------------------------------------------------------------------
class TestCsvImport:
    def test_edges_only_implies_node_set_at_origin(self, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("source,target,weight\n7,3,2.5\n3,9,1.0\n9,7,4.0\n")
        table = import_csv(edges, tmp_path / "table")
        network = table.to_network()
        assert network.node_ids() == [3, 7, 9]
        assert network.coordinates(7) == (0.0, 0.0)
        assert network.edge_weight(7, 3) == 2.5

    def test_declared_nodes_carry_coordinates(self, tmp_path):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("id,x,y\n1,0.5,1.5\n2,2.0,3.0\n")
        edges = tmp_path / "edges.csv"
        edges.write_text("source,target,weight\n1,2,1.25\n")
        table = import_csv(edges, tmp_path / "table", nodes_path=nodes)
        network = table.to_network()
        assert network.coordinates(1) == (0.5, 1.5)
        assert network.edge_weight(1, 2) == 1.25

    def test_header_sniffing_and_explicit_override(self, tmp_path):
        bare = tmp_path / "bare.csv"
        bare.write_text("1,2,3.0\n2,1,4.0\n")
        assert import_csv(bare, tmp_path / "a").stats()["num_edges"] == 2
        headed = tmp_path / "headed.csv"
        headed.write_text("source,target,weight\n1,2,3.0\n")
        assert (
            import_csv(headed, tmp_path / "b", has_header=True).stats()["num_edges"] == 1
        )

    def test_custom_delimiter(self, tmp_path):
        edges = tmp_path / "edges.ssv"
        edges.write_text("source;target;weight\n1;2;3.0\n")
        table = import_csv(edges, tmp_path / "table", delimiter=";")
        assert table.stats()["num_edges"] == 1

    def test_fingerprint_matches_dict_network(self, tmp_path):
        network = generate_road_network(
            GeneratorConfig(num_nodes=40, num_edges=90, seed=11)
        )
        nodes, edges = _write_csv_pair(tmp_path, network)
        table = import_csv(edges, tmp_path / "table", nodes_path=nodes)
        assert table.fingerprint == network.fingerprint()


class TestCsvMalformed:
    @pytest.mark.parametrize(
        "content, line",
        [
            ("source,target,weight\n1,2\n", 2),  # short row
            ("source,target,weight\n1,x,3.0\n", 2),  # non-numeric field
            ("source,target,weight\n1,2,0.0\n", 2),  # zero weight
            ("source,target,weight\n1,2,-1.0\n", 2),  # negative weight
            ("source,target,weight\n1,2,inf\n", 2),  # non-finite weight
        ],
    )
    def test_bad_edge_rows_are_located(self, tmp_path, content, line):
        edges = tmp_path / "bad.csv"
        edges.write_text(content)
        with pytest.raises(IngestError, match=f"bad.csv:{line}"):
            import_csv(edges, tmp_path / "table")

    def test_dangling_edge_against_declared_nodes(self, tmp_path):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("id,x,y\n1,0,0\n2,1,1\n")
        edges = tmp_path / "edges.csv"
        edges.write_text("source,target,weight\n1,2,1.0\n1,5,2.0\n")
        with pytest.raises(IngestError, match="edges.csv:3.*dangling"):
            import_csv(edges, tmp_path / "table", nodes_path=nodes)

    @pytest.mark.parametrize(
        "content, line",
        [
            ("id,x,y\n1,0\n", 2),  # short row
            ("id,x,y\n1,a,0\n", 2),  # non-numeric coordinate
            ("id,x,y\n1,nan,0\n", 2),  # non-finite coordinate
            ("id,x,y\n1,0,0\n1,1,1\n", 3),  # duplicate id (later row blamed)
        ],
    )
    def test_bad_node_rows_are_located(self, tmp_path, content, line):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text(content)
        edges = tmp_path / "edges.csv"
        edges.write_text("source,target,weight\n1,1,1.0\n")
        with pytest.raises(IngestError, match=f"nodes.csv:{line}"):
            import_csv(edges, tmp_path / "table", nodes_path=nodes)

    def test_empty_node_file_rejected(self, tmp_path):
        nodes = tmp_path / "nodes.csv"
        nodes.write_text("id,x,y\n")
        edges = tmp_path / "edges.csv"
        edges.write_text("source,target,weight\n1,2,1.0\n")
        with pytest.raises(IngestError, match="no node rows"):
            import_csv(edges, tmp_path / "table", nodes_path=nodes)


# ----------------------------------------------------------------------
# Columnar table
# ----------------------------------------------------------------------
class TestColumnarTable:
    def test_open_table_round_trip(self, tiny_dimacs, tmp_path):
        gr, co = tiny_dimacs
        written = import_dimacs(gr, tmp_path / "table", co_path=co, name="tiny")
        reopened = open_table(tmp_path / "table")
        assert reopened.name == "tiny"
        assert reopened.stats() == written.stats()
        assert reopened.total_bytes() == written.total_bytes()

    def test_verify_passes_then_catches_corruption(self, tiny_dimacs, tmp_path):
        gr, co = tiny_dimacs
        table = import_dimacs(gr, tmp_path / "table", co_path=co)
        table.verify()
        chunk = next((tmp_path / "table").glob("edges-*"))
        blob = bytearray(chunk.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        chunk.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="does not match manifest"):
            open_table(tmp_path / "table").verify()

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            open_table(tmp_path / "nowhere")

    def test_parquet_gating(self, tiny_dimacs, tmp_path):
        gr, co = tiny_dimacs
        if parquet_available():
            table = import_dimacs(
                gr, tmp_path / "table", co_path=co, use_parquet=True
            )
            assert table.stats()["num_edges"] == 7
        else:
            with pytest.raises(RuntimeError, match="pyarrow"):
                import_dimacs(gr, tmp_path / "table", co_path=co, use_parquet=True)


# ----------------------------------------------------------------------
# Dict-free CSR build
# ----------------------------------------------------------------------
class TestCSRFromColumnar:
    def _assert_identical(self, got: CSRGraph, want: CSRGraph) -> None:
        for field in (
            "ids",
            "fwd_offsets",
            "fwd_targets",
            "fwd_weights",
            "rev_offsets",
            "rev_targets",
            "rev_weights",
        ):
            assert list(getattr(got, field)) == list(getattr(want, field)), field

    def test_bit_identical_to_dict_build_dimacs(self, tiny_dimacs, tmp_path):
        gr, co = tiny_dimacs
        table = import_dimacs(gr, tmp_path / "table", co_path=co, chunk_rows=2)
        self._assert_identical(
            CSRGraph.from_columnar(table), compile_csr(table.to_network())
        )

    def test_bit_identical_to_dict_build_sparse_ids(self, tmp_path):
        # Non-contiguous node ids exercise the searchsorted locate path.
        edges = tmp_path / "edges.csv"
        edges.write_text(
            "source,target,weight\n100,7,1.0\n7,4000,2.0\n4000,100,3.0\n100,4000,4.0\n"
        )
        table = import_csv(edges, tmp_path / "table", chunk_rows=2)
        self._assert_identical(
            CSRGraph.from_columnar(table), compile_csr(table.to_network())
        )

    def test_edgeless_table_builds(self, tmp_path):
        gr = tmp_path / "lonely.gr"
        gr.write_text("p sp 2 0\n")
        csr = CSRGraph.from_columnar(import_dimacs(gr, tmp_path / "table"))
        assert csr.num_nodes == 2
        assert csr.num_edges == 0
        assert list(csr.fwd_offsets) == [0, 0, 0]

    def test_duplicate_node_ids_rejected(self, tmp_path):
        # Hand-roll a broken table: two node chunks declaring the same id.
        from repro.network.ingest.columnar import ColumnarWriter
        import numpy as np

        writer = ColumnarWriter(tmp_path / "table", "dup")
        writer.append_nodes(
            np.asarray([1, 2], dtype=np.int64),
            np.zeros(2),
            np.zeros(2),
        )
        writer.append_nodes(np.asarray([2], dtype=np.int64), np.zeros(1), np.zeros(1))
        table = writer.finalize()
        with pytest.raises(ValueError, match="duplicate node ids"):
            CSRGraph.from_columnar(table)

    def test_ids_hand_back_plain_ints(self, tiny_dimacs, tmp_path):
        gr, co = tiny_dimacs
        csr = CSRGraph.from_columnar(import_dimacs(gr, tmp_path / "table", co_path=co))
        assert list(csr.ids) == [1, 2, 3, 4, 5]
        assert isinstance(csr.ids[0], int)
        assert csr.index_of[3] == 2


# ----------------------------------------------------------------------
# RoadNetwork.from_table: a read-only network over the table's arrays
# ----------------------------------------------------------------------
class TestColumnarNetworkFacade:
    @pytest.fixture()
    def pair(self, tmp_path):
        network = generate_road_network(
            GeneratorConfig(num_nodes=60, num_edges=140, seed=23)
        )
        network.clear_delta()
        nodes, edges = _write_csv_pair(tmp_path, network)
        table = import_csv(edges, tmp_path / "table", nodes_path=nodes, chunk_rows=16)
        return RoadNetwork.from_table(table), network

    def test_read_api_matches_dict_network(self, pair):
        facade, network = pair
        assert facade.num_nodes == network.num_nodes
        assert facade.num_edges == network.num_edges
        assert facade.node_ids() == sorted(network.node_ids())
        assert facade.bounding_box() == network.bounding_box()
        for nid in network.node_ids():
            assert facade.coordinates(nid) == network.coordinates(nid)
            assert facade.neighbors(nid) == network.neighbors(nid)
            assert facade.out_degree(nid) == network.out_degree(nid)
            assert facade.in_degree(nid) == network.in_degree(nid)
        assert facade.fingerprint() == network.fingerprint()

    def test_mutation_is_refused(self, pair):
        facade, _ = pair
        for attempt in (
            lambda: facade.add_node(999, 0.0, 0.0),
            lambda: facade.add_edge(1, 2, 1.0),
            lambda: facade.remove_edge(1, 2),
            lambda: facade.update_edge_weight(1, 2, 5.0),
        ):
            with pytest.raises(ImmutableSnapshotError, match="immutable"):
                attempt()

    def test_to_network_materializes_equal_dict_copy(self, pair):
        facade, network = pair
        copy = facade.copy()
        assert copy.fingerprint() == network.fingerprint()
        copy.update_edge_weight(*_first_edge(copy), 123.0)  # mutable again

    def test_searches_match_dict_reference(self, pair):
        facade, network = pair
        rng = random.Random(5)
        ids = facade.node_ids()
        arena = kernel.arena_for(facade.ensure_csr())
        for _ in range(8):
            source, target = rng.choice(ids), rng.choice(ids)
            for reverse in (False, True):
                want = dijkstra_search(network, source, target=target, reverse=reverse)
                got = arena.point_to_point(source, target, reverse=reverse)
                assert got.distance_to(target) == want.distance_to(target)
                assert_settled_scope(got, want)
        for source in rng.sample(ids, 3):
            want = dijkstra_distances(network, source)
            got = arena.sssp(source)
            assert got.distances_dict() == want.distances
            assert got.predecessors_dict() == want.predecessors


def _first_edge(network):
    edge = next(iter(network.edges()))
    return edge.source, edge.target


# ----------------------------------------------------------------------
# Engine + CLI entry points
# ----------------------------------------------------------------------
class TestEngineAndCli:
    def test_air_system_from_columnar_answers_like_dict_system(self, tmp_path):
        network = generate_road_network(
            GeneratorConfig(num_nodes=50, num_edges=120, seed=9)
        )
        network.clear_delta()
        nodes, edges = _write_csv_pair(tmp_path, network)
        import_csv(edges, tmp_path / "table", nodes_path=nodes)
        columnar = AirSystem.from_columnar(tmp_path / "table")
        direct = AirSystem(network)
        rng = random.Random(3)
        ids = network.node_ids()
        for _ in range(4):
            source, target = rng.choice(ids), rng.choice(ids)
            got = columnar.query("DJ", source, target)
            want = direct.query("DJ", source, target)
            assert got.distance == want.distance
            assert got.found == want.found

    def test_cli_ingest_smoke_with_build(self, tiny_dimacs, tmp_path):
        gr, co = tiny_dimacs
        buffer = io.StringIO()
        code = cli_main(
            [
                "ingest",
                "--edges",
                str(gr),
                "--nodes",
                str(co),
                "--out",
                str(tmp_path / "table"),
                "--build",
            ],
            out=buffer,
        )
        output = buffer.getvalue()
        assert code == 0
        assert "sanity query" in output or "build" in output
        assert open_table(tmp_path / "table").stats()["num_edges"] == 7

    def test_cli_ingest_csv_format(self, tmp_path):
        edges = tmp_path / "edges.csv"
        edges.write_text("source,target,weight\n1,2,3.0\n2,1,4.0\n")
        buffer = io.StringIO()
        code = cli_main(
            [
                "ingest",
                "--edges",
                str(edges),
                "--format",
                "csv",
                "--out",
                str(tmp_path / "table"),
            ],
            out=buffer,
        )
        assert code == 0
        assert open_table(tmp_path / "table").stats()["num_edges"] == 2

    def test_cli_ingest_reports_malformed_input(self, tmp_path, capsys):
        gr = tmp_path / "bad.gr"
        gr.write_text("p sp 2 1\na 1 9 3\n")
        buffer = io.StringIO()
        code = cli_main(
            ["ingest", "--edges", str(gr), "--out", str(tmp_path / "table")],
            out=buffer,
        )
        assert code == 1
        assert buffer.getvalue() == ""
        err = capsys.readouterr().err
        assert err.startswith("ingest error: ")
        assert "bad.gr:2" in err
        assert err.count("\n") == 1


# ----------------------------------------------------------------------
# Golden-trace replay through the import path
# ----------------------------------------------------------------------
class TestGoldenReplay:
    def test_imported_golden_network_replays_nr_fixture_byte_for_byte(self, tmp_path):
        """CSV export -> columnar import -> facade reproduces the golden trace.

        The strongest end-to-end statement the ingestion path can make:
        the imported network is not merely equivalent, it drives the NR
        broadcast session to the identical packet stream the repository's
        golden fixture pins down.
        """
        from test_golden_traces import (
            GOLDEN_PARAMS,
            NETWORK_CONFIG,
            TUNE_IN_FRACTION,
            fixture_path,
            golden_network,
            golden_query,
        )
        from repro import air
        from repro.broadcast.replay import RecordingSession

        network = golden_network()
        nodes, edges = _write_csv_pair(tmp_path, network)
        table = import_csv(edges, tmp_path / "table", nodes_path=nodes, chunk_rows=64)
        facade = RoadNetwork.from_table(table)
        assert facade.fingerprint() == network.fingerprint()

        stored = json.loads(fixture_path("NR").read_text(encoding="utf-8"))
        params = GOLDEN_PARAMS["NR"]
        scheme = air.create("NR", facade, **params)
        cycle = scheme.cycle
        offset = int(cycle.total_packets * TUNE_IN_FRACTION) % cycle.total_packets
        source, target = golden_query(facade)
        session = RecordingSession(cycle, offset)
        result = scheme.client().query(source, target, session=session)

        assert [source, target, offset] == [
            stored["query"]["source"],
            stored["query"]["target"],
            stored["query"]["tune_in_offset"],
        ]
        assert result.distance == stored["answer"]["distance"]
        assert result.found == stored["answer"]["found"]
        assert result.metrics.tuning_time_packets == stored["metrics"]["tuning_time_packets"]
        assert (
            result.metrics.access_latency_packets
            == stored["metrics"]["access_latency_packets"]
        )
        assert cycle.total_packets == stored["cycle"]["total_packets"]
        replayed = [
            {
                "kind": op.kind.value,
                "name": op.name,
                "packet_count": op.packet_count,
                "last_offset": op.last_offset,
                "anchor": op.anchor,
            }
            for op in session.trace().ops
        ]
        assert replayed == stored["trace"]
        assert facade.num_nodes == stored["network"]["nodes"]
        assert facade.num_edges == stored["network"]["edges"]
        assert facade.fingerprint() == stored["network"]["fingerprint"]
