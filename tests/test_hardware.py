import json

import networkx as nx
import pytest

from qdisco.datasets import data_path
from qdisco.errors import SchemaError
from qdisco.hardware import Fleet, QpuModel, load_calibration

from topologies import uniform_qpu

MINIMAL_DOC = json.dumps(
    {
        "name": "tiny",
        "num_qubits": 2,
        "readout_error": [0.01, 0.02],
        "edges": [{"q": [0, 1], "gate_error": 0.005}],
    }
)


def as_nx(qpu: QpuModel) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(qpu.num_qubits))
    g.add_edges_from(qpu.edges)
    return g


class TestLoadCalibration:
    def test_minimal_two_qubit_document(self):
        qpu = load_calibration(MINIMAL_DOC)
        assert qpu.num_qubits == 2
        assert qpu.edges == ((0, 1),)
        assert qpu.gate_error[(0, 1)] == 0.005

    def test_out_of_range_gate_error(self):
        doc = json.loads(MINIMAL_DOC)
        doc["edges"][0]["gate_error"] = 1.2
        with pytest.raises(SchemaError, match="gate_error"):
            load_calibration(json.dumps(doc))

    def test_out_of_range_readout(self):
        doc = json.loads(MINIMAL_DOC)
        doc["readout_error"] = [0.01, -0.3]
        with pytest.raises(SchemaError, match="readout_error"):
            load_calibration(json.dumps(doc))

    def test_dangling_edge(self):
        doc = json.loads(MINIMAL_DOC)
        doc["edges"].append({"q": [0, 5], "gate_error": 0.004})
        with pytest.raises(SchemaError, match="missing qubit"):
            load_calibration(json.dumps(doc))

    def test_missing_field(self):
        doc = json.loads(MINIMAL_DOC)
        del doc["readout_error"]
        with pytest.raises(SchemaError, match="readout_error"):
            load_calibration(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(SchemaError):
            load_calibration("{broken")

    def test_bundled_heavy_hex_fixture(self):
        qpu = load_calibration(data_path("qpu_hex16.json").read_text())
        assert qpu.num_qubits == 16
        assert len(qpu.edges) == 18
        assert nx.is_connected(as_nx(qpu))

    def test_round_trip(self):
        paths = sorted(data_path("qpu_hex16.json").parent.glob("qpu_*.json"))
        assert paths
        for path in paths:
            qpu = load_calibration(path.read_text())
            assert load_calibration(qpu.serialize()) == qpu


class TestUniformQpu:
    def test_heavy_hex_16_qubit_count(self):
        qpu = uniform_qpu("heavy_hex_16")
        assert (qpu.num_qubits, len(qpu.edges)) == (16, 18)

    @pytest.mark.parametrize(
        "kind, kwargs, num_qubits",
        [
            pytest.param("line", {"num_qubits": 8}, 8, id="line"),
            pytest.param("ring", {"num_qubits": 9}, 9, id="ring"),
            pytest.param("heavy_hex_16", {}, 16, id="heavy_hex_16"),
            pytest.param("grid", {"rows": 3, "cols": 4}, 12, id="grid"),
        ],
    )
    def test_layout_is_connected(self, kind, kwargs, num_qubits):
        qpu = uniform_qpu(kind, **kwargs)
        assert qpu.num_qubits == num_qubits
        assert nx.is_connected(as_nx(qpu))


class TestFleet:
    def test_rejects_duplicate_names(self):
        a = uniform_qpu("line", num_qubits=3, name="same")
        b = uniform_qpu("ring", num_qubits=4, name="same")
        with pytest.raises(SchemaError, match="duplicate"):
            Fleet((a, b))

    def test_prior_for_unknown_name(self):
        a = uniform_qpu("line", num_qubits=3, name="a")
        with pytest.raises(SchemaError, match="unknown QPU"):
            Fleet((a,), {"ghost": 1.0})

    def test_lookup_and_priors(self):
        a = uniform_qpu("line", num_qubits=3, name="a")
        b = uniform_qpu("ring", num_qubits=4, name="b")
        fleet = Fleet((a, b), {"a": 1.2})
        assert fleet.get("b") is b
        assert fleet.prior("a") == 1.2
        assert fleet.prior("b") == 0.0
