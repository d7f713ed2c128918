"""Seeded CLI outputs, pinned byte for byte by their sha256.

Each case runs in-process through ``cli.main`` inside a copy of the bundled
data plus the files in ``WRITTEN``, with ``QDISCO_SEED`` unset.  A change that
alters one of these outputs edits its digest here and names the change in
CHANGES.md.  Run this file as a script (``PYTHONPATH=src python
tests/test_pinned_outputs.py``) to print every case's id and current digest.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qdisco.cli import main
from qdisco.datasets import data_path

# the numpy the digests were made with; another numpy may draw other samples
NUMPY_VERSION = "2.4.6"

RING6_HEX16 = ["--problem", "problem_ring6.json", "--qpu", "qpu_hex16.json"]

# files written into the data copy: a 14-vertex MaxCut problem, a ring with chords i -- i+5
_V14_EDGES = [(i, (i + 1) % 14, 1.0) for i in range(14)] + [(i, (i + 5) % 14, 0.5) for i in range(14)]
WRITTEN = {
    "problem_v14.json": {"num_vertices": 14, "edges": [[min(u, v), max(u, v), w] for u, v, w in _V14_EDGES]},
}

# id, argv (paths relative to the data copy), sha256 of stdout or, for run, of result.json
PINNED = [
    ("run-va", ["run", "--config", "scenario_va.json", "--seed", "7"],
     "593b6ab762425f4f6baea39820d1126ea8022ab7fadbf717ce4f2028b9e9341d"),
    ("run-vb", ["run", "--config", "scenario_vb.json"],
     "53945504ef1e4d9534806ff468f8960ff609c7feaa9a2449fbbd258897756665"),
    ("plan-vb", ["plan", "--config", "scenario_vb.json"],
     "e07d1ad4c6d00b3e83d102814f1d1964bd7c8599adc8357d684adbb860928283"),
    ("plan-va", ["plan", "--config", "scenario_va.json"],
     "fca649573c51399e8c3f91b93d38b5502c30ca70de7b810835b30874220d1738"),
    ("benchmark", ["benchmark", *RING6_HEX16, "--layers", "1..2", "--seed", "7", "--mref", "100", "--m", "100"],
     "b78d38ca74772d6dc0b66ee2ad11b010d98b64fb8c94d297e57ef064a786dd78"),
    ("benchmark-m500", ["benchmark", *RING6_HEX16, "--layers", "1..2", "--seed", "7", "--mref", "500", "--m", "500"],
     "7f8ec9cbeeccd0bc12d498e4840d32ffe7f075f5c95ce6c2e80a9e67b6a24537"),
    ("simulate-p1", ["simulate", "--problem", "problem_ring6.json", "--seed", "7", "--layers", "1"],
     "0e3db9148ff5e8553ed2bc4eeb51c3427e804e61edbdb8436c895444d677ceb5"),
    ("simulate-p2", ["simulate", "--problem", "problem_ring6.json", "--seed", "7", "--layers", "2"],
     "90b5b9efd2f9f6c3774c17927ecff65d9f20547495c13be330d469fd3d5e84c6"),
    ("compile", ["compile", *RING6_HEX16, "--regions", "2", "--seed", "7"],
     "8bccde5f864f703b7c137eb4a2142980518168ea30e41a8ca62af02c05cdfcd6"),
    ("compile-isomorphic", ["compile", *RING6_HEX16, "--regions", "2", "--seed", "7", "--eta", "1", "--isomorphic-regions"],
     "95a2ee8392a8bb1fe4e77c251d3ed324936fc492cc24561cca69fdf9643d10d9"),
    ("compile-beta16", ["compile", "--problem", "problem_triangle.json", "--qpu", "qpu_beta16.json", "--eta", "1",
                        "--regions", "4", "--isomorphic-regions", "--seed", "7"],
     "45c2a0cae00d0cc27c0dbaf09788c7e7d7f35c99779282a3811c7c26bd32c30a"),
    ("partition", ["partition", "--problem", "problem_v15.json", "--capacities", "4,5,6", "--seed", "3"],
     "e3fbc588ef40cbe385402291a106cca94b9a70e2a84d2c67301557df8ec25784"),
    ("simulate-v14", ["simulate", "--problem", "problem_v14.json", "--seed", "2", "--layers", "3"],
     "fd3bcd8ab15d72ffb1b28f0880a470b3ad7218f2b975f41067616a9d2cf98832"),
    ("simulate-v15", ["simulate", "--problem", "problem_v15.json", "--seed", "7", "--layers", "3"],
     "2dc6ff86721ce01b062220f7a40410324b9b8a1c46903db5c7a9675f5c916845"),
]


def data_copy(dest: Path) -> None:
    """The bundled data and the ``WRITTEN`` files, in ``dest``."""
    shutil.copytree(data_path("."), dest)
    for name, doc in WRITTEN.items():
        (dest / name).write_text(json.dumps(doc))


def output_digest(argv) -> str:
    """sha256 of a case's output, run in the current directory: stdout or, for run, result.json."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        if argv[0] == "run":
            assert main([*argv, "-o", "out"]) == 0
            output = Path("out", "result.json").read_bytes()
        else:
            assert main(argv) == 0
            output = stdout.getvalue().encode()
    return hashlib.sha256(output).hexdigest()


@pytest.mark.parametrize("argv, digest", [pytest.param(a, d, id=i) for i, a, d in PINNED])
def test_seeded_output_is_pinned(tmp_path, monkeypatch, argv, digest):
    data_copy(tmp_path / "data")
    monkeypatch.chdir(tmp_path / "data")
    monkeypatch.delenv("QDISCO_SEED", raising=False)
    assert output_digest(argv) == digest, (
        f"output changed; the table was made with numpy {NUMPY_VERSION}, this is numpy {np.__version__}"
    )


if __name__ == "__main__":
    print(f"numpy {np.__version__}")
    os.environ.pop("QDISCO_SEED", None)
    here = os.getcwd()
    for case_id, argv, _ in PINNED:
        with tempfile.TemporaryDirectory() as tmp:
            data_copy(Path(tmp) / "data")
            os.chdir(Path(tmp) / "data")
            print(case_id, output_digest(argv))
            os.chdir(here)
