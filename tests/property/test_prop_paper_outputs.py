"""The reproduction's fixed point: every paper output, pinned with ``==``.

``golden/paper_outputs.json`` records what ``repro validate`` grades,
at its resolution (inflation 256): both Figure 6 panels, the Figure 6
per-phase breakdown, Figures 7, 8 and 9, every table, and the executed
Section 5.5 attack matrix on every TEE backend.  Every float is
compared exactly, so a change that moves any simulated time, table
cell or verdict string fails here rather than in a hand-run
``repro validate``.

To re-capture after a deliberate change to the simulated outputs, run
from the repo root::

    PYTHONPATH=src python -m tests.property.test_prop_paper_outputs

and say in CHANGES.md which output moved and why.
"""

import json
import pathlib

import pytest

from repro.backends import backend_names
from repro.evalkit.figures import (
    figure6,
    figure6_breakdown,
    figure7,
    figure8,
    figure9,
)
from repro.evalkit.harness import DEFAULT_INFLATION
from repro.evalkit.security import run_attack_matrix
from repro.evalkit.tables import all_tables

GOLDEN = pathlib.Path(__file__).parent / "golden" / "paper_outputs.json"


def capture():
    """Every figure, table and attack verdict as JSON-safe data."""
    panels = figure6(inflation=DEFAULT_INFLATION)
    return {
        "figures": {
            "6-add": panels["add"].to_dict(),
            "6-mul": panels["mul"].to_dict(),
            "6-breakdown": figure6_breakdown(inflation=DEFAULT_INFLATION),
            "7": figure7(inflation=DEFAULT_INFLATION).to_dict(),
            "8": figure8().to_dict(),
            "9": figure9().to_dict(),
        },
        "tables": {table.table_id: {"title": table.title,
                                    "headers": table.headers,
                                    "rows": table.rows,
                                    "notes": table.notes}
                   for table in all_tables()},
        "attacks": {backend: [[result.attack_id, result.name,
                               result.baseline, result.secure]
                              for result in run_attack_matrix(backend)]
                    for backend in backend_names()},
    }


@pytest.fixture(scope="module")
def captured():
    return capture()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


class TestPaperOutputsBitIdentical:
    @pytest.mark.parametrize("part", ["figures", "tables", "attacks"])
    def test_part_matches_golden(self, captured, golden, part):
        assert json.loads(json.dumps(captured[part])) == golden[part]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
