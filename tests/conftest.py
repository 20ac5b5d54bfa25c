import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from traitbench import MachineDescription, fixtures, format_machine


@pytest.fixture
def echo():
    return fixtures.echo()


@pytest.fixture
def looper():
    return fixtures.looper()


@pytest.fixture
def eraser():
    return fixtures.eraser()


@pytest.fixture
def marker():
    return fixtures.marker()


@pytest.fixture
def many_states():
    """Ten states over the tape alphabet a_, more than 2**3: accepts at once."""
    return MachineDescription(
        state_count=10,
        start_state=0,
        accept_state=8,
        reject_state=9,
        input_alphabet=("a",),
        tape_alphabet=("a", "_"),
        blank="_",
        transitions=tuple((q, s, 8, s, "R") for q in range(8) for s in "a_"),
    )


@pytest.fixture
def machine_file(tmp_path):
    """Write a machine to a temp file and hand back its path."""

    def write(m, name="m.tm"):
        path = tmp_path / name
        path.write_text(format_machine(m), "utf-8")
        return str(path)

    return write
