import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from traitbench import MachineDescription, fixtures, format_machine, machine


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


@pytest.fixture
def runs(monkeypatch):
    """Every engine run made while the test runs, as (machine, input, fuel), in order.

    `machine.run` is rebound at every attribute of a traitbench module that
    holds it, so runs one module asks another for are seen too. The test's
    own calls, through the `run` it imported, are not recorded.
    """
    real_run, made = machine.run, []

    def counted(m, sigma, fuel):
        made.append((m, sigma, fuel))
        return real_run(m, sigma, fuel)

    for name, module in list(sys.modules.items()):
        if name == "traitbench" or name.startswith("traitbench."):
            for attr, value in list(vars(module).items()):
                if value is real_run:
                    monkeypatch.setattr(module, attr, counted)
    return made
