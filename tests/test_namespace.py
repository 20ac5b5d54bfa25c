"""The package namespace: 81 public names, each imported from its home module on first use.

Each check runs in a fresh interpreter, because the test process has
already imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# The public names and their home modules, pinned here so that a name dropped from or moved in the package's table fails.
HOMES = {
    "machine": [
        "BLANK", "Configuration", "EquivKind", "EquivVerdict", "MachineDescription", "MachineError", "ParseError",
        "RunKind", "RunOutcome", "UndefinedReason", "equiv_bounded", "format_machine", "parse_machine",
        "render_tape", "run", "strings_up_to", "trace",
    ],
    "fixtures": ["all_fixtures", "echo", "eraser", "load_fixture", "looper", "marker"],
    "enumeration": ["IndexSetResult", "decode", "encode", "index_set_bounded", "is_canonical", "pair", "unpair"],
    "transforms": ["TransformReceipt", "canonicalize", "delay_inject", "leaky_wrap", "pad", "receipt_for"],
    "measures": [
        "BoundCheckKind", "BoundFunction", "BoundVerdict", "BlumReport", "DiscriminationWitness", "ResourceMeasure",
        "WitnessSearchError", "broken_step_counter", "check_blum_axioms", "discriminating_witness", "parse_bound",
        "space_measure", "time_measure", "usage_within_bound",
    ],
    "containment": [
        "ContainmentPolicy", "ContainmentReport", "ContainmentVerdict", "containment_check", "load_policy",
        "policy_from_dict",
    ],
    "traits": [
        "Bounds", "DeclaredKind", "FunctionProperty", "HaltingOracle", "ProbeResult", "SemSynPartition",
        "TraitComplement", "TraitDef", "TraitIntersection", "TraitUnion", "Verdict", "behavior_trait",
        "build_halting_oracle", "contained_trait", "echoes_input_trait", "eval_trait", "expr_name",
        "finite_patch_decider", "halting_decider_from_oracle", "parse_trait", "probe_semanticity",
        "sem_syn_partition", "state_count_trait", "total_on_nonempty_trait", "usage_bounded_trait",
    ],
}
NAMES = sorted(name for names in HOMES.values() for name in names)

# Prints, as JSON, the traitbench submodules the interpreter has loaded.
LOADED = "import json, sys; print(json.dumps(sorted(k for k in sys.modules if k.startswith('traitbench.'))))"


def fresh(code: str, *args: str) -> str:
    """Standard output of `code`, given `args`, run in a new interpreter that imports traitbench from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_the_package_loads_no_submodule():
    assert json.loads(fresh(f"import traitbench; {LOADED}")) == []


def test_the_numbering_loads_only_the_engine_and_the_numbering():
    code = f"import traitbench; traitbench.decode, traitbench.encode; import traitbench.reporting; {LOADED}"
    assert json.loads(fresh(code)) == ["traitbench.enumeration", "traitbench.machine", "traitbench.reporting"]


def test_a_partition_loads_neither_containment_nor_fixtures():
    loaded = set(json.loads(fresh(f"import traitbench; traitbench.sem_syn_partition; {LOADED}")))
    assert "traitbench.traits" in loaded
    assert not loaded & {"traitbench.containment", "traitbench.fixtures"}


def test_every_name_is_its_home_modules_object():
    code = (
        "import importlib, json, sys, traitbench\n"
        "homes = json.loads(sys.argv[1])\n"
        "print(json.dumps(sorted(name for module, names in homes.items() for name in names\n"
        "    if getattr(traitbench, name) is not getattr(importlib.import_module('traitbench.' + module), name))))\n"
    )
    assert json.loads(fresh(code, json.dumps(HOMES))) == []


def test_star_import_and_dir_give_the_81_names():
    code = (
        "import json, traitbench\n"
        "scope = {}\n"
        "exec('from traitbench import *', scope)\n"
        "print(json.dumps([sorted(set(scope) - {'__builtins__'}), sorted(set(dir(traitbench)) & set(traitbench.__all__))]))\n"
    )
    star, listed = json.loads(fresh(code))
    assert star == listed == NAMES
    assert len(NAMES) == 81


def test_a_submodule_resolves_without_importing_it():
    assert fresh("import traitbench; print(traitbench.traits.__name__, traitbench.cli.__name__)").split() == [
        "traitbench.traits", "traitbench.cli"]


def test_an_unknown_name_raises_attribute_error_naming_it():
    code = "import traitbench\ntry:\n    traitbench.no_such_name\nexcept AttributeError as exc:\n    print(exc)\n"
    assert fresh(code).strip() == "module 'traitbench' has no attribute 'no_such_name'"


@pytest.mark.parametrize(
    "code, expected",
    [
        pytest.param(
            "from traitbench import Bounds, ContainmentPolicy, contained_trait, echo, eval_trait\n"
            "print(eval_trait(contained_trait(ContainmentPolicy(('aaa',))), echo(), Bounds(2, 100)).value)",
            "In",
            id="contained_trait",
        ),
        pytest.param(
            "from traitbench import discriminating_witness, echo, time_measure\n"
            "print(discriminating_witness(time_measure(), echo(), 3, 2, 100).delay)",
            "2",
            id="discriminating_witness",
        ),
    ],
)
def test_the_functions_that_import_a_sibling_work_in_a_fresh_process(code, expected):
    assert fresh(code).strip() == expected
