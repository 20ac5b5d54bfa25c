"""traitbench: a workbench for small deterministic Turing machines.

Simulate machines exactly under fuel bounds, index them bijectively,
rewrite them without changing what they compute, measure their time and
space against Blum's axioms, evaluate three-valued traits over them, and
check containment policies against full traces.

Every public name lives in one submodule, named in _HOMES, and that module
is imported when the name is first read (PEP 562), so `import traitbench`
alone imports no submodule and a caller pays only for the modules it reaches.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "machine": """BLANK Configuration EquivKind EquivVerdict MachineDescription MachineError ParseError
        RunKind RunOutcome UndefinedReason equiv_bounded format_machine parse_machine render_tape run
        strings_up_to trace""",
    "fixtures": "all_fixtures echo eraser load_fixture looper marker",
    "enumeration": "IndexSetResult decode encode index_set_bounded is_canonical pair unpair",
    "transforms": "TransformReceipt canonicalize delay_inject leaky_wrap pad receipt_for",
    "measures": """BoundCheckKind BoundFunction BoundVerdict BlumReport DiscriminationWitness ResourceMeasure
        WitnessSearchError broken_step_counter check_blum_axioms discriminating_witness parse_bound
        space_measure time_measure usage_within_bound""",
    "containment": "ContainmentPolicy ContainmentReport ContainmentVerdict containment_check load_policy policy_from_dict",
    "traits": """Bounds DeclaredKind FunctionProperty HaltingOracle ProbeResult SemSynPartition TraitComplement
        TraitDef TraitIntersection TraitUnion Verdict behavior_trait build_halting_oracle contained_trait
        echoes_input_trait eval_trait expr_name finite_patch_decider halting_decider_from_oracle parse_trait
        probe_semanticity sem_syn_partition state_count_trait total_on_nonempty_trait usage_bounded_trait""",
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names.split()}
__all__ = list(_HOME_OF)


def __getattr__(name: str):
    if name in _HOME_OF:
        # Every home imports machine, the largest module. Compiling it first,
        # while the heap is smallest, lets the modules and data that follow
        # reuse the memory its compilation freed; compiled after a home, it
        # raised a Blum sweep's peak RSS by about 0.25 MB.
        import_module(".machine", __name__)
        value = getattr(import_module(f".{_HOME_OF[name]}", __name__), name)
    elif name in _HOMES or name in ("cli", "reporting"):
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
