"""traitbench: a workbench for small deterministic Turing machines.

Simulate machines exactly under fuel bounds, index them bijectively,
rewrite them without changing what they compute, measure their time and
space against Blum's axioms, evaluate three-valued traits over them, and
check containment policies against full traces.
"""

__version__ = "0.1.0"

from .machine import (
    BLANK,
    Configuration,
    EquivKind,
    EquivVerdict,
    MachineDescription,
    MachineError,
    ParseError,
    RunKind,
    RunOutcome,
    UndefinedReason,
    equiv_bounded,
    format_machine,
    initialize,
    parse_machine,
    render_tape,
    run,
    step,
    strings_up_to,
    trace,
)
from .fixtures import all_fixtures, echo, eraser, load_fixture, looper, marker
from .enumeration import (
    IndexSetResult,
    decode,
    encode,
    index_set_bounded,
    is_canonical,
    pair,
    unpair,
)
from .transforms import TransformReceipt, canonicalize, delay_inject, leaky_wrap, pad, receipt_for
from .measures import (
    BoundCheckKind,
    BoundFunction,
    BoundVerdict,
    BlumReport,
    DiscriminationWitness,
    ResourceMeasure,
    WitnessSearchError,
    broken_step_counter,
    check_blum_axioms,
    discriminating_witness,
    parse_bound,
    space_measure,
    time_measure,
    usage_within_bound,
)
from .containment import (
    ContainmentPolicy,
    ContainmentReport,
    ContainmentVerdict,
    containment_check,
    load_policy,
    policy_from_dict,
)
from .traits import (
    Bounds,
    DeclaredKind,
    FunctionProperty,
    HaltingOracle,
    ProbeResult,
    SemSynPartition,
    TraitComplement,
    TraitDef,
    TraitIntersection,
    TraitUnion,
    Verdict,
    behavior_trait,
    build_halting_oracle,
    contained_trait,
    echoes_input_trait,
    eval_trait,
    expr_name,
    finite_patch_decider,
    halting_decider_from_oracle,
    parse_trait,
    probe_semanticity,
    sem_syn_partition,
    state_count_trait,
    total_on_nonempty_trait,
    usage_bounded_trait,
)
