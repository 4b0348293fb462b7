"""Entangled-cloning feasibility analysis for finite sets of quantum states."""

from .certificates import (
    EnscriptionCertificate,
    EnscriptionParams,
    canonical_q,
    certificate,
    enscription_residual,
    entangled_input,
    input_normalizer,
    q_to_Q,
    residual_via_states,
    tablet_flavor,
)
from .engine import (
    IllegibilityReport,
    QInterval,
    QRangeResult,
    closed_form_q_range,
    direct_sum_enscribe,
    illegibility_screen,
    q_minus_one_dependence_check,
    q_range_real_uniform,
    q_range_two_text,
    solve_closed_form,
    solve_real_uniform_central,
    solve_two_text,
    thin_extension_family,
    two_text_gap_floor,
    uniform_sextic,
    z0_threshold,
)
from .linalg import swap_operator, unitary_from_correspondence
from .machine import (
    AncillaStates,
    CloneOutcome,
    ancilla_states,
    controlled_swap,
    duan_guo_saturation,
    failure_state_symmetry_check,
    run_clone,
)
from .procedures import (
    build_procedure,
    qubit_example,
    verify_procedure,
)
from .search import SearchOptions, SearchResult, feasibility_search
from .texts import (
    EquivalenceWitness,
    QuantumText,
    TextClassification,
    classify,
    equivalent,
    gram,
    make_real_uniform,
    make_text,
)

__version__ = "0.1.0"
