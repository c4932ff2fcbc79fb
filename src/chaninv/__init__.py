"""Generalized inverses of complex matrices and quantum channels.

Computes Moore-Penrose, Drazin, group, and dagger-Drazin inverses with
per-axiom residual certificates, represents channels as superoperators with
Kraus/Choi conversions and CP/TP/unital predicates, and ships a suite of
numerical checks for the preservation theorems (trace preservation and
unitality survive inversion; complete positivity generally does not).
"""

from .channels import (
    Channel,
    ChoiMatrix,
    NotCPError,
    PropertyReport,
    adjoint_channel,
    apply,
    channel_from_dict,
    channel_to_dict,
    choi,
    choi_to_kraus,
    compose,
    conjugation_channel,
    depolarizing,
    haar_unitary,
    identity_channel,
    is_cp,
    is_tp,
    is_unital,
    kraus_to_channel,
    mixed_unitary,
    partial_trace,
    projector_channel,
    property_report,
    random_cptp,
    random_ucptp,
    unvec,
    vec,
)
from .ginv import (
    AxiomResidualError,
    FormulaMismatchError,
    GinvError,
    GinvReport,
    IndexTooLargeError,
    dagger_drazin,
    drazin_index,
    drazin_inverse,
    group_inverse,
    is_mp_of_dagger_drazin,
    mp_inverse,
    verify_axioms,
)
from .linalg import (
    DEFAULT_TOL,
    SvdFactors,
    Tolerances,
    as_cmatrix,
    dagger,
    eigh,
    fro_dist,
    kron,
    matpow,
    rank,
    svd,
)
from .theorems import (
    TheoremReport,
    amplitude_damping,
    check_dagger_drazin_preserves_tpu,
    check_double_inverse_gap,
    check_drazin_cp_loss,
    check_drazin_preserves_tp_u,
    check_group_double_inverse,
    check_intertwiner_propagation,
    check_mp_tpu_iff,
    check_orthogonal_sum,
    check_projector_self_inverse,
    check_pure_channel_lemma,
    report_to_dict,
    run_suite,
    search_mp_tp_violation,
    suite_passed,
)

__version__ = "0.1.0"
