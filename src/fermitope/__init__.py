"""Few-fermion occupation-number polytopes.

Exact state simulation, gate protocols, occupation-polytope analysis,
entropy functionals, noisy-preparation trajectories, 1-RDM tomography
simulation and Monte Carlo error margins for three fermions on six sites.
"""

import types as _types

__version__ = "0.1.0"

from .fock import (
    BasisState,
    MixedState,
    PureState,
    apply_ladder,
    basis_vector,
    natural_occupations,
    one_rdm,
    random_pure_state,
    sector_basis,
    sector_dim,
    superposition,
    wedge_embed,
)
from .gates import (
    GateOp,
    Protocol,
    PulseSpec,
    apply_gate,
    apply_protocol,
    build_protocol,
    controlled_rotation,
    dynamic_phase,
    invert_protocol,
    phase_gate,
    rotation,
    target_state,
)
from .polytope import (
    LinearInequality,
    MeritReport,
    PolytopeSpec,
    check_m_fermion,
    check_pure_bd,
    check_weakened,
    class_polytope,
    hill_climb_extremal,
    merit_values,
)
from .functional import EntropyValue, quantum_functional, shannon_entropy
from .noise import (
    NoiseParams,
    Trajectory,
    evolve_noisy_protocol,
    fidelity,
    loschmidt_echo,
    purity,
    purity_lower_bound,
)
from .tomography import (
    RDMEstimate,
    ShotResult,
    readout_sequence_offdiag,
    reconstruct_one_rdm,
    simulate_occupation_counts,
)
from .montecarlo import (
    PerturbationSpec,
    max_tolerated_sigma,
    sample_perturbed_rdm,
    violation_probability,
)

# Every name the imports above bind, less the submodules they load.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
