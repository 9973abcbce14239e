"""Normal forms and Loewner chains for discrete and continuous dilation dynamics."""

from .jets import (
    HomogeneousMap,
    PolyJet,
    compose,
    gradient_bound_matrix,
    invert,
    is_triangular,
    majorant_bound,
)
from .spectral import (
    OptimalForm,
    ResonanceReport,
    SpectralSplit,
    detect_resonances,
    gamma_matrix,
    operator_norm,
    spectral_radius,
    spectral_split,
    to_optimal_form,
)
from .homological import solve_difference
from .normal_form import (
    ConjugacyResult,
    DiscreteEvolutionFamily,
    NormalFormConstants,
    RangeGrowthReport,
    StageReport,
    TriangularFamily,
    UnivalenceReport,
    build_normal_form,
    defect,
    discrete_chain,
    estimate_constants,
    extend_intertwining,
    normal_form_step,
    range_growth_check,
    univalence_check,
)
from .herglotz import (
    AttractionReport,
    ContinuousEvolution,
    PreconditionError,
    HerglotzFieldSpec,
    LoewnerChain,
    SubordinationReport,
    TimeCoefficient,
    attraction_check,
    build_chain,
    discretize,
    integrate_jet,
    integrate_points,
    integrate_variational,
    normalize_field,
    pde_residual,
    verification_samples,
    verify_subordination_chain,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
