"""Exact bound states of the 1D singular harmonic oscillator
V(x) = (1/2) m w^2 x^2 + hbar^2 alpha/(2 m x^2), on the half-line and the
whole line, with independent numerical verification."""

from .errors import (
    BracketError,
    ConvergenceError,
    DepthExceeded,
    DomainMismatch,
    InadmissibleError,
    NonConvergence,
    ParameterError,
    PoleError,
    PVDivergent,
    ShapeMismatch,
    SingOscError,
    SingularPointError,
    SupercriticalError,
)
from .model import (
    BoundaryClass,
    Domain,
    IndicialRoots,
    OriginBehavior,
    OscillatorSpec,
    Parity,
    admissible_beta,
    admissible_betas,
    classify_boundary,
    indicial_roots,
    map_radial,
    potential_value,
)
from .oracle import (
    CompareReport,
    OracleMethod,
    OracleResult,
    compare,
    fd_eigen,
    fd_eigen_extrapolated,
    frobenius_start,
    shoot_eigen,
    shoot_spectrum,
)
from .quad import (
    IntegrabilityClass,
    cauchy_pv,
    gram,
    integrability_class,
    overlap,
    overlap_halfline_gauss,
)
from .specfun import (
    gamma_fn,
    hermite,
    kummer_m,
    kummer_m_asymptotic,
    laguerre,
)
from .spectrum import (
    DIVERGENT,
    EigenState,
    SpectrumTable,
    energy,
    fullline_states,
    halfline_state,
    normalization_constant,
    perturbation_first_order,
    spectrum_table,
)

__version__ = "0.1.0"
