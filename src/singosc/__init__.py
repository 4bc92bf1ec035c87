"""Exact bound states of the 1D singular harmonic oscillator
V(x) = (1/2) m w^2 x^2 + hbar^2 alpha/(2 m x^2), on the half-line and the
whole line, with independent numerical verification."""

import importlib

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

# The oracles and the quadrature load on first use of their module or one
# of its names (PEP 562), so an analytic command never compiles them.
_LAZY = {
    "oracle": (
        "CompareReport",
        "OracleMethod",
        "OracleResult",
        "compare",
        "fd_eigen",
        "fd_eigen_extrapolated",
        "frobenius_start",
        "shoot_eigen",
        "shoot_spectrum",
    ),
    "quad": (
        "IntegrabilityClass",
        "cauchy_pv",
        "gram",
        "integrability_class",
        "overlap",
        "overlap_halfline_gauss",
    ),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    owner = name if name in _LAZY else _LAZY_OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{owner}", __name__)
    return module if owner == name else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY_OWNER})
