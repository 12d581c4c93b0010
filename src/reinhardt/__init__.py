"""Monomial moments and Hilbert-Schmidt Hankel diagnostics on Reinhardt domains in C^2."""

from .certificate import (
    Certificate,
    CertificateEntry,
    SubharmonicityCheck,
    Window,
    certificate_ladder,
    check_subharmonic,
    density_mass,
    find_window,
    index_window,
    lambda_alpha,
)
from .domains import DomainSpec, MultiIndex
from .errors import InvalidInputError, NumericalFailureError
from .hankel import (
    Classification,
    Convergent,
    DbarReport,
    DivergentLinear,
    Inconclusive,
    classify_growth,
    dbar_canonical_report,
    s_alpha_partials,
    sample_ladder,
    shell_bound,
)
from .moments import (
    log_c_gamma_sq,
    log_profile_interval_moment,
    log_radial_moment,
)
from .profiles import RadialProfile, profile_family
from .quadrature import log_integrate
from .wiegerinck import omega0_log_ck_sq

__version__ = "0.1.0"
