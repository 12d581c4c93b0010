import inspect

import reinhardt

PUBLIC = {
    "BasisLattice", "Certificate", "CertificateEntry", "Classification", "Convergent",
    "DEFAULT_SETTINGS", "DbarReport", "DivergentLinear", "DomainSpec",
    "Inconclusive", "InvalidInputError", "LOG_ZERO", "MultiIndex", "NumericalFailureError",
    "OmegaKReport", "QuadratureSettings", "RadialProfile", "SubharmonicityCheck", "Window",
    "certificate_ladder", "check_subharmonic", "classify_growth", "dbar_canonical_report",
    "density_mass", "find_window", "hs_term", "index_window", "lambda_alpha", "log_add_exp",
    "log_c_gamma_sq", "log_integrate", "log_profile_interval_moment", "log_radial_moment",
    "log_sub_exp", "log_sum_exp", "omega0_log_ck_sq", "omegak_report", "profile_family",
    "s_alpha_partials", "sample_ladder", "shell_bound",
}


def test_public_api_is_pinned():
    # A new public name is a deliberate change to this set, not a side effect.
    exported = {
        name for name, value in vars(reinhardt).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == PUBLIC
    assert len(PUBLIC) == 41
