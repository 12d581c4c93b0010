import json
import math
from fractions import Fraction

import pytest

from reinhardt.cli import main
from reinhardt.domains import DomainSpec, MultiIndex
from reinhardt.errors import InvalidInputError
from reinhardt.hankel import s_alpha_partials
from reinhardt.wiegerinck import S11_LIMIT, omega0_log_ck_sq, s11_tail_bound

from oracles import hs_term

E4 = math.exp(4.0)
OMEGA0 = DomainSpec.wiegerinck_omega0()
S11 = MultiIndex(1, 1)


def omega0_ratio(k: int) -> float:
    """c_(k+1,k+1)^2 / c_(k,k)^2, via one log difference of the closed form."""
    return math.exp(omega0_log_ck_sq(k + 1) - omega0_log_ck_sq(k))


def omega0_term(k: int) -> float:
    """The k-th summand of S_(1,1) on Omega_0, from the series evaluator's term oracle."""
    return hs_term(OMEGA0, MultiIndex(k, k), S11)


def closed_form_direct(k: int) -> float:
    """Plain-arithmetic oracle, usable while e^(4k+4) fits in a double."""
    return 4.0 * math.pi**2 * (
        2.0 / ((2 * k + 1) * (2 * k + 2)) + math.exp(4 * k + 4) / (2 * k + 2) ** 2
    )


def ratio_fraction_oracle(k: int) -> float:
    """c_(k+1,k+1)^2 / c_(k,k)^2 with exact rationals and one float e^4."""
    def parts(j):
        return Fraction(2, (2 * j + 1) * (2 * j + 2)), Fraction(1, (2 * j + 2) ** 2)

    w = math.exp(4 * k + 4)
    a0, b0 = parts(k)
    a1, b1 = parts(k + 1)
    return (float(a1) + float(b1) * E4 * w) / (float(a0) + float(b0) * w)


def test_closed_form_values_at_small_k():
    assert omega0_log_ck_sq(0) == pytest.approx(
        math.log(4 * math.pi**2 * (1.0 + E4 / 4.0)), rel=1e-14
    )
    assert omega0_log_ck_sq(1) == pytest.approx(
        math.log(4 * math.pi**2 * (2.0 / 12.0 + math.exp(8.0) / 16.0)), rel=1e-14
    )


def test_closed_form_matches_direct_arithmetic_up_to_k_20():
    for k in range(21):
        assert omega0_log_ck_sq(k) == pytest.approx(
            math.log(closed_form_direct(k)), rel=1e-12
        )


def test_closed_form_finite_and_asymptotic_at_k_1e4():
    got = omega0_log_ck_sq(10**4)
    assert math.isfinite(got)
    assert got == pytest.approx(
        math.log(4 * math.pi**2) + 40004.0 - 2.0 * math.log(20002.0), abs=1e-6
    )


def test_index_validation():
    with pytest.raises(InvalidInputError):
        omega0_log_ck_sq(-1)
    with pytest.raises(InvalidInputError):
        s_alpha_partials(OMEGA0, S11, (0,))


def test_term_at_k_1_against_exact_closed_forms():
    c0, c1, c2 = closed_form_direct(0), closed_form_direct(1), closed_form_direct(2)
    want = c2 / c1 - c1 / c0
    assert omega0_term(1) == pytest.approx(want, rel=1e-10)


def test_term_positive_over_wide_range():
    for k in list(range(1, 101)) + [1000, 10**4]:
        assert omega0_term(k) > 0.0


def test_term_asymptotic_constant():
    for k in (500, 2000, 5000):
        assert k * k * omega0_term(k) == pytest.approx(2.0 * E4, rel=0.05)


def test_telescoping_sum_matches_single_ratio():
    m = 500
    total = omega0_ratio(0)  # j = 0 summand, with the below-range ratio read as 0
    for j in range(1, m + 1):
        total += omega0_term(j)
    assert total == pytest.approx(omega0_ratio(m), rel=1e-10)


def test_partial_sums_and_tail_bound():
    assert s_alpha_partials(OMEGA0, S11, (1,))[0][1] == pytest.approx(ratio_fraction_oracle(1), rel=1e-12)
    for m in (100, 1000):
        assert abs(s_alpha_partials(OMEGA0, S11, (m,))[0][1] - E4) <= s11_tail_bound(m)
        assert S11_LIMIT == E4
        assert s11_tail_bound(m) == pytest.approx(3.0 * E4 / m, rel=1e-12)


def test_partial_sums_are_exactly_one_ratio():
    # Each summand r_j - r_(j-1) of adjacent ratios is exact (Sterbenz), so
    # the summed series telescopes to the last ratio bit for bit.
    ms = range(1, 1001)
    assert s_alpha_partials(OMEGA0, S11, ms) == tuple((m, omega0_ratio(m)) for m in ms)


def test_ratios_against_fraction_oracle():
    for k in (0, 1, 7, 30):
        assert omega0_ratio(k) == pytest.approx(ratio_fraction_oracle(k), rel=1e-11)


def test_omegak_report_structure(capsys):
    # The Omega_k report is built by the wiegerinck task.
    assert main(["wiegerinck", "--k", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["dimension"] == 3
    assert report["basis_indices"] == [0, 1, 2]
    assert report["term_counts"] == [{"j": 1, "terms": 2}, {"j": 2, "terms": 1}]
    assert main(["wiegerinck", "--k", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["basis_indices"] == [0, 1]
    assert main(["wiegerinck", "--k", "0"]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: index must be an integer >= 1, got 0"]
