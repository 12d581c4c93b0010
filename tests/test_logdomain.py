import math

import pytest

from reinhardt.logdomain import LOG_ZERO, log_add_exp, log_sub_exp, log_sum_exp


def test_addition_never_overflows_at_huge_logs():
    total = log_add_exp(1.0e6, 1.0e6)
    assert total == pytest.approx(1.0e6 + math.log(2.0), rel=1e-12)
    assert log_add_exp(1.0e6, LOG_ZERO) == 1.0e6


def test_add_matches_plain_arithmetic():
    assert math.exp(log_add_exp(math.log(2.0), math.log(3.0))) == pytest.approx(5.0, rel=1e-14)


def test_log_sub_exp():
    assert log_sub_exp(math.log(5.0), math.log(3.0)) == pytest.approx(math.log(2.0), abs=1e-14)
    assert log_sub_exp(1.23, LOG_ZERO) == 1.23
    assert log_sub_exp(1.23, 1.23) == LOG_ZERO
    with pytest.raises(ValueError):
        log_sub_exp(0.0, 1.0)


def test_log_sum_exp_empty_and_shifted():
    assert log_sum_exp([]) == LOG_ZERO
    logs = [1000.0, 1000.0 + math.log(2.0), LOG_ZERO]
    assert log_sum_exp(logs) == pytest.approx(1000.0 + math.log(3.0), rel=1e-13)


def test_log_add_exp_commutes():
    assert log_add_exp(-2.0, 5.0) == log_add_exp(5.0, -2.0)
