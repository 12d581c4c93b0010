"""Log-domain arithmetic for nonnegative reals.

Monomial moments grow like exp(4k) in the diagonal index, so every
quantity that could overflow is carried as a plain float holding its
natural logarithm, with -inf encoding an exact zero.
"""

from __future__ import annotations

import math

LOG_ZERO = float("-inf")


def log_add_exp(la: float, lb: float) -> float:
    """log(exp(la) + exp(lb)), max-shifted so it never overflows."""
    if la == LOG_ZERO:
        return lb
    if lb == LOG_ZERO:
        return la
    if la < lb:
        la, lb = lb, la
    return la + math.log1p(math.exp(lb - la))


def log_sub_exp(la: float, lb: float) -> float:
    """log(exp(la) - exp(lb)) for la >= lb."""
    if lb == LOG_ZERO:
        return la
    if lb > la:
        raise ValueError(f"log_sub_exp would be negative: {la} < {lb}")
    if lb == la:
        return LOG_ZERO
    return la + math.log(-math.expm1(lb - la))


def log_sum_exp(logs) -> float:
    """log(sum(exp(l) for l in logs)); empty input gives LOG_ZERO."""
    logs = list(logs)
    if not logs:
        return LOG_ZERO
    m = max(logs)
    if m == LOG_ZERO or math.isinf(m):
        return m
    return m + math.log(math.fsum(math.exp(l - m) for l in logs))

