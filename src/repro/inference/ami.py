"""Adjusted Mutual Information, from scratch (§3, ref [37]).

Vinh, Epps & Bailey (JMLR 2010): AMI corrects mutual information for
chance agreement,

    AMI(U, V) = (MI - E[MI]) / (mean(H(U), H(V)) - E[MI])

with the expectation taken over the hypergeometric model of random
contingency tables with fixed marginals.  1 = identical clusterings,
~0 = independent.  Log-factorials use ``math.lgamma`` for stability.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from repro.errors import InferenceError

__all__ = ["mutual_information", "entropy", "expected_mutual_information", "ami"]


def _log_factorial(n: float) -> float:
    return math.lgamma(n + 1.0)


def entropy(labels: Sequence[int]) -> float:
    """Shannon entropy (nats) of a labelling."""
    n = len(labels)
    if n == 0:
        raise InferenceError("cannot compute entropy of an empty labelling")
    counts = Counter(labels)
    total = 0  # not sum(): compensated from Python 3.12, AMI scores are pinned
    for c in counts.values():
        if c > 0:
            total += (c / n) * math.log(c / n)
    return -total


def mutual_information(a: Sequence[int], b: Sequence[int]) -> float:
    """MI (nats) between two labellings of the same items."""
    n = _check(a, b)
    counts_a = Counter(a)
    counts_b = Counter(b)
    joint = Counter(zip(a, b))
    mi = 0.0
    for (la, lb), nij in joint.items():
        mi += (nij / n) * math.log(n * nij / (counts_a[la] * counts_b[lb]))
    return max(0.0, mi)


def expected_mutual_information(a: Sequence[int], b: Sequence[int]) -> float:
    """E[MI] under the fixed-marginal hypergeometric null model."""
    n = _check(a, b)
    counts_a = list(Counter(a).values())
    counts_b = list(Counter(b).values())
    log_n_fact = _log_factorial(n)
    emi = 0.0
    for ai in counts_a:
        for bj in counts_b:
            lower = max(1, ai + bj - n)
            upper = min(ai, bj)
            for nij in range(lower, upper + 1):
                log_prob = (
                    _log_factorial(ai)
                    + _log_factorial(bj)
                    + _log_factorial(n - ai)
                    + _log_factorial(n - bj)
                    - log_n_fact
                    - _log_factorial(nij)
                    - _log_factorial(ai - nij)
                    - _log_factorial(bj - nij)
                    - _log_factorial(n - ai - bj + nij)
                )
                term = (nij / n) * math.log(n * nij / (ai * bj))
                emi += math.exp(log_prob) * term
    return emi


def _same_partition(a: Sequence[int], b: Sequence[int]) -> bool:
    """True when the two labellings induce identical partitions."""
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    for la, lb in zip(a, b):
        if forward.setdefault(la, lb) != lb:
            return False
        if backward.setdefault(lb, la) != la:
            return False
    return True


def ami(a: Sequence[int], b: Sequence[int]) -> float:
    """Adjusted Mutual Information with the arithmetic-mean normalizer."""
    _check(a, b)
    if _same_partition(a, b):
        # Identical partitions score 1 by definition; this also covers
        # the numerically indeterminate all-singletons case where MI,
        # E[MI] and the entropies all coincide.
        return 1.0
    mi = mutual_information(a, b)
    h_a = entropy(a)
    h_b = entropy(b)
    emi = expected_mutual_information(a, b)
    denominator = (h_a + h_b) / 2.0 - emi
    # Clamp the denominator away from zero preserving its sign (the
    # standard convention): for degenerate cases such as all-singleton
    # labellings, numerator and denominator vanish together and their
    # ratio — not zero — is the meaningful limit.
    if denominator < 0.0:
        denominator = min(denominator, -1e-15)
    else:
        denominator = max(denominator, 1e-15)
    return (mi - emi) / denominator


def _check(a: Sequence[int], b: Sequence[int]) -> int:
    if len(a) != len(b):
        raise InferenceError(
            f"labellings must have the same length, got {len(a)} and {len(b)}"
        )
    if not a:
        raise InferenceError("labellings must be non-empty")
    return len(a)
