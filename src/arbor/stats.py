"""The 95% Wilson score interval behind every Monte Carlo verdict."""

from __future__ import annotations

import math

# Phi^-1(0.975), the two-sided 95% normal quantile; tests/test_stats.py
# checks every interval bit for bit against one built from the normal ppf
_Z95 = 1.959963984540054


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Raises ValueError unless trials > 0 and 0 <= successes <= trials.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes must lie in [0, {trials}], got {successes}")
    z = _Z95
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1 - phat) / trials + z * z / (4 * trials * trials)
    )
    # the exact endpoints at 0 and n successes are 0 and 1; rounding in the
    # square root otherwise leaves a stray 1e-19 residue there
    lo = 0.0 if successes == 0 else float(max(0.0, centre - half))
    hi = 1.0 if successes == trials else float(min(1.0, centre + half))
    return lo, hi
