"""Counting-convention flags and the pinned calibrated defaults.

Several published cost figures depend on bookkeeping choices the formulas
alone do not fix: whether batch-norm affine parameters count, and how
batch-norm figures in the FLOPs tally.  The pinned values below are the
combination that reproduces the reference table for all five catalog
networks (see catalog.calibrate, and docs/calibration.md for the sweep
output); do not edit them casually.

The entropy path is no convention: the variance law fixes it.  A stage's
output variance is the product of the projected widths over the stem and
every main-path conv up to it, since series convs multiply; a projection
shortcut adds its c_in in parallel rather than multiplying, so it stays
off the path.  tests/test_variance.py checks each of these by Monte Carlo.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from itertools import product


@dataclass(frozen=True)
class Conventions:
    # batch-norm affine pairs in the parameter count
    params_include_bn: bool = True
    # ops charged per batch-norm output element in the FLOPs tally
    # (scale + shift = 2; conv MACs alone undercount the reference table)
    flops_bn_cost: int = 2

    def fingerprint(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


PINNED = Conventions()


def all_conventions() -> list[Conventions]:
    """Every flag combination the calibration sweep evaluates."""
    return [Conventions(params_include_bn=bn_params, flops_bn_cost=bn_cost)
            for bn_params, bn_cost in product((False, True), (0, 1, 2))]
