"""Every pass/fail gate of symlab, in one table.

Each experiment holds its estimate of one of the paper's inequalities or
identities to named gates of GATES, passing only the estimate, the
reference, the SE and the scale of a rounding allowance; every k, SE floor
and tolerance lives here.  verdict() is the only code that writes "pass" or
"fail".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

__all__ = ["GATES", "Gate", "PASS", "ROUNDING", "UNGATED", "holds", "verdict"]

# the allowance for float rounding, per unit of the scale a caller states
ROUNDING = 64 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class Gate:
    """How an estimate must sit against its reference, with the allowance

        k max(se, se_floor) + ROUNDING scale + tol

    - "within": |estimate - reference| <= allowance + rtol |reference|, as
      np.allclose has it, entry by entry for arrays;
    - "at_most": estimate <= reference + allowance;
    - "at_least": estimate + allowance >= reference;
    - "above": estimate > reference + allowance, a detector that a value moved.

    Each sum runs left to right in the order of the check it replaced, with
    the terms a gate lacks adding 0.0, so every verdict reads as it did.
    np.maximum keeps a NaN standard error, as builtin max(se, floor) does and
    np.fmax does not, so a NaN in any operand fails the comparison.
    """

    compare: Literal["within", "at_most", "at_least", "above"]
    k: float = 0.0
    se_floor: float = 0.0
    tol: float = 0.0
    rtol: float = 0.0

    def __call__(self, estimate, reference=0.0, se=0.0, scale=0.0) -> bool:
        k_se = self.k * np.maximum(se, self.se_floor)
        rounding = ROUNDING * scale
        if self.compare == "within":
            ok = np.abs(estimate - reference) <= k_se + rounding + self.tol + self.rtol * np.abs(reference)
        elif self.compare == "at_most":
            ok = estimate <= reference + k_se + rounding + self.tol
        elif self.compare == "at_least":
            ok = estimate + k_se + rounding + self.tol >= reference
        else:
            ok = estimate > reference + k_se + rounding + self.tol
        return bool(np.all(ok))


GATES = {
    # a Monte-Carlo mean against its closed form: the two linear gaps, the Wishart
    # coefficient entry by entry and the projection tensor's moments and contractions
    "closed_form": Gate("within", k=4.0),
    # the L2 inner product of Qf and f - Qf against 0; the floor keeps a zero SE from
    # asking for an exact zero
    "orthogonality": Gate("within", k=3.0, se_floor=1e-15),
    # the KRR gap against its invariance lower bound
    "lower_bound": Gate("at_least", k=4.0),
    # the regularisation bound's left side against its middle
    "upper_bound": Gate("at_most", k=4.0),
    # identities exact up to rounding: the operator battery, and an invariant learner's
    # risks on a sample and its projection and predictions after an orbit move
    "identity": Gate("at_most", tol=1e-9),
    # the end-to-end equivariance violation of a projected layer stack
    "equivariance": Gate("at_most", tol=1e-8),
    # the regularisation bound's middle against its right side, both closed forms
    "bound_order": Gate("at_most", tol=1e-12),
    # (alpha, beta, gamma) solved from the projection tensor's mean contractions
    "contraction_fit": Gate("within", tol=1e-12, rtol=1e-6),
    # the metamorphic test: an orbit move of the training points moved a learner's predictions
    "metamorphic": Gate("above", tol=1e-9),
}


def holds(name: str, estimate, reference=0.0, se=0.0, scale=0.0) -> bool:
    """Whether ``estimate`` passes the gate ``name`` of GATES."""
    return GATES[name](estimate, reference, se, scale)


def verdict(*holds: bool) -> str:
    """"pass" when every given gate holds, else "fail"."""
    return "pass" if all(holds) else "fail"


PASS = verdict()
# covering and vc-bound compute a number and check no inequality, so they hold no gate
UNGATED = PASS
