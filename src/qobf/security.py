"""Closed-form adversary-success and min-entropy estimates.

Black-box: parameter-guessing probability over a discretized U3 triple.
White-box: hidden-subset guessing over the C(n, x) obfuscation patterns.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .linalg import TWO_PI
from .obfuscate import ObfuscatedCircuit, ObfuscationMode

_EXACT_LIMIT = 64  # exact integer binomials up to here, log-gamma beyond


class SecurityError(ValueError):
    pass


@dataclass(frozen=True)
class SecurityReport:
    model: str  # "black-box" | "white-box"
    parameters: dict
    success_probability: float
    min_entropy_bits: float
    warning: str | None = None

    def to_dict(self) -> dict:
        doc = asdict(self)
        if not self.warning:
            del doc["warning"]
        return doc


def blackbox_guess_probability(delta: float) -> float:
    """(delta / 2pi)^3: one-shot guess of a discretized U3 triple."""
    if not 0.0 < delta <= TWO_PI:
        raise SecurityError(f"delta must be in (0, 2pi], got {delta}")
    return (delta / TWO_PI) ** 3


def _log2_comb(n: int, x: int) -> float:
    if n <= _EXACT_LIMIT:
        return math.log2(math.comb(n, x))
    return (
        math.lgamma(n + 1) - math.lgamma(x + 1) - math.lgamma(n - x + 1)
    ) / math.log(2.0)


def whitebox_profile(n: int, x: int) -> SecurityReport:
    """Success 1/C(n, x) and min-entropy log2 C(n, x) of the hidden subset."""
    if not 0 <= x <= n:
        raise SecurityError(f"x={x} out of range [0, {n}]")
    warning = None
    if x in (0, n):
        warning = (
            "trivial pattern: no gates protected" if x == 0
            else "trivial pattern: every gate protected; an adversary can "
                 "de-obfuscate by simplifying every block"
        )
    entropy = _log2_comb(n, x)
    if n <= _EXACT_LIMIT:
        success = 1.0 / math.comb(n, x)
    else:
        success = 2.0 ** (-entropy) if entropy < 1020 else 0.0
    return SecurityReport(
        model="white-box",
        parameters={"n": n, "x": x},
        success_probability=success,
        min_entropy_bits=entropy,
        warning=warning,
    )


def audit_circuit(obf: ObfuscatedCircuit) -> SecurityReport:
    """White-box profile of a concrete obfuscated artifact, from its key."""
    key = obf.key
    if key is None:
        raise SecurityError("audit requires the obfuscation key")
    n = key.num_gates
    x = len(key.protected or ()) if key.mode is ObfuscationMode.SUBSET else n
    if n == 0:
        return SecurityReport("white-box", {"n": 0, "x": 0}, 1.0, 0.0, "empty circuit")
    return whitebox_profile(n, x)
