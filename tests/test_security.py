"""Tests for adversary models: guess probabilities and min-entropy."""
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qobf.bench import bell
from qobf.circuit import Circuit
from qobf.obfuscate import ObfuscationMode, obfuscate
from qobf.security import (
    audit_circuit,
    blackbox_guess_probability,
    whitebox_profile,
)

TWO_PI = 2 * math.pi


class TestBlackbox:
    def test_percent_resolution_is_1e6(self):
        assert blackbox_guess_probability(TWO_PI / 100) == pytest.approx(
            1e-6, rel=1e-15
        )

    def test_full_range_is_certainty(self):
        assert blackbox_guess_probability(TWO_PI) == pytest.approx(1.0)

    @given(st.floats(1e-6, TWO_PI, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_cubic_scaling(self, delta):
        p = blackbox_guess_probability(delta)
        assert p == pytest.approx((delta / TWO_PI) ** 3, rel=1e-12)

    def test_out_of_range_rejected(self):
        for bad in (0.0, -1.0, TWO_PI + 0.1):
            with pytest.raises(ValueError):
                blackbox_guess_probability(bad)


def exhaustive_subset_count(n, x):
    return sum(1 for _ in itertools.combinations(range(n), x))


class TestWhitebox:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_exhaustive_enumeration(self, n):
        for x in range(n + 1):
            rep = whitebox_profile(n, x)
            total = exhaustive_subset_count(n, x)
            assert rep.success_probability == pytest.approx(1.0 / total, rel=1e-12)
            assert rep.min_entropy_bits == pytest.approx(
                math.log2(total), rel=1e-12, abs=1e-12
            )

    def test_matches_comb_to_n20(self):
        for n in range(1, 21):
            for x in range(n + 1):
                rep = whitebox_profile(n, x)
                assert rep.success_probability == pytest.approx(
                    1.0 / math.comb(n, x), rel=1e-12
                )

    def test_symmetry(self):
        for n in range(2, 16):
            for x in range(n // 2 + 1):
                a = whitebox_profile(n, x)
                b = whitebox_profile(n, n - x)
                assert a.min_entropy_bits == pytest.approx(b.min_entropy_bits)

    def test_entropy_peaks_at_half(self):
        for n in range(2, 31):
            entropies = [whitebox_profile(n, x).min_entropy_bits for x in range(n + 1)]
            assert max(entropies) == entropies[n // 2]

    def test_degenerate_warnings(self):
        assert whitebox_profile(5, 0).warning is not None
        assert whitebox_profile(5, 5).warning is not None
        assert whitebox_profile(5, 2).warning is None

    def test_large_n_lgamma_branch(self):
        rep = whitebox_profile(200, 100)
        # log2 C(200,100) ~ 195.5 bits; spot-check against lgamma directly.
        expect = (
            math.lgamma(201) - 2 * math.lgamma(101)
        ) / math.log(2)
        assert rep.min_entropy_bits == pytest.approx(expect, rel=1e-9)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            whitebox_profile(3, 4)
        with pytest.raises(ValueError):
            whitebox_profile(3, -1)


class TestAudit:
    def test_subset_audit(self):
        obf = obfuscate(bell(), ObfuscationMode.SUBSET, seed=0, subset_size=1)
        rep = audit_circuit(obf)
        assert rep.model == "white-box"
        assert rep.success_probability == pytest.approx(0.5)

    def test_global_audit_warns_full_protection(self):
        obf = obfuscate(bell(), ObfuscationMode.GLOBAL, seed=0)
        rep = audit_circuit(obf)
        assert rep.warning is not None

    def test_empty_circuit(self):
        obf = obfuscate(Circuit(1, 0, ()), ObfuscationMode.GLOBAL, seed=0)
        rep = audit_circuit(obf)
        assert (rep.parameters, rep.success_probability, rep.min_entropy_bits) == (
            {"n": 0, "x": 0}, 1.0, 0.0)
        assert rep.warning == "empty circuit"

    def test_to_dict(self):
        d = whitebox_profile(4, 2).to_dict()
        assert set(d) >= {"model", "success_probability", "min_entropy_bits"}
        assert "warning" not in d
        assert "warning" in whitebox_profile(4, 0).to_dict()
