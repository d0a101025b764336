"""Formula-level tests.

Frozen golden values were produced by an independent 40-digit mpmath
evaluation of the same closed forms (entropy, log-gamma binomials, the
binding bound on the identical delta grid); enumeration and bisection
oracles run live in the tests.
"""

import math
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import binding_reference
from pbc_bb84 import math_core as mc

# 40-digit mpmath evaluations, frozen.
H_011 = 0.499915958164528
LOG2_BINOM_400_200 = 395.35142215691517
KEY_RATE_BOUND_GOLDEN = 0.14319654793999956
PA_100_002 = (54.796843937659866, 48.574046186918428)
PA_1_02 = (0.95265925449029926, 0.80299168279866358)
FKR_002 = 0.56739569094069851
REDUNDANT_GOLDEN = 0.99895017107857669
BINDING_LITERAL_GOLDEN = 2.37942307802  # p=0.1, n_tol=20, e_tol=0.05, grid 1e4
BINDING_HOEFFDING_GOLDEN = 1.38550337508


class TestBinaryEntropy:
    def test_boundaries(self):
        assert mc.binary_entropy(0.0) == 0.0
        assert mc.binary_entropy(1.0) == 0.0
        assert mc.binary_entropy(0.5) == 1.0

    def test_golden(self):
        assert mc.binary_entropy(0.11) == pytest.approx(H_011, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            mc.binary_entropy(-0.01)
        with pytest.raises(ValueError):
            mc.binary_entropy(1.01)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_symmetry(self, q):
        assert mc.binary_entropy(q) == pytest.approx(
            mc.binary_entropy(1.0 - q), abs=1e-12
        )


class TestLog2Binom:
    def test_small_exact(self):
        assert mc.log2_binom(4, 2) == pytest.approx(math.log2(6), abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 7, 100])
    def test_k_zero(self, n):
        assert mc.log2_binom(n, 0) == pytest.approx(0.0, abs=1e-12)

    def test_large(self):
        assert mc.log2_binom(400, 200) == pytest.approx(
            LOG2_BINOM_400_200, abs=0.1
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            mc.log2_binom(4, -1)
        with pytest.raises(ValueError):
            mc.log2_binom(4, 5)

    def test_pascal_consistency(self):
        for n in range(31):
            for k in range(n + 1):
                exact = math.comb(n, k)
                assert 2.0 ** mc.log2_binom(n, k) == pytest.approx(
                    exact, rel=1e-10
                )

    def test_exact_oracle(self):
        worst = max(
            abs(mc.log2_binom(n, k) - math.log2(math.comb(n, k)))
            for n in range(2, 641)
            for k in range(n + 1)
        )
        assert worst < 1e-9


class TestLog2ErrorBall:
    """The log-domain error-ball sum of the binding bound against its exact
    integer value, at the allowances m = floor(E * n) for E up to 0.45."""

    @pytest.mark.parametrize("e_tol", [0.0, 0.05, 0.1, 0.2, 0.34, 0.45])
    def test_exact_oracle(self, e_tol):
        for n in range(2, 641):
            m = mc._floor_tol(e_tol * n)
            exact = 1 + sum((2**k - 1) * math.comb(n, k) for k in range(1, m + 1))
            assert abs(mc._log2_error_ball(n, m) - math.log2(exact)) < 1e-9, (n, m)


class TestKeyRateBound:
    def test_large_n_limit(self):
        params = mc.RateParams(
            n_quarter=10**9, q_tol=0.0, leak_ec=0.0, eps_sec=0.5, eps_cor=0.5
        )
        assert mc.key_rate_bound(params) == pytest.approx(1.0, abs=1e-6)

    def test_golden(self):
        q = 0.05
        leak = 4 * 100 * 1.2 * mc.binary_entropy(q)
        params = mc.RateParams(
            n_quarter=100, q_tol=q, leak_ec=leak, eps_sec=1e-9, eps_cor=1e-9
        )
        assert mc.key_rate_bound(params) == pytest.approx(
            KEY_RATE_BOUND_GOLDEN, rel=1e-12
        )

    def test_full_leakage_negative(self):
        for n in (1, 10, 1000):
            params = mc.RateParams(
                n_quarter=n, q_tol=0.0, leak_ec=4 * n, eps_sec=0.5, eps_cor=0.5
            )
            assert mc.key_rate_bound(params) <= 0.0


class TestPaDiscard:
    def _params(self, n, q):
        return mc.RateParams(
            n_quarter=n, q_tol=q, leak_ec=0.0, eps_sec=0.5, eps_cor=0.5
        )

    def test_noiseless(self):
        assert mc.pa_discard(self._params(100, 0.0)) == (0.0, 0.0)

    def test_golden(self):
        exact, approx = mc.pa_discard(self._params(100, 0.02))
        assert exact == pytest.approx(PA_100_002[0], rel=1e-12)
        assert approx == pytest.approx(PA_100_002[1], rel=1e-12)
        assert exact != approx

    def test_small_frame(self):
        exact, approx = mc.pa_discard(self._params(1, 0.2))
        assert exact == pytest.approx(PA_1_02[0], rel=1e-12)
        assert approx == pytest.approx(PA_1_02[1], rel=1e-12)

    def test_domain_error(self):
        # q/(1-h(q)) leaves [0,1] around q ~ 0.227
        with pytest.raises(ValueError):
            mc.pa_discard(self._params(1, 0.25))


class TestFinalKeyRate:
    def test_noiseless(self):
        assert mc.final_key_rate(0.0) == 1.0

    def test_golden(self):
        assert mc.final_key_rate(0.02) == pytest.approx(FKR_002, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            mc.final_key_rate(0.5)
        with pytest.raises(ValueError):
            mc.final_key_rate(-0.001)

    def test_strictly_decreasing(self):
        qs = [0.2 * i / 999 for i in range(1000)]
        vals = [mc.final_key_rate(q) for q in qs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_zero_crossing(self):
        # bisection oracle on the closed form
        lo, hi = 0.0, 0.2
        for _ in range(200):
            mid = (lo + hi) / 2
            if mc.final_key_rate(mid) > 0:
                lo = mid
            else:
                hi = mid
        root = (lo + hi) / 2
        assert root == pytest.approx(0.068, abs=0.002)

    def test_expanded_form_agrees(self):
        for i in range(500):
            q = 0.22 * i / 499
            h = mc.binary_entropy(q)
            expanded = 1.0 - h - 1.2 * h - h * (1.0 - h)
            assert mc.final_key_rate(q) == pytest.approx(expanded, abs=1e-12)


class TestStandaloneFeasibility:
    def test_boundary(self):
        required, feasible = mc.standalone_feasibility(0.0)
        assert required == 1.0
        assert feasible  # equality at the boundary

    @pytest.mark.parametrize("q", [0.01, 0.1])
    def test_infeasible(self, q):
        required, feasible = mc.standalone_feasibility(q)
        assert required == 1.0
        assert not feasible
        assert mc.final_key_rate(q) < 1.0


def commit_probability_enumeration(n_quarter: int, x: int) -> float:
    """Exact-enumeration oracle: all 2^(4N) basis patterns times all
    2^(2N) same-basis outcome substrings; codebook membership decided by
    position in an explicitly sorted list of balanced strings."""
    four_n = 4 * n_quarter
    two_n = 2 * n_quarter
    balanced = sorted(
        "".join("1" if i in ones else "0" for i in range(two_n))
        for ones in combinations(range(two_n), n_quarter)
    )
    codewords = set(balanced[:x])
    hits = 0
    for pattern in range(2**four_n):
        if bin(pattern).count("1") != two_n:
            continue
        for sub in range(2**two_n):
            if format(sub, f"0{two_n}b") in codewords:
                hits += 1
    return hits / (2**four_n * 2**two_n)


class TestCommitProbability:
    def test_exact_n2(self):
        assert mc.commit_probability(2, 6) == pytest.approx(420 / 4096, rel=1e-12)

    def test_exact_n1(self):
        assert mc.commit_probability(1, 2) == pytest.approx(0.1875, rel=1e-12)

    def test_empty_codebook(self):
        for n in (1, 5, 100):
            assert mc.commit_probability(n, 0) == 0.0

    def test_capacity_guard(self):
        with pytest.raises(ValueError):
            mc.commit_probability(2, 7)

    @pytest.mark.parametrize("n_quarter", [1, 2, 3])
    def test_matches_enumeration(self, n_quarter):
        cap = math.comb(2 * n_quarter, n_quarter)
        for x in range(cap + 1):
            expected = commit_probability_enumeration(n_quarter, x)
            if expected == 0.0:
                assert mc.commit_probability(n_quarter, x) == 0.0
            else:
                assert mc.commit_probability(n_quarter, x) == pytest.approx(
                    expected, rel=1e-12
                )

    def test_linear_in_x(self):
        for n_quarter, x in [(2, 3), (5, 40), (100, 10**20)]:
            if 2 * x <= math.comb(2 * n_quarter, n_quarter):
                assert mc.commit_probability(n_quarter, 2 * x) == pytest.approx(
                    2 * mc.commit_probability(n_quarter, x), rel=1e-9
                )


class TestRedundantKeyRate:
    def test_p_zero_limit(self):
        assert mc.redundant_key_rate(0.0, 0.0, 100) == 1.0

    def test_golden(self):
        assert mc.redundant_key_rate(0.0, 0.001, 100) == pytest.approx(
            REDUNDANT_GOLDEN, abs=1e-12
        )

    def test_below_final_rate(self):
        for q in (0.0, 0.02, 0.05):
            r = mc.final_key_rate(q)
            for i in range(1, 101):
                p = i / 100
                assert mc.redundant_key_rate(q, p, 1) < r

    def test_decreasing_in_p(self):
        ps = [i / 1000 for i in range(1, 1001)]
        vals = [mc.redundant_key_rate(0.02, p, 100) for p in ps]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestBindingBound:
    def test_p_zero(self):
        bp = mc.BindingParams(p_commit=0.0, n_tol=20, e_tol=0.05)
        assert mc.binding_bound(bp) == 0.0

    def test_goldens(self):
        bp = mc.BindingParams(p_commit=0.1, n_tol=20, e_tol=0.05, delta_grid=10_000)
        assert mc.binding_bound(bp, mc.VARIANT_LITERAL) == pytest.approx(
            BINDING_LITERAL_GOLDEN, rel=1e-9
        )
        assert mc.binding_bound(bp, mc.VARIANT_HOEFFDING) == pytest.approx(
            BINDING_HOEFFDING_GOLDEN, rel=1e-9
        )

    def test_non_negative(self):
        for n_tol in (2, 10, 50):
            for e_tol in (0.0, 0.05, 0.2):
                bp = mc.BindingParams(0.3, n_tol, e_tol, delta_grid=200)
                for variant in mc.BINDING_VARIANTS:
                    assert mc.binding_bound(bp, variant) >= 0.0

    def test_n_tol_one_rejected(self):
        bp = mc.BindingParams(0.1, 1, 0.05)
        with pytest.raises(ValueError):
            mc.binding_bound(bp)

    def test_unknown_variant(self):
        bp = mc.BindingParams(0.1, 20, 0.05)
        with pytest.raises(ValueError):
            mc.binding_bound(bp, "chernoff")


BINDING_P = (0.01, 0.1, 0.1025, 0.5, 1.0)
BINDING_N_TOL = (2, 3, 5, 10, 20, 40, 80, 160, 320, 640)
BINDING_E_TOL = (0.0, 0.05, 0.1, 0.2, 0.25, 0.34, 0.45)


def binding_mismatches(p_values, delta_grid):
    """Cases where the numpy grid and the scalar loop disagree by more
    than 1e-12 relative, or print differently at ``%.12g``."""
    bad = []
    for p in p_values:
        for n_tol in BINDING_N_TOL:
            for e_tol in BINDING_E_TOL:
                bp = mc.BindingParams(p, n_tol, e_tol, delta_grid)
                for variant in mc.BINDING_VARIANTS:
                    got = mc.binding_bound(bp, variant)
                    want = binding_reference.binding_bound(bp, variant)
                    if not math.isclose(got, want, rel_tol=1e-12) or (
                        f"{got:.12g}" != f"{want:.12g}"
                    ):
                        bad.append((p, n_tol, e_tol, delta_grid, variant, got, want))
    return bad


class TestBindingMatchesReference:
    """The numpy grid against the scalar loop it replaced
    (``tests/binding_reference.py``)."""

    @pytest.mark.parametrize("delta_grid", [2, 7, 500])
    def test_every_case(self, delta_grid):
        assert binding_mismatches(BINDING_P, delta_grid) == []

    def test_default_grid(self):
        # the infimum does not depend on p, so one p covers every grid
        assert binding_mismatches((0.1025,), 10_000) == []


class TestParamValidation:
    def test_rate_params(self):
        with pytest.raises(ValueError):
            mc.RateParams(0, 0.1, 0.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            mc.RateParams(1, 0.5, 0.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            mc.RateParams(1, 0.1, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            mc.RateParams(1, 0.1, -1.0, 0.5, 0.5)

    def test_binding_params(self):
        with pytest.raises(ValueError):
            mc.BindingParams(1.5, 10, 0.05)
        with pytest.raises(ValueError):
            mc.BindingParams(0.1, 10, 0.5)
        with pytest.raises(ValueError):
            mc.BindingParams(0.1, 10, 0.05, delta_grid=1)
        with pytest.raises(ValueError):
            mc.BindingParams(0.1, 10, 0.05, delta_grid=mc.MAX_DELTA_GRID + 1)
        mc.BindingParams(0.1, 10, 0.05, delta_grid=mc.MAX_DELTA_GRID)
        with pytest.raises(ValueError):
            mc.BindingParams(0.1, mc.MAX_N_TOL + 1, 0.05)
        mc.BindingParams(0.1, mc.MAX_N_TOL, 0.05)
