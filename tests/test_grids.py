import math

import numpy as np
import pytest
from hypothesis import assume, find, given, settings
from hypothesis import strategies as st

from conftest import loop_field_q, loop_mechanism_q
from trunclap.grids import (
    FieldConfig,
    GridError,
    GridSpec,
    field_for_mechanism,
    is_aligned,
    quantize,
    ring_covering,
    steps_of,
)
from trunclap.mechanisms import MechanismParams
from trunclap.mpc import Session, mechanism_field, run_batch
from trunclap.validation import Histogram


class TestQuantize:
    def test_examples(self):
        assert quantize(1.30, 2) == 1.25
        assert quantize(-0.30, 2) == -0.50

    def test_idempotent_on_grid(self):
        for x in (-3.75, -1.0, 0.0, 0.25, 2.5):
            assert quantize(x, 2) == x

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_is_refused(self, x):
        # inf raised OverflowError and nan math.floor's bare ValueError
        with pytest.raises(GridError, match="not a finite value"):
            quantize(x, 2)

    def test_a_scaled_overflow_is_refused(self):
        # 1e308 * 2^60 is inf: math.floor raised OverflowError
        with pytest.raises(GridError, match="not a finite value"):
            quantize(1e308, 60)

    @pytest.mark.parametrize("p", [1023, 1024, 2000])
    def test_a_precision_past_the_double_range_is_refused(self, p):
        # 4 * 2^p overflows a double from p = 1023, and 2^p itself from
        # 1024: `x * (1 << p)` raised OverflowError there, and at 1023
        # called 4.0 off the grid
        for refuse in (lambda: quantize(4.0, p), lambda: GridSpec(p=p, B=4.0),
                       lambda: steps_of(4.0, p), lambda: is_aligned(4.0, p)):
            with pytest.raises(GridError, match=f"not a finite value at p = {p}"):
                refuse()
        assert steps_of(0.0, p) == 0 and is_aligned(0.0, p)

    def test_negative_precision_is_refused(self):
        with pytest.raises(GridError, match="precision exponent"):
            quantize(1.0, -1)

    @given(st.floats(-1e6, 1e6), st.integers(0, 12))
    @settings(max_examples=300)
    def test_floor_error_bounds(self, x, p):
        # q <= x < q + 2^-p, phrased to dodge cancellation when x ~ -0
        q = quantize(x, p)
        assert q <= x < q + 2.0**-p

    def test_floor_error_bulk(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-100, 100, size=100_000)
        for p in (0, 3, 8):
            qs = np.floor(xs * 2**p) / 2**p
            assert np.all(qs <= xs) and np.all(xs < qs + 2.0**-p)
            spot = [quantize(float(x), p) for x in xs[:200]]
            assert np.array_equal(spot, qs[:200])


class TestGridSpec:
    def test_cardinality_lattice(self):
        for p in (0, 1, 2, 5):
            for B in (1.0, 2.0, 4.0, 96.0):
                closed = GridSpec(p=p, B=B)
                half = GridSpec(p=p, B=B, half_open=True)
                n = int(2 * B * 2**p)
                assert closed.count == n + 1
                assert half.count == n
                vals = closed.values()
                assert vals[0] == -B and vals[-1] == B
                assert np.allclose(np.diff(vals), 2.0**-p)

    def test_index_value_bijection(self):
        # point i of `values()` is y = (i - bound_steps) 2^-p
        spec = GridSpec(p=1, B=2.0)
        for i, y in enumerate(spec.values()):
            assert steps_of(float(y), spec.p) + spec.bound_steps == i
        assert spec.values()[0] == -2.0
        assert spec.values()[spec.count - 1] == 2.0

    def test_half_open_drops_top(self):
        spec = GridSpec(p=1, B=2.0, half_open=True)
        assert spec.values()[-1] == 1.5
        assert Histogram.from_samples([1.5], spec).n == 1
        with pytest.raises(ValueError, match="off or outside the grid"):
            Histogram.from_samples([2.0], spec)

    def test_rejects_misaligned_bound(self):
        with pytest.raises(GridError):
            GridSpec(p=1, B=1.25)
        with pytest.raises(GridError):
            GridSpec(p=0, B=-1.0)
        with pytest.raises(GridError, match="precision exponent"):
            GridSpec(p=-1, B=1.0)

    @pytest.mark.parametrize("p", [1075, 1076, 1100])
    def test_a_step_below_the_smallest_double_is_refused(self, p):
        # 2^-1073 * 2^p is finite, so the bound is aligned, but the step
        # 2^-p is no double: pmf_tcl read 16 masses of 0.0 at p = 1076
        tiny = 2.0**-1074
        with pytest.raises(GridError, match=f"p = {p} is past 1074"):
            GridSpec(p=p, B=2 * tiny)
        with pytest.raises(GridError, match=f"p = {p} is past 1074"):
            MechanismParams(E=tiny, L=tiny, sigma=1.0, p=p)

    def test_the_finest_grid_counts_its_samples(self):
        # from_samples scaled by 2**p, which overflowed from p = 1024
        tiny = 2.0**-1074
        spec = GridSpec(p=1074, B=2 * tiny)
        assert spec.values().tolist() == [-2 * tiny, -tiny, 0.0, tiny, 2 * tiny]
        h = Histogram.from_samples([-2 * tiny, 0.0, tiny, 2 * tiny], spec)
        assert h.counts.tolist() == [1, 0, 1, 1, 1]

    def test_contains_is_false_off_the_grid(self):
        spec = GridSpec(p=1, B=2.0)
        assert Histogram.from_samples([0.5], spec).n == 1
        with pytest.raises(ValueError, match="off or outside the grid"):
            Histogram.from_samples([0.25], spec)

    def test_off_grid_lookup(self):
        spec = GridSpec(p=0, B=4.0)
        with pytest.raises(GridError):
            steps_of(0.5, spec.p)
        with pytest.raises(ValueError, match="off or outside the grid"):
            Histogram.from_samples([99.0], spec)


class TestFieldConfig:
    @pytest.mark.parametrize("E, L", [(0.0, 2.0), (4.0, -1.0), (math.nan, 2.0), (4.0, math.inf)])
    def test_field_for_mechanism_refuses_a_bound_that_is_not_positive(self, E, L):
        with pytest.raises(GridError, match="must be positive"):
            field_for_mechanism(E, L, 0)

    def test_field_for_mechanism_refuses_a_negative_precision(self):
        with pytest.raises(GridError, match="p >= 0"):
            field_for_mechanism(4.0, 2.0, -1)

    def test_q_validation(self):
        # a ring is its width: q = 2^bits, with the balanced range [-q/2, q/2)
        for bits in (2, 3, 9, 33, 64, 65):
            cfg = FieldConfig(bits)
            assert cfg.q == 2**bits == 2 * cfg.half
            assert cfg.lift(cfg.half - 1) == cfg.half - 1 and cfg.lift(cfg.half) == -cfg.half
        for bad in (1, 0, -3, 9.0, True, "9"):
            with pytest.raises(GridError, match="integer bits >= 2"):
                FieldConfig(bad)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 96, 128, 129, 2**53, 2**53 + 1])
    def test_ring_covering_is_the_smallest_ring_whose_quarter_holds_n(self, n):
        q = ring_covering(n).q
        assert q // 4 >= n and (q == 4 or q // 8 < n)


class TestDefaults:
    def test_field_for_mechanism(self):
        cfg = field_for_mechanism(E=64.0, L=32.0, p=0)
        # inputs up to 64 and outputs up to 96 steps: q/4 = 128 holds both
        assert cfg.q == 2**9
        assert cfg.q // 4 > 96

    def test_field_headroom_grows_with_L(self):
        cfg = field_for_mechanism(E=64.0, L=64.0, p=0)
        assert cfg.q == 2**10
        assert cfg.q // 4 > 128


@st.composite
def ring_sets(draw):
    """(Es, Ls, p) of a mechanism set on a lattice of shapes: E + L below
    one unit (and 2E + L, where the loops' 2^p floor bound), 2E + L a power
    of two, a set at the 2^53 output steps a noise plan admits, and any
    set.  Every 2E + L here is a double, as the float loops need."""
    p = draw(st.integers(0, 50))
    shape = draw(st.sampled_from(["sub-unit", "power", "edge", "any"]))
    if shape == "sub-unit":
        p = max(p, 2)
        Es = draw(st.integers(1, (1 << p) - 2))
        return Es, draw(st.integers(1, (1 << p) - 1 - Es)), p
    if shape == "power":
        k = draw(st.integers(2, 53))
        Es = draw(st.integers(1, (1 << (k - 1)) - 1))
        return Es, (1 << k) - 2 * Es, p
    if shape == "edge":
        p = draw(st.integers(47, 50))
        E, L = (draw(st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0, 6.0])) for _ in "EL")
        assume(E + L <= 2.0 ** (53 - p))
        return int(E * 2**p), int(L * 2**p), p
    return draw(st.integers(1, 2**30)), draw(st.integers(1, 2**30)), p


def ring_mismatch(rule, Es: int, Ls: int, p: int) -> bool:
    """Whether `rule(params)` picks another ring than the sign test's reach
    2E + L needs: the loops' ring (`conftest.loop_mechanism_q`) where it is
    at least one unit, and below that, where the loops' 2^p floor bound,
    the smallest ring whose q/4 holds its 2^p(2E + L) steps."""
    P = MechanismParams(E=math.ldexp(Es, -p), L=math.ldexp(Ls, -p), sigma=1.0, p=p)
    reach = 2 * Es + Ls
    assert 2 * P.E + P.L == math.ldexp(reach, -p)
    if reach >= 1 << p:
        return rule(P).q != loop_mechanism_q(P)
    q = 4
    while q // 4 < reach:
        q *= 2
    return rule(P).q != q


class TestRingRule:
    """`ring_covering` is the one sizing rule, and it picks the ring the
    loops it replaced picked (`conftest.loop_mechanism_q`, `loop_field_q`),
    but for the loops' 2^p floor on a mechanism set whose 2E + L is below
    one unit."""

    @given(ring_sets())
    @settings(max_examples=400, deadline=None)
    def test_mechanism_field_is_the_loop_rule(self, case):
        assert not ring_mismatch(mechanism_field, *case)

    @given(ring_sets(), st.floats(2.0**-30, 2.0**40), st.floats(2.0**-30, 2.0**40))
    @settings(max_examples=400, deadline=None)
    def test_field_for_mechanism_is_the_loop_rule(self, case, E, L):
        # on the grid, and off it
        Es, Ls, p = case
        for E, L in ((E, L), (math.ldexp(Es, -p), math.ldexp(Ls, -p))):
            assert field_for_mechanism(E, L, p).q == loop_field_q(E, L, p)

    def test_a_rule_with_the_floor_fails_the_lattice(self):
        # the mutation control: the 2^p floor the rule kept from the loops
        # widens the ring of a set whose reach is below one unit
        def floored(P):
            return ring_covering(max(2 * steps_of(P.E, P.p) + steps_of(P.L, P.p), 1 << P.p))

        Es, Ls, p = find(ring_sets(), lambda case: ring_mismatch(floored, *case),
                         settings=settings(database=None))
        assert 2 * Es + Ls < 1 << p

    def test_a_sub_unit_set_gets_a_ring_a_word_draws(self):
        # E = L = 2^-60 at p = 63: the sign test reaches 24 steps, but the
        # 2^p floor sized a 2^65 ring, which the dealer cannot draw from
        tiny = 2.0**-60
        P = MechanismParams(E=tiny, L=tiny, sigma=1.0, p=63)
        assert mechanism_field(P).q == 2**7
        z = run_batch("tdl", P, tiny, 3, 0, 1)
        assert np.all(np.abs(z) <= 2 * tiny)

    @pytest.mark.parametrize("E, L, p, q", [(4.0, 2.0, 0, 2**6), (64.0, 32.0, 2, 2**12)])
    def test_the_readme_examples(self, E, L, p, q):
        assert mechanism_field(MechanismParams(E=E, L=L, sigma=1.0, p=p)).q == q

    def test_the_ring_covers_a_sign_test_past_a_double(self):
        # 2E + L = 2^53 + 1 steps is no double: the float loop read 2^53 and
        # stopped at a safe bound of 2^53, one step short of the sign test's
        # reach; the rule counts steps as integers
        P = MechanismParams(E=2.0**52, L=1.0, sigma=1.0, p=0)
        reach = 2 * 2**52 + 1
        assert loop_mechanism_q(P) // 4 == reach - 1
        s = Session(mechanism_field(P), 1, 2)
        assert s.safe_magnitude >= reach and s.q == 2**56
        assert s.open(s.pi_ge(s.share(-reach % s.q))) == 0
