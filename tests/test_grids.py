import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunclap.grids import (
    FieldConfig,
    GridError,
    GridSpec,
    field_for_mechanism,
    quantize,
)


class TestQuantize:
    def test_examples(self):
        assert quantize(1.30, 2) == 1.25
        assert quantize(-0.30, 2) == -0.50

    def test_idempotent_on_grid(self):
        for x in (-3.75, -1.0, 0.0, 0.25, 2.5):
            assert quantize(x, 2) == x

    def test_range_check(self):
        with pytest.raises(GridError):
            quantize(4.0, 2, e=3)
        assert quantize(3.9, 2, e=3) == 3.75

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_non_finite_is_refused(self, x):
        # inf raised OverflowError and nan math.floor's bare ValueError
        for e in (None, 3):
            with pytest.raises(GridError, match="not a finite value"):
                quantize(x, 2, e=e)

    def test_a_scaled_overflow_is_refused(self):
        # 1e308 * 2^60 is inf: math.floor raised OverflowError
        with pytest.raises(GridError, match="not a finite value"):
            quantize(1e308, 60)

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
        spec = GridSpec(p=1, B=2.0)
        for y in spec.values():
            assert spec.value_of(spec.index_of(float(y))) == y
        assert spec.index_of(-2.0) == 0
        assert spec.value_of(spec.count - 1) == 2.0

    def test_half_open_drops_top(self):
        spec = GridSpec(p=1, B=2.0, half_open=True)
        assert spec.values()[-1] == 1.5
        assert not spec.contains(2.0)
        with pytest.raises(GridError):
            spec.index_of(2.0)

    def test_rejects_misaligned_bound(self):
        with pytest.raises(GridError):
            GridSpec(p=1, B=1.25)
        with pytest.raises(GridError):
            GridSpec(p=0, B=-1.0)
        with pytest.raises(GridError, match="precision exponent"):
            GridSpec(p=-1, B=1.0)

    def test_contains_is_false_off_the_grid(self):
        spec = GridSpec(p=1, B=2.0)
        assert spec.contains(0.5) and not spec.contains(0.25)

    def test_off_grid_lookup(self):
        spec = GridSpec(p=0, B=4.0)
        with pytest.raises(GridError):
            spec.index_of(0.5)
        with pytest.raises(GridError):
            spec.value_of(99)


class TestFieldConfig:
    def test_encode_examples(self):
        cfg = FieldConfig(e=3, p=2)  # q = 2^6
        assert cfg.encode(1.25) == 5
        assert cfg.encode(-0.75) == -3
        assert cfg.unbalanced(cfg.encode(-0.75)) == 61
        assert cfg.encode(0.0) == 0

    def test_decode_examples(self):
        cfg = FieldConfig(e=3, p=2)
        assert cfg.decode(5) == 1.25
        assert cfg.decode(61) == -0.75
        assert cfg.decode(5 + 7 * cfg.q) == 1.25  # any representative

    def test_round_trip_exhaustive(self):
        # e=4 admits the closed bound +/-4 itself, so all 33 points round-trip
        cfg = FieldConfig(e=4, p=2)
        spec = GridSpec(p=2, B=4.0)
        for y in spec.values():
            assert cfg.decode(cfg.encode(float(y))) == y

    def test_decode_rejects_past_the_headroom(self):
        cfg = FieldConfig(e=3, p=2)  # decodes |x| < 4 of the residues' [-8, 8)
        assert cfg.decode(15) == 3.75
        with pytest.raises(GridError, match="outside the headroom"):
            cfg.decode(16)

    @pytest.mark.parametrize("E, L", [(0.0, 2.0), (4.0, -1.0)])
    def test_field_for_mechanism_refuses_a_bound_that_is_not_positive(self, E, L):
        with pytest.raises(GridError, match="must be positive"):
            field_for_mechanism(E, L, 0)

    def test_encode_rejects_out_of_range(self):
        cfg = FieldConfig(e=3, p=2)
        with pytest.raises(GridError):
            cfg.encode(4.0)
        with pytest.raises(GridError):
            cfg.encode(0.3)  # off-grid

    def test_q_validation(self):
        # q is derived: the smallest power of two above 2^(p+e+headroom),
        # with the balanced range [-q/2, q/2)
        for e, p, headroom in [(1, 0, 0), (3, 2, 0), (3, 2, 2), (8, 2, 1), (1, 59, 3)]:
            cfg = FieldConfig(e=e, p=p, headroom=headroom)
            assert cfg.q == 2 ** (p + e + headroom + 1) == 2 * cfg.half
            assert cfg.lift(cfg.half - 1) == cfg.half - 1 and cfg.lift(cfg.half) == -cfg.half
        for bad in [dict(e=0, p=2), dict(e=3, p=-1), dict(e=3, p=2, headroom=-1)]:
            with pytest.raises(GridError):
                FieldConfig(**bad)

    @given(st.integers(-15, 15), st.integers(-15, 15))
    @settings(max_examples=200)
    def test_homomorphism(self, a, b):
        cfg = FieldConfig(e=3, p=2)
        x, y = a / 4.0, b / 4.0
        if abs(x + y) >= 4.0 - 1e-12:
            return
        lhs = cfg.lift(cfg.encode(x) + cfg.encode(y))
        assert lhs == cfg.encode(x + y)


class TestDefaults:
    def test_field_for_mechanism(self):
        cfg = field_for_mechanism(E=64.0, L=32.0, p=0)
        # inputs up to 64 need e=8; outputs up to 96 fit in the same range
        assert cfg.e == 8 and cfg.headroom == 0
        assert cfg.q == 2**9
        assert cfg.decode(cfg.lift(96)) == 96.0

    def test_field_headroom_grows_with_L(self):
        cfg = field_for_mechanism(E=64.0, L=64.0, p=0)
        assert 2.0 ** (cfg.e + cfg.headroom - 1) > 128
        assert cfg.q > 2 ** (cfg.p + cfg.e + cfg.headroom)
