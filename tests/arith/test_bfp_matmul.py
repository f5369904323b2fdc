"""Tests for bfp8 matrix-multiplication reference semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith.bfp_matmul import (
    BfpWeight,
    WideBlock,
    _emulate_blocks,
    _flatten_cols,
    accumulate,
    activation_blocks,
    bfp_batched_tiles,
    bfp_matmul,
    bfp_matmul_dense,
    bfp_matmul_emulate,
    bfp_matmul_from_tiles,
    bfp_matmul_prepared,
    block_matmul,
    fast_emulate_blocks,
    kernel_dtype,
    requantize_wide,
)
from repro.errors import ConfigurationError, HardwareContractError
from repro.formats.bfp8 import BfpBlock
from repro.formats.blocking import BfpMatrix


def _rand_block(rng, exp=0):
    return BfpBlock(rng.integers(-127, 128, (8, 8)).astype(np.int8), exp)


class TestBlockMatmul:
    def test_exact_integer_product(self, rng):
        x, y = _rand_block(rng, 2), _rand_block(rng, -3)
        z = block_matmul(x, y)
        ref = x.mantissas.astype(np.int64) @ y.mantissas.astype(np.int64)
        assert np.array_equal(z.mantissas, ref)
        assert z.exponent == -1  # Eqn 2: exponent add

    def test_value_semantics(self, rng):
        """Dequantized product equals the product of dequantized blocks."""
        x, y = _rand_block(rng, -4), _rand_block(rng, -6)
        z = block_matmul(x, y)
        assert np.allclose(z.decode(), x.decode() @ y.decode())

    def test_shape_mismatch(self):
        a = BfpBlock(np.zeros((8, 4), np.int8), 0)
        b = BfpBlock(np.zeros((8, 8), np.int8), 0)
        with pytest.raises(ConfigurationError):
            block_matmul(a, b)


class TestAccumulate:
    def test_first_block_passthrough(self):
        w = WideBlock(np.ones((8, 8), np.int64), 3)
        out = accumulate(None, w)
        assert out is w

    def test_alignment_keeps_larger_exponent(self):
        a = WideBlock(np.full((2, 2), 100, np.int64), 4)
        b = WideBlock(np.full((2, 2), 64, np.int64), 0)
        out = accumulate(a, b)
        assert out.exponent == 4
        assert out.mantissas[0, 0] == 100 + (64 >> 4)

    def test_alignment_is_symmetric_in_magnitude(self):
        a = WideBlock(np.full((2, 2), 64, np.int64), 0)
        b = WideBlock(np.full((2, 2), 100, np.int64), 4)
        out = accumulate(a, b)
        assert out.exponent == 4
        assert out.mantissas[0, 0] == 100 + (64 >> 4)

    def test_truncation_error_bound(self, rng):
        """Accumulated value differs from exact by < one ulp per step."""
        blocks = [
            WideBlock(rng.integers(-1000, 1000, (4, 4)), int(e))
            for e in rng.integers(-4, 4, 6)
        ]
        psu = None
        exact = np.zeros((4, 4), dtype=np.float64)
        for w in blocks:
            psu = accumulate(psu, w)
            exact += w.decode()
        err = np.abs(psu.decode() - exact).max()
        assert err <= len(blocks) * 2.0 ** max(w.exponent for w in blocks)

    def test_psu_width_guard(self):
        big = WideBlock(np.full((2, 2), (1 << 46), np.int64), 0)
        with pytest.raises(HardwareContractError):
            accumulate(big, big)


class TestRequantize:
    def test_small_values_pass_through(self):
        w = WideBlock(np.full((2, 2), 100, np.int64), 3)
        q = requantize_wide(w)
        assert q.exponent == 3 and int(q.mantissas[0, 0]) == 100

    def test_renormalization(self):
        w = WideBlock(np.full((2, 2), 1 << 20, np.int64), 0)
        q = requantize_wide(w)
        assert np.allclose(q.decode(), w.decode(), rtol=2**-6)
        assert int(np.abs(q.mantissas).max()) <= 127

    def test_rounding_overflow_bump(self):
        # 255 >> 1 rounds to 128 -> needs the extra shift
        w = WideBlock(np.full((1, 1), 255, np.int64), 0)
        q = requantize_wide(w)
        assert int(np.abs(q.mantissas).max()) <= 127
        assert np.allclose(q.decode(), 255, rtol=2**-6)

    def test_exponent_overflow_raises(self):
        w = WideBlock(np.full((1, 1), 1 << 40, np.int64), 120)
        with pytest.raises(HardwareContractError):
            requantize_wide(w)

    def test_exponent_underflow_saturates(self):
        w = WideBlock(np.full((1, 1), 64, np.int64), -140)
        q = requantize_wide(w)
        assert q.exponent == -128


class TestTiledMatmul:
    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30))
    @settings(max_examples=20)
    def test_emulate_matches_oracle(self, m, k, n):
        rng = np.random.default_rng(m * 7 + k * 3 + n)
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        oracle = bfp_matmul_dense(BfpMatrix.from_dense(a), BfpMatrix.from_dense(b))
        fast = bfp_matmul_emulate(a, b)
        assert np.array_equal(oracle, fast)

    def test_error_vs_exact(self, rng):
        a = rng.normal(size=(32, 64))
        b = rng.normal(size=(64, 16))
        out = bfp_matmul_emulate(a, b)
        ref = a @ b
        rel = np.abs(out - ref).max() / np.abs(ref).max()
        assert rel < 0.05  # bfp8 keeps matmuls to a few percent

    def test_requantized_output_blocks(self, rng):
        a = rng.normal(size=(16, 16))
        b = rng.normal(size=(16, 16))
        am, bm = BfpMatrix.from_dense(a), BfpMatrix.from_dense(b)
        q = bfp_matmul(am, bm)
        dense = bfp_matmul_dense(am, bm)
        # Requantization to 8-bit mantissas costs at most 2^-7 relative.
        scale = np.abs(dense).max()
        assert np.abs(q.to_dense() - dense).max() <= scale * 2**-6

    def test_shape_mismatch(self, rng):
        with pytest.raises(ConfigurationError):
            bfp_matmul_emulate(np.zeros((4, 5)), np.zeros((4, 5)))
        with pytest.raises(ConfigurationError):
            bfp_matmul_dense(
                BfpMatrix.from_dense(np.zeros((8, 8))),
                BfpMatrix.from_dense(np.zeros((16, 8))),
            )


class TestPreparedMatmul:
    def test_matches_dense_entry_point(self, rng):
        a = rng.normal(size=(17, 40))
        b = rng.normal(size=(40, 11))
        am = activation_blocks(a)
        bm = BfpMatrix.from_dense(b)
        assert np.array_equal(
            bfp_matmul_prepared(am, bm), bfp_matmul_emulate(a, b)
        )

    def test_bfp_weight_layout_bit_identical(self, rng):
        """The precomputed flat layout must change nothing numerically."""
        a = rng.normal(size=(9, 24))
        b = rng.normal(size=(24, 20))
        am = activation_blocks(a)
        bm = BfpMatrix.from_dense(b)
        bw = BfpWeight.from_matrix(bm)
        assert np.array_equal(
            bfp_matmul_prepared(am, bw), bfp_matmul_prepared(am, bm)
        )

    def test_bfp_weight_roundtrip(self, rng):
        bm = BfpMatrix.from_dense(rng.normal(size=(24, 20)))
        bw = BfpWeight.from_matrix(bm)
        assert bw.shape == bm.shape
        assert bw.block_shape == bm.block_shape
        assert np.array_equal(bw.to_dense(), bm.to_dense())

    def test_trimmed_rows_match_padded(self, rng):
        """A 1-row decode activation: trimmed tiles == zero-padded tiles."""
        b = rng.normal(size=(32, 16))
        bm = BfpMatrix.from_dense(b)
        for m in (1, 3, 7):
            a = rng.normal(size=(m, 32))
            trimmed = activation_blocks(a)
            padded = BfpMatrix.from_dense(a)  # full 8-row tiles
            assert trimmed.block_shape[0] == m
            assert np.array_equal(
                bfp_matmul_prepared(trimmed, bm),
                bfp_matmul_prepared(padded, bm),
            )

    def test_inner_block_edge_mismatch(self, rng):
        am = BfpMatrix.from_dense(rng.normal(size=(8, 16)), cols=4)
        bm = BfpMatrix.from_dense(rng.normal(size=(16, 8)))
        with pytest.raises(ConfigurationError):
            bfp_matmul_prepared(am, bm)

    def test_inner_dim_mismatch(self, rng):
        am = activation_blocks(rng.normal(size=(4, 16)))
        bm = BfpMatrix.from_dense(rng.normal(size=(24, 8)))
        with pytest.raises(ConfigurationError):
            bfp_matmul_prepared(am, bm)


def _batched(a, b, **kw):
    """The batched matmul: quantize to tiles, then finish from them."""
    return bfp_matmul_from_tiles(*bfp_batched_tiles(a, b, **kw))


class TestBatchedEmulate:
    @given(st.integers(1, 12), st.integers(1, 20), st.integers(1, 12),
           st.integers(1, 4))
    @settings(max_examples=15)
    def test_slices_match_2d_emulation(self, m, k, n, batch):
        rng = np.random.default_rng(m * 31 + k * 7 + n * 3 + batch)
        a = rng.normal(size=(batch, m, k))
        b = rng.normal(size=(batch, k, n))
        out = _batched(a, b)
        assert out.shape == (batch, m, n)
        for i in range(batch):
            assert np.array_equal(out[i], bfp_matmul_emulate(a[i], b[i]))

    def test_narrow_mantissa_slices_match(self, rng):
        a = rng.normal(size=(2, 8, 16))
        b = rng.normal(size=(2, 16, 8))
        out = _batched(a, b, man_bits=4)
        for i in range(2):
            assert np.array_equal(
                out[i], bfp_matmul_emulate(a[i], b[i], man_bits=4)
            )

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            bfp_batched_tiles(np.zeros((2, 4, 5)), np.zeros((2, 4, 5)))
        with pytest.raises(ConfigurationError):
            bfp_batched_tiles(np.zeros((2, 4, 5)), np.zeros((3, 5, 4)))
        with pytest.raises(ConfigurationError):
            bfp_batched_tiles(np.zeros((4, 5)), np.zeros((5, 4)))


# ---------------------------------------------------------------------------
# One kernel beside its oracles: float kernel == int64 oracle == per-block
# ---------------------------------------------------------------------------


def _spread_operand(rng, lead, rows, k, *, man_bits, spread, zero_frac, codes):
    """A ``(*lead, rows, k)`` operand (K last) stressing every alignment regime.

    Each 8x8 block gets its own power-of-two scale in ``2^[-spread, spread]``
    (wide spreads give non-uniform keep steps and ``d = 63`` saturation),
    a ``zero_frac`` share of blocks is all-zero, and a few entries are
    ``-0.0``.  With ``codes`` every value is an exact mantissa code and
    every block row holds the peak code, so the quantizer emits the
    saturating ``+-(2^(man_bits-1) - 1)`` mantissas.
    """
    shape = (*lead, rows, k)
    grid = (*lead, -(-rows // 8), -(-k // 8))
    if codes:
        mm = (1 << (man_bits - 1)) - 1
        x = rng.integers(-mm, mm + 1, shape).astype(np.float64)
        x[..., ::3] = mm * rng.choice([-1.0, 1.0], x[..., ::3].shape)
    else:
        x = rng.standard_normal(shape)

    def per_block(v):
        return np.repeat(np.repeat(v, 8, axis=-2), 8, axis=-1)[..., :rows, :k]

    x = x * per_block(np.exp2(rng.integers(-spread, spread + 1, grid)))
    x[per_block(rng.random(grid) < zero_frac)] = 0.0
    x[rng.random(shape) < 0.05] = -0.0
    return x


def _kernels_agree(a_man, a_exp, b_man, b_exp, m, n, production, per_block):
    """Assert the float kernel, the int64 oracle, the production entry
    point and the per-block oracle all produce the same bytes (so +0.0,
    never -0.0, for zero lanes)."""
    operands = (a_man, a_exp, _flatten_cols(b_man), b_exp)
    fast = fast_emulate_blocks(*operands)[..., :m, :n]
    i64 = _emulate_blocks(*operands)[..., :m, :n]
    want = per_block.tobytes()
    assert fast.tobytes() == want
    assert i64.tobytes() == want
    assert production.tobytes() == want


def _check_2d(a, b, man_bits):
    am = activation_blocks(a, man_bits=man_bits)
    bm = BfpMatrix.from_dense(b, man_bits=man_bits)
    _kernels_agree(
        am.mantissas, am.exponents, bm.mantissas, bm.exponents,
        a.shape[0], b.shape[1],
        bfp_matmul_prepared(am, bm), bfp_matmul_dense(am, bm),
    )


def _check_batched(a, b, man_bits):
    tiles = bfp_batched_tiles(a, b, man_bits=man_bits)
    a_man, a_exp, b_man, b_exp, m, n = tiles
    k = a.shape[-1]
    per_block = np.stack([
        bfp_matmul_dense(
            BfpMatrix(a_man[i], a_exp[i], (m, k)),
            BfpMatrix(b_man[i], b_exp[i], (k, n)),
        )
        for i in range(a.shape[0])
    ])
    _kernels_agree(*tiles, bfp_matmul_from_tiles(*tiles), per_block)


def _operands(seed, batch, m, k, n, man_bits, spread, zero_frac, codes):
    rng = np.random.default_rng(seed)
    lead = () if batch is None else (batch,)
    kw = dict(man_bits=man_bits, spread=spread, zero_frac=zero_frac,
              codes=codes)
    a = _spread_operand(rng, lead, m, k, **kw)
    b = _spread_operand(rng, lead, n, k, **kw).swapaxes(-1, -2)
    return a, b


F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


def _worst_case(kb, man_bits):
    """Peak-code operands ``(8, 8kb) @ (8kb, 8)`` built as block grids.

    Every mantissa is ``+-m``.  Lane (0, 0) sums ``-m^2`` products at one
    exponent, so its PSU runs up to ``-K m^2``; every 40th K block
    arrives 4 exponents low (a truncating floor of a negative product)
    and the last block 1 exponent high (a truncating floor of the
    negative PSU, odd after three such blocks at ``Kb = 130``).  Other
    lanes mix signs.
    """
    m = (1 << (man_bits - 1)) - 1
    a_man = np.full((1, kb, 8, 8), m, np.int16)
    a_man[0, :, 1::2, ::3] *= -1
    b_man = np.full((kb, 1, 8, 8), -m, np.int16)
    b_man[1::3, 0, :, 4:] *= -1
    b_exp = np.zeros((kb, 1), np.int16)
    b_exp[9::40] = -4
    b_exp[-1] = 1
    am = BfpMatrix(a_man, np.zeros((1, kb), np.int16), (8, 8 * kb))
    return am, BfpMatrix(b_man, b_exp, (8 * kb, 8))


def _lane_trace(am, bm):
    """Literal integer PSU chain of output lane (0, 0): its peak |PSU| and
    the counts of truncating floors of negative products / PSUs."""
    psu = exp = None
    peak = neg_prod_floors = neg_psu_floors = 0
    for k in range(am.mantissas.shape[1]):
        p = int(am.mantissas[0, k, 0].astype(np.int64)
                @ bm.mantissas[k, 0, :, 0].astype(np.int64))
        e = int(am.exponents[0, k]) + int(bm.exponents[k, 0])
        if psu is None:
            psu, exp = p, e
        elif exp >= e:
            d = min(exp - e, 63)
            neg_prod_floors += p < 0 and p % (1 << d) != 0
            psu += p >> d
        else:
            d = min(e - exp, 63)
            neg_psu_floors += psu < 0 and psu % (1 << d) != 0
            psu, exp = p + (psu >> d), e
        peak = max(peak, abs(psu))
    return peak, neg_prod_floors, neg_psu_floors


def _grids_agree(am, bm, bw):
    fast = fast_emulate_blocks(am.mantissas, am.exponents, bw.flat, bw.exp64)
    oracle = _emulate_blocks(am.mantissas, am.exponents, bw.flat, bw.exp64)
    assert fast.tobytes() == oracle.tobytes()
    assert bfp_matmul_prepared(am, bw).tobytes() == fast.tobytes()
    assert bfp_matmul_dense(am, bm).tobytes() == fast.tobytes()


class TestKernelDifferential:
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.one_of(st.none(), st.integers(1, 3)),
        m=st.integers(1, 17),
        k=st.one_of(st.integers(1, 80), st.integers(81, 4096)),
        n=st.integers(1, 17),
        man_bits=st.integers(2, 8),
        spread=st.integers(0, 45),
        zero_frac=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
        codes=st.booleans(),
    )
    @settings(max_examples=40)
    def test_f64_kernel_int64_oracle_and_per_block_agree(
        self, seed, batch, m, k, n, man_bits, spread, zero_frac, codes
    ):
        if k > 512:  # keep the per-block oracle's Python loop cheap
            m, n = min(m, 9), min(n, 9)
            batch = None if batch is None else 1
        a, b = _operands(seed, batch, m, k, n, man_bits, spread, zero_frac,
                         codes)
        if batch is None:
            _check_2d(a, b, man_bits)
        else:
            _check_batched(a, b, man_bits)

    def test_fixture_hits_every_alignment_regime(self):
        """A pinned wide-spread input provably reaches non-uniform keep
        steps, the d = 63 saturation on non-zero products, all-zero
        blocks and peak mantissa codes — and the kernels still agree."""
        a, b = _operands(3, None, 24, 512, 24, 8, 45, 0.2, True)
        am = activation_blocks(a)
        bm = BfpMatrix.from_dense(b)
        exps = am.exponents.T[:, :, None] + bm.exponents[:, None, :]
        run = np.maximum.accumulate(exps, axis=0)  # (Kb, Rb, Cb)
        keeps = run[:-1] >= exps[1:]
        per_step = keeps.reshape(keeps.shape[0], -1)
        assert (per_step.any(axis=1) & ~per_step.all(axis=1)).any()
        live = (am.exponents.T[:, :, None] > -128) & (bm.exponents[:, None, :] > -128)
        assert ((run[:-1] - exps[1:] >= 63) & live[1:]).any()
        assert (am.exponents == -128).any() and (bm.exponents == -128).any()
        assert np.abs(am.mantissas).max() == 127
        assert np.abs(bm.mantissas).max() == 127
        _check_2d(a, b, 8)

    def test_negative_zero_lanes_decode_to_positive_zero(self):
        """Zero lanes are +0.0 like the oracle's, even where the BLAS
        (or a -0.0 mantissa fed straight to the kernel) yields -0.0."""
        a = np.full((3, 16), -0.0)
        b = -np.ones((16, 5))
        _check_2d(a, b, 8)
        assert not np.signbit(bfp_matmul_emulate(a, b)).any()
        out = fast_emulate_blocks(
            np.full((1, 2, 1, 8), -0.0), np.zeros((1, 2), np.int64),
            -np.ones((2, 8, 8)), np.zeros((2, 1), np.int64),
        )
        assert not np.signbit(out).any()

    # -- the f32/f64 boundary: K * m^2 + Kb < 2^24 picks float32 ------------

    @pytest.mark.parametrize("man_bits", [4, 6, 8])
    @pytest.mark.parametrize("kb,dtype", [
        (129, F32), (130, F32), (131, F64), (132, F64),
    ])
    def test_boundary_at_k_1040(self, kb, dtype, man_bits):
        """Kb 129-132: float32 while ``K * 127^2 + Kb < 2^24`` (K <= 1040),
        for the weight layout and the kernel alike.  The bound is fixed
        at the 8-bit peak, so narrower formats switch at the same K."""
        am, bm = _worst_case(kb, man_bits)
        bw = BfpWeight.from_matrix(bm)
        assert kernel_dtype(kb) == dtype
        assert bw.flat.dtype == dtype
        _grids_agree(am, bm, bw)

    def test_pinned_worst_case_at_k_1040(self):
        """All codes +-127 at the largest f32 K: the PSU comes within 3%
        of 2^24, and both kinds of truncating floor of a negative value
        happen — the kernel still matches the oracles byte for byte."""
        am, bm = _worst_case(130, 8)
        peak, prod_floors, psu_floors = _lane_trace(am, bm)
        assert 2**24 * 0.97 < peak <= 1040 * 127**2 + 130 < 2**24
        assert prod_floors > 0 and psu_floors > 0
        bw = BfpWeight.from_matrix(bm)
        assert bw.flat.dtype == F32
        _grids_agree(am, bm, bw)
