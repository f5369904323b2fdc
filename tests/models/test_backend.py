"""Tests for the arithmetic-regime backends."""

import numpy as np
import pytest

from repro.arith.bfp_matmul import bfp_matmul_emulate
from repro.errors import RegistryError
from repro.models.backend import get_backend
from repro.models.layers import softmax
from repro.models.policy import POLICY_PRESETS, REGIMES


class TestRegistry:
    def test_all_backends_constructible(self):
        for name in POLICY_PRESETS:
            assert get_backend(name).name == name

    def test_unknown_backend(self):
        with pytest.raises(RegistryError, match="unknown policy preset"):
            get_backend("fp64")

    def test_expected_regimes_present(self):
        assert set(REGIMES) == {
            "fp32", "bfp8-mixed", "bfp8-all", "int8-linear", "int8-all",
            "ibert",
        }


class TestMatmulSemantics:
    def test_fp32_exact(self, rng):
        be = get_backend("fp32")
        x = rng.normal(size=(5, 6)).astype(np.float32)
        w = rng.normal(size=(6, 4)).astype(np.float32)
        assert np.allclose(be.matmul(x, w), x @ w, atol=1e-5)

    def test_bfp8_mixed_matches_emulation(self, rng):
        be = get_backend("bfp8-mixed")
        x = rng.normal(size=(9, 12))
        w = rng.normal(size=(12, 7))
        assert np.allclose(be.matmul(x, w), bfp_matmul_emulate(x, w), atol=1e-6)

    def test_int8_linear_quantizes(self, rng):
        be = get_backend("int8-linear")
        x = rng.normal(size=(5, 6))
        w = rng.normal(size=(6, 4))
        out = be.matmul(x, w)
        # Close to exact but not identical (8-bit grids).
        assert not np.allclose(out, x @ w, atol=1e-9)
        assert np.allclose(out, x @ w, atol=0.3)

    def test_stats_counted(self, rng):
        be = get_backend("fp32")
        be.matmul(np.ones((2, 3), np.float32), np.ones((3, 4), np.float32))
        assert be.matmul_count == 1
        assert be.matmul_macs == 2 * 3 * 4


class TestNonlinearHooks:
    def test_fp32_exact(self, rng):
        be = get_backend("fp32")
        x = rng.normal(size=(3, 5)).astype(np.float32)
        assert np.allclose(be.nonlinear("softmax", softmax, x), softmax(x))

    def test_int8_all_snaps_io(self, rng):
        be = get_backend("int8-all")
        x = (rng.normal(size=(3, 5)) * 10).astype(np.float32)
        out = be.nonlinear("softmax", softmax, x)
        exact = softmax(x)
        assert not np.allclose(out, exact, atol=1e-9)
        assert np.allclose(out.sum(-1), 1.0, atol=0.1)

    def test_mixed_keeps_nonlinear_exact(self, rng):
        """The paper's regime: non-linear functions run in true fp32."""
        be = get_backend("bfp8-mixed")
        x = rng.normal(size=(3, 5)).astype(np.float32)
        assert np.array_equal(be.nonlinear("softmax", softmax, x),
                              softmax(x).astype(np.float32))


class TestRequantize:
    def test_fp32_identity(self, rng):
        x = rng.normal(size=(4, 4)).astype(np.float32)
        assert np.array_equal(get_backend("fp32").requantize(x), x)
        assert np.array_equal(get_backend("bfp8-mixed").requantize(x), x)

    def test_int8_all_snaps(self, rng):
        x = rng.normal(size=(4, 4)).astype(np.float32)
        out = get_backend("int8-all").requantize(x)
        assert not np.array_equal(out, x)
        assert np.abs(out - x).max() < np.abs(x).max() / 64

    def test_bfp8_all_snaps_blockwise(self, rng):
        x = rng.normal(size=(16, 16)).astype(np.float32)
        out = get_backend("bfp8-all").requantize(x)
        assert out.shape == x.shape
        assert np.abs(out - x).max() < np.abs(x).max() / 32
