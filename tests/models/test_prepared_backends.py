"""Cached vs uncached backend equivalence: the prepared path must be exact.

The prepared-operand cache only buys performance; every backend's matmul
must be *bit-identical* with and without it, for every mantissa / integer
bitwidth, and an in-place weight update must never be served stale.
"""

import numpy as np
import pytest

from repro.models.backend import get_backend
from repro.models.decoder import TinyLM
from repro.models.layers import Linear
from repro.obs.profile import Profiler
from repro.perf.prepared import (
    PreparedOperandCache,
    PreparedTensor,
    get_cache,
    set_cache,
)

FACTORIES = [
    pytest.param(lambda name=name: get_backend(name), id=name)
    for name in (
        "bfp8-mixed", "bfp4-mixed", "bfp6-mixed", "bfp8-all",
        "int8-linear", "int4-linear", "int6-linear", "int8-all", "ibert",
    )
]


@pytest.fixture(autouse=True)
def fresh_cache():
    prev = set_cache(PreparedOperandCache(capacity=32))
    try:
        yield get_cache()
    finally:
        set_cache(prev)


def _uncached(fn):
    """Run ``fn`` with the prepared cache disabled (capacity=0)."""
    prev = set_cache(PreparedOperandCache(capacity=0))
    try:
        return fn()
    finally:
        set_cache(prev)


class TestBitExactness:
    @pytest.mark.parametrize("factory", FACTORIES)
    def test_prepared_matmul_bit_identical(self, factory, rng):
        x = rng.normal(size=(9, 24))
        w = rng.normal(size=(24, 13))
        baseline = _uncached(lambda: factory().matmul(x, w))
        be = factory()
        prepared = be.prepare_weight(w)
        assert isinstance(prepared, PreparedTensor)
        first = be.matmul(x, prepared)
        second = be.matmul(x, be.prepare_weight(w))  # served from cache
        assert np.array_equal(first, baseline)
        assert np.array_equal(second, baseline)

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_dense_weight_path_unchanged(self, factory, rng):
        """matmul with a raw array must equal the prepared path too."""
        x = rng.normal(size=(5, 16))
        w = rng.normal(size=(16, 8))
        be = factory()
        dense_out = be.matmul(x, w)
        prepared_out = factory().matmul(x, factory().prepare_weight(w))
        assert np.array_equal(dense_out, prepared_out)

    def test_fp32_prepare_is_identity(self, rng):
        be = get_backend("fp32")
        w = rng.normal(size=(8, 8)).astype(np.float32)
        assert be.prepare_weight(w) is w

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_mutated_weight_not_served_stale(self, factory, rng):
        """Fingerprint invalidation: update-in-place then re-prepare."""
        x = rng.normal(size=(4, 16))
        w = rng.normal(size=(16, 8))
        be = factory()
        before = be.matmul(x, be.prepare_weight(w))
        w *= 1.5  # the in-place update pattern of the Adam step
        after = be.matmul(x, be.prepare_weight(w))
        expected = _uncached(lambda: factory().matmul(x, w))
        assert np.array_equal(after, expected)
        assert not np.array_equal(after, before)


class TestBatchedMatmul:
    @pytest.mark.parametrize("factory", FACTORIES)
    def test_batched_matches_per_slice(self, factory, rng):
        a = rng.normal(size=(3, 9, 16))
        b = rng.normal(size=(3, 16, 7))
        batched = factory().matmul_batched(a, b)
        per_slice = np.stack(
            [factory().matmul(a[i], b[i]) for i in range(3)]
        )
        assert np.array_equal(batched, per_slice)

    def test_fp32_batched_close_to_per_slice(self, rng):
        a = rng.normal(size=(3, 5, 8)).astype(np.float32)
        b = rng.normal(size=(3, 8, 4)).astype(np.float32)
        be = get_backend("fp32")
        out = be.matmul_batched(a, b)
        assert np.allclose(out, a @ b, atol=1e-6)

    def test_batched_stats_count_logical_passes(self, rng):
        be = get_backend("bfp8-mixed")
        a = rng.normal(size=(4, 3, 16))
        b = rng.normal(size=(4, 16, 8))
        be.matmul_batched(a, b)
        assert be.matmul_count == 4
        assert be.matmul_macs == 4 * 3 * 16 * 8
        assert be.matmul_rows == 4 * 3

    def test_batched_shape_validation(self):
        from repro.errors import ConfigurationError

        be = get_backend("bfp8-mixed")
        with pytest.raises(ConfigurationError):
            be.matmul_batched(np.zeros((2, 3, 4)), np.zeros((3, 4, 5)))
        with pytest.raises(ConfigurationError):
            be.matmul_batched(np.zeros((2, 3, 4)), np.zeros((2, 5, 6)))


class TestQuantizeAttribution:
    def test_weight_quantization_counted_once(self, rng):
        prof = Profiler()
        be = get_backend("bfp8-mixed")
        be.profiler = prof
        x = rng.normal(size=(4, 16))
        w = rng.normal(size=(16, 8))
        pw = be.prepare_weight(w)  # miss: 128 weight elements quantized
        be.matmul(x, pw)  # + 64 activation elements
        be.matmul(x, pw)  # + 64 activation elements, weight untouched
        quantize = {
            key: e for key, e in prof.entries.items() if key[2] == "quantize"
        }
        assert quantize, "no quantize bucket recorded"
        total_ops = sum(e.ops for e in quantize.values())
        assert total_ops == w.size + 2 * x.size
        assert all(key[1] == "bfp8" for key in quantize)
        assert all(e.cycles == 0 for e in quantize.values())

    def test_cache_hit_skips_weight_quantization(self, rng):
        w = rng.normal(size=(16, 8))
        get_backend("bfp8-mixed").prepare_weight(w)  # warm the shared cache
        prof = Profiler()
        be = get_backend("bfp8-mixed")
        be.profiler = prof
        be.matmul(rng.normal(size=(2, 16)), be.prepare_weight(w))
        total_ops = sum(
            e.ops for key, e in prof.entries.items() if key[2] == "quantize"
        )
        assert total_ops == 2 * 16  # only the activation


class TestModelWarming:
    def test_linear_prepares_through_cache(self, fresh_cache, rng):
        lin = Linear(16, 8, rng=rng)
        be = get_backend("bfp8-mixed")
        lin.prepare(be)
        assert len(fresh_cache) == 1
        lin.forward(rng.normal(size=(3, 16)).astype(np.float32), be)
        assert len(fresh_cache) == 1  # served the warmed entry

    def test_tinylm_decode_bit_identical_cached(self, rng):
        model = TinyLM(
            vocab=11, seq_len=8, dim=16, depth=1, n_heads=2, seed=3
        )

        def decode():
            be = get_backend("bfp8-mixed")
            caches = model.init_cache()
            logits = model.forward_step(1, 0, caches, be)
            for pos in range(1, 5):
                tok = int(np.argmax(logits)) % model.vocab
                logits = model.forward_step(tok, pos, caches, be)
            return logits

        uncached = _uncached(decode)
        model.prepare(get_backend("bfp8-mixed"))
        assert len(get_cache()) > 0
        cached = decode()
        assert np.array_equal(uncached, cached)

    def test_model_weights_enumerated(self):
        model = TinyLM(
            vocab=11, seq_len=8, dim=16, depth=2, n_heads=2, seed=3
        )
        weights = model.matmul_weights()
        assert len(weights) > 0
        assert all(w.ndim == 2 for w in weights)
