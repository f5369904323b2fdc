"""Decoder/LLM study: mixed precision on a LLaMA-family workload.

The paper's introduction frames the whole design around LLMs (OPT,
LLaMA-2) and the impossibility of retraining them; its programmability
argument cites the GLU-family activations those models introduced.  This
study closes that loop: a causal decoder with RMSNorm + SwiGLU (both
expressed as vector programs on the fp32 personality) is trained in fp32
on a deterministic additive grammar, then served without retraining under
the arithmetic regimes.

Headline (asserted in tests and benchmarks): bfp8-mixed serves the LM at
fp32 accuracy, while conventional int8-everything collapses — the decoder's
normalizer/gate stack is far more quantization-sensitive than the
encoder's, which is exactly why the paper keeps non-linear work in fp32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.eval.reporting import header, render_table
from repro.models.backend import get_backend
from repro.models.data import additive_lm_sequences
from repro.models.decoder import TinyLM
from repro.models.policy import REGIMES
from repro.models.training import next_token_accuracy, train_lm

__all__ = ["DecoderConfig", "run_decoder_study", "run"]


@dataclass(frozen=True)
class DecoderConfig:
    n_samples: int = 800
    seq_len: int = 12
    vocab: int = 8
    dim: int = 32
    depth: int = 2
    n_heads: int = 4
    epochs: int = 15
    lr: float = 3e-3
    seed: int = 0


def run_decoder_study(cfg: DecoderConfig = DecoderConfig()):
    """Train the LM and evaluate next-token accuracy per regime."""
    data = additive_lm_sequences(
        n=cfg.n_samples, seq_len=cfg.seq_len, vocab=cfg.vocab, seed=cfg.seed
    )
    split = int(cfg.n_samples * 0.8)
    lm = TinyLM(vocab=cfg.vocab, seq_len=cfg.seq_len, dim=cfg.dim,
                depth=cfg.depth, n_heads=cfg.n_heads, seed=cfg.seed + 1)
    losses = train_lm(lm, data.tokens[:split], epochs=cfg.epochs, lr=cfg.lr,
                      seed=cfg.seed + 2)
    test = data.tokens[split:]
    rows = []
    for name in REGIMES:
        acc = next_token_accuracy(lm, test, get_backend(name))
        rows.append({"backend": name, "next_token_accuracy": acc})
    # Greedy generation fidelity under the paper's regime.
    prompt = data.tokens[0, :4]
    gen_fp32 = lm.generate(prompt, cfg.seq_len - 4)
    gen_mixed = lm.generate(prompt, cfg.seq_len - 4, get_backend("bfp8-mixed"))
    return lm, losses, rows, bool(np.array_equal(gen_fp32, gen_mixed))


def run(cfg: DecoderConfig = DecoderConfig()) -> str:
    out = [header("Decoder/LLM study -- RMSNorm + SwiGLU causal model")]
    _, losses, rows, gen_match = run_decoder_study(cfg)
    out.append(f"training loss {losses[0]:.3f} -> {losses[-1]:.3f} "
               f"({cfg.epochs} epochs)\n")
    out.append(render_table(
        ["Regime", "Next-token accuracy"],
        [[r["backend"], f"{r['next_token_accuracy']:.4f}"] for r in rows],
    ))
    by = {r["backend"]: r["next_token_accuracy"] for r in rows}
    out.append(
        f"\nbfp8-mixed retains {100 * by['bfp8-mixed'] / by['fp32']:.1f}% of "
        f"fp32 accuracy; int8-all retains {100 * by['int8-all'] / by['fp32']:.1f}%."
    )
    out.append(f"Greedy generation identical to fp32 under bfp8-mixed: {gen_match}")
    return "\n".join(out)


if __name__ == "__main__":  # pragma: no cover
    print(run())
