"""A fixed reference computation, timed between a run's rounds.

The 2-vCPU host the benchmark was built on changes speed by 20-40% for tens
of seconds at a time, longer than one run, and every kind of work slows
with it. Timing this computation beside the rounds measures that speed, and
`scale` turns a run's wall times (set-up and rounds) into reference seconds: the time the same
run would take at the speed where this computation takes `REFERENCE_S`.

The computation is the benchmark's own code, never the program's, so a
change to `fungi` moves the rounds and not the calibration. Its five parts,
of about equal length, mimic the program's kinds of work: float64
softmax-regression steps (the probe), a per-query loop of small products
and partial sorts (kNN and retrieval), float32 attention over 1025 tokens
(the encoder at 512 px), a linear layer and GELU on 197 tokens (the encoder
at 224 px, where the GELU leads), and plain interpreter work (autodiff
bookkeeping). Tried beside extract, kNN and segmentation rounds, all five
together tracked the rounds better than any one part or the first three.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# about the median time of `Calibration.run` on the machine in BASELINE.json, one BLAS thread
REFERENCE_S = 0.4


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.rows = rng.standard_normal((2400, 256))
        self.weights = rng.standard_normal((10, 256))
        self.tokens = rng.standard_normal((1025, 64)).astype(np.float32)
        self.small = rng.standard_normal((197, 64)).astype(np.float32)
        self.mlp = rng.standard_normal((64, 256)).astype(np.float32)
        self.times = []

    def run(self):
        """Times one pass and keeps the time."""
        start = time.perf_counter()
        for _ in range(32):
            z = self.rows @ self.weights.T
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            self.rows.T @ p
        for i in range(4000):
            d = self.rows[:300] @ self.rows[i % 2400]
            np.argpartition(d, 10)[:10]
        for _ in range(3):
            s = self.tokens @ self.tokens.T
            s = np.exp(s - s.max(axis=1, keepdims=True))
            s @ self.tokens
        for _ in range(16):
            h = self.small @ self.mlp
            g = 0.5 * h * (1 + np.tanh(0.7978845608 * (h + 0.044715 * h**3)))
            g @ self.mlp.T
        acc, table = 0, {}
        for i in range(300000):
            table[i & 1023] = acc
            acc += i * 3 % 7
        seconds = time.perf_counter() - start
        self.times.append(seconds)
        return seconds

    def run_for(self, seconds):
        """Passes until they add up to `seconds`, at least one."""
        spent = self.run()
        while spent < seconds:
            spent += self.run()

    def scale(self):
        """Reference seconds per wall second over the passes so far."""
        return REFERENCE_S / statistics.median(self.times)
