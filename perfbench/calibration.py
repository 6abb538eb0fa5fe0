"""Calibration kernels: fixed work of each workload's kind that never calls
the library, timed next to the library's work to track the host's speed.

The benchmark's host is shared, and its speed drifts by tens of percent over
tens of seconds: one fixed simulation, repeated for 90 s in one process, had
15-second medians with an interquartile range of 31% of their median, while
its ratio to a kernel of the same kind of work, timed right after each
repetition, varied by 2%. So the run times its workload's kernel between
set-ups and between phases, and scales set-up and pass times by (nominal /
median kernel time). Reported times are seconds at the speed where the
kernel takes its nominal time; the raw wall times are printed next to them.

A kernel imitates the shape of its workload's work (array sizes, Python
loop lengths, numpy calls), not the library's code, so no change to the
library can move it.
"""

from __future__ import annotations

import time

import numpy as np


class Kernel:
    nominal_s = 0.05  # scaled times are seconds at this kernel time

    def __init__(self) -> None:
        self.rng = np.random.default_rng(20230814)

    def run(self) -> None:
        raise NotImplementedError

    def time(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


class SimKernel(Kernel):
    """A step loop over a (runs, N) AoI matrix: gather, sort, select, update,
    histogram; optionally small matrix products per plant (trajectory) and
    a fixed-point iteration on 3x3 matrices per plant (Riccati set-up)."""

    def __init__(self, runs: int, n: int, m: int, steps: int, plants: int = 0,
                 riccati: int = 0):
        super().__init__()
        self.m, self.steps, self.plants, self.riccati = m, steps, plants, riccati
        self.table = self.rng.random((n, 256))
        self.u = self.rng.random((runs, n))
        self.cols = np.arange(n)[None, :]
        self.a = self.rng.random((3, 3)) / 3.0
        self.x = self.rng.random((runs, 3))

    def run(self) -> None:
        d = np.ones(self.u.shape, dtype=np.int64)
        hist = np.zeros(129, dtype=np.int64)
        for _ in range(self.steps):
            s = self.table.T[np.minimum(d, 255), self.cols]
            order = np.argsort(-s, axis=1, kind="stable")
            mask = np.zeros(s.shape, dtype=bool)
            np.put_along_axis(mask, order[:, : self.m], True, axis=1)
            d = np.where(mask & (self.u < 0.9), 1, d + 1)
            hist += np.bincount(np.minimum(d, 128).ravel(), minlength=129)
            x = self.x
            for _ in range(self.plants):
                x = np.where(mask[:, :1], x @ self.a.T, x @ self.a.T + 0.1)
                np.einsum("ij,ij->i", x, x)
        q = np.eye(3)
        for _ in range(self.riccati):
            post = q
            for _ in range(15):
                prior = self.a @ post @ self.a.T + q
                gain = np.linalg.solve(prior + q, prior).T
                post = prior - gain @ prior
                post = 0.5 * (post + post.T)
                float(np.max(np.abs(post)))


class SolverKernel(Kernel):
    """Sweeps over a joint-state tensor plus a scalar-chain iteration loop."""

    def __init__(self, sweeps: int, iterations: int):
        super().__init__()
        self.sweeps, self.iterations = sweeps, iterations
        self.v = self.rng.random((25, 25, 25))
        self.costs = np.cumsum(self.rng.random(240))
        self.nxt = np.minimum(np.arange(1, 241), 239)

    def run(self) -> None:
        v = self.v
        inc = np.minimum(np.arange(1, 26), 24)
        for _ in range(self.sweeps):
            w = v
            for axis in range(3):
                w = 0.9 * np.take(w, inc, axis=axis) + 0.1 * np.take(w, np.zeros(25, int), axis=axis)
            v = np.minimum(v, w + 1.0)
            v = v - v.flat[0]
        x = np.zeros(240)
        for _ in range(self.iterations):
            x = 0.1 * x + 0.9 * np.minimum(self.costs + 0.5 * x[0], self.costs + x[self.nxt])
            x -= x[0]
            float(np.max(np.abs(x)))


class CallKernel(Kernel):
    """Many small calls: a list to an array, a gather, a sort, a tuple."""

    def __init__(self, calls: int, n: int, m: int):
        super().__init__()
        self.calls, self.m = calls, m
        self.table = self.rng.random((n, 128))
        self.cols = np.arange(n)[None, :]
        self.states = [[int(v) for v in self.rng.integers(1, 30, n)] for _ in range(64)]

    def run(self) -> None:
        for k in range(self.calls):
            d = np.asarray(self.states[k % 64], dtype=np.int64)
            s = self.table.T[d[None, :], self.cols]
            order = np.argsort(-s, axis=1, kind="stable")
            mask = np.zeros(s.shape, dtype=bool)
            np.put_along_axis(mask, order[:, : self.m], True, axis=1)
            tuple(int(i) for i in np.flatnonzero(mask[0]))
