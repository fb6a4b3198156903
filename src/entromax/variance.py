"""Monte-Carlo verification of the variance law behind the entropy formula.

For a linear stack x_{out} = M_L ... M_1 x_1 with standard-normal inputs
and weights, the output variance equals the product of the layer input
widths.  The harness draws fresh weights per sample (the expectations are
over weights and inputs jointly), estimates the variance of the first
output coordinate, and checks it against the product law within a band
derived from the estimator's own standard error.

Chunked, per-chunk seeded sampling: chunk RNGs are spawned from the root
seed and results are reduced in chunk order, so a parallel run returns
bit-identical statistics to a sequential one.  Within a chunk, each
layer's weights are drawn from the chunk's stream one block of about
1 MiB at a time, in sample order, so a chunk's memory stays bounded at
any width and every sample sees the weights one whole-layer draw gives.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SimulationConfig",
    "VarianceReport",
    "MeanReport",
    "theoretical_variance",
    "log_theoretical_variance",
    "check_variance_law",
]

_CHUNK = 8192
# bytes of weights drawn at once: bounds a chunk's memory at any width
_BLOCK_BYTES = 1 << 20
# beyond this, float accumulation in the empirical estimator degrades
_MAX_SIMULATED_VARIANCE = 1e12


@dataclass(frozen=True)
class SimulationConfig:
    """Widths are the per-layer input widths w_1..w_L (the product terms);
    out_width is the final output dimension and does not enter the law."""

    widths: tuple[int, ...]
    n_samples: int
    seed: int = 0
    out_width: int = 1
    quenched: bool = False  # one fixed weight draw for all samples (report-only)
    threads: int = 1

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if not self.widths or min(self.widths) < 1:
            raise ValueError("widths must be positive integers")
        if self.n_samples < 1000:
            raise ValueError("n_samples must be at least 1000 for the "
                             "pass/fail bands to mean anything")
        if self.out_width < 1:
            raise ValueError("out_width must be positive")
        if self.threads < 1:
            raise ValueError("threads must be positive")


def theoretical_variance(widths) -> float:
    """Product of the layer input widths (exact for integer widths)."""
    if not len(widths):
        raise ValueError("widths must be nonempty")
    try:
        return float(math.prod(widths))
    except OverflowError:
        return math.inf  # the log form below stays finite


def log_theoretical_variance(widths) -> float:
    """log of the product law; safe for depths where the product overflows."""
    if not len(widths):
        raise ValueError("widths must be nonempty")
    return math.fsum(math.log(w) for w in widths)


@dataclass(frozen=True)
class VarianceReport:
    theoretical: float
    log_theoretical: float
    empirical: float
    ratio: float
    stderr: float          # standard error of the variance estimator
    n_samples: int
    seed: int
    passed: bool           # |empirical - theoretical| <= 5 * stderr

    def __str__(self) -> str:
        return (f"variance: theoretical {self.theoretical:.6g} "
                f"empirical {self.empirical:.6g} (ratio {self.ratio:.4f}, "
                f"5-SE band +-{5 * self.stderr:.3g}) n={self.n_samples} "
                f"-> {'pass' if self.passed else 'FAIL'}")


@dataclass(frozen=True)
class MeanReport:
    mean: float
    bound: float           # 4 sigma / sqrt(n)
    n_samples: int
    seed: int
    passed: bool

    def __str__(self) -> str:
        return (f"mean: {self.mean:.6g} within +-{self.bound:.6g} "
                f"n={self.n_samples} -> {'pass' if self.passed else 'FAIL'}")


def _chunk_sums(cfg: SimulationConfig, rng: np.random.Generator, n: int,
                fixed: list[np.ndarray] | None) -> tuple[float, float, float]:
    """(sum x, sum x^2, sum x^4) of the first output coordinate over n samples."""
    dims = list(cfg.widths) + [cfg.out_width]
    x = rng.standard_normal((n, dims[0]))
    for i, (w_in, w_out) in enumerate(zip(dims, dims[1:])):
        if fixed is not None:
            x = x @ fixed[i].T
            continue
        b = min(n, max(1, _BLOCK_BYTES // (8 * w_out * w_in)))
        block, part = np.empty((b, w_out, w_in)), np.empty((b, w_out))
        # a narrower output overwrites only input rows already read
        y = (x.reshape(-1)[:n * w_out].reshape(n, w_out) if w_out <= w_in
             else np.empty((n, w_out)))
        for s in range(0, n, b):
            k = min(b, n - s)
            rng.standard_normal(out=block[:k])  # the stream of one (n, ...) draw
            np.einsum("sij,sj->si", block[:k], x[s:s + k], out=part[:k])
            y[s:s + k] = part[:k]
        x = y
    first = x[:, 0]
    return (float(np.sum(first)), float(np.sum(first ** 2)),
            float(np.sum(first ** 4)))


def _simulate(cfg: SimulationConfig) -> tuple[float, float, float, float]:
    """Returns (mean, variance, fourth central moment, variance stderr)."""
    if log_theoretical_variance(cfg.widths) > math.log(_MAX_SIMULATED_VARIANCE):
        raise ValueError(
            "width product exceeds the simulable range; use "
            "log_theoretical_variance for a log-space check instead")
    dims = list(cfg.widths) + [cfg.out_width]
    n_chunks = (cfg.n_samples + _CHUNK - 1) // _CHUNK
    seeds = np.random.SeedSequence(cfg.seed).spawn(n_chunks + 1)
    fixed = None
    if cfg.quenched:
        wrng = np.random.default_rng(seeds[n_chunks])
        fixed = [wrng.standard_normal((dims[i + 1], dims[i]))
                 for i in range(len(dims) - 1)]

    sizes = [min(_CHUNK, cfg.n_samples - i * _CHUNK) for i in range(n_chunks)]

    def job(i: int):
        return _chunk_sums(cfg, np.random.default_rng(seeds[i]), sizes[i], fixed)

    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            parts = list(pool.map(job, range(n_chunks)))
    else:
        parts = [job(i) for i in range(n_chunks)]

    s1 = s2 = s4 = 0.0
    for a, b, c in parts:  # fixed chunk order keeps the reduce deterministic
        s1 += a
        s2 += b
        s4 += c
    n = cfg.n_samples
    mean = s1 / n
    var = s2 / n - mean * mean
    m4 = s4 / n  # central moment approximated at the known zero mean
    stderr = math.sqrt(max(m4 - var * var, 0.0) / n)
    return mean, var, m4, stderr


def check_variance_law(cfg: SimulationConfig) -> tuple[VarianceReport, MeanReport]:
    """The variance and zero-mean reports from one simulation pass."""
    mean, var, _, stderr = _simulate(cfg)
    theory = theoretical_variance(cfg.widths)
    variance = VarianceReport(
        theoretical=theory,
        log_theoretical=log_theoretical_variance(cfg.widths),
        empirical=var,
        ratio=var / theory,
        stderr=stderr,
        n_samples=cfg.n_samples,
        seed=cfg.seed,
        passed=abs(var - theory) <= 5 * stderr,
    )
    bound = 4.0 * math.sqrt(theory) / math.sqrt(cfg.n_samples)
    zero_mean = MeanReport(mean=mean, bound=bound, n_samples=cfg.n_samples,
                           seed=cfg.seed, passed=abs(mean) <= bound)
    return variance, zero_mean

