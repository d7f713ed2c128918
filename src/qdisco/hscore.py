"""Benchmark scoring: reference accuracy distribution and H-Score aggregate.

A reference distribution collects per-run accuracies from many independent
noiseless optimize-then-sample runs.  A device run's accuracy x is scored
by the reference's empirical CDF F (midpoint convention at ties), and M
scored runs aggregate to C = (2/M) * sum F(X_i).  Scoring a fresh noiseless
sample against its own reference centers C at 1; a device that always
lands above the reference support approaches the ceiling of 2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._seeds import derive_seed
from .compiler import filter_by_threshold, enumerate_regions, map_circuit, select_regions
from .errors import ConfigError, QdiscoError
from .hardware import QpuModel
from .optimizer import OptimizerConfig, optimize_batch
from .problem import SpinPolynomial, minimum_cost_indices
from .simulator import (
    NoiseSpec,
    ShotCounts,
    bitstring_to_index,
    build_qaoa_state,
    noisy_sample,
    sample,
)

MIN_REFERENCE_SIZE = 100
DEFAULT_REFERENCE_SHOTS = 256


@functools.lru_cache(maxsize=256)
def _optimal_index_set(poly: SpinPolynomial) -> frozenset[int]:
    _, indices = minimum_cost_indices(poly)
    return frozenset(int(i) for i in indices)


def accuracy(counts: ShotCounts, poly: SpinPolynomial) -> float:
    """Fraction of shots landing on a brute-force-optimal assignment."""
    if counts.total_shots <= 0 or not counts.counts:
        raise ValueError("empty shot counts")
    if counts.num_bits != poly.num_spins:
        raise ConfigError(
            f"counts over {counts.num_bits} bits vs {poly.num_spins} spins"
        )
    optimal = _optimal_index_set(poly)
    hits = sum(
        c for key, c in counts.counts.items() if bitstring_to_index(key) in optimal
    )
    return hits / counts.total_shots


@dataclass(frozen=True)
class ReferenceDistribution:
    """Sorted noiseless accuracy samples for one (problem, p) pair."""

    problem_key: str
    p: int
    samples: tuple[float, ...]
    shots: int

    def __post_init__(self) -> None:
        vals = tuple(float(x) for x in self.samples)
        if len(vals) < MIN_REFERENCE_SIZE:
            raise ConfigError(
                f"reference needs >= {MIN_REFERENCE_SIZE} samples, got {len(vals)}"
            )
        if any(not 0.0 <= x <= 1.0 for x in vals):
            raise ValueError("reference accuracies must lie in [0, 1]")
        object.__setattr__(self, "samples", tuple(sorted(vals)))

    @property
    def size(self) -> int:
        return len(self.samples)

    def to_json_dict(self) -> dict:
        return {
            "problem_key": self.problem_key,
            "p": self.p,
            "shots": self.shots,
            "samples": list(self.samples),
        }


def score(x: float, ref: ReferenceDistribution) -> float:
    """Empirical CDF with midpoint tie handling: (below + ties/2) / M_ref."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"accuracy {x} outside [0, 1]")
    arr = np.asarray(ref.samples)
    below = int(np.searchsorted(arr, x, side="left"))
    upto = int(np.searchsorted(arr, x, side="right"))
    return (below + 0.5 * (upto - below)) / ref.size


@dataclass(frozen=True)
class HScoreReport:
    """Per-run accuracies, their scores, and the aggregate C in [0, 2]."""

    accuracies: tuple[float, ...]
    scores: tuple[float, ...]
    c: float
    m: int
    reference_key: str
    reference_size: int

    def to_json_dict(self) -> dict:
        return {
            "h_score": self.c,
            "m": self.m,
            "accuracies": list(self.accuracies),
            "scores": list(self.scores),
            "reference_key": self.reference_key,
            "reference_size": self.reference_size,
        }


def h_score(accuracies: list[float], ref: ReferenceDistribution) -> HScoreReport:
    """C = (2/M) * sum_i F(X_i)."""
    if not accuracies:
        raise ValueError("empty accuracy list")
    scores = tuple(score(float(x), ref) for x in accuracies)
    m = len(scores)
    c = 2.0 / m * sum(scores)
    return HScoreReport(
        accuracies=tuple(float(x) for x in accuracies),
        scores=scores,
        c=c,
        m=m,
        reference_key=ref.problem_key,
        reference_size=ref.size,
    )


def build_reference(
    poly: SpinPolynomial,
    p: int,
    cfg: OptimizerConfig,
    m_ref: int,
    seed: int,
    shots: int = DEFAULT_REFERENCE_SHOTS,
) -> ReferenceDistribution:
    """M_ref independent noiseless optimize-then-sample runs, sorted."""
    if m_ref < MIN_REFERENCE_SIZE:
        raise ConfigError(f"m_ref must be >= {MIN_REFERENCE_SIZE}, got {m_ref}")
    run_seeds = [derive_seed(seed, "ref-run", i) for i in range(m_ref)]
    traces = optimize_batch(poly, p, None, cfg, run_seeds)
    samples = []
    for run_seed, trace in zip(run_seeds, traces):
        state = build_qaoa_state(poly, trace.best_params)
        counts = sample(state, shots, seed=derive_seed(run_seed, "measure"))
        samples.append(accuracy(counts, poly))
    return ReferenceDistribution(
        problem_key=poly.canonical_key(),
        p=p,
        samples=tuple(samples),
        shots=shots,
    )


def best_region_placement(poly: SpinPolynomial, qpu: QpuModel):
    """Highest-fidelity region of the problem's size on the whole QPU.

    Benchmarking evaluates the device as calibrated, so no threshold
    filtering is applied here (eta = 1 keeps everything below certainty).
    """
    fg = filter_by_threshold(qpu, 1.0)
    candidates = enumerate_regions(fg, poly.num_spins)
    if not candidates:
        raise QdiscoError(
            f"QPU '{qpu.name}' has no connected {poly.num_spins}-qubit region"
        )
    region = select_regions(candidates, 1)[0]
    return map_circuit(poly, region)


def benchmark_qpu(
    poly: SpinPolynomial,
    qpu: QpuModel,
    p: int,
    m: int,
    seed: int,
    cfg: OptimizerConfig | None = None,
    shots: int = DEFAULT_REFERENCE_SHOTS,
    m_ref: int = 500,
    reference: ReferenceDistribution | None = None,
    noise: NoiseSpec | None = None,
) -> tuple[HScoreReport, ReferenceDistribution]:
    """Score a QPU: M optimize-then-sample runs against a noiseless reference.

    Each run optimizes its angles noiselessly, then samples the compiled
    circuit on the QPU's best region under the device noise model.  Pass a
    prebuilt ``reference`` to reuse it across devices or noise settings.
    """
    if m < 1:
        raise ConfigError(f"m must be >= 1, got {m}")
    cfg = cfg or OptimizerConfig()
    if reference is None:
        reference = build_reference(
            poly, p, cfg, m_ref, derive_seed(seed, "reference"), shots=shots
        )
    elif reference.problem_key != poly.canonical_key() or reference.p != p:
        raise ConfigError("reference was built for a different problem or depth")
    placement = best_region_placement(poly, qpu)
    noise = noise or NoiseSpec.from_qpu(qpu)
    run_seeds = [derive_seed(seed, "score-run", i) for i in range(m)]
    traces = optimize_batch(poly, p, None, cfg, run_seeds)
    accs = []
    for run_seed, trace in zip(run_seeds, traces):
        counts = noisy_sample(
            poly,
            trace.best_params,
            placement,
            qpu,
            noise,
            shots,
            seed=derive_seed(run_seed, "measure"),
        )
        accs.append(accuracy(counts, poly))
    return h_score(accs, reference), reference
