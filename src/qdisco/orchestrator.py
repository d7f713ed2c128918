"""Fleet-level planning and execution of distributed QAOA workloads.

A problem that fits the largest usable (threshold-filtered) region of some
QPU runs directly with multi-sampling across the whole fleet; anything
larger is split by balanced MinCut into capacity-bounded subproblems that
each fit a usable region, and recombined by the flip-variable merge.
Larger subproblems land on QPUs with higher prior H-Scores.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass, replace

from ._seeds import derive_seed
from .compiler import SamplingRegion, best_regions, filter_by_threshold, map_circuit
from .decomposer import (
    MERGE_PART_LIMIT,
    Partition,
    balanced_mincut,
    extract_subproblems,
    merge_solutions,
)
from .errors import CapacityError, ConfigError
from .hardware import Fleet, QpuModel
from .hscore import HScoreReport, ReferenceDistribution, accuracy, build_reference, h_score
from .optimizer import OptimizerConfig, optimize
from .problem import (
    ProblemGraph,
    SpinAssignment,
    SpinPolynomial,
    cost_vector,
    evaluate_cost,
    maxcut_to_spin_polynomial,
)
from .simulator import NoiseSpec, ShotCounts, index_to_bitstring, noisy_sample, split_shots


@dataclass(frozen=True)
class RegionAssignment:
    """Sampling regions of one QPU serving one plan leaf."""

    qpu_name: str
    regions: tuple[SamplingRegion, ...]
    shots_per_region: tuple[int, ...]


@dataclass(frozen=True)
class PlanNode:
    """Subproblem node; leaves carry hardware assignments."""

    vertices: tuple[int, ...]  # root-problem vertex ids
    polynomial: SpinPolynomial
    graph: ProblemGraph | None = None
    children: tuple["PlanNode", ...] = ()
    partition: Partition | None = None
    assignments: tuple[RegionAssignment, ...] = ()

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def size(self) -> int:
        return self.polynomial.num_spins

    def leaves(self) -> list["PlanNode"]:
        if self.is_leaf:
            return [self]
        out: list[PlanNode] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def to_json_dict(self) -> dict:
        doc: dict = {"vertices": list(self.vertices), "size": self.size}
        if self.is_leaf:
            doc["assignments"] = [
                {
                    "qpu": a.qpu_name,
                    "regions": [list(r.qubits) for r in a.regions],
                    "fidelities": [r.fidelity for r in a.regions],
                    "shots_per_region": list(a.shots_per_region),
                }
                for a in self.assignments
            ]
        else:
            doc["partition"] = self.partition.to_json_dict() if self.partition else None
            doc["children"] = [c.to_json_dict() for c in self.children]
        return doc


@dataclass(frozen=True)
class ExecutionPlan:
    root: PlanNode
    eta: float
    p: int
    shots_per_leaf: int
    qpu_names: tuple[str, ...]

    @property
    def num_leaves(self) -> int:
        return len(self.root.leaves())

    @property
    def total_shots(self) -> int:
        return self.shots_per_leaf * self.num_leaves

    @property
    def num_regions(self) -> int:
        return sum(
            len(a.regions) for leaf in self.root.leaves() for a in leaf.assignments
        )

    def to_json_dict(self) -> dict:
        return {
            "eta": self.eta,
            "p": self.p,
            "shots_per_leaf": self.shots_per_leaf,
            "total_shots": self.total_shots,
            "num_leaves": self.num_leaves,
            "num_regions": self.num_regions,
            "qpus": list(self.qpu_names),
            "tree": self.root.to_json_dict(),
        }


def usable_region_size(qpu: QpuModel, eta: float) -> int:
    """Largest connected component of the threshold-filtered graph."""
    return filter_by_threshold(qpu, eta).largest_component_size()


def _qpu_priority(fleet: Fleet, usable: dict[str, int]) -> list[QpuModel]:
    return sorted(
        fleet,
        key=lambda q: (-fleet.prior(q.name), -usable[q.name], q.name),
    )


def _covering_prefix(caps: Iterable[int], n: int) -> list[int]:
    """Shortest prefix of the capacities that covers n vertices, one per part.

    A split into more parts than the flip-variable merge joins is refused
    after at most ``MERGE_PART_LIMIT`` capacities, so ``caps`` may be endless.
    """
    prefix: list[int] = []
    total = 0
    for c in caps:
        if total >= n:
            break
        if len(prefix) == MERGE_PART_LIMIT:
            raise CapacityError(
                f"splitting {n} vertices needs more than {MERGE_PART_LIMIT} parts, "
                f"but the merge joins at most {MERGE_PART_LIMIT}"
            )
        prefix.append(c)
        total += c
    return prefix


def _qpu_region_set(
    qpu: QpuModel, eta: float, n: int, seed: int
) -> tuple[SamplingRegion, ...]:
    """As many disjoint n-qubit regions as fit on this QPU."""
    fg = filter_by_threshold(qpu, eta)
    return tuple(best_regions(fg, n, max(1, len(fg.qubits) // n), seed=seed))


def plan(
    problem: ProblemGraph | SpinPolynomial,
    fleet: Fleet,
    eta: float,
    p: int,
    shots: int,
    capacities: list[int] | None = None,
    seed: int = 0,
) -> ExecutionPlan:
    """Decide decomposition vs direct execution and assign hardware.

    ``problem`` is a MaxCut graph or a spin polynomial without graph
    structure (e.g. LABS).  A polynomial cannot be partitioned, so its plan
    is direct-only and ``capacities`` are rejected.  With explicit
    ``capacities`` a graph's root is always partitioned to those sizes;
    a graph, or a forced part, decomposes once more when it exceeds every
    QPU's largest usable region.  Shots are divided evenly across each leaf's
    regions.
    """
    n = problem.num_spins if isinstance(problem, SpinPolynomial) else problem.num_vertices
    if n < 1:
        raise CapacityError(f"problem has {n} spins; a plan needs at least 1")
    if len(fleet) == 0:
        raise ConfigError("fleet must contain at least one QPU")
    if shots < 1:
        raise ConfigError("shots must be >= 1")
    if isinstance(problem, SpinPolynomial):
        if capacities is not None:
            raise ConfigError(
                "capacities need a graph problem; this problem kind cannot be partitioned"
            )
        graph, poly = None, problem
    else:
        graph, poly = problem, maxcut_to_spin_polynomial(problem)
    usable = {q.name: usable_region_size(q, eta) for q in fleet}
    max_usable = max(usable.values())
    if max_usable < 1:
        raise CapacityError(
            f"no QPU has a usable qubit at eta={eta}; tightest bottleneck is "
            f"the threshold filter"
        )
    if graph is None and n > max_usable:
        raise CapacityError(
            f"problem needs {n} qubits but the largest usable region at "
            f"eta={eta} has {max_usable}; this problem kind cannot be decomposed"
        )
    fleet_caps = [usable[q.name] for q in _qpu_priority(fleet, usable) if usable[q.name] >= 1]

    def fleet_split(size: int) -> list[int] | None:
        """Capacities of the split of a part larger than every usable region, else None."""
        if size <= max_usable:
            return None
        # a fleet that cannot cover the part in one round takes max_usable-sized
        # chunks, and batches serialize
        caps = fleet_caps if sum(fleet_caps) >= size else itertools.repeat(max_usable)
        return _covering_prefix(caps, size)

    # At most two splits, each sized from the numbers before any MinCut: the forced
    # root split, then a fleet split of each part that exceeds every usable region;
    # fleet capacities never exceed max_usable, so a fleet split's parts all fit.
    if capacities is None:
        root_caps = fleet_split(n)
    else:
        if sum(capacities) < n:
            raise CapacityError(
                f"capacities {list(capacities)} cannot cover {n} vertices; "
                "bottleneck: declared capacities"
            )
        root_caps = _covering_prefix(capacities, n)
        # parts fill the capacities in order, as balanced_mincut's targets do
        for size in [*root_caps[:-1], n - sum(root_caps[:-1])]:
            fleet_split(size)

    def split(node: PlanNode, caps: list[int], depth: int) -> PlanNode:
        """Partition the node to the capacities; its parts become its children."""
        part = balanced_mincut(node.graph, caps, seed=derive_seed(seed, "mincut", depth, *node.vertices))
        children = tuple(
            PlanNode(
                vertices=tuple(node.vertices[v] for v in sub.vertices),
                polynomial=maxcut_to_spin_polynomial(sub.graph),
                graph=sub.graph,
            )
            for sub in extract_subproblems(node.graph, part)
        )
        return replace(node, children=children, partition=part)

    def fit(node: PlanNode) -> PlanNode:
        """Split a part larger than every usable region into parts that fit one."""
        caps = fleet_split(node.size)
        return node if caps is None else split(node, caps, 1)

    root = PlanNode(vertices=tuple(range(n)), polynomial=poly, graph=graph)
    if root_caps is not None:
        root = split(root, root_caps, 0)
        if capacities is not None:
            root = replace(root, children=tuple(fit(c) for c in root.children))
    root = _assign_leaves(root, fleet, usable, eta, shots, seed)
    return ExecutionPlan(
        root=root,
        eta=eta,
        p=p,
        shots_per_leaf=shots,
        qpu_names=tuple(q.name for q in fleet),
    )


def _assign_leaves(
    root: PlanNode,
    fleet: Fleet,
    usable: dict[str, int],
    eta: float,
    shots: int,
    seed: int,
) -> PlanNode:
    """Attach QPU regions to every leaf and split shots evenly."""
    priority = _qpu_priority(fleet, usable)
    load = {q.name: 0 for q in fleet}
    # eta and seed are fixed within a plan, so one region set per (QPU, size)
    region_sets: dict[tuple[str, int], tuple[SamplingRegion, ...]] = {}
    # leaves partition the root's vertices, so their vertex tuples are unique
    assignments: dict[tuple[int, ...], tuple[RegionAssignment, ...]] = {}

    if root.is_leaf:
        # direct plan: multi-sample across every QPU that can host the problem
        n = root.size
        hosted = [
            (qpu.name, _qpu_region_set(qpu, eta, n, seed))
            for qpu in priority
            if usable[qpu.name] >= n
        ]
        split = split_shots(shots, sum(len(regions) for _, regions in hosted))
        entries = []
        for name, regions in hosted:
            entries.append(RegionAssignment(name, regions, tuple(split[: len(regions)])))
            split = split[len(regions) :]
        assignments[root.vertices] = tuple(entries)
    else:
        for leaf in sorted(root.leaves(), key=lambda l: (-l.size, l.vertices)):
            n = leaf.size
            # min keeps the first of equal loads, so ties go by priority
            qpu = min((q for q in priority if usable[q.name] >= n), key=lambda q: load[q.name])
            load[qpu.name] += 1
            if (qpu.name, n) not in region_sets:
                region_sets[qpu.name, n] = _qpu_region_set(qpu, eta, n, seed)
            regions = region_sets[qpu.name, n]
            split = split_shots(shots, len(regions))
            assignments[leaf.vertices] = (
                RegionAssignment(qpu.name, regions, tuple(split)),
            )
    return _attached(root, assignments)


def _attached(
    node: PlanNode, assignments: dict[tuple[int, ...], tuple[RegionAssignment, ...]]
) -> PlanNode:
    if node.is_leaf:
        return replace(node, assignments=assignments[node.vertices])
    return replace(node, children=tuple(_attached(c, assignments) for c in node.children))


@dataclass(frozen=True)
class SpeedupReport:
    """Shot-batch wall model: regions run in parallel, leaves on one QPU queue."""

    sequential_units: float
    parallel_units: float
    speedup: float
    num_regions: int
    per_qpu_chain: dict[str, float]

    def to_json_dict(self) -> dict:
        return {
            "sequential_units": self.sequential_units,
            "parallel_units": self.parallel_units,
            "speedup": self.speedup,
            "num_regions": self.num_regions,
            "per_qpu_chain": dict(sorted(self.per_qpu_chain.items())),
        }


def speedup_report(plan_: ExecutionPlan) -> SpeedupReport:
    """Sequential = all shots one after another; parallel = max QPU chain."""
    sequential = 0.0
    chains: dict[str, float] = {}
    for leaf in plan_.root.leaves():
        for a in leaf.assignments:
            sequential += sum(a.shots_per_region)
            chains[a.qpu_name] = chains.get(a.qpu_name, 0.0) + max(a.shots_per_region)
    parallel = max(chains.values())  # the first region of every leaf has a shot
    return SpeedupReport(
        sequential_units=sequential,
        parallel_units=parallel,
        speedup=sequential / parallel,
        num_regions=plan_.num_regions,
        per_qpu_chain=chains,
    )


def _merged(node: PlanNode, solutions: dict[tuple[int, ...], SpinAssignment]) -> SpinAssignment:
    if node.is_leaf:
        return solutions[node.vertices]
    children = [_merged(c, solutions) for c in node.children]
    return merge_solutions(node.graph, node.partition, children)


@dataclass(frozen=True)
class LeafOutcome:
    vertices: tuple[int, ...]
    qpus: tuple[str, ...]
    num_regions: int
    solution_bits: str
    cost: float
    hscore: HScoreReport | None = None


@dataclass(frozen=True)
class RunResult:
    assignment: SpinAssignment
    cost: float
    cut_value: float | None
    leaf_outcomes: tuple[LeafOutcome, ...]
    wall_units: float
    speedup: float

    def to_json_dict(self) -> dict:
        doc = {
            "assignment": list(self.assignment.values),
            "bits": self.assignment.to_bits(),
            "cost": self.cost,
            "cut_value": self.cut_value,
            "wall_units": self.wall_units,
            "speedup": self.speedup,
            "leaves": [
                {
                    "vertices": list(o.vertices),
                    "qpus": list(o.qpus),
                    "num_regions": o.num_regions,
                    "solution_bits": o.solution_bits,
                    "cost": o.cost,
                    **(
                        {"h_score": o.hscore.to_json_dict()}
                        if o.hscore is not None
                        else {}
                    ),
                }
                for o in self.leaf_outcomes
            ],
        }
        return doc


def _best_outcome(counts: ShotCounts, poly: SpinPolynomial) -> int:
    """Lowest-cost measured outcome; ties favour higher count, then outcome-string order."""
    costs = cost_vector(poly)
    hist, n = counts.histogram, counts.num_bits
    return min(hist, key=lambda i: (costs[i], -hist[i], index_to_bitstring(i, n)))


def _leaf_answer(
    region_bests: list[int],
    aggregate: dict[int, int],
    poly: SpinPolynomial,
) -> int:
    """Majority over region-best candidates; ties go to aggregate count."""
    votes: dict[int, int] = {}
    for index in region_bests:
        votes[index] = votes.get(index, 0) + 1
    costs = cost_vector(poly)
    n = poly.num_spins
    return min(
        votes,
        key=lambda i: (
            -votes[i],
            -aggregate.get(i, 0),
            costs[i],
            index_to_bitstring(i, n),
        ),
    )


def execute(
    plan_: ExecutionPlan,
    fleet: Fleet,
    noise: bool,
    seed: int,
    optimizer_cfg: OptimizerConfig | None = None,
    trajectories: int = 16,
    with_hscore: bool = False,
    hscore_m_ref: int = 100,
) -> RunResult:
    """Run every leaf (optimize noiselessly, sample on hardware), then merge.

    Per leaf, each region nominates its best measured outcome and the
    majority rule picks the leaf solution.  Internal nodes recombine child
    solutions via flip-variable merging; the root result is additionally
    guarded against plain concatenation of the leaf solutions so merge
    dominance holds end to end.
    """
    cfg = optimizer_cfg or OptimizerConfig()
    outcomes: list[LeafOutcome] = []
    solutions: dict[tuple[int, ...], SpinAssignment] = {}
    references: dict[tuple[str, int], ReferenceDistribution] = {}

    for i, leaf in enumerate(plan_.root.leaves()):
        poly = leaf.polynomial
        trace = optimize(poly, plan_.p, cfg, seed=derive_seed(seed, "leaf", i, "opt"))
        region_bests: list[int] = []
        aggregate: dict[int, int] = {}
        accs: list[float] = []
        for a in leaf.assignments:
            qpu = fleet.get(a.qpu_name)
            spec = (
                NoiseSpec.from_qpu(qpu, trajectories)
                if noise
                else NoiseSpec.zero(qpu, trajectories=1)
            )
            for j, (region, region_shots) in enumerate(
                zip(a.regions, a.shots_per_region)
            ):
                if region_shots == 0:
                    continue
                placement = map_circuit(poly, region)
                counts = noisy_sample(
                    poly,
                    trace.best_params,
                    placement,
                    qpu,
                    spec,
                    region_shots,
                    seed=derive_seed(seed, "leaf", i, "qpu", a.qpu_name, "region", j),
                )
                region_bests.append(_best_outcome(counts, poly))
                for index, c in counts.histogram.items():
                    aggregate[index] = aggregate.get(index, 0) + c
                if with_hscore:
                    accs.append(accuracy(counts, poly))
        answer = _leaf_answer(region_bests, aggregate, poly)
        solution = SpinAssignment.from_index(answer, poly.num_spins)
        report = None
        if with_hscore:
            key = (poly.canonical_key(), plan_.p)
            if key not in references:
                references[key] = build_reference(
                    poly,
                    plan_.p,
                    cfg,
                    hscore_m_ref,
                    derive_seed(seed, "leaf-ref", i),
                )
            report = h_score(accs, references[key])
        outcomes.append(
            LeafOutcome(
                vertices=leaf.vertices,
                qpus=tuple(a.qpu_name for a in leaf.assignments),
                num_regions=sum(len(a.regions) for a in leaf.assignments),
                solution_bits=solution.to_bits(),
                cost=evaluate_cost(poly, solution),
                hscore=report,
            )
        )
        solutions[leaf.vertices] = solution

    merged = _merged(plan_.root, solutions)
    root_poly = plan_.root.polynomial

    # end-to-end dominance guard: plain concatenation must never win
    if not plan_.root.is_leaf:
        concat = [0] * root_poly.num_spins
        for vertices, sol in solutions.items():
            for local, parent in enumerate(vertices):
                concat[parent] = sol[local]
        concat_assignment = SpinAssignment(tuple(concat))
        if evaluate_cost(root_poly, concat_assignment) < evaluate_cost(root_poly, merged):
            merged = concat_assignment

    cost = evaluate_cost(root_poly, merged)
    cut = (
        plan_.root.graph.cut_value(merged.values)
        if plan_.root.graph is not None
        else None
    )
    report = speedup_report(plan_)
    return RunResult(
        assignment=merged,
        cost=cost,
        cut_value=cut,
        leaf_outcomes=tuple(outcomes),
        wall_units=report.parallel_units,
        speedup=report.speedup,
    )
