"""Constrained maximization of network entropy over stage widths and depths.

The program: maximize sum_i alpha_i * H_i - beta * Q over per-stage
widths and depths, subject to effectiveness <= rho0, FLOPs and parameter
budgets, and non-decreasing stage widths.

Every candidate is costed by one stage-separable model: each stage is a
first block plus depth - 1 repeat blocks, so params, FLOPs and entropy
are sums of a few memoized per-stage terms instead of a walk over the
expanded layer list.  Its exact branch serves every discrete evaluation
and matches `metrics` over `model.expand`, the reference analyzer the
tests hold it to; its relaxed branch takes real widths and depths.
`evaluate` keeps the exact results of the (problem, conventions) objects
it saw last, found by identity and keyed by (widths, depths), and clears
them at `_MEMO_CAP` = 512 entries: restarts revisit most lattice points,
and a repeat costs a dict lookup.  Every counted evaluation still calls
`evaluate` once, so counts and trajectories do not depend on the memo.

Solution method (no external solver dependency, validated against the
brute-force oracle below, which screens its lattice in float64, confirms
the contenders exactly and takes its 10^6-point cap in well under a second):

  phase 1  continuous relaxation: widths and depths treated as reals,
           multi-start projected coordinate ascent on an exterior-penalty
           objective with adaptive step shrinking; width iterates are kept
           on the non-decreasing cone by pool-adjacent-violators projection.
           The penalty weight starts at ten times the objective scale and
           doubles with each restart index; constraint violations below
           0.5% relative are tolerated here because rounding absorbs them.
  phase 2  round to the integer/granularity lattice, then greedy repair:
           shrink the most expensive stage's width first, then depths,
           until feasible (monotonicity preserved throughout).
  phase 3  discrete local search: +-1 depth, +-granularity width, width
           transfers between adjacent stages, depth transfers between any
           two stages, and trades of one granularity step of width in one
           stage for one block of depth in any stage; best-improvement,
           until no improving feasible neighbour exists.

Restarts are independent and deterministically seeded from (seed,
restart index): random starts reproduce `numpy.random.default_rng([seed,
restart]).uniform` bit for bit in pure Python, so designs do not depend on
the installed numpy.  The global best is reduced with a total tie-break
(higher objective, lower params, lexicographically smaller widths, then
depths), so parallel and sequential runs return identical results.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import time
from dataclasses import dataclass, field

from .blocks import (
    MOBILENET_V2_SE,
    RESNET_BOTTLENECK,
    ROLE_CLASSIFIER,
    ROLE_HEAD,
    ROLE_STEM,
    BlockKind,
    ConvPlan,
    block_convs,
)
from .conventions import PINNED, Conventions
from .metrics import depth_uniformity_penalty, path_roles
from .model import NetworkSpec, StageSpec, StemSpec, halve, resolve_rows, validate

__all__ = [
    "ProblemSpec",
    "Candidate",
    "CandidateEval",
    "SolveOptions",
    "SolveReport",
    "InfeasibleProblem",
    "realize",
    "evaluate",
    "objective",
    "feasible",
    "brute_force",
    "round_and_repair",
    "solve",
    "lattice_size",
]


@dataclass(frozen=True)
class ProblemSpec:
    """One instance of the width/depth program."""

    block: BlockKind
    stages: int
    alphas: tuple[float, ...]
    rho0: float
    max_flops: int
    max_params: int
    input_resolution: int
    downsample_schedule: tuple[bool, ...]
    width_bounds: tuple[tuple[int, int], ...]
    depth_bounds: tuple[tuple[int, int], ...]
    beta: float = 10.0
    width_granularity: int = 8
    kernel: int = 3
    groups: int = 1
    num_classes: int = 1000
    stem: StemSpec = StemSpec(channels=32, kernel=3, stride=2, pool=False)
    head_channels: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(self.alphas))
        object.__setattr__(self, "downsample_schedule", tuple(self.downsample_schedule))
        object.__setattr__(self, "width_bounds", tuple(tuple(b) for b in self.width_bounds))
        object.__setattr__(self, "depth_bounds", tuple(tuple(b) for b in self.depth_bounds))

    def check(self) -> None:
        m = self.stages
        if m < 1:
            raise ValueError("at least one stage required")
        for name, seq in (("alphas", self.alphas),
                          ("downsample_schedule", self.downsample_schedule),
                          ("width_bounds", self.width_bounds),
                          ("depth_bounds", self.depth_bounds)):
            if len(seq) != m:
                raise ValueError(f"{name} must have {m} entries, got {len(seq)}")
        if not all(map(math.isfinite, (*self.alphas, self.beta, self.rho0))):
            raise ValueError("alphas, beta and rho0 must be finite")
        if any(a < 0 for a in self.alphas):
            raise ValueError("alphas must be nonnegative")
        if self.beta < 0 or self.rho0 <= 0:
            raise ValueError("beta must be >= 0 and rho0 > 0")
        if self.width_granularity < 1:
            raise ValueError("width granularity must be >= 1")
        for lo, hi in itertools.chain(self.width_bounds, self.depth_bounds):
            if not (1 <= lo <= hi):
                raise ValueError(f"bounds must satisfy 1 <= lo <= hi, got ({lo}, {hi})")
        lo_g, hi_g = _granular_bounds(self)
        for i in range(m):
            if lo_g[i] > hi_g[i]:
                raise ValueError(
                    f"stage {i}: no monotone width lattice point in bounds "
                    f"(effective granular range [{lo_g[i]}, {hi_g[i]}])")
        # resolution, class-count, kernel, flag and stem faults do not
        # depend on widths or depths, so the cheapest design shows them for all
        violations = validate(realize(_cheapest(self), self))
        if violations:
            raise ValueError("invalid problem: its cheapest design fails validation: "
                             + "; ".join(str(v) for v in violations))
        # other widths step from the cheapest by the granularity; grouped
        # channels stay divisible only if each step does (mobilenet: no groups)
        if self.block.kind != MOBILENET_V2_SE:
            share = self.block.bottleneck_ratio if self.block.kind == RESNET_BOTTLENECK else 1
            per_group = self.width_granularity * share / self.groups
            if abs(per_group - round(per_group)) > 1e-9:
                raise ValueError(f"groups {self.groups} must divide the grouped convs' "
                                 f"channel step per width granularity {self.width_granularity}")


@dataclass(frozen=True)
class Candidate:
    widths: tuple[int, ...]
    depths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(map(int, self.widths)))
        object.__setattr__(self, "depths", tuple(map(int, self.depths)))


@dataclass(frozen=True)
class CandidateEval:
    objective: float
    weighted_entropy: float
    q: float
    rho: float
    params: int
    flops: int
    feasible: bool
    slacks: dict
    violations: dict
    stage_params: tuple[int, ...]
    stage_flops: tuple[int, ...]


@dataclass
class SolveOptions:
    seed: int = 0
    restarts: int = 12
    threads: int = 1
    max_evals: int = 200_000
    trace: bool = False


@dataclass
class SolveReport:
    best: Candidate | None
    objective: float
    feasible: bool
    slacks: dict
    restarts_used: int
    evaluations: int
    wall_time: float
    budget_exhausted: bool = False
    infeasibility: str | None = None
    trace: list = field(default_factory=list)


class InfeasibleProblem(ValueError):
    """No candidate in the lattice satisfies the constraints."""

    def __init__(self, message: str, binding: str):
        super().__init__(message)
        self.binding = binding


# ---------------------------------------------------------------------------
# candidate realization and evaluation


def _granular_bounds(prob: ProblemSpec) -> tuple[list[int], list[int]]:
    """Per-stage width bounds snapped to the lattice and tightened so a
    monotone chain always exists: prefix-max of the lower bounds,
    suffix-min of the upper bounds."""
    g = prob.width_granularity
    lo = [math.ceil(b[0] / g) * g for b in prob.width_bounds]
    hi = [(b[1] // g) * g for b in prob.width_bounds]
    for i in range(1, len(lo)):
        lo[i] = max(lo[i], lo[i - 1])
    for i in range(len(hi) - 2, -1, -1):
        hi[i] = min(hi[i], hi[i + 1])
    return lo, hi


def _cheapest(prob: ProblemSpec) -> Candidate:
    """The lattice point with the lowest widths and depths."""
    lo_g, _ = _granular_bounds(prob)
    return Candidate(tuple(lo_g), tuple(lo for lo, _ in prob.depth_bounds))


def _check_candidate(cand: Candidate, prob: ProblemSpec) -> None:
    """Raise ValueError unless the candidate is a lattice point of the problem."""
    if len(cand.widths) != prob.stages or len(cand.depths) != prob.stages:
        raise ValueError("candidate arity does not match the problem's stage count")
    g = prob.width_granularity
    for i, (w, d) in enumerate(zip(cand.widths, cand.depths)):
        (w_lo, w_hi), (d_lo, d_hi) = prob.width_bounds[i], prob.depth_bounds[i]
        if not (w_lo <= w <= w_hi and w % g == 0 and d_lo <= d <= d_hi):
            raise ValueError(
                f"candidate outside problem bounds: stage {i}: width {w} must be a "
                f"multiple of {g} in [{w_lo}, {w_hi}], depth {d} in [{d_lo}, {d_hi}]")


def realize(cand: Candidate, prob: ProblemSpec) -> NetworkSpec:
    """Deterministic network for a candidate under the problem's fixed
    stem, head, block kind and downsample schedule."""
    _check_candidate(cand, prob)
    stages = tuple(
        StageSpec(block=prob.block, depth=cand.depths[i], width=cand.widths[i],
                  kernel=prob.kernel, groups=prob.groups,
                  downsample=prob.downsample_schedule[i])
        for i in range(prob.stages)
    )
    return NetworkSpec(
        input_resolution=prob.input_resolution,
        stem=prob.stem,
        stages=stages,
        head_channels=prob.head_channels,
        num_classes=prob.num_classes,
    )


class _StageModel:
    """Stage-separable costs of one problem's candidates under one
    convention set, on one branch.

    A stage is its first block followed by depth - 1 copies of its repeat
    block, so params, FLOPs, signal-path length and the stage's sum of log
    projected widths are each a(c_prev, c) + (d - 1) * b(c).  Only the
    stem, each stage's first and repeat block, the head and the classifier
    are costed, as conv rows from `block_convs` and `resolve_rows`.

    The exact branch counts `c_in // groups` and the floored
    squeeze-excite width as `expand` and `metrics` do; the relaxed branch
    the continuous ascent climbs takes real widths, true division and a
    smooth squeeze-excite width.  Each instance memoizes each stage under
    (i, c_prev, c), as its block costs and entropy factor log(r_out_i^2 c),
    the tail (head conv and classifier) under the last width, and up to
    `_MEMO_CAP` width tuples' stages and tail, so `costs` makes one lookup.
    `penalized` memoizes the depth penalty per depth tuple, for one restart's
    ascent.  64 and 64.0 share a key but not a cost, so branches share no
    memo.  Tests hold the exact branch to `metric_report` over `expand`.
    """

    def __init__(self, prob: ProblemSpec, conventions: Conventions, exact: bool = True):
        self.prob = prob
        self.conv = conventions
        self.exact = exact
        self.path = path_roles()
        self.stages, self.repeats, self.tails = {}, {}, {}  # keyed (i, c_prev, c), (i, c), c
        self.chains = {}  # widths -> ([stage entry], tail)
        self.patterns = {}  # (i, first block, conv count) -> `_pattern`
        self.q = {}  # depths -> depth_uniformity_penalty, for `penalized`

        stem = prob.stem
        r = prob.input_resolution
        r_stem = halve(r) if stem.stride == 2 else r
        # three input channels, as in every network `realize` builds
        stem_conv = ConvPlan(3, stem.channels, stem.kernel, 1, stem.stride,
                             ROLE_STEM, True, False)
        self.stem = self._row_costs(zip([stem_conv], self._pattern([stem_conv], r)))
        r = halve(r_stem) if stem.pool else r_stem
        self.r_in: list[int] = []
        self.r_out: list[int] = []
        for downsample in prob.downsample_schedule:
            self.r_in.append(r)
            if downsample:
                r = halve(r)
            self.r_out.append(r)

    def _pattern(self, plans, r_in: int):
        """(output area, on the signal path) of each conv of a block."""
        rows, _ = resolve_rows(plans, r_in)
        return [(r_out * r_out, plan.role in self.path) for plan, _, r_out in rows]

    def _row_costs(self, rows):
        """(params, flops, sum of log projected widths, path convs) of
        (conv plan, (output area, on path)) rows."""
        exact, conv = self.exact, self.conv
        params = flops = n_path = 0
        logw = 0.0
        for (c_in, c_out, kernel, groups, _, _, has_bn, has_bias), (area, on_path) in rows:
            weights = c_out * (c_in // groups if exact else c_in / groups) * kernel ** 2
            params += weights
            flops += weights * area
            if has_bn:
                if conv.params_include_bn:
                    params += 2 * c_out
                flops += conv.flops_bn_cost * c_out * area
            if has_bias:
                params += c_out
            if on_path:
                w = c_in * kernel ** 2 / groups
                if w < 1:
                    raise ValueError(f"projected width {w} below 1 has no entropy")
                logw += math.log(w)
                n_path += 1
        return params, flops, logw, n_path

    def _block(self, i: int, c_in, c, first: bool):
        prob = self.prob
        stride = 2 if first and prob.downsample_schedule[i] else 1
        plans = block_convs(prob.block, c_in, c, prob.kernel, prob.groups, stride, self.exact)
        # its place and conv count fix a block's output areas and path roles
        key = (i, first, len(plans))
        pattern = self.patterns.get(key) or self.patterns.setdefault(
            key, self._pattern(plans, self.r_in[i] if first else self.r_out[i]))
        return self._row_costs(zip(plans, pattern))

    def _stage(self, i: int, c_prev, c):
        """Memoize stage i's costs; its repeat block and factor depend on c alone."""
        repeat = self.repeats.get((i, c)) or self.repeats.setdefault(
            (i, c), (*self._block(i, c, c, False), math.log(self.r_out[i] ** 2 * c)))
        entry = self.stages[i, c_prev, c] = (*self._block(i, c_prev, c, True), *repeat)
        return entry

    def _tail(self, c_prev):
        """Memoize (params, flops) of the head conv, if any, and the
        classifier, which runs on pooled features."""
        prob, head, r, path = self.prob, self.prob.head_channels, self.r_out[-1], self.path
        rows = [] if head is None else [
            (ConvPlan(c_prev, head, 1, 1, 1, ROLE_HEAD, True, False), (r * r, ROLE_HEAD in path))]
        rows.append((ConvPlan(c_prev if head is None else head, prob.num_classes, 1, 1, 1,
                              ROLE_CLASSIFIER, False, True), (1, ROLE_CLASSIFIER in path)))
        tail = self.tails[c_prev] = self._row_costs(rows)[:2]
        return tail

    def _chain(self, widths):
        """Memoize a width chain's stage entries and tail, up to `_MEMO_CAP` chains."""
        if len(self.chains) >= _MEMO_CAP:
            self.chains.clear()
        c_prev, entries = self.prob.stem.channels, []
        for i, c in enumerate(widths):
            entries.append(self.stages.get((i, c_prev, c)) or self._stage(i, c_prev, c))
            c_prev = c
        chain = self.chains[widths] = (entries, self.tails.get(c_prev) or self._tail(c_prev))
        return chain

    def costs(self, widths: tuple, depths):
        """(weighted entropy, rho, params, flops)."""
        stem_params, stem_flops, logw, n_path = self.stem
        entries, (p_tail, f_tail) = self.chains.get(widths) or self._chain(widths)
        params = flops = 0
        weighted = 0.0
        # logw runs over the stem and every stage so far: stage i's prefix sum
        for alpha, (p1, f1, l1, n1, p2, f2, l2, n2, factor), d in zip(
                self.prob.alphas, entries, depths):
            k = d - 1
            params += p1 + k * p2
            flops += f1 + k * f2
            logw += l1 + k * l2
            n_path += n1 + k * n2
            weighted += alpha * factor * logw
        rho = n_path / math.exp(logw / n_path)
        return weighted, rho, stem_params + (params + p_tail), stem_flops + (flops + f_tail)

    def stage_costs(self, widths, depths) -> list[tuple]:
        """(params, flops) of each stage of a candidate `costs` has seen."""
        return [(e[0] + (d - 1) * e[4], e[1] + (d - 1) * e[5])
                for e, d in zip(self.chains[widths][0], depths)]

    def grid(self, chains, depth_vecs):
        """`costs`'s weighted entropy, rho, params and flops of each width
        chain under each depth vector, as float64 arrays of shape
        (len(chains), len(depth_vecs)).  Params and FLOPs are exact below
        2**53; entropy and rho sum in another order, so may differ by ulps."""
        import numpy as np
        entries = [self.stages.get((i, c_prev, c)) or self._stage(i, c_prev, c)
                   for chain in chains
                   for i, (c_prev, c) in enumerate(zip((self.prob.stem.channels, *chain), chain))]
        shape = (len(chains), self.prob.stages, 4)  # params, flops, logw, path convs
        first, repeat = (np.array([e[j:j + 4] for e in entries], dtype=float).reshape(shape)
                         for j in (0, 4))
        first[:, 0] += self.stem  # the stem counts toward stage 0, the tail toward the last
        first[:, -1, :2] += [self.tails.get(ch[-1]) or self._tail(ch[-1]) for ch in chains]
        k = np.asarray(depth_vecs, dtype=float).T - 1.0
        params, flops, logw, n_path = (
            first[..., j].sum(axis=1)[:, None] + repeat[..., j] @ k for j in range(4))
        # stage i's entropy sum weighs alpha_i * factor_i, and stage j's log
        # widths count toward every stage i >= j
        w = np.array(self.prob.alphas) * np.reshape([e[8] for e in entries], shape[:2])
        w = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
        weighted = (w * first[..., 2]).sum(axis=1)[:, None] + (w * repeat[..., 2]) @ k
        return weighted, n_path / np.exp(logw / n_path), params, flops

    def penalized(self, widths: tuple, depths: tuple, mu: float, tol: float):
        """(objective - mu * exterior penalty, objective); budget excess
        below `tol` relative is free."""
        prob = self.prob
        weighted, rho, params, flops = self.costs(widths, depths)
        q = self.q.get(depths)
        if q is None:
            q = self.q[depths] = depth_uniformity_penalty(depths)
        obj = weighted - prob.beta * q
        pen = 0.0
        for ratio in (rho / prob.rho0, flops / prob.max_flops, params / prob.max_params):
            excess = ratio - 1.0 - tol
            if excess > 0.0:
                pen += excess * excess
        return obj - mu * pen, obj


@functools.lru_cache(maxsize=8)
def _model(prob: ProblemSpec, conventions: Conventions) -> _StageModel:
    """One exact model, and so one stage memo, per (problem, conventions)."""
    return _StageModel(prob, conventions)


# (problem, conventions, model, {(widths, depths): CandidateEval}) of the pair
# evaluated last; swapped whole, so no caller pairs one problem's key with
# another's results
_MEMO_CAP = 512
_memo: tuple = (None, None, None, {})


def evaluate(cand: Candidate, prob: ProblemSpec,
             conventions: Conventions = PINNED) -> CandidateEval:
    """Authoritative discrete evaluation: the exact branch of the
    stage-separable model, which counts what `metric_report` counts over
    the realized network's expansion.

    A repeat under the same problem and conventions objects returns the
    memoized `CandidateEval` itself: treat its dicts as read-only.
    """
    global _memo
    owner, owner_conv, model, known = _memo
    if owner is not prob or owner_conv is not conventions:
        model, known = _model(prob, conventions), {}
        _memo = (prob, conventions, model, known)
    key = (cand.widths, cand.depths)
    ev = known.get(key)
    if ev is not None:
        return ev
    _check_candidate(cand, prob)
    weighted, rho, params, flops = model.costs(*key)
    stage_params, stage_flops = zip(*model.stage_costs(*key))
    q = depth_uniformity_penalty(cand.depths)
    # the budgeted constraints, in reporting order
    slacks = {"rho": prob.rho0 - rho, "flops": prob.max_flops - flops,
              "params": prob.max_params - params}
    violations = {name: -slack for name, slack in slacks.items() if slack < 0}
    if list(cand.widths) != sorted(cand.widths):
        violations["monotone"] = 1.0
    if len(known) >= _MEMO_CAP:
        known.clear()
    ev = known[key] = CandidateEval(
        objective=weighted - prob.beta * q,
        weighted_entropy=weighted,
        q=q,
        rho=rho,
        params=params,
        flops=flops,
        feasible=not violations,
        slacks=slacks,
        violations=violations,
        stage_params=stage_params,
        stage_flops=stage_flops,
    )
    return ev


def objective(cand: Candidate, prob: ProblemSpec,
              conventions: Conventions = PINNED) -> float:
    return evaluate(cand, prob, conventions).objective


def feasible(cand: Candidate, prob: ProblemSpec,
             conventions: Conventions = PINNED) -> tuple[bool, dict]:
    ev = evaluate(cand, prob, conventions)
    return ev.feasible, dict(ev.violations)  # a copy: `ev` may be shared


def _better(a: tuple[Candidate, CandidateEval],
            b: tuple[Candidate, CandidateEval]) -> bool:
    """Strict total order: objective desc, params asc, widths lex asc,
    depths lex asc.  Shared by the solver and the brute-force oracle so
    their tie-breaks agree exactly."""
    ca, ea = a
    cb, eb = b
    if ea.objective != eb.objective:
        return ea.objective > eb.objective
    if ea.params != eb.params:
        return ea.params < eb.params
    if ca.widths != cb.widths:
        return ca.widths < cb.widths
    return ca.depths < cb.depths


def _binding(ev: CandidateEval, prob: ProblemSpec) -> tuple[str, float]:
    """The candidate's largest violation relative to its bound, as
    (constraint name, violation / bound), so counts compare with rho."""
    scale = {"rho": prob.rho0, "flops": prob.max_flops, "params": prob.max_params,
             "monotone": 1.0}
    return max(((k, v / scale[k]) for k, v in ev.violations.items()),
               key=lambda kv: kv[1])


# ---------------------------------------------------------------------------
# brute-force oracle


def lattice_size(prob: ProblemSpec) -> int:
    """The points `brute_force` costs: monotone width chains times depth vectors."""
    lo_g, hi_g = _granular_bounds(prob)
    g = prob.width_granularity
    if any(lo > hi for lo, hi in zip(lo_g, hi_g)):
        return 0
    # ends[j]: monotone chains up to stage i that end at its j-th width;
    # both bounds rise with i, so stage i's width w follows every chain up
    # to stage i - 1 that ends at or below min(w, hi_g[i - 1])
    ends = [1] * ((hi_g[0] - lo_g[0]) // g + 1)
    for i in range(1, len(lo_g)):
        below = list(itertools.accumulate(ends))
        ends = [below[(min(w, hi_g[i - 1]) - lo_g[i - 1]) // g]
                for w in range(lo_g[i], hi_g[i] + 1, g)]
    n = sum(ends)
    for lo, hi in prob.depth_bounds:
        n *= hi - lo + 1
    return n


# the screen's float64 costs differ from `evaluate`'s by a few ulps, far
# below this relative margin
_SCREEN_TOL = 1e-9


def brute_force(prob: ProblemSpec, conventions: Conventions = PINNED,
                max_enumeration: int = 1_000_000,
                ) -> tuple[Candidate, CandidateEval]:
    """Exhaustive feasible argmax over the lattice (oracle for solve).

    Screen, then confirm.  `_StageModel.grid` costs every point in float64;
    its excess is `_binding`'s relative violation, and its objective lies
    within +-`_SCREEN_TOL` * (|entropy| + beta * q + 1).  Points with excess
    <= `_SCREEN_TOL` whose upper end reaches the best lower end among surely
    feasible ones (excess < -`_SCREEN_TOL`) go through `evaluate` in
    enumeration order and `_better`; if none is feasible, the first least
    `_binding` among points near the least excess is raised.  Entropy terms
    are nonnegative and counts exact below 2**53, so the screen errs by ulps
    and always keeps the argmax, its ties and the least-`_binding` points:
    the outcome is exact.  Memory: two float64 arrays over the lattice and
    one chunk's temporaries (22 MB at 8.8e5 points); the 1e6-point cap
    takes well under a second.
    """
    import numpy as np
    prob.check()
    size = lattice_size(prob)
    if size > max_enumeration:
        raise ValueError(f"lattice has {size} points, above the cap {max_enumeration}")

    # monotonicity is structural: only monotone chains are lattice points,
    # built in enumeration (lexicographic) order; within the granular
    # bounds every monotone prefix extends
    g = prob.width_granularity
    chains = [()]
    for lo, hi in zip(*_granular_bounds(prob)):
        chains = [c + (w,) for c in chains for w in range(max((lo, *c[-1:])), hi + 1, g)]
    depth_vecs = list(itertools.product(*(range(lo, hi + 1) for lo, hi in prob.depth_bounds)))
    depth_array = np.array(depth_vecs)

    model = _model(prob, conventions)
    beta_q = prob.beta * np.array([depth_uniformity_penalty(d) for d in depth_vecs])
    upper = np.empty((len(chains), len(depth_vecs)))
    excess = np.empty_like(upper)
    best_lower = -math.inf
    step = max(1, (1 << 16) // len(depth_vecs))  # chunks bound grid's temporaries
    for s in range(0, len(chains), step):
        weighted, rho, params, flops = model.grid(chains[s:s + step], depth_array)
        obj, err = weighted - beta_q, _SCREEN_TOL * (np.abs(weighted) + beta_q + 1.0)
        upper[s:s + step] = obj + err
        excess[s:s + step] = np.maximum(np.maximum(
            rho / prob.rho0, flops / prob.max_flops), params / prob.max_params) - 1.0
        surely = excess[s:s + step] < -_SCREEN_TOL
        best_lower = max(best_lower, (obj - err)[surely].max(initial=-math.inf))

    def confirmed(mask):  # row-major order is the enumeration order
        cands = (Candidate(chains[n], depth_vecs[j]) for n, j in zip(*np.nonzero(mask)))
        return [(cand, evaluate(cand, prob, conventions)) for cand in cands]

    found = [e for e in confirmed((excess <= _SCREEN_TOL) & (upper >= best_lower))
             if e[1].feasible]
    if found:
        return functools.reduce(lambda best, e: e if _better(e, best) else best, found)
    # no contender is feasible, so no point is; `min` keeps the first least
    near = excess <= excess.min() + _SCREEN_TOL * (1.0 + abs(excess.min()))
    binding = min((_binding(ev, prob) for _, ev in confirmed(near)), key=lambda b: b[1])[0]
    raise InfeasibleProblem(
        f"no feasible candidate in the lattice; tightest violated "
        f"constraint: {binding}", binding)


# ---------------------------------------------------------------------------
# continuous relaxation


def _pav(values) -> list[float]:
    """L2 projection onto the non-decreasing cone (pool adjacent violators)."""
    vals: list[float] = []
    counts: list[int] = []
    for v in values:
        v, c = float(v), 1
        while vals and vals[-1] > v:  # pool the new block into the one before
            v1, c1 = vals.pop(), counts.pop()
            v, c = (v1 * c1 + v * c) / (c1 + c), c1 + c
        vals.append(v)
        counts.append(c)
    out: list[float] = []
    for v, c in zip(vals, counts):
        out.extend([v] * c)
    return out


def _monotone_box(widths, lo_eff, hi_eff) -> list[float]:
    """Project onto the monotone cone intersected with the effective box."""
    w = _pav(widths)
    out = []
    prev = -math.inf
    for i, v in enumerate(w):
        v = min(max(v, lo_eff[i], prev), hi_eff[i])
        out.append(v)
        prev = v
    return out


# coordinate ascent: sweep cap, step as a fraction of each axis's span,
# and the relative violation the penalty forgives (rounding absorbs it)
_SWEEPS = 48
_STEP_INIT = 0.25
_STEP_MIN = 0.005
_PENALTY_TOLERANCE = 0.005


def _continuous_ascent(model: _StageModel, prob: ProblemSpec, w0, d0, mu: float):
    lo_g, hi_g = _granular_bounds(prob)
    lo_w = [float(v) for v in lo_g]
    hi_w = [float(v) for v in hi_g]
    lo_d = [float(b[0]) for b in prob.depth_bounds]
    hi_d = [float(b[1]) for b in prob.depth_bounds]
    m = prob.stages
    # (is a width, stage, lower bound, upper bound, span) of each axis that can move
    axes = [(j < m, j % m, lo, hi, hi - lo)
            for j, (lo, hi) in enumerate(zip(lo_w + lo_d, hi_w + hi_d)) if hi - lo > 0]

    w = tuple(_monotone_box(w0, lo_w, hi_w))
    d = tuple(min(max(float(v), lo_d[i]), hi_d[i]) for i, v in enumerate(d0))
    # moves revisit points, the current one whenever a move clips at a
    # bound, and scoring is deterministic: score each (widths, depths) once
    best = model.penalized(w, d, mu, _PENALTY_TOLERANCE)[0]
    scores = {(w, d): best}

    step = _STEP_INIT
    for _ in range(_SWEEPS):
        improved = False
        for is_width, k, lo, hi, span in axes:
            move = step * span  # sign * (step * span) is sign * step * span, bit for bit
            for v in (move, -move):
                if is_width:
                    v += w[k]
                    trial_d = d
                    # w lies on the monotone box and the bounds rise with
                    # the stage, so a trial between its neighbours projects
                    # by clipping to its own bounds
                    if (not k or w[k - 1] <= v) and (k + 1 == m or v <= w[k + 1]):
                        trial_w = w[:k] + (min(max(v, lo), hi),) + w[k + 1:]
                    else:
                        trial_w = tuple(_monotone_box(w[:k] + (v,) + w[k + 1:], lo_w, hi_w))
                else:
                    trial_w, trial_d = w, d[:k] + (min(max(d[k] + v, lo), hi),) + d[k + 1:]
                trial = scores.get((trial_w, trial_d))
                if trial is None:
                    trial = scores[trial_w, trial_d] = model.penalized(
                        trial_w, trial_d, mu, _PENALTY_TOLERANCE)[0]
                if trial > best:
                    best = trial
                    w, d = trial_w, trial_d
                    improved = True
        if not improved:
            step *= 0.5
            if step < _STEP_MIN:
                break
    return w, d


# ---------------------------------------------------------------------------
# rounding, repair, discrete polish


class _Budget:
    """Evaluation counter with a hard cap."""

    def __init__(self, cap: int):
        self.cap = cap
        self.used = 0
        self.exhausted = False

    def take(self) -> bool:
        if self.used >= self.cap:
            self.exhausted = True
            return False
        self.used += 1
        return True


def _snap(value: float, granularity: int) -> int:
    return int(math.floor(value / granularity + 0.5)) * granularity


def round_and_repair(widths, depths, prob: ProblemSpec,
                     conventions: Conventions = PINNED,
                     budget: _Budget | None = None,
                     ) -> tuple[Candidate, CandidateEval] | None:
    """Project reals onto the feasible lattice.

    Round widths to the nearest granularity multiple and depths to the
    nearest integer, project widths onto the monotone cone, then repair
    greedily while infeasible: shrink the width of the most expensive
    stage first, then depths; effectiveness excess is repaired by
    removing depth from the deepest stage.  Returns None when the
    repair exhausts the bounds, or the budget runs out.
    """
    budget = budget or _Budget(10 ** 9)
    g = prob.width_granularity
    lo_g, hi_g = _granular_bounds(prob)
    lo_d = [b[0] for b in prob.depth_bounds]

    w = _monotone_box([float(v) for v in widths], lo_g, hi_g)
    w = [_snap(v, g) for v in w]
    prev = 0
    for i in range(len(w)):
        w[i] = min(max(w[i], lo_g[i], prev), hi_g[i])
        prev = w[i]
    d = [min(max(int(math.floor(v + 0.5)), prob.depth_bounds[i][0]),
             prob.depth_bounds[i][1]) for i, v in enumerate(depths)]

    while True:
        cand = Candidate(tuple(w), tuple(d))
        if not budget.take():
            return None
        ev = evaluate(cand, prob, conventions)
        if ev.feasible:
            return cand, ev

        if "params" in ev.violations or "flops" in ev.violations:
            key = ev.stage_params if "params" in ev.violations else ev.stage_flops
            order = sorted(range(prob.stages), key=lambda i: (-key[i], i))
            moved = False
            for j in order:
                floor_j = max(lo_g[j], w[j - 1] if j > 0 else 0)
                if w[j] - g >= floor_j:
                    w[j] -= g
                    moved = True
                    break
            if moved:
                continue
            for j in sorted(range(prob.stages), key=lambda i: (-d[i], i)):
                if d[j] - 1 >= lo_d[j]:
                    d[j] -= 1
                    moved = True
                    break
            if not moved:
                return None
            continue

        if "rho" in ev.violations:
            # too deep for its width: drop depth from the deepest stage
            j = min(range(prob.stages), key=lambda i: (-d[i], i))
            if d[j] - 1 >= lo_d[j]:
                d[j] -= 1
                continue
            return None

        return None  # monotone violation cannot occur by construction


def _point(widths: tuple[int, ...], depths: tuple[int, ...]) -> Candidate:
    """A Candidate of lattice ints, without `__post_init__`'s coercion."""
    cand = object.__new__(Candidate)
    object.__setattr__(cand, "widths", widths)
    object.__setattr__(cand, "depths", depths)
    return cand


def _neighbors(cand: Candidate, prob: ProblemSpec, bounds):
    """Deterministic move set for the discrete polish around a monotone
    lattice point; `bounds` is `_granular_bounds(prob)`."""
    g = int(prob.width_granularity)  # moves skip `Candidate`'s coercion
    lo_g, hi_g = bounds
    w, d = cand.widths, cand.depths
    m = prob.stages
    d_lo, d_hi = zip(*prob.depth_bounds)
    # w is monotone, so a new width at stage j keeps it monotone between
    # its neighbours: floor[j] <= width <= ceil[j] holds bounds and order
    floor = [max(lo, prev) for lo, prev in zip(lo_g, (lo_g[0], *w))]
    ceil = [min(hi, nxt) for hi, nxt in zip(hi_g, (*w[1:], hi_g[-1]))]

    for j in range(m):
        for delta in (g, -g):
            nw = w[j] + delta
            if floor[j] <= nw <= ceil[j]:
                yield _point(w[:j] + (nw,) + w[j + 1:], d)
        for delta in (1, -1):
            nd = d[j] + delta
            if d_lo[j] <= nd <= d_hi[j]:
                yield _point(w, d[:j] + (nd,) + d[j + 1:])
    for j in range(m - 1):
        for da, db in ((g, -g), (-g, g)):
            wa, wb = w[j] + da, w[j + 1] + db
            if floor[j] <= wa <= min(hi_g[j], wb) and lo_g[j + 1] <= wb <= ceil[j + 1]:
                yield _point(w[:j] + (wa, wb) + w[j + 2:], d)
    # depth transfers preserve the total layer count, so they hop over the
    # uniformity-penalty barrier that blocks single +-1 depth moves
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            di, dj = d[i] + 1, d[j] - 1
            if di <= d_hi[i] and dj >= d_lo[j]:
                ds = list(d)
                ds[i], ds[j] = di, dj
                yield _point(w, tuple(ds))
    # width-for-depth trades exchange budget between the two resources,
    # which no sequence of feasible single moves can do at a tight budget
    for i in range(m):
        for j in range(m):
            for dw, dd in ((g, -1), (-g, 1)):
                nw, nd = w[i] + dw, d[j] + dd
                if floor[i] <= nw <= ceil[i] and d_lo[j] <= nd <= d_hi[j]:
                    yield _point(w[:i] + (nw,) + w[i + 1:], d[:j] + (nd,) + d[j + 1:])


def _polish(start: tuple[Candidate, CandidateEval], prob: ProblemSpec,
            conventions: Conventions, budget: _Budget,
            ) -> tuple[Candidate, CandidateEval]:
    bounds = _granular_bounds(prob)
    current = start
    while True:
        best_neighbor = None
        for cand in _neighbors(current[0], prob, bounds):
            if not budget.take():
                return current
            ev = evaluate(cand, prob, conventions)
            if not ev.feasible or ev.objective < current[1].objective:  # not `_better`
                continue
            entry = (cand, ev)
            if _better(entry, current) and (
                    best_neighbor is None or _better(entry, best_neighbor)):
                best_neighbor = entry
        if best_neighbor is None:
            return current
        current = best_neighbor


# ---------------------------------------------------------------------------
# top-level solve


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _hasher(const: int, mult: int):
    """SeedSequence's 32-bit hash, whose constant steps by `mult` per call."""
    def hashmix(v: int) -> int:
        nonlocal const
        v, const = v ^ const, const * mult & _M32
        v = v * const & _M32
        return v ^ v >> 16
    return hashmix


def _uniform_stream(seed: int, restart: int):
    """The doubles in [0, 1) that `numpy.random.default_rng([seed, restart])`
    draws, bit for bit: SeedSequence mixes the 32-bit words of both ints into
    a pool of four, `generate_state(4, uint64)` seeds PCG64, and each step's
    XSL-RR output gives `(x >> 11) * 2**-53`."""
    words = [n >> s & _M32 for n in (seed, restart)
             for s in range(0, max(n.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src, dst in itertools.product(range(4), repeat=2):
        if src != dst:
            pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word, dst in itertools.product(words[4:], range(4)):
        pool[dst] = mix(pool[dst], hashmix(word))
    generate = _hasher(0x8B51F9DD, 0x58F38DED)
    state = [generate(pool[i % 4]) for i in range(8)]
    s0, s1, i0, i1 = (state[k] | state[k + 1] << 32 for k in range(0, 8, 2))
    inc = ((i0 << 64 | i1) << 1 | 1) & _M128
    x = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128  # srandom
    while True:
        x = (x * _PCG_MULT + inc) & _M128
        out, rot = (x >> 64 ^ x) & _M64, x >> 122
        yield (((out >> rot | out << (64 - rot)) & _M64) >> 11) * 2.0 ** -53


def _start_point(prob: ProblemSpec, restart: int, seed: int):
    """Deterministic restart start: two corner heuristics, one midpoint,
    then seeded uniform draws."""
    lo_g, hi_g = _granular_bounds(prob)
    lo_d = [b[0] for b in prob.depth_bounds]
    hi_d = [b[1] for b in prob.depth_bounds]
    if restart == 0:
        return [float(v) for v in hi_g], [float(v) for v in hi_d]
    if restart == 1:
        return [float(v) for v in lo_g], [float(v) for v in hi_d]
    if restart == 2:
        return ([(a + b) / 2 for a, b in zip(lo_g, hi_g)],
                [(a + b) / 2 for a, b in zip(lo_d, hi_d)])
    u = _uniform_stream(seed, restart)  # widths first, then depths
    return tuple([a + (b - a) * next(u) for a, b in zip(map(float, lo), map(float, hi))]
                 for lo, hi in ((lo_g, hi_g), (lo_d, hi_d)))


def _run_restart(prob: ProblemSpec, opts: SolveOptions,
                 conventions: Conventions, restart: int, eval_cap: int):
    budget = _Budget(eval_cap)
    result = None
    note = {"restart": restart, "evaluations": 0}
    if eval_cap > 0:
        w0, d0 = map(tuple, _start_point(prob, restart, opts.seed))
        # odd random restarts stay where they are drawn: the ascent pulls
        # everything into few basins, and rounding a raw draw keeps the
        # discrete search's start diversity
        ascend = restart < 3 or restart % 2 == 0
        if ascend:
            model = _StageModel(prob, conventions, exact=False)
            mu0 = 10.0 * (1.0 + abs(model.penalized(w0, d0, 0.0, 0.0)[1]))
            mu = mu0 * (2.0 ** restart)
            w, d = _continuous_ascent(model, prob, w0, d0, mu)
            note["mu"] = mu
        else:
            w, d = w0, d0
        rounded = round_and_repair(w, d, prob, conventions, budget)
        if rounded is not None:
            result = _polish(rounded, prob, conventions, budget)
        note["continuous"] = [list(w), list(d)]
        if result is not None:
            note["best"] = {"widths": list(result[0].widths),
                            "depths": list(result[0].depths),
                            "objective": result[1].objective}
    note["evaluations"] = budget.used
    return result, budget.used, budget.exhausted, note


def _restart_caps(max_evals: int, restarts: int) -> list[int]:
    """Deterministic per-restart budgets (independent of execution order)."""
    base = max_evals // restarts
    extra = max_evals - base * restarts
    return [base + (1 if r < extra else 0) for r in range(restarts)]


def _forked(run, n: int, workers: int) -> list:
    """[run(i) for i in range(n)], computed by this process and workers - 1
    forked children.

    Every process claims indices first come, first served from a token
    pipe that holds one 8-byte record, the next index: reading it takes the
    lock, writing index + 1 back releases it.  A child pickles {i: run(i)}
    of its claims, or the exception it raised, into its own pipe and leaves
    by `os._exit`, so no atexit handler runs and no inherited stdout buffer
    is flushed.  Every child is reaped before this returns or raises; if
    this process raises, its children are killed first.
    """
    import pickle  # loaded only by a parallel solve

    token_r, token_w = os.pipe()
    os.write(token_w, bytes(8))

    def claims() -> dict:
        done = {}
        while True:
            i = int.from_bytes(os.read(token_r, 8), "little")
            os.write(token_w, (i + 1).to_bytes(8, "little"))
            if i >= n:
                return done
            done[i] = run(i)

    children = {}  # pid -> read end of its result pipe
    try:
        for _ in range(workers - 1):
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    try:
                        payload, status = pickle.dumps(claims()), 0
                    except BaseException as exc:
                        try:  # the caller must be able to load what it gets
                            payload = pickle.dumps(exc)
                            pickle.loads(payload)
                        except Exception:
                            payload = pickle.dumps(RuntimeError(repr(exc)))
                    with open(result_w, "wb") as out:
                        out.write(payload)
                finally:
                    os._exit(status)
            os.close(result_w)
            children[pid] = result_r
        results = claims()
        errors = []
        for pid, result_r in list(children.items()):
            with open(result_r, "rb") as f:
                payload = f.read()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            got = pickle.loads(payload) if payload else RuntimeError(
                f"solve worker {pid} ended with wait status {status} and sent nothing")
            if isinstance(got, BaseException):
                errors.append(got)
            else:
                results.update(got)
        if errors:
            raise errors[0]
        return [results[i] for i in range(n)]
    finally:
        for pid, result_r in children.items():
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            os.close(result_r)
        os.close(token_r)
        os.close(token_w)


def solve(prob: ProblemSpec, opts: SolveOptions | None = None,
          conventions: Conventions = PINNED) -> SolveReport:
    """Best feasible candidate by the documented two-phase method.

    With `threads` above 1 the restarts run in this process and in
    min(threads, restarts) - 1 forked children (`_forked`), which needs
    `os.fork`; the outcomes are merged by restart index, so the report is
    that of a sequential solve.
    """
    opts = opts or SolveOptions()
    if opts.seed < 0:
        raise ValueError(f"seed must be non-negative, got {opts.seed}")
    for name in ("restarts", "max_evals", "threads"):
        if getattr(opts, name) < 1:
            raise ValueError(f"{name} must be at least 1, got {getattr(opts, name)}")
    if opts.threads > 1 and not hasattr(os, "fork"):
        raise ValueError(f"threads {opts.threads} needs os.fork, which this platform lacks")
    prob.check()
    t0 = time.perf_counter()
    caps = _restart_caps(opts.max_evals, opts.restarts)

    def run(r):
        return _run_restart(prob, opts, conventions, r, caps[r])

    workers = min(opts.threads, opts.restarts)
    if workers > 1:
        outcomes = _forked(run, opts.restarts, workers)
    else:
        outcomes = [run(r) for r in range(opts.restarts)]

    best: tuple[Candidate, CandidateEval] | None = None
    evaluations = 0
    exhausted = False
    trace = []
    for result, used, was_exhausted, note in outcomes:
        evaluations += used
        exhausted = exhausted or was_exhausted
        if opts.trace:
            trace.append(note)
        if result is not None and (best is None or _better(result, best)):
            best = result

    infeasibility = None
    if best is not None:
        cand, ev = best
    else:
        # probe the cheapest lattice point to name the binding constraint
        cand = _cheapest(prob)
        ev = evaluate(cand, prob, conventions)
        if ev.feasible:
            # budget starvation, not infeasibility: report the probe point
            exhausted = True
        else:
            cand = None
            # params and FLOPs rise with every width and depth, so only their
            # excess at the cheapest point proves a starved search infeasible;
            # an excess on rho alone may vanish at another point
            if not exhausted or "params" in ev.violations or "flops" in ev.violations:
                infeasibility, _ = _binding(ev, prob)
    return SolveReport(
        best=cand, objective=ev.objective if cand is not None else -math.inf,
        feasible=cand is not None, slacks=dict(ev.slacks), restarts_used=opts.restarts,
        evaluations=evaluations, wall_time=time.perf_counter() - t0,
        budget_exhausted=exhausted, infeasibility=infeasibility, trace=trace)
