"""End-to-end solvers, exhaustive oracles, and the black-box adversary.

`solve_partial_tbc` chains the full machinery: reorder into greedy
standard form, locate the threshold multiplier, build the merger graph,
and combine the two bracketing covers, auditing every certificate along
the way.  The threshold pair also certifies the LP optimum, with no
simplex.  `solve_rho_separable` reduces a decomposable instance to a
totally balanced one through the fractional optimum, and
`absorb_additive_error` removes the additive cost term by enumerating
small set prefixes.  The exhaustive oracles are deliberately independent
of the solver path so they can referee it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb, lcm
from operator import or_

from .arith import as_rational, common_scale
from .errors import (AuditError, InfeasibleError, InputError,
                     InternalInvariantError, check_guard)
from .generators import BlackboxFamily, gen_blackbox_family, Lcg
from .kolen import KolenResult, audit_optimality, kolen
from .lp import (dual_value, is_dual_feasible, is_primal_feasible,
                 mixed_cover_point, solve_dual, solve_lp)
from .merger import (MergerGraph, audit_cost_bound, audit_merge_bound,
                     build_merger_graph, merge)
from .model import (Cover, Decomposition, Instance, PermutationPair,
                    bit_indices, cover_cost, covered_profit, permute_instance,
                    row_bitmasks, sub_instance)
from .tb import standard_greedy_form
from .threshold import ThresholdResult, find_threshold, kolen_call_budget

BRUTE_FORCE_LIMIT = 24
ABSORB_ENUM_LIMIT = 10 ** 6
EQUITABLE_SAMPLES = 20


def to_greedy_form(instance: Instance):
    """Permute an instance into greedy standard form.

    Returns (permuted instance, permutation); an instance that is already
    gamma-free is returned as it is, with the identity permutation.  Raises
    InputError when the matrix is not totally balanced.
    """
    sgf = standard_greedy_form(instance)
    if not sgf.ok:
        raise InputError("matrix is not totally balanced: no greedy standard "
                         f"form exists (gamma pattern at {sgf.witness})")
    if sgf.mode == "identity":
        work, perm = instance, PermutationPair.identity(instance.n, instance.m)
    else:
        work, perm = permute_instance(instance, sgf.perm), sgf.perm
    work._gamma_free = True  # certified by standard_greedy_form
    return work, perm


@dataclass
class SolveReport:
    """Everything a solve run produced, audits included.

    `work` is the greedy-form instance that was solved and `threshold` its
    threshold search; like `timings` they stay out of the payload.
    `timings` holds wall seconds per bucket: `greedy_form`, `threshold`,
    `merge` (the kept runs' audits, the merger graph and the merge),
    `certificate` (cover mapping, `feasible`, `strong_duality`,
    `single_block_bound` and the oracle) and `total`.
    """

    cover: Cover
    cost: Fraction
    covered: Fraction
    dl_value: Fraction
    lp_value: Fraction
    splits: int
    exact_hit: bool
    lambda_star: Fraction
    kolen_calls: int
    single_block: bool
    audits: dict[str, bool]
    ratio_vs_oracle: Fraction | None = None
    oracle_cost: Fraction | None = None
    timings: dict[str, float] = field(default_factory=dict)
    work: Instance | None = None
    threshold: ThresholdResult | None = None

    def payload(self) -> dict:
        """Deterministic JSON-able view; timings deliberately excluded."""
        return {
            "cover": list(self.cover.sets),
            "cost": str(self.cost),
            "covered": str(self.covered),
            "dl_value": str(self.dl_value),
            "lp_value": str(self.lp_value),
            "splits": self.splits,
            "exact_hit": self.exact_hit,
            "lambda_star": str(self.lambda_star),
            "kolen_calls": self.kolen_calls,
            "single_block": self.single_block,
            "audits": dict(sorted(self.audits.items())),
            "ratio_vs_oracle": None if self.ratio_vs_oracle is None else str(self.ratio_vs_oracle),
            "oracle_cost": None if self.oracle_cost is None else str(self.oracle_cost),
        }


def _single_blocks(instance: Instance) -> bool:
    """Whether every element's sets form one contiguous block of columns."""
    for mask in instance.row_masks:
        if mask:
            low = mask & -mask
            shifted = mask // low
            if shifted & (shifted + 1):
                return False
    return True


def lemma_witness_check(instance: Instance, graph: MergerGraph,
                        below: KolenResult, above: KolenResult, *,
                        profit_scale: tuple[int, list[int]] | None = None) -> bool:
    """Cross-solution witness for under-capped elements.

    Every element whose dual value sits strictly below its penalty cap
    must see a set from each pruned cover that are equal or joined by a
    merger edge.  The duals and caps are compared as ints over a common
    denominator from `arith.common_scale`; `profit_scale` is `common_scale`
    of the profits, computed here when not given.  Each set of the plus
    cover gets the mask of itself and its neighbours along
    `graph.edges`; an element passes when the OR of its plus sets' masks
    meets its row mask within the minus cover.
    """
    lam = above.dual.lam.value
    l_p, profits = profit_scale or common_scale(instance.profits)
    unit = lam.denominator * l_p
    scale, y = common_scale([yi.value for yi in above.dual.y], unit)
    cap_unit = lam.numerator * (scale // unit)
    pm = below.pruned.mask()
    pp = above.pruned.mask()
    # reach[j], for a set j of the plus cover: j and its merger neighbours.
    reach = [0] * instance.m
    for j in above.pruned.sets:
        reach[j] = 1 << j
    for a, b in graph.edges:
        if pp >> a & 1:
            reach[a] |= 1 << b
        if pp >> b & 1:
            reach[b] |= 1 << a
    element_sets, row_masks = instance.element_sets(), instance.row_masks
    for i, (yi, p) in enumerate(zip(y, profits)):
        if yi >= cap_unit * p:
            continue
        near = reduce(or_, map(reach.__getitem__, element_sets[i]), 0)
        if not near & row_masks[i] & pm:
            return False
    return True


def _audit_failure(name: str, outcome) -> str:
    """An audit's name, with the failed clause and its detail when the audit
    reports them (an OptimalityAudit or a MergeBoundAudit)."""
    if outcome is None:
        return name
    return f"{name}: clause {outcome.failed_clause}: {outcome.detail}"


def solve_partial_tbc(instance: Instance, *, oracle: bool = False) -> SolveReport:
    """Solve a totally balanced partial-cover instance with audits.

    On a totally balanced matrix the Lagrangian bound equals the LP
    optimum, so the threshold dual (y, lambda*) and the bracketing covers
    mixed to cover exactly P are an optimal pair; `strong_duality` checks
    both sides' feasibility and their equal objectives.  The checker puts
    the greedy-form instance's profits and costs over their common scales
    (`arith.common_scale`) once, and every audit below reads them.

    Raises InputError when the matrix is not totally balanced,
    InfeasibleError when the target is unattainable, and AuditError if any
    runtime certificate fails (which would signal a bug, not bad input).
    """
    t0 = time.perf_counter()
    work, perm = to_greedy_form(instance)
    t_sgf = time.perf_counter()

    thr = find_threshold(work)
    t_thr = time.perf_counter()

    audits: dict[str, bool] = {}
    outcomes = {}  # audits that report a failed clause and its detail
    profit_scale, cost_scale = common_scale(work.profits), common_scale(work.costs)
    scales = {"profit_scale": profit_scale, "cost_scale": cost_scale}
    y = [yi.value for yi in (thr.exact_hit or thr.at_star).dual.y]
    dl = dual_value(work, y, thr.lambda_star)
    if thr.exact_hit is not None:
        run = thr.exact_hit
        outcomes["dual_optimality"] = audit_optimality(work, run.dual.lam, run, **scales)
        final_work = run.pruned
        audits["exact_hit_identity"] = cover_cost(work, final_work) == dl
        splits = 0
        lp_covers = (final_work,)
    else:
        low_run, high_run = thr.merge_pair(work.target)
        perturbed = thr.below if low_run is thr.below else thr.at_or_above
        outcomes["dual_optimality_low"] = audit_optimality(work, low_run.dual.lam,
                                                           low_run, **scales)
        outcomes["dual_optimality_high"] = audit_optimality(work, high_run.dual.lam,
                                                            high_run, **scales)
        audits["tight_inclusion"] = not perturbed.tight.mask() & ~thr.at_star.tight.mask()
        audits["value_parts_match"] = all(
            yl.value == yh.value for yl, yh in zip(low_run.dual.y, high_run.dual.y))
        graph = build_merger_graph(work, low_run.pruned, high_run.pruned,
                                   low_run.positive, high_run.positive)
        audits["coverage_witness"] = lemma_witness_check(work, graph, low_run, high_run,
                                                         profit_scale=profit_scale)
        final_work, trace = merge(graph, low_run.pruned, high_run.pruned, work)
        outcomes["merge_bound"] = audit_merge_bound(trace, work, dl)
        splits = len(trace.splits)
        lp_covers = (low_run.pruned, high_run.pruned)
    t_merge = time.perf_counter()
    audits.update((name, outcome.ok) for name, outcome in outcomes.items())

    inv = perm.inverse()
    cover = Cover.of(inv.col_perm[j] for j in final_work.sets)
    cost = cover_cost(instance, cover)
    covered = covered_profit(instance, cover)
    audits["feasible"] = covered >= instance.target

    primal = mixed_cover_point(work, *lp_covers, profit_scale=profit_scale)
    audits["strong_duality"] = (
        is_primal_feasible(work, primal.x, primal.r, profit_scale=profit_scale)
        and is_dual_feasible(work, y, thr.lambda_star, **scales)
        and primal.value == dl)

    single_block = _single_blocks(instance) or _single_blocks(work)
    if single_block:
        audits["single_block_bound"] = cost <= primal.value + instance.max_cost()

    ratio = None
    oracle_cost = None
    if oracle:
        _, oracle_cost = brute_force_partial(instance)
        ratio = cost / oracle_cost if oracle_cost else None
        audits["at_least_oracle"] = cost >= oracle_cost

    failed = sorted(name for name, ok in audits.items() if not ok)
    if failed:
        raise AuditError("solve audits failed: " + ", ".join(
            _audit_failure(name, outcomes.get(name)) for name in failed))

    t_end = time.perf_counter()
    return SolveReport(
        cover=cover, cost=cost, covered=covered, dl_value=dl,
        lp_value=primal.value, splits=splits,
        exact_hit=thr.exact_hit is not None, lambda_star=thr.lambda_star,
        kolen_calls=thr.kolen_calls, single_block=single_block,
        audits=audits, ratio_vs_oracle=ratio, oracle_cost=oracle_cost,
        timings={"greedy_form": t_sgf - t0, "threshold": t_thr - t_sgf,
                 "merge": t_merge - t_thr, "certificate": t_end - t_merge,
                 "total": t_end - t0},
        work=work, threshold=thr)


def _reduce_rows(instance: Instance, decomposition: Decomposition,
                 primal) -> Instance:
    """Per element, the row of the first part that carries at least a 1/rho
    share of its fractional coverage in `primal`."""
    rho = decomposition.rho
    b_rows = []
    for i in range(instance.n):
        need = (1 - primal.r[i]) / rho
        pick = None
        for q, part in enumerate(decomposition.parts):
            share = sum((primal.x[j] for j in range(instance.m) if part[i][j]),
                        Fraction(0))
            if share >= need:
                pick = q
                break
        if pick is None:
            raise InternalInvariantError(
                f"no decomposition part reaches the 1/{rho} share at element {i}")
        b_rows.append(decomposition.parts[pick][i])
    return Instance(row_bitmasks(b_rows), instance.costs, instance.profits,
                    instance.target)


def solve_rho_separable(instance: Instance, decomposition: Decomposition, *,
                        oracle: bool = False) -> SolveReport:
    """Reduce through the fractional optimum to one totally balanced row set.

    For each element, some decomposition part must carry at least a 1/rho
    share of its fractional coverage; the row-induced matrix built from
    those parts is solved instead, and its cover is feasible for the
    original matrix.  At rho = 1 that matrix is the input itself, and
    `lp_value` comes from the inner solve's certified LP optimum instead of
    a simplex.  `rho_lp_bound` audits cost <= (1 + 3**(1-k)) * rho * LP +
    k * c_max at every k = 1..10 (`merger.audit_cost_bound`): rho times
    the input's x is feasible for the reduced LP, so its optimum is at most
    rho * LP, and the inner `merge_bound` holds at every k.
    """
    t0 = time.perf_counter()
    decomposition.validate_against(instance)
    rho = decomposition.rho
    if rho == 1:
        # The one part is the whole matrix: every element picks it.
        reduced = instance
        t_lp = time.perf_counter()
    else:
        primal = solve_lp(instance)
        dual = solve_dual(instance, primal)
        t_lp = time.perf_counter()
        if primal.value != dual.value:
            raise AuditError("strong duality failed on the original relaxation")
        reduced = _reduce_rows(instance, decomposition, primal)
    report = solve_partial_tbc(reduced)
    lp_value = report.lp_value if rho == 1 else primal.value

    covered_original = covered_profit(instance, report.cover)
    audits = dict(report.audits)
    audits["feasible_for_original"] = covered_original >= instance.target
    rho_bound = audit_cost_bound(report.cost, rho * lp_value, instance.max_cost())
    audits["rho_lp_bound"] = rho_bound.ok

    ratio = None
    oracle_cost = None
    if oracle:
        _, oracle_cost = brute_force_partial(instance)
        ratio = report.cost / oracle_cost if oracle_cost else None

    failed = sorted(name for name, ok in audits.items() if not ok)
    if failed:
        raise AuditError("separable solve audits failed: " + ", ".join(
            _audit_failure(name, rho_bound if name == "rho_lp_bound" else None)
            for name in failed))

    return replace(
        report, covered=covered_original, lp_value=lp_value,
        single_block=_single_blocks(reduced), audits=audits,
        ratio_vs_oracle=ratio, oracle_cost=oracle_cost,
        timings={**report.timings, "lp": t_lp - t0,
                 "total": time.perf_counter() - t0})


def absorb_additive_error(instance: Instance, k: int, alpha,
                          decomposition: Decomposition | None = None) -> Cover:
    """Trade the additive c_max term for enumeration of small set prefixes.

    Runs the base solver (`solve_rho_separable` with a decomposition,
    `solve_partial_tbc` without) on every reduced instance obtained by
    committing to a size-s subset X of sets (s = ceil(k / (alpha - 1))),
    dropping the sets costlier than X's cheapest member, the elements X
    covers, and X's profit from the target.  k sets only that size.  The
    cheapest feasible combination wins; the plain solve always
    participates, so the result never costs more than it.
    """
    if k < 0:
        raise InputError(f"absorption k must be nonnegative, got {k}")
    alpha = as_rational(alpha)
    if alpha <= 1:
        raise InputError(f"alpha must exceed 1, got {alpha}")
    ratio = Fraction(k) / (alpha - 1)
    s = -((-ratio.numerator) // ratio.denominator)  # exact ceiling
    check_guard(comb(instance.m, s) <= ABSORB_ENUM_LIMIT,
                f"absorption would enumerate C({instance.m}, {s}) subsets")

    def base_solve(inst: Instance, dec: Decomposition | None) -> SolveReport:
        if dec is None:
            return solve_partial_tbc(inst)
        return solve_rho_separable(inst, dec)

    plain = base_solve(instance, decomposition)
    best_cost = plain.cost
    best_sets = tuple(plain.cover.sets)

    if s == 0:
        return plain.cover

    memo: dict = {}
    for X in combinations(range(instance.m), s):
        cost_x = sum((instance.costs[j] for j in X), Fraction(0))
        if cost_x >= best_cost:
            continue
        threshold_cost = min(instance.costs[j] for j in X)
        keep_cols = tuple(j for j in range(instance.m)
                          if j not in X and instance.costs[j] <= threshold_cost)
        covered_x = 0
        for j in X:
            covered_x |= instance.col_masks[j]
        keep_rows = tuple(i for i in range(instance.n)
                          if not (covered_x >> i & 1))
        profit_x = instance.profit_of_element_mask(covered_x)
        new_target = instance.target - profit_x

        if new_target <= 0:
            candidate_cost = cost_x
            candidate_sets = tuple(sorted(X))
        else:
            key = (keep_cols, keep_rows, new_target)
            if key not in memo:
                reduced = sub_instance(instance, keep_rows, keep_cols, new_target)
                dec = (decomposition.restrict(keep_rows, keep_cols)
                       if decomposition is not None else None)
                try:
                    rep = base_solve(reduced, dec)
                    memo[key] = (rep.cost, rep.cover.sets)
                except InfeasibleError:
                    memo[key] = None
            cached = memo[key]
            if cached is None:
                continue
            inner_cost, inner_sets = cached
            candidate_cost = cost_x + inner_cost
            candidate_sets = tuple(sorted(set(X) | {keep_cols[j] for j in inner_sets}))

        if (candidate_cost, candidate_sets) < (best_cost, best_sets):
            best_cost = candidate_cost
            best_sets = candidate_sets

    best = Cover.of(best_sets)
    if covered_profit(instance, best) < instance.target:
        raise InternalInvariantError("absorption produced an infeasible cover")
    return best


# ---------------------------------------------------------------------------
# Exhaustive oracles.
# ---------------------------------------------------------------------------


def _scaled_ints(values) -> tuple[list[int], int]:
    """(values times D as ints, D), D the lcm of the values' denominators:
    the oracles' own scaling, independent of the kernel's."""
    denom = lcm(*(v.denominator for v in values))
    return [v.numerator * (denom // v.denominator) for v in values], denom


def brute_force_partial(instance: Instance) -> tuple[Cover, Fraction]:
    """Exhaustive minimum-cost feasible cover; ties break lexicographically."""
    m = instance.m
    check_guard(m <= BRUTE_FORCE_LIMIT,
                f"brute force limited to {BRUTE_FORCE_LIMIT} sets, got {m}")
    profit_scaled, p_denom = _scaled_ints(list(instance.profits) + [instance.target])
    target_scaled = profit_scaled[-1]
    profit_scaled = profit_scaled[:-1]
    cost_scaled, c_denom = _scaled_ints(list(instance.costs))

    profit_of: dict[int, int] = {}

    def mask_profit(mask: int) -> int:
        if mask not in profit_of:
            total = 0
            rest = mask
            while rest:
                low = rest & -rest
                total += profit_scaled[low.bit_length() - 1]
                rest ^= low
            profit_of[mask] = total
        return profit_of[mask]

    suffix_mask = [0] * (m + 1)
    for j in range(m - 1, -1, -1):
        suffix_mask[j] = suffix_mask[j + 1] | instance.col_masks[j]

    best: list = [None, None]  # scaled cost, sorted sets tuple

    def dfs(j: int, cost: int, covered: int, chosen: list[int]) -> None:
        if best[0] is not None and cost > best[0]:
            return
        if mask_profit(covered) >= target_scaled:
            key = (cost, tuple(chosen))
            if best[0] is None or key < (best[0], best[1]):
                best[0], best[1] = key
            return
        if j == m:
            return
        if mask_profit(covered | suffix_mask[j]) < target_scaled:
            return
        chosen.append(j)
        dfs(j + 1, cost + cost_scaled[j], covered | instance.col_masks[j], chosen)
        chosen.pop()
        dfs(j + 1, cost, covered, chosen)

    dfs(0, 0, 0, [])
    if best[0] is None:
        raise InfeasibleError("no subset of sets reaches the target")
    return Cover.of(best[1]), Fraction(best[0], c_denom)


def brute_force_prize_collecting(instance: Instance, lam) -> Fraction:
    """Exact minimum of cost plus lam-weighted uncovered profit."""
    m = instance.m
    check_guard(m <= BRUTE_FORCE_LIMIT,
                f"brute force limited to {BRUTE_FORCE_LIMIT} sets, got {m}")
    lam = as_rational(lam)
    # Costs over L_c and penalties lam * p over lam's denominator times L_p,
    # both put over their lcm.
    cost_scaled, l_c = _scaled_ints(instance.costs)
    profit_scaled, l_p = _scaled_ints(instance.profits)
    unit = lam.denominator * l_p
    denom = lcm(l_c, unit)
    cost_scaled = [c * (denom // l_c) for c in cost_scaled]
    factor = lam.numerator * (denom // unit)
    pen_scaled = [factor * p for p in profit_scaled]

    pen_of: dict[int, int] = {}
    total_pen = sum(pen_scaled)

    def mask_pen(mask: int) -> int:
        if mask not in pen_of:
            total = 0
            rest = mask
            while rest:
                low = rest & -rest
                total += pen_scaled[low.bit_length() - 1]
                rest ^= low
            pen_of[mask] = total
        return pen_of[mask]

    best = [total_pen]  # empty cover

    def dfs(j: int, cost: int, covered: int) -> None:
        if cost >= best[0]:
            return
        value = cost + total_pen - mask_pen(covered)
        if value < best[0]:
            best[0] = value
        if j == m:
            return
        dfs(j + 1, cost + cost_scaled[j], covered | instance.col_masks[j])
        dfs(j + 1, cost, covered)

    dfs(0, 0, 0)
    return Fraction(best[0], denom)


# ---------------------------------------------------------------------------
# Black-box lower-bound simulation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlackBoxEntry:
    lam: Fraction
    kind: str  # "empty" | "A" | "B"
    sets: tuple[int, ...]
    lmp_lhs: Fraction
    lmp_rhs: Fraction
    lmp_ok: bool


@dataclass(frozen=True)
class BlackBoxTranscript:
    q: int
    alpha: Fraction
    variant: str
    schedule: tuple[Fraction, ...]
    entries: tuple[BlackBoxEntry, ...]
    union_sets: tuple[int, ...]
    best_cost: Fraction
    best_sets: tuple[int, ...]
    opt_cost: Fraction
    ratio: Fraction
    lmp_all_ok: bool


def _blackbox_boundaries(fam: BlackboxFamily) -> dict[str, Fraction]:
    pu = fam.instance.total_profit()
    c_a, c_b, c_o = fam.cost_a, fam.cost_b, fam.opt_cost
    u_a, u_o = fam.uncovered_a, fam.uncovered_o
    out = {
        "ea": c_a / (pu - u_a),
        "ao": (c_o - c_a) / (u_a - u_o),
        "ob": (c_b - c_o) / u_o,
        "eo": c_o / (pu - u_o),
        "tie": (fam.alpha * c_o - c_a) / (fam.alpha * (u_a - u_o)),
    }
    return out


def default_blackbox_schedule(fam: BlackboxFamily) -> tuple[Fraction, ...]:
    b = _blackbox_boundaries(fam)
    points = {
        b["ea"] / 2, b["ea"], (b["ea"] + b["ao"]) / 2, b["ao"],
        b["eo"], (b["eo"] + b["tie"]) / 2, b["tie"],
        (b["tie"] + b["ob"]) / 2, b["ob"], 2 * b["ob"],
    }
    return tuple(sorted(p for p in points if p >= 0))


def simulate_blackbox_lb(q: int, alpha, lambda_schedule=None,
                         variant: str = "general") -> BlackBoxTranscript:
    """Adversarial multiplier-preserving oracle plus exhaustive combination.

    For every scheduled multiplier the adversary answers with the empty
    cover, the A-sets, or the B-sets, never a set from the optimum, while
    exactly satisfying the multiplier-preserving inequality.  The best
    cover assembled from everything it ever returned is then found by
    exhaustive search and compared against the true optimum.
    """
    fam = gen_blackbox_family(q, alpha, variant)
    inst = fam.instance
    alpha = fam.alpha
    pu = inst.total_profit()
    boundaries = _blackbox_boundaries(fam)
    tie = boundaries["tie"]
    if lambda_schedule is None:
        schedule = default_blackbox_schedule(fam)
    else:
        schedule = tuple(sorted({as_rational(l) for l in lambda_schedule}))
        if any(l < 0 for l in schedule):
            raise InputError("negative multiplier in schedule")

    entries = []
    union: set[int] = set()
    for lam in schedule:
        values = {
            "empty": lam * pu,
            "A": fam.cost_a + lam * fam.uncovered_a,
            "B": fam.cost_b,
            "O": fam.opt_cost + lam * fam.uncovered_o,
        }
        opt_pc = min(values.values())
        if values["empty"] == opt_pc:
            kind = "empty"
        elif values["A"] == opt_pc:
            kind = "A"
        elif values["B"] == opt_pc:
            kind = "B"
        else:
            kind = "A" if lam <= tie else "B"
        if kind == "empty":
            sets: tuple[int, ...] = ()
            covered = Fraction(0)
            cost = Fraction(0)
        elif kind == "A":
            sets = fam.a_cols
            covered = pu - fam.uncovered_a
            cost = fam.cost_a
        else:
            sets = fam.b_cols
            covered = pu
            cost = fam.cost_b
        lhs = cost + alpha * lam * (pu - covered)
        rhs = alpha * opt_pc
        entries.append(BlackBoxEntry(lam, kind, sets, lhs, rhs, lhs <= rhs))
        union.update(sets)

    union_sets = tuple(sorted(union))
    try:
        best, best_cost = brute_force_partial(
            sub_instance(inst, range(inst.n), union_sets, inst.target))
    except InfeasibleError:
        raise InfeasibleError("the returned sets cannot reach the target") from None
    best_sets = tuple(union_sets[j] for j in best.sets)

    _, opt_cost = brute_force_partial(inst)
    if opt_cost != fam.opt_cost:
        raise InternalInvariantError(
            f"exhaustive optimum {opt_cost} differs from the construction's "
            f"{fam.opt_cost}")

    return BlackBoxTranscript(
        q=q, alpha=alpha, variant=variant, schedule=schedule,
        entries=tuple(entries), union_sets=union_sets,
        best_cost=best_cost, best_sets=best_sets, opt_cost=opt_cost,
        ratio=best_cost / opt_cost,
        lmp_all_ok=all(e.lmp_ok for e in entries))


# ---------------------------------------------------------------------------
# Equitable coloring.
# ---------------------------------------------------------------------------


def equitable_coloring_check(row_masks, m: int, roles) -> bool:
    """Red/blue column balance check on the whole matrix and on
    EQUITABLE_SAMPLES sampled submatrices.

    `roles` tags each column ("O"|"A"|"B", index), and the constructive
    coloring is used: A columns blue; for each index with both its B and O
    column present, B red and O blue; a lone survivor red.  Returns False
    as report content, never raises for imbalance.
    """
    n = len(row_masks)

    def balanced(row_idx, cols: int) -> bool:
        pairs: dict[int, dict[str, int]] = {}
        for j in bit_indices(cols):
            kind, idx = roles[j]
            if kind in ("B", "O"):
                pairs.setdefault(idx, {})[kind] = j
        red = sum(1 << pair.get("B", pair.get("O")) for pair in pairs.values())
        for i in row_idx:
            ones = row_masks[i] & cols
            red_ones = (ones & red).bit_count()
            if abs(ones.bit_count() - 2 * red_ones) > 1:
                return False
        return True

    if not balanced(range(n), (1 << m) - 1):
        return False
    rng = Lcg(0xC010)
    for _ in range(EQUITABLE_SAMPLES):
        row_idx = tuple(i for i in range(n) if rng.below(2))
        cols = sum(1 << j for j in range(m) if rng.below(2))
        if row_idx and cols and not balanced(row_idx, cols):
            return False
    return True


# ---------------------------------------------------------------------------
# Shared corpus auditor (randomized acceptance checks and experiments).
# ---------------------------------------------------------------------------

CORPUS_LAMBDAS = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1),
                  Fraction(2), Fraction(10))


def audit_corpus_entry(seed: int) -> dict:
    """Solve one seeded corpus instance and add the checks that need an oracle.

    The solver's audits come from `solve_partial_tbc`, which raises
    AuditError when one fails.  On top of them, Kolen's runs are compared
    with the exhaustive prize-collecting oracle, and the threshold search is
    held to its call budget and its bracketing contract.  Returns a deterministic, JSON-able dict; every boolean in
    it is expected to be True.
    """
    from .generators import corpus_instance
    from .kolen import prize_collecting_value

    instance = corpus_instance(seed)
    report = solve_partial_tbc(instance)
    work, thr = report.work, report.threshold
    checks = dict(report.audits)

    exact_flags = []
    for lam in CORPUS_LAMBDAS:
        run = kolen(work, lam)
        value = prize_collecting_value(work, lam, run)
        oracle = brute_force_prize_collecting(work, lam)
        exact_flags.append(value.delta == 0 and value.value == oracle)
    checks["kolen_exact"] = all(exact_flags)
    checks["calls_within_budget"] = thr.kolen_calls <= kolen_call_budget(work)

    if thr.exact_hit is not None:
        run = thr.exact_hit
        checks["threshold_contract"] = (
            covered_profit(work, run.pruned) >= work.target
            and cover_cost(work, run.pruned) == report.dl_value)
    else:
        checks["threshold_contract"] = (
            covered_profit(work, thr.below.pruned) < work.target
            <= covered_profit(work, thr.at_or_above.pruned))

    payload = report.payload()
    out = {name: payload[name] for name in (
        "kolen_calls", "lambda_star", "exact_hit", "splits", "cost",
        "dl_value", "lp_value")}
    return {**out, "seed": seed, "n": instance.n, "m": instance.m,
            "target": str(instance.target), "final_cover": payload["cover"],
            "checks": dict(sorted(checks.items())),
            "all_ok": all(checks.values())}
