"""The benchmark's four workloads: input set-up, one operation, and its checks.

Set-up generates every input and renders it to the text the program reads;
it is timed as `setup_s` and kept out of the operations.  One operation is
what `pcover solve` (or `pcover experiment corpus --jobs 1`, for one seed)
does for one input: parse the text, solve, build and render the payload.
The benchmark's own checks run inside the operation too.

The checks never trust the solver's audits: cost and coverage are
recomputed on the reference instance kept from set-up, and the payload
digest of every input must repeat exactly.  NOTES.md explains each
workload's inputs and why they were chosen.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass
from fractions import Fraction

from pcover import formats, generators, pipeline
from pcover.model import (Decomposition, Instance, PermutationPair,
                          cover_cost, covered_profit, permute_instance)

# Inputs come from the first generator seeds of each family; NOTES.md
# ("Seeds") says how the workload seed enters each workload and why.
PATHS_BASES = 4
MULTICUT_BASES = 24
CORPUS_SEEDS = 600
# Canonical gap ops per pass.  With two q = 4 runs to one q = 3 run the
# median and the tail both fall among the q = 4 runs at any machine speed.
GAP_CYCLE = (3, 4, 4)


@dataclass(frozen=True)
class Case:
    """One input of a workload, as rendered text plus what the checks need."""

    label: str
    pcov: str | None = None
    dec: str | None = None
    reference: Instance | None = None
    corpus_seed: int | None = None
    gap: generators.GapFamily | None = None
    canonical: bool = False


@dataclass(frozen=True)
class Inputs:
    """Timed cases, cycled by the loop, and defect probes run once after it."""

    cases: tuple[Case, ...]
    probes: tuple[Case, ...] = ()


def fisher_yates(n: int, rng: generators.Lcg) -> tuple[int, ...]:
    """Seeded shuffle: swap i with rng.below(i + 1), last index down to 1."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


def relabel(n: int, m: int, rng: generators.Lcg) -> PermutationPair:
    """Rows shuffled first, then columns, from one generator stream."""
    rows = fisher_yates(n, rng)
    return PermutationPair(rows, fisher_yates(m, rng))


def _tbc_case(label: str, instance: Instance, **extra) -> Case:
    return Case(label, pcov=formats.render_instance(instance),
                reference=instance, **extra)


def setup_paths_large(seed: int) -> Inputs:
    # The seed is not used: one input costs 0.7 s to 107 s across generator
    # seeds and 1.1 s to 2.0 s across relabellings of one instance, too much
    # spread for the few operations a run holds.
    del seed
    return Inputs(tuple(
        _tbc_case(f"paths{b}", generators.gen_random_descending_paths(
            b, 640, 320, 320, ensure_demand_covered=True)[0])
        for b in range(PATHS_BASES)))


def setup_gap_split(seed: int) -> Inputs:
    rng = generators.Lcg(seed)
    canonical = {}
    probes = []
    for q in sorted(set(GAP_CYCLE)):
        fam = generators.gen_gap_family(q)
        canonical[q] = _tbc_case(f"gap{q}", fam.instance, gap=fam, canonical=True)
        shuffled = permute_instance(fam.instance,
                                    relabel(fam.instance.n, fam.instance.m, rng))
        probes.append(_tbc_case(f"gap{q}/shuffled", shuffled, gap=fam))
    return Inputs(tuple(canonical[q] for q in GAP_CYCLE), tuple(probes))


def setup_multicut_lp(seed: int) -> Inputs:
    rng = generators.Lcg(seed)
    cases = []
    for b in range(MULTICUT_BASES):
        tree = generators.gen_random_tree_instance(b, max_edges=40, max_demands=30)
        base, dec = generators.reduce_multicut(tree)
        perm = relabel(base.n, base.m, rng)
        shuffled = permute_instance(base, perm)
        parts = tuple(perm.apply_to_matrix(part) for part in dec.parts)
        cases.append(Case(f"multicut{b}", pcov=formats.render_instance(shuffled),
                          dec=formats.render_decomposition(Decomposition(dec.rho, parts)),
                          reference=shuffled))
    return Inputs(tuple(cases))


def setup_corpus_small(seed: int) -> Inputs:
    # audit_corpus_entry regenerates its instance from the seed; set-up makes
    # the reference the checks compare against.
    return Inputs(tuple(Case(f"corpus{s}", reference=generators.corpus_instance(s),
                             corpus_seed=s)
                        for s in range(seed, seed + CORPUS_SEEDS)))


# workload name -> set-up function of the seed
WORKLOADS = {
    "paths-large": setup_paths_large,
    "gap-split": setup_gap_split,
    "multicut-lp": setup_multicut_lp,
    "corpus-small": setup_corpus_small,
}


@dataclass(frozen=True)
class Outcome:
    """What one operation returned: the rendered payload and its source."""

    payload_text: str
    report: pipeline.SolveReport | None = None
    entry: dict | None = None


def operate(case: Case) -> Outcome:
    """Parse, solve, and render one input, exactly as the CLI does."""
    if case.corpus_seed is not None:
        entry = pipeline.audit_corpus_entry(case.corpus_seed)
        return Outcome(formats.render_payload(entry), entry=entry)
    instance = formats.parse_instance(case.pcov)
    if case.dec is not None:
        dec = formats.parse_decomposition(case.dec, instance.n, instance.m)
        report = pipeline.solve_rho_separable(instance, dec)
    else:
        report = pipeline.solve_partial_tbc(instance)
    return Outcome(formats.render_payload(report.payload()), report=report)


@dataclass(frozen=True)
class Verdict:
    problems: tuple[str, ...]
    cost: Fraction
    lower_bound: Fraction


def check(case: Case, out: Outcome, digests: dict[str, str]) -> Verdict:
    """Independent checks of one operation's output.

    `digests` maps a case label to the payload digest first seen for it; a
    different digest for the same input is a failed check.
    """
    problems = []
    ref = case.reference
    if out.entry is not None:
        entry = out.entry
        if not entry["all_ok"]:
            failed = sorted(k for k, ok in entry["checks"].items() if not ok)
            problems.append(f"corpus checks failed: {', '.join(failed)}")
        if (entry["n"], entry["m"], entry["target"]) != (ref.n, ref.m, str(ref.target)):
            problems.append("corpus entry does not describe the seeded instance")
        cost = Fraction(entry["cost"])
        lower_bound = Fraction(entry["dl_value"])
    else:
        report = out.report
        cost = cover_cost(ref, report.cover)
        covered = covered_profit(ref, report.cover)
        if covered < ref.target:
            problems.append(f"cover reaches {covered} < target {ref.target}")
        if cost != report.cost or covered != report.covered:
            problems.append(f"report says cost {report.cost}, covered {report.covered}; "
                            f"recomputed {cost}, {covered}")
        lower_bound = report.lp_value if case.dec is not None else report.dl_value
        if case.gap is not None:
            if report.dl_value != case.gap.dl:
                problems.append(f"dl_value {report.dl_value} != family DL {case.gap.dl}")
            if case.canonical and cost > case.gap.ip:
                problems.append(f"cost {cost} above the family's ip {case.gap.ip}")
    if lower_bound > cost:
        problems.append(f"lower bound {lower_bound} above cost {cost}")
    digest = hashlib.sha256(out.payload_text.encode()).hexdigest()
    if digests.setdefault(case.label, digest) != digest:
        problems.append("payload differs from an earlier run of the same input")
    return Verdict(tuple(problems), cost, lower_bound)


def raising_layer(exc: BaseException) -> str:
    """`module.function` where the innermost pcover module was entered."""
    frames = [(frame.f_globals.get("__name__", ""), frame.f_code.co_name)
              for frame, _ in traceback.walk_tb(exc.__traceback__)]
    ours = [(mod, fn) for mod, fn in frames if mod.startswith("pcover.")]
    if not ours:
        return "benchmark"
    inner = ours[-1][0]
    entry = next(fn for mod, fn in ours if mod == inner)
    return f"{inner.removeprefix('pcover.')}.{entry}"
