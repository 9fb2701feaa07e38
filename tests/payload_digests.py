#!/usr/bin/env python3
"""Print one `family sha256` line per family of deterministic outputs.

    python3 tests/payload_digests.py

Run it on two checkouts and compare the lines to show that a change keeps
payloads, transcripts and generated files byte-identical.  The script puts
the `src/` beside it first on the path, so a copy of it runs against any
checkout, and it calls only long-standing entry points.  Its name does not
start with `test_`, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pcover import cli, generators, merger, pipeline  # noqa: E402
from pcover.formats import render_payload  # noqa: E402
from pcover.model import PermutationPair, permute_instance  # noqa: E402
from pcover.threshold import find_threshold  # noqa: E402

BLACKBOX_VARIANTS = (("general", 1), ("general", Fraction(3, 2)),
                     ("general", 2), ("tu", 1))


def _shuffle(n: int, rng: generators.Lcg) -> tuple[int, ...]:
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


def _solve_payload(instance) -> str:
    return render_payload(pipeline.solve_partial_tbc(instance).payload())


def _rho_payload(instance, decomposition) -> str:
    return render_payload(
        pipeline.solve_rho_separable(instance, decomposition).payload())


def corpus():
    for seed in range(1, 601):
        yield render_payload(pipeline.audit_corpus_entry(seed))


def _gap_inputs():
    """Gap q = 1..4, canonical and under Lcg shuffles 1..5."""
    for q in range(1, 5):
        base = generators.gen_gap_family(q).instance
        yield base
        for seed in range(1, 6):
            rng = generators.Lcg(seed)
            perm = PermutationPair(_shuffle(base.n, rng), _shuffle(base.m, rng))
            yield permute_instance(base, perm)


def gap():
    for instance in _gap_inputs():
        yield _solve_payload(instance)


def _threshold_text(instance) -> str:
    """The search's multiplier, call count, interval and agreed lines, and
    the decoded duals of the runs it keeps."""
    thr = find_threshold(pipeline.to_greedy_form(instance)[0])
    parts = [f"{thr.lambda_star} {thr.kolen_calls} {thr.interval} {thr.agreed_lines}"]
    for name in ("exact_hit", "below", "at_or_above", "at_star"):
        run = getattr(thr, name)
        if run is not None:
            parts.append(f"{name} {run.dual.lam} {list(map(str, run.dual.y))} "
                         f"{list(map(str, run.dual.residuals))}")
    return "\n".join(parts) + "\n"


def threshold():
    for seed in range(1, 601):
        yield _threshold_text(generators.corpus_instance(seed))
    for instance in _gap_inputs():
        yield _threshold_text(instance)


def _merge_text(instance) -> str:
    """The merge's trace on the bracketing pair: calls, splits, split
    vertices, root flips, the immediate exit and the final cover."""
    work = pipeline.to_greedy_form(instance)[0]
    thr = find_threshold(work)
    if thr.exact_hit is not None:
        return "exact hit\n"
    low, high = thr.merge_pair(work.target)
    graph = merger.build_merger_graph(work, low.pruned, high.pruned,
                                      low.positive, high.positive)
    trace = merger.merge(graph, low.pruned, high.pruned, work)[1]
    return (f"{trace.calls!r}\n{trace.splits!r}\n{trace.split_vertices!r}\n"
            f"{trace.root_flips} {trace.immediate!r} {trace.final!r}\n")


def merge():
    for instance in _gap_inputs():
        yield _merge_text(instance)
    for seed in range(1, 601):
        yield _merge_text(generators.corpus_instance(seed))


def multicut():
    for seed in range(1, 51):
        yield _rho_payload(*generators.reduce_multicut(
            generators.gen_random_tree_instance(seed)))


def pathhit():
    for seed in range(2, 21):
        yield _rho_payload(*generators.reduce_path_hitting(
            *generators.gen_random_path_hitting(seed))[:2])


def rects():
    for dim in range(1, 4):
        for seed in range(1, 11):
            yield _rho_payload(*generators.reduce_rectangle_stabbing(
                generators.gen_random_rectangles(seed, dim))[:2])


def paths():
    instance, _ = generators.gen_random_descending_paths(
        1, 320, 160, 160, ensure_demand_covered=True)
    yield _solve_payload(instance)


def absorb():
    for seed in range(1, 11):
        instance, dec = generators.reduce_multicut(
            generators.gen_random_tree_instance(seed))
        for k in (1, 2, 4):
            cover = pipeline.absorb_additive_error(instance, k, 3, dec)
            yield f"{seed} {k} {list(cover.sets)}\n"


def blackbox():
    for q in range(2, 5):
        for variant, alpha in BLACKBOX_VARIANTS:
            yield repr(pipeline.simulate_blackbox_lb(q, alpha, variant=variant))


def _cli_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"{code}\n{out.getvalue()}"


def equitable():
    for q in range(2, 5):
        yield _cli_stdout(["verify", "equitable", "--q", str(q)])


def _generate_argvs():
    for q in range(1, 5):
        yield ["gap", "--q", str(q)]
    for q in range(2, 5):
        yield ["blackbox", "--q", str(q), "--alpha", "2"]
        yield ["blackbox", "--q", str(q), "--tu"]
    for seed in range(1, 11):
        yield ["random", "--seed", str(seed)]
        yield ["multicut", "--seed", str(seed)]
        yield ["pathhit", "--seed", str(seed)]
        for dim in range(1, 4):
            yield ["rects", "--seed", str(seed), "--dim", str(dim)]


def generate():
    with tempfile.TemporaryDirectory() as tmp:
        for argv in _generate_argvs():
            out = Path(tmp) / "out"
            code = cli.main(["generate", *argv, "--out", str(out)])
            yield f"{argv} {code}\n"
            for path in sorted(Path(tmp).iterdir()):
                yield f"{path.name}\n{path.read_text()}"
                path.unlink()


FAMILIES = (corpus, gap, threshold, merge, multicut, pathhit, rects, paths,
            absorb, blackbox, equitable, generate)


def main() -> int:
    for family in FAMILIES:
        digest = hashlib.sha256()
        for text in family():
            digest.update(text.encode())
        print(f"{family.__name__} {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
