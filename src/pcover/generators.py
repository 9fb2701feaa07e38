"""Deterministic instance generators and application-problem reductions.

Everything here is a pure function of its arguments; the pseudorandom
source is a fixed 32-bit linear congruential generator (x -> 1664525 x +
1013904223 mod 2**32), so identical arguments give byte-identical
instances on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import as_rational
from .errors import InputError
from .model import Decomposition, Instance, make_instance


class Lcg:
    """32-bit linear congruential generator, Numerical Recipes parameters."""

    MULT = 1664525
    INC = 1013904223
    MOD = 1 << 32

    def __init__(self, seed: int):
        self.state = (int(seed) * 2654435761 + 1) % self.MOD

    def next_u32(self) -> int:
        self.state = (self.MULT * self.state + self.INC) % self.MOD
        return self.state

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u32() % n

    def rational(self) -> Fraction:
        """a/b with a in 1..20 and b in 1..4."""
        return Fraction(1 + self.below(20), 1 + self.below(4))

    def pick(self, items):
        return items[self.below(len(items))]


# ---------------------------------------------------------------------------
# Worst-case gap family: multicut on a binary tree with a 2-path on top.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapFamily:
    """The constructed family with its certificates.

    `dual_y` with multiplier 1 is dual-feasible of value `dl`; `x1`/`x2`
    are the two integral solutions whose convex combination matches `dl`
    fractionally; `xt` is the constructed integral solution of cost
    `dl + 2 q` covering exactly the target.
    """

    q: int
    instance: Instance
    dl: Fraction
    ip: Fraction
    p_bar: Fraction
    x1: tuple[int, ...]
    x2: tuple[int, ...]
    xt: tuple[int, ...]
    dual_y: tuple[Fraction, ...]
    dual_lam: Fraction


def gen_gap_family(q: int) -> GapFamily:
    """Binary-tree multicut instance exhibiting the integrality gap.

    Tree: complete binary tree of height 2q with a 2-path above the apex;
    every edge costs 3.  Elements are length-2 paths above every binary
    node (profit 4**q) and length-1 paths at each leaf and at the root
    (profit 2).  Coverage target leaves exactly (2**(2q+1) + 4) / 3 profit
    uncovered.
    """
    if q < 1:
        raise InputError("q must be >= 1")
    height = 2 * q
    binary_nodes = (1 << (height + 1)) - 1
    leaves_start = 1 << height

    # Edge keys: heap node v >= 2 (edge v -> v//2), "apex" (apex -> mid),
    # "top" (mid -> root).  Level 0 is the leaf level.
    def edge_level(key) -> int:
        if key == "apex":
            return height
        if key == "top":
            return height + 1
        depth = key.bit_length() - 1
        return height - depth

    edge_keys = []
    for level in range(height):
        depth = height - level
        edge_keys.extend(range(1 << depth, 1 << (depth + 1)))
    edge_keys.extend(["apex", "top"])
    col_of = {key: idx for idx, key in enumerate(edge_keys)}
    m = len(edge_keys)

    def parent_edge(key):
        if key == "apex":
            return "top"
        if key == "top":
            return None
        v = key // 2
        return "apex" if v == 1 else v

    # Internal paths, leaves first, then fringe paths (leaves, then root).
    internal_nodes = []
    for level in range(height):
        depth = height - level
        internal_nodes.extend(range(1 << depth, 1 << (depth + 1)))
    internal_nodes.append(1)

    rows = []
    profits = []
    internal_profit = Fraction(4 ** q)
    for v in internal_nodes:
        own = "apex" if v == 1 else v
        row = [0] * m
        row[col_of[own]] = 1
        row[col_of[parent_edge(own)]] = 1
        rows.append(row)
        profits.append(internal_profit)
    for leaf in range(leaves_start, 2 * leaves_start):
        row = [0] * m
        row[col_of[leaf]] = 1
        rows.append(row)
        profits.append(Fraction(2))
    root_row = [0] * m
    root_row[col_of["top"]] = 1
    rows.append(root_row)
    profits.append(Fraction(2))

    total = sum(profits, Fraction(0))
    p_bar = Fraction((1 << (height + 1)) + 4, 3)
    target = total - p_bar
    costs = [Fraction(3)] * m
    instance = make_instance(rows, costs, profits, target)

    levels = tuple(edge_level(k) for k in edge_keys)
    x1 = tuple(j for j in range(m) if levels[j] % 2 == 0)
    x2 = tuple(j for j in range(m) if levels[j] % 2 == 1)

    leave_out = int(p_bar // 2) - 1
    chosen: dict = {}
    leaf_keys = list(range(leaves_start, 2 * leaves_start))
    for idx, key in enumerate(leaf_keys):
        chosen[key] = idx < len(leaf_keys) - leave_out
    for level in range(1, height + 2):
        for key in edge_keys:
            if edge_level(key) != level:
                continue
            if key == "apex":
                below = [2, 3]
            elif key == "top":
                below = ["apex"]
            else:
                below = [2 * key, 2 * key + 1]
            chosen[key] = any(not chosen[b] for b in below)
    xt = tuple(sorted(col_of[k] for k, take in chosen.items() if take))

    dual_y = tuple([Fraction(1)] * binary_nodes
                   + [Fraction(2)] * (leaves_start + 1))
    dl = Fraction(10 * 4 ** q - 1, 3)
    ip = dl + 2 * q

    return GapFamily(q=q, instance=instance, dl=dl, ip=ip, p_bar=p_bar,
                     x1=x1, x2=x2, xt=xt, dual_y=dual_y,
                     dual_lam=Fraction(1))


# ---------------------------------------------------------------------------
# Lower-bound family for the black-box combination argument.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlackboxFamily:
    """Cluster construction on which any black-box combination pays 4/3."""

    q: int
    alpha: Fraction
    variant: str
    instance: Instance
    roles: tuple[tuple[str, int], ...]  # per column: ("O"|"A"|"B", index)
    o_cols: tuple[int, ...]
    a_cols: tuple[int, ...]
    b_cols: tuple[int, ...]
    cost_o: Fraction
    cost_a: Fraction
    cost_b: Fraction
    uncovered_a: Fraction
    uncovered_o: Fraction
    opt_cost: Fraction


def gen_blackbox_family(q: int, alpha, variant: str = "general") -> BlackboxFamily:
    """The q**2-cluster universe with O/A/B set families.

    general: |O_i| = q**2 + 1 picks one element per cluster plus the left
    extra of B_i; costs 1/q, 2 alpha/(3q), 4 alpha/(3q).  tu: O_i is B_i
    minus its right extra; costs 1, 2/3, 4/3 (alpha fixed at 1); the
    incidence matrix is totally unimodular.  Unit profits, target q**3 + q.
    """
    if q < 2:
        raise InputError("q must be >= 2")
    alpha = as_rational(alpha)
    if alpha < 1:
        raise InputError("alpha must be >= 1")
    if variant not in ("general", "tu"):
        raise InputError(f"unknown variant {variant!r}")
    if variant == "tu" and alpha != 1:
        raise InputError("the totally unimodular variant fixes alpha = 1")

    n = q ** 3 + 2 * q

    def cluster_elem(i: int, j: int, k: int) -> int:
        return (i * q + j) * q + k

    def left(i: int) -> int:
        return q ** 3 + 2 * i

    def right(i: int) -> int:
        return q ** 3 + 2 * i + 1

    columns: list[set[int]] = []
    roles: list[tuple[str, int]] = []
    for i in range(q):
        if variant == "general":
            members = {cluster_elem(ii, jj, i) for ii in range(q) for jj in range(q)}
            members.add(left(i))
        else:
            members = {cluster_elem(i, jj, kk) for jj in range(q) for kk in range(q)}
            members.add(left(i))
        columns.append(members)
        roles.append(("O", i))
    for j in range(q):
        members = {cluster_elem(ii, j, kk) for ii in range(q) for kk in range(q)}
        columns.append(members)
        roles.append(("A", j))
    for i in range(q):
        members = {cluster_elem(i, jj, kk) for jj in range(q) for kk in range(q)}
        members |= {left(i), right(i)}
        columns.append(members)
        roles.append(("B", i))

    if variant == "general":
        c_o, c_a, c_b = Fraction(1, q), 2 * alpha / (3 * q), 4 * alpha / (3 * q)
    else:
        c_o, c_a, c_b = Fraction(1), Fraction(2, 3), Fraction(4, 3)

    m = len(columns)
    rows = [[0] * m for _ in range(n)]
    for col, members in enumerate(columns):
        for e in members:
            rows[e][col] = 1
    costs = [c_o] * q + [c_a] * q + [c_b] * q
    profits = [Fraction(1)] * n
    target = Fraction(q ** 3 + q)
    instance = make_instance(rows, costs, profits, target)

    return BlackboxFamily(
        q=q, alpha=alpha, variant=variant, instance=instance,
        roles=tuple(roles),
        o_cols=tuple(range(q)),
        a_cols=tuple(range(q, 2 * q)),
        b_cols=tuple(range(2 * q, 3 * q)),
        cost_o=q * c_o, cost_a=q * c_a, cost_b=q * c_b,
        uncovered_a=Fraction(2 * q), uncovered_o=Fraction(q),
        opt_cost=q * c_o)


# ---------------------------------------------------------------------------
# Random descending-path instances (totally balanced by construction).
# ---------------------------------------------------------------------------


def _random_tree(rng: Lcg, nodes: int) -> list[int]:
    parents = [-1]
    for v in range(1, nodes):
        parents.append(rng.below(v))
    return parents


def _depths(parents: list[int]) -> list[int]:
    depths = [0] * len(parents)
    for v in range(1, len(parents)):
        depths[v] = depths[parents[v]] + 1
    return depths


def _descending_edges(parents, bottom: int, length: int) -> frozenset[int]:
    """Edges (identified by child node) of the length-step path above bottom."""
    edges = set()
    v = bottom
    for _ in range(length):
        edges.add(v)
        v = parents[v]
    return frozenset(edges)


def gen_random_descending_paths(seed: int, nodes: int, num_cover_paths: int,
                                num_demand_paths: int, target=None,
                                ensure_demand_covered: bool = False):
    """Random rooted tree; sets and elements are descending paths.

    Incidence is edge-intersection, which makes the matrix totally
    balanced by construction.  Costs and profits are `Lcg.rational`s.
    Returns (Instance, Decomposition) with a single-part decomposition.
    With `ensure_demand_covered`, demand paths that meet no cover path are
    redrawn (deterministically) so every element is coverable.
    """
    if nodes < 2:
        raise InputError("need at least 2 nodes")
    for name, count in (("num_cover_paths", num_cover_paths),
                        ("num_demand_paths", num_demand_paths)):
        if count < 0:
            raise InputError(f"{name} must be nonnegative, got {count}")
    rng = Lcg(seed)
    parents = _random_tree(rng, nodes)
    depths = _depths(parents)

    def draw_path() -> frozenset[int]:
        bottom = 1 + rng.below(nodes - 1)
        length = 1 + rng.below(depths[bottom])
        return _descending_edges(parents, bottom, length)

    cover_paths = [draw_path() for _ in range(num_cover_paths)]
    covered_edges = frozenset().union(*cover_paths) if cover_paths else frozenset()
    demand_paths = []
    for _ in range(num_demand_paths):
        path = draw_path()
        if ensure_demand_covered:
            for _retry in range(100):
                if path & covered_edges:
                    break
                path = draw_path()
        demand_paths.append(path)

    rows = [[1 if demand & cover else 0 for cover in cover_paths]
            for demand in demand_paths]
    costs = [rng.rational() for _ in cover_paths]
    profits = [rng.rational() for _ in demand_paths]
    total = sum(profits, Fraction(0))
    coverable = sum((p for p, row in zip(profits, rows) if any(row)), Fraction(0))
    resolved = min(total / 2, coverable) if target is None else as_rational(target)
    instance = make_instance(rows, costs, profits, resolved)
    decomposition = Decomposition(1, (tuple(map(tuple, rows)),))
    return instance, decomposition


def corpus_instance(seed: int) -> Instance:
    """Seeded random totally balanced instance with n, m <= 10.

    The shared corpus behind the randomized audits: costs and profits are
    rationals a/b with a in 1..20 and b in 1..4, target is half the total
    profit.
    """
    rng = Lcg(seed ^ 0x5EED)
    nodes = 5 + rng.below(6)
    m = 3 + rng.below(8)
    n = 3 + rng.below(8)
    instance, _ = gen_random_descending_paths(seed, nodes, m, n,
                                              ensure_demand_covered=True)
    return instance


# ---------------------------------------------------------------------------
# Tree multicut and path hitting.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeInstance:
    """Rooted tree with edge costs and profit-weighted demand pairs.

    `parents[0] == -1` marks the root; the edge above node v (v >= 1) has
    cost `edge_costs[v - 1]`.  An optional coverage target rides along for
    the reduction (defaults to half the total demand profit).
    """

    parents: tuple[int, ...]
    edge_costs: tuple[Fraction, ...]
    demands: tuple[tuple[int, int, Fraction], ...]
    target: Fraction | None = None

    def __post_init__(self):
        n = len(self.parents)
        if n == 0 or self.parents[0] != -1:
            raise InputError("node 0 must be the root (parent -1)")
        for v in range(1, n):
            p = self.parents[v]
            if not 0 <= p < n:
                raise InputError(f"node {v} has parent {p} out of range")
        if len(self.edge_costs) != n - 1:
            raise InputError(f"expected {n - 1} edge costs, got {len(self.edge_costs)}")
        seen: set[int] = set()
        for v in range(1, n):
            trail = []
            u = v
            while u != 0 and u not in seen:
                trail.append(u)
                u = self.parents[u]
                if len(trail) > n:
                    raise InputError("parent array contains a cycle")
            seen.update(trail)

    def depths(self) -> list[int]:
        return _depths(list(self.parents))


def _lca(parents, depths, a: int, b: int) -> int:
    while depths[a] > depths[b]:
        a = parents[a]
    while depths[b] > depths[a]:
        b = parents[b]
    while a != b:
        a = parents[a]
        b = parents[b]
    return a


def _edges_up(parents, frm: int, ancestor: int) -> frozenset[int]:
    edges = set()
    v = frm
    while v != ancestor:
        edges.add(v)
        v = parents[v]
    return frozenset(edges)


def gen_random_tree_instance(seed: int, max_edges: int = 15,
                             max_demands: int = 10) -> TreeInstance:
    """Seeded random multicut input: tree, integer costs, demand pairs."""
    rng = Lcg(seed ^ 0x7BEE)
    nodes = 7 + rng.below(max_edges - 5)
    parents = _random_tree(rng, nodes)
    edge_costs = tuple(Fraction(1 + rng.below(10)) for _ in range(nodes - 1))
    count = 4 + rng.below(max_demands - 3)
    demands = []
    for _ in range(count):
        s = rng.below(nodes)
        t = rng.below(nodes)
        while t == s:
            t = rng.below(nodes)
        demands.append((s, t, Fraction(1 + rng.below(5))))
    total = sum((p for _, _, p in demands), Fraction(0))
    ratio = rng.pick((Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)))
    return TreeInstance(tuple(parents), edge_costs, tuple(demands),
                        target=ratio * total)


def gen_random_path_hitting(seed: int):
    """Seeded tree of 6..12 nodes plus 3..8 cover and 3..8 demand paths
    (possibly non-descending).

    Returns (TreeInstance, cover_paths, demand_paths) ready for
    `reduce_path_hitting`; the tree's edge costs are placeholders since
    path hitting prices the cover paths, not the edges.
    """
    rng = Lcg(seed ^ 0xDA7A)
    nodes = 6 + rng.below(7)
    parents = _random_tree(rng, nodes)
    edge_costs = tuple(Fraction(1) for _ in range(nodes - 1))

    def draw(weight_hi: int):
        count = 3 + rng.below(6)
        out = []
        for _ in range(count):
            s = rng.below(nodes)
            t = rng.below(nodes)
            while t == s:
                t = rng.below(nodes)
            out.append((s, t, Fraction(1 + rng.below(weight_hi))))
        return tuple(out)

    cover_paths = draw(10)
    demand_paths = draw(5)
    tree = TreeInstance(tuple(parents), edge_costs, demand_paths)
    return tree, cover_paths, demand_paths


def reduce_multicut(tree: TreeInstance):
    """Demand-paths-versus-edges incidence with a two-part decomposition.

    Each demand path is split at the pair's lowest common ancestor into
    two descending halves; an edge lies on exactly one half, so the two
    incidence parts have disjoint supports.
    """
    parents = list(tree.parents)
    depths = tree.depths()
    n_nodes = len(parents)
    m = n_nodes - 1  # set j is the edge above node j + 1

    part1 = []
    part2 = []
    profits = []
    for s, t, profit in tree.demands:
        if s == t:
            raise InputError(f"degenerate demand pair ({s}, {t})")
        anc = _lca(parents, depths, s, t)
        half_s = _edges_up(parents, s, anc)
        half_t = _edges_up(parents, t, anc)
        if not half_s:
            half_s, half_t = half_t, frozenset()
        row1 = [1 if (j + 1) in half_s else 0 for j in range(m)]
        row2 = [1 if (j + 1) in half_t else 0 for j in range(m)]
        part1.append(row1)
        part2.append(row2)
        profits.append(profit)

    rows = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(part1, part2)]
    total = sum(profits, Fraction(0))
    target = total / 2 if tree.target is None else tree.target
    instance = make_instance(rows, tree.edge_costs, profits, target)
    decomposition = Decomposition(2, (tuple(tuple(r) for r in part1),
                                      tuple(tuple(r) for r in part2)))
    decomposition.validate_against(instance)
    return instance, decomposition


def reduce_path_hitting(tree: TreeInstance, cover_paths, demand_paths):
    """Hit demand paths with cover paths, after splitting covers at LCAs.

    Sets are the nonempty descending halves of the cover paths, each
    inheriting the full parent cost (the doubling behind the extra factor
    2 in the end-to-end guarantee).  Elements are the demand paths, whole;
    the decomposition splits their incidence at each demand's LCA.  The
    target is half the total profit, capped at the profit of the demands
    some half meets.  Returns (Instance, Decomposition, metadata).
    """
    parents = list(tree.parents)
    depths = tree.depths()

    half_sets: list[frozenset[int]] = []
    half_costs: list[Fraction] = []
    parent_of_half: list[int] = []
    for idx, (s, t, cost) in enumerate(cover_paths):
        if s == t:
            raise InputError(f"degenerate cover path ({s}, {t})")
        anc = _lca(parents, depths, s, t)
        for half in (_edges_up(parents, s, anc), _edges_up(parents, t, anc)):
            if half:
                half_sets.append(half)
                half_costs.append(as_rational(cost))
                parent_of_half.append(idx)

    part1 = []
    part2 = []
    profits = []
    for s, t, profit in demand_paths:
        if s == t:
            raise InputError(f"degenerate demand path ({s}, {t})")
        anc = _lca(parents, depths, s, t)
        d_s = _edges_up(parents, s, anc)
        d_t = _edges_up(parents, t, anc)
        if not d_s:
            d_s, d_t = d_t, frozenset()
        part1.append([1 if d_s & h else 0 for h in half_sets])
        part2.append([1 if d_t & h else 0 for h in half_sets])
        profits.append(as_rational(profit))

    rows = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(part1, part2)]
    total = sum(profits, Fraction(0))
    coverable = sum((p for p, row in zip(profits, rows) if any(row)), Fraction(0))
    instance = make_instance(rows, half_costs, profits, min(total / 2, coverable))
    decomposition = Decomposition(2, (tuple(tuple(r) for r in part1),
                                      tuple(tuple(r) for r in part2)))
    decomposition.validate_against(instance)
    meta = {"cost_factor": 2, "half_parent": tuple(parent_of_half),
            "guarantee": "4 + eps (2 from separability x 2 from cost doubling)"}
    return instance, decomposition, meta


# ---------------------------------------------------------------------------
# Rectangle stabbing.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RectangleInstance:
    """Axis-aligned boxes and candidate stabbing lines per axis."""

    dimension: int
    rectangles: tuple[tuple[tuple[tuple[int, int], ...], Fraction], ...]
    lines: tuple[tuple[tuple[int, Fraction], ...], ...]  # per axis: (position, cost)
    target: Fraction | None = None

    def __post_init__(self):
        if len(self.lines) != self.dimension:
            raise InputError("one line family per axis required")
        for box, _ in self.rectangles:
            if len(box) != self.dimension:
                raise InputError("box dimension mismatch")
            for lo, hi in box:
                if lo > hi:
                    raise InputError(f"empty box side ({lo}, {hi})")


def gen_random_rectangles(seed: int, dimension: int = 1) -> RectangleInstance:
    """Seeded 4..10 boxes and 4..10 lines per axis, each box guaranteed to
    meet at least one line per axis."""
    if dimension < 1:
        raise InputError(f"dimension must be at least 1, got {dimension}")
    rng = Lcg(seed ^ 0xB0C5)
    num_rects = 4 + rng.below(7)
    num_lines = 4 + rng.below(7)
    lines = []
    for _axis in range(dimension):
        positions: set[int] = set()
        while len(positions) < num_lines:
            positions.add(rng.below(40))
        lines.append(tuple((pos, Fraction(1 + rng.below(10)))
                           for pos in sorted(positions)))
    rects = []
    for _ in range(num_rects):
        box = []
        for axis in range(dimension):
            anchor = lines[axis][rng.below(num_lines)][0]
            lo = anchor - rng.below(6)
            hi = anchor + rng.below(6)
            box.append((lo, hi))
        rects.append((tuple(box), Fraction(1 + rng.below(5))))
    total = sum((p for _, p in rects), Fraction(0))
    ratio = rng.pick((Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)))
    return RectangleInstance(dimension, tuple(rects), tuple(lines),
                             target=ratio * total)


def reduce_rectangle_stabbing(rect: RectangleInstance):
    """Boxes-versus-lines incidence; one decomposition part per axis.

    Columns are the candidate lines, axis by axis, sorted by position, so
    each row is one contiguous block per axis.  Rows are sorted by block
    endpoints, which for one dimension leaves the matrix already free of
    the forbidden pattern.  Returns (Instance, Decomposition, path_flag);
    the flag marks the one-dimensional case for the strengthened
    LP + c_max guarantee.
    """
    d = rect.dimension
    col_axis = []
    col_position = []
    costs = []
    for axis in range(d):
        for pos, cost in rect.lines[axis]:
            col_axis.append(axis)
            col_position.append(pos)
            costs.append(cost)
    m = len(costs)

    incidences = []
    for box, profit in rect.rectangles:
        row = [0] * m
        for jcol in range(m):
            axis = col_axis[jcol]
            lo, hi = box[axis]
            if lo <= col_position[jcol] <= hi:
                row[jcol] = 1
        if not any(row):
            raise InputError(f"rectangle {box} meets no candidate line")
        incidences.append((row, profit))

    def row_key(item):
        row, _ = item
        hit = [j for j, v in enumerate(row) if v]
        return (hit[-1], hit[0])

    incidences.sort(key=row_key)
    rows = [row for row, _ in incidences]
    profits = [p for _, p in incidences]

    parts = []
    for axis in range(d):
        parts.append(tuple(tuple(v if col_axis[j] == axis else 0
                                 for j, v in enumerate(row)) for row in rows))
    total = sum(profits, Fraction(0))
    target = total / 2 if rect.target is None else rect.target
    instance = make_instance(rows, costs, profits, target)
    decomposition = Decomposition(d, tuple(parts))
    decomposition.validate_against(instance)
    return instance, decomposition, d == 1
