"""Line-oriented text formats for instances, decompositions, and trees.

All rationals render as 'num' or 'num/den'; instances and decompositions
parse back exactly, with error messages that carry 1-based line numbers.
A tree is only rendered, into the meta file of `generate multicut`; no
command reads one back.

Instance (.pcov):         Decomposition (.dec):      Tree (.tree):
    PCOV 1                     PCOVDEC 1                  TREE 1
    n m                        rho                        node_count
    P                          rho * n matrix lines       parent list (root = 0)
    m costs                                               edge costs
    n profits                                             s t profit   (per line)
    n matrix lines
Node ids in tree files are 1-based with parent 0 marking the root.

Matrix rows are taken in one filtered pass over the remaining lines and
checked together, by their lengths and the counts of '0' and '1' in their
join; only a file that fails is scanned row by row, so the error names the
row, line and column a row-by-row parse would.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import islice

from .arith import format_rational, parse_rational
from .errors import InputError
from .generators import TreeInstance
from .model import Decomposition, Instance, checked_instance

INSTANCE_MAGIC = "PCOV 1"
DECOMPOSITION_MAGIC = "PCOVDEC 1"
TREE_MAGIC = "TREE 1"
REPORT_SCHEMA = 1


class _Lines:
    def __init__(self, text: str):
        self.raw = text.splitlines()
        self.pos = 0

    def next(self, what: str) -> tuple[str, int]:
        for found in self.take(1):
            return found
        raise self.eof(what)

    def eof(self, what: str) -> InputError:
        return InputError(f"unexpected end of file, expected {what}",
                          line=len(self.raw) + 1)

    def take(self, count: int) -> list[tuple[str, int]]:
        """Up to `count` next content lines with their line numbers, found in
        one filtered pass over the raw lines."""
        numbered = enumerate(map(str.strip, islice(self.raw, self.pos, None)),
                             self.pos + 1)
        found = list(islice(((line, k) for k, line in numbered
                             if line and not line.startswith("#")), count))
        if found:
            self.pos = found[-1][1]
        return found

    def end(self) -> None:
        """Reject any content line after the last expected one."""
        for line, lineno in self.take(1):
            raise InputError(f"unexpected trailing content {line[:40]!r}",
                             line=lineno)

def _rational(token: str, lineno: int) -> Fraction:
    try:
        return parse_rational(token)
    except ValueError as exc:
        raise InputError(str(exc), line=lineno) from exc


def _rationals(line: str, lineno: int, count: int, what: str) -> list[Fraction]:
    """The line's `count` rationals.  Each distinct token is parsed once, in
    order of first appearance, and its Fraction shared (Fractions are
    immutable), so a bad token is reported as a token-by-token parse would."""
    tokens = line.split()
    if len(tokens) != count:
        raise InputError(f"expected {count} {what}, found {len(tokens)}", line=lineno)
    parsed = {t: _rational(t, lineno) for t in dict.fromkeys(tokens)}
    return list(map(parsed.__getitem__, tokens))


def _int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise InputError(f"bad {what}: {token!r}", line=lineno) from exc


_NOT_BINARY = re.compile("[^01]")


def _matrix_line(line: str, lineno: int, m: int) -> None:
    """Raise on the first fault of a row that is not m characters 0 or 1."""
    if len(line) != m:
        raise InputError(f"matrix row has {len(line)} characters, expected {m}",
                         line=lineno)
    bad = _NOT_BINARY.search(line)
    if bad:
        raise InputError(f"matrix entry {bad.group()!r}", line=lineno,
                         column=bad.start() + 1)


def _matrix_rows(lines: _Lines, count: int, m: int, what: str) -> list[str]:
    """The next `count` content lines, each m characters 0 or 1.

    The rows are checked together, by their lengths and the counts of '0'
    and '1' in their join; only a file that fails is scanned row by row,
    to name the first bad row, or the missing one, as a row-by-row parse
    would.
    """
    found = lines.take(count)
    rows = [line for line, _ in found]
    joined = "".join(rows)
    if (len(rows) == count and set(map(len, rows)) <= {m}
            and joined.count("0") + joined.count("1") == count * m):
        return rows
    for line, lineno in found:
        _matrix_line(line, lineno, m)
    raise lines.eof(what)


def parse_instance(text: str) -> Instance:
    lines = _Lines(text)
    magic, lineno = lines.next("header")
    if magic != INSTANCE_MAGIC:
        raise InputError(f"bad header {magic!r}, expected {INSTANCE_MAGIC!r}",
                         line=lineno)
    dims, lineno = lines.next("dimensions")
    tokens = dims.split()
    if len(tokens) != 2:
        raise InputError("expected 'n m'", line=lineno)
    n = _int(tokens[0], lineno, "element count")
    m = _int(tokens[1], lineno, "set count")
    if n < 0 or m < 0:
        raise InputError(f"dimensions must be nonnegative, got {n} {m}", line=lineno)
    target_line, lineno = lines.next("target")
    target = _rational(target_line, lineno)
    # Empty lists and empty rows render as blank lines, which are skipped.
    costs = _rationals(*lines.next("costs"), m, "costs") if m else []
    profits = _rationals(*lines.next("profits"), n, "profits") if n else []
    # Character k is bit k of the row mask: the reversed line is its binary.
    masks = ([int(row[::-1], 2) for row in _matrix_rows(lines, n, m, "matrix row")]
             if m else [0] * n)
    lines.end()
    return checked_instance(masks, costs, profits, target)


def render_instance(instance: Instance) -> str:
    out = [INSTANCE_MAGIC,
           f"{instance.n} {instance.m}",
           format_rational(instance.target),
           " ".join(format_rational(c) for c in instance.costs),
           " ".join(format_rational(p) for p in instance.profits)]
    # bin(mask | 1 << m) is '0b1' then columns m-1..0, also when m = 0.
    top = 1 << instance.m
    for mask in instance.row_masks:
        out.append(bin(mask | top)[:2:-1])
    return "\n".join(out) + "\n"


def parse_decomposition(text: str, n: int, m: int) -> Decomposition:
    lines = _Lines(text)
    magic, lineno = lines.next("header")
    if magic != DECOMPOSITION_MAGIC:
        raise InputError(f"bad header {magic!r}, expected {DECOMPOSITION_MAGIC!r}",
                         line=lineno)
    rho_line, lineno = lines.next("rho")
    rho = _int(rho_line, lineno, "rho")
    if rho < 1:
        raise InputError(f"rho must be positive, got {rho}", line=lineno)
    parts = []
    for _ in range(rho):
        # With no sets, part rows render as blank lines, which are skipped.
        parts.append(tuple(tuple(map(int, row))
                           for row in _matrix_rows(lines, n, m, "part row"))
                     if m else ((),) * n)
    lines.end()
    return Decomposition(rho, tuple(parts))


def render_decomposition(dec: Decomposition) -> str:
    out = [DECOMPOSITION_MAGIC, str(dec.rho)]
    for part in dec.parts:
        for row in part:
            out.append("".join(str(v) for v in row))
    return "\n".join(out) + "\n"


def render_tree(tree: TreeInstance) -> str:
    count = len(tree.parents)
    parents = ["0"] + [str(p + 1) for p in tree.parents[1:]]
    out = [TREE_MAGIC, str(count), " ".join(parents),
           " ".join(format_rational(c) for c in tree.edge_costs)]
    for s, t, profit in tree.demands:
        out.append(f"{s + 1} {t + 1} {format_rational(profit)}")
    return "\n".join(out) + "\n"


def render_report(payload: dict, timings: dict | None = None) -> str:
    """Stable JSON: schema tag, sorted keys, timings outside the payload."""
    doc = {"schema": REPORT_SCHEMA, "payload": payload}
    if timings is not None:
        doc["timings"] = timings
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def render_payload(payload: dict) -> str:
    """The comparison payload alone, byte-stable across runs."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
