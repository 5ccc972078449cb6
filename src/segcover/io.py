"""Instance file parsing, synthetic instance generation, and result serialization.

Two ASCII whitespace-delimited formats are supported:

* ``scp`` (row-major): header ``<rows> <cols>``, then ``cols`` column costs,
  then per row a count followed by the 1-based ids of the columns covering it.
* ``rail`` (column-major): header ``<rows> <cols>``, then per column a cost,
  a count, and the 1-based ids of the rows it covers.  An alternative
  count-first layout (no cost token) exists in the wild and is accepted via
  ``layout="count-first"``.

Costs are parsed and discarded: everything downstream is unicost.  File ids
are 1-based and converted to 0-based at this boundary.
"""
from __future__ import annotations

import csv
import io as _io
import random
import re
from dataclasses import dataclass
from typing import Iterable, List

from .core import Instance, SuccinctSet

CSV_HEADER = (
    "instance",
    "algorithm",
    "seed",
    "threads",
    "cardinality",
    "bks",
    "rpd",
    "rpd_star",
    "wall_ms",
)


class ParseError(ValueError):
    """Malformed instance file; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


_TOKEN = re.compile(rb"\S+")


class _Tokens:
    """Whitespace tokenizer that tracks byte offsets for error reporting."""

    def __init__(self, data: bytes) -> None:
        self._iter = _TOKEN.finditer(data)
        self._end = len(data)
        self.last_offset = 0

    def next_int(self, what: str) -> int:
        match = next(self._iter, None)
        if match is None:
            raise ParseError(f"truncated stream: expected {what}", self._end)
        self.last_offset = match.start()
        try:
            return int(match.group())
        except ValueError:
            raise ParseError(
                f"expected integer for {what}, got {match.group()!r}", match.start()
            ) from None

    def expect_end(self) -> None:
        match = next(self._iter, None)
        if match is not None:
            raise ParseError(f"unexpected trailing token {match.group()!r}", match.start())


def _build_instance(n: int, member_lists: List[List[int]], tokens: _Tokens) -> Instance:
    try:
        return Instance(n, [SuccinctSet.from_indices(n, ms) for ms in member_lists])
    except ValueError as exc:
        raise ParseError(str(exc), tokens.last_offset) from None


def parse_scp(data: bytes) -> Instance:
    """Parse a row-major set-cover file; rows are elements, columns subsets."""
    tokens = _Tokens(data)
    n = tokens.next_int("row count")
    m = tokens.next_int("column count")
    if n < 0 or m < 0:
        raise ParseError("negative count in header", tokens.last_offset)
    for _ in range(m):
        tokens.next_int("column cost")
    members: List[List[int]] = [[] for _ in range(m)]
    for row in range(n):
        count = tokens.next_int(f"cover count of row {row + 1}")
        if count <= 0:
            raise ParseError(
                f"row {row + 1} has zero covering columns", tokens.last_offset
            )
        for _ in range(count):
            col = tokens.next_int(f"column id covering row {row + 1}")
            if not 1 <= col <= m:
                raise ParseError(
                    f"column id {col} out of range 1..{m}", tokens.last_offset
                )
            members[col - 1].append(row)
    tokens.expect_end()
    return _build_instance(n, members, tokens)


def parse_rail(data: bytes, layout: str = "cost-first") -> Instance:
    """Parse a column-major set-cover file; one record per column (subset)."""
    if layout not in ("cost-first", "count-first"):
        raise ValueError(f"unknown rail layout {layout!r}")
    tokens = _Tokens(data)
    n = tokens.next_int("row count")
    m = tokens.next_int("column count")
    if n < 0 or m < 0:
        raise ParseError("negative count in header", tokens.last_offset)
    members: List[List[int]] = []
    for col in range(m):
        if layout == "cost-first":
            tokens.next_int(f"cost of column {col + 1}")
        count = tokens.next_int(f"row count of column {col + 1}")
        if count <= 0:
            raise ParseError(
                f"column {col + 1} covers zero rows", tokens.last_offset
            )
        rows = []
        for _ in range(count):
            row = tokens.next_int(f"row id in column {col + 1}")
            if not 1 <= row <= n:
                raise ParseError(
                    f"row id {row} out of range 1..{n}", tokens.last_offset
                )
            rows.append(row - 1)
        members.append(rows)
    tokens.expect_end()
    return _build_instance(n, members, tokens)


def parse_auto(data: bytes) -> Instance:
    """Detect the format: the one that parses, or either when both agree.

    Small files can be valid in both layouts while describing different
    instances; those are rejected rather than guessed.
    """
    try:
        rail = parse_rail(data)
    except ParseError:
        return parse_scp(data)
    try:
        scp = parse_scp(data)
    except ParseError:
        return rail
    if scp != rail:
        raise ParseError(
            "input is valid as both rail and scp but they differ; choose one with --format",
            0,
        )
    return rail


def write_scp(inst: Instance) -> bytes:
    """Serialize in row-major format with unit costs (round-trips parse_scp)."""
    coverers = inst.coverers()
    lines = [f"{inst.n} {inst.m}"]
    if inst.m:
        lines.append(" ".join(["1"] * inst.m))
    for e in range(inst.n):
        ids = coverers[e]
        lines.append(" ".join([str(len(ids))] + [str(sid + 1) for sid in ids]))
    return ("\n".join(lines) + "\n").encode()


def write_rail(inst: Instance) -> bytes:
    """Serialize in column-major cost-first format (round-trips parse_rail)."""
    lines = [f"{inst.n} {inst.m}"]
    for s in inst.subsets:
        members = list(s)
        lines.append(" ".join(["1", str(len(members))] + [str(e + 1) for e in members]))
    return ("\n".join(lines) + "\n").encode()


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters for the segmentable synthetic instance generator.

    Elements are split into ``groups`` contiguous, near-equal blocks; subsets
    are assigned to blocks round-robin and draw their members only from their
    block, so the co-occurrence graph has exactly ``groups`` components.
    ``density`` is the per-element inclusion probability within the block.
    """

    n: int
    m: int
    groups: int
    density: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError(f"need n >= 1 and m >= 1, got n={self.n}, m={self.m}")
        if not 1 <= self.groups <= min(self.n, self.m):
            raise ValueError(
                f"groups must lie in 1..min(n, m)={min(self.n, self.m)}, got {self.groups}"
            )
        if not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must lie in (0, 1], got {self.density}")


def generate_segmentable(cfg: GeneratorConfig) -> Instance:
    """Generate a synthetic instance with exactly ``cfg.groups`` components.

    Block connectivity is guaranteed by anchoring: every subset contains its
    block's first element in addition to the random draw.  Elements left
    uncovered by the random draws are repaired by inserting them into their
    block's first subset, which keeps the subset count at exactly ``cfg.m``.
    Deterministic in ``cfg.seed``.
    """
    rng = random.Random(cfg.seed)
    k = cfg.groups
    base, extra = divmod(cfg.n, k)
    blocks: List[range] = []
    start = 0
    for b in range(k):
        size = base + (1 if b < extra else 0)
        blocks.append(range(start, start + size))
        start += size

    density = cfg.density
    member_lists: List[List[int]] = []
    for j in range(cfg.m):
        block = blocks[j % k]
        anchor = block[0]
        members = [anchor]
        members += [e for e in block[1:] if rng.random() < density]
        member_lists.append(members)

    covered = [False] * cfg.n
    for members in member_lists:
        for e in members:
            covered[e] = True
    for b, block in enumerate(blocks):
        for e in block:
            if not covered[e]:
                member_lists[b].append(e)

    subsets = [SuccinctSet.from_indices(cfg.n, ms) for ms in member_lists]
    return Instance(cfg.n, subsets)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def emit_results_csv(records: Iterable) -> bytes:
    """Render run records as CSV with the fixed header; floats get 4 decimals.

    Records are read by attribute name; missing/None attributes render as
    empty cells (e.g. rpd when no best-known solution is available).
    """
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for record in records:
        writer.writerow([_fmt(getattr(record, name, None)) for name in CSV_HEADER])
    return buf.getvalue().encode()
