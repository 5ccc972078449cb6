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

Parsing is streamed.  The bytes are cut into whitespace-aligned chunks of
about ``_CHUNK`` bytes; each chunk is split and converted with ``map(int,
...)``, and the chunks are chained into one iterator, so no token list
spans the file.  A record (the header, the scp costs, one scp row or one
rail column) is taken with ``islice``, its count first where it has one,
and checked with ``min``/``max``.  A record that fails a check, is cut
short, or holds a token that ``int`` rejects is read again token
by token with a regex from its first token, which raises the first fault in
token order with its message and byte offset.  The record's first byte
offset is found from its token index: each chunk's end offset and running
token count are kept, so the search scans one chunk.
"""
from __future__ import annotations

import csv
import io as _io
import random
import re
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from typing import Callable, Iterable, Iterator, List, NoReturn, Tuple

from .core import (
    Instance,
    Members,
    index_mask,
    iter_bits,
    lower_ids,
    member_arrays,
    uncovered_message,
)

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
_SPACE = re.compile(rb"\s")
_CHUNK = 1 << 16


class _Tokens:
    """Token-by-token reader with byte offsets, from byte ``pos`` on.

    Only a record that fails a check is read this way: it finds the record's
    first fault in token order and names it with its byte offset.
    """

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self._iter = _TOKEN.finditer(data, pos)
        self._end = len(data)
        self.last_offset = pos

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


class _Ints:
    """The integers of ``data`` as one iterator, ``values``, converted in C
    one whitespace-aligned chunk of about ``_CHUNK`` bytes at a time; no
    token list spans the file.

    Callers count the tokens they take.  Each chunk's end offset and running
    token count are kept, so finding the byte offset of a token by its
    index scans one chunk.
    """

    def __init__(self, data: bytes) -> None:
        self.data = data
        self._starts = [0]
        self._firsts = [0]
        self.values = chain.from_iterable(map(int, tokens) for tokens in self._chunks())

    def _chunks(self) -> Iterator[List[bytes]]:
        data = self.data
        size = len(data)
        start = 0
        while start < size:
            end = start + _CHUNK
            if end < size:
                space = _SPACE.search(data, end)
                end = space.start() if space else size
            else:
                end = size
            tokens = data[start:end].split()
            self._starts.append(end)
            self._firsts.append(self._firsts[-1] + len(tokens))
            yield tokens
            start = end

    def offset(self, index: int) -> int:
        """Byte offset of token ``index``; the data's length if there is none."""
        c = bisect_right(self._firsts, index) - 1
        matches = _TOKEN.finditer(self.data, self._starts[c])
        match = next(islice(matches, index - self._firsts[c], None), None)
        return match.start() if match is not None else len(self.data)

    def replay(self, index: int, read: Callable[..., object], *args: object) -> NoReturn:
        """Re-read the faulty record that starts at token ``index`` with
        ``read(tokens, *args)``, which raises the fault's ParseError."""
        read(_Tokens(self.data, self.offset(index)), *args)
        raise RuntimeError(f"record at token {index} failed a check but reads cleanly")

    def header(self) -> Tuple[int, int]:
        """The row and column counts: tokens 0 and 1."""
        try:
            head = list(islice(self.values, 2))
        except ValueError:
            head = []
        if len(head) < 2 or min(head) < 0:
            self.replay(0, _read_header)
        return head[0], head[1]

    def expect_end(self, taken: int) -> None:
        """Fail if a token follows the ``taken`` ones the records used."""
        try:
            trailing = next(self.values, None) is not None
        except ValueError:
            trailing = True
        if trailing:
            self.replay(taken, _Tokens.expect_end)


# The token-by-token readers of each record kind, used only by ``replay``.

def _read_header(tokens: _Tokens) -> None:
    n = tokens.next_int("row count")
    m = tokens.next_int("column count")
    if n < 0 or m < 0:
        raise ParseError("negative count in header", tokens.last_offset)


def _read_costs(tokens: _Tokens, m: int) -> None:
    for _ in range(m):
        tokens.next_int("column cost")


def _read_scp_row(tokens: _Tokens, m: int, row: int) -> None:
    count = tokens.next_int(f"cover count of row {row + 1}")
    if count <= 0:
        raise ParseError(f"row {row + 1} has zero covering columns", tokens.last_offset)
    for _ in range(count):
        col = tokens.next_int(f"column id covering row {row + 1}")
        if not 1 <= col <= m:
            raise ParseError(f"column id {col} out of range 1..{m}", tokens.last_offset)


def _read_rail_column(tokens: _Tokens, n: int, col: int, layout: str) -> None:
    if layout == "cost-first":
        tokens.next_int(f"cost of column {col + 1}")
    count = tokens.next_int(f"row count of column {col + 1}")
    if count <= 0:
        raise ParseError(f"column {col + 1} covers zero rows", tokens.last_offset)
    for _ in range(count):
        row = tokens.next_int(f"row id in column {col + 1}")
        if not 1 <= row <= n:
            raise ParseError(f"row id {row} out of range 1..{n}", tokens.last_offset)


def _build_instance(
    n: int, masks: List[int], ints: _Ints, taken: int, members: Members
) -> Instance:
    try:
        return Instance(n, masks, members)
    except ValueError as exc:
        raise ParseError(str(exc), ints.offset(taken - 1)) from None


def parse_scp(data: bytes) -> Instance:
    """Parse a row-major set-cover file; rows are elements, columns subsets.

    The instance keeps each column's distinct rows as its ``members`` arrays.
    """
    ints = _Ints(data)
    values = ints.values
    n, m = ints.header()
    try:
        costs_read = len(list(islice(values, m))) == m
    except ValueError:
        costs_read = False
    if not costs_read:
        ints.replay(2, _read_costs, m)
    members: List[List[int]] = [[] for _ in range(m + 1)]  # by 1-based column id
    add = [ms.append for ms in members]
    # A record can hold no more tokens than the data has bytes; a larger
    # count is a fault, found without reading the rest of the data.
    most = len(data)
    row = 0
    start = taken = 2 + m
    try:
        for row in range(n):
            start = taken
            count = next(values, 0)
            if not 0 < count <= most:
                raise ValueError
            cols = list(islice(values, count))
            if len(cols) < count or min(cols) < 1 or max(cols) > m:
                raise ValueError
            for col in cols:
                add[col](row)
            taken += 1 + count
    except ValueError:  # a non-integer token, or a record that failed a check
        ints.replay(start, _read_scp_row, m, row)
    ints.expect_end(taken)
    del members[0]
    masks = [index_mask(ms, ms[0], ms[-1]) if ms else 0 for ms in members]
    # Rows are read in order, so each list ascends; it is distinct unless a
    # row named a column twice, and then the masks hold fewer bits than
    # the rows named columns.
    if sum(map(int.bit_count, masks)) != taken - 2 - m - n:
        members = [list(dict.fromkeys(ms)) for ms in members]
    flat = member_arrays(members)
    del members, add
    return _build_instance(n, masks, ints, taken, flat)


def parse_rail(data: bytes, layout: str = "cost-first") -> Instance:
    """Parse a column-major set-cover file; one record per column (subset).

    Each column's rows are sorted as they are read, which also gives their
    range; the instance keeps the distinct ones as its ``members`` arrays.
    """
    if layout not in ("cost-first", "count-first"):
        raise ValueError(f"unknown rail layout {layout!r}")
    ints = _Ints(data)
    values = ints.values
    n, m = ints.header()
    costed = layout == "cost-first"
    lead = 2 if costed else 1
    masks: List[int] = []
    ids = array("I")  # 1-based rows, as read
    most = len(data)  # as in parse_scp: no record holds more tokens
    col = 0
    start = taken = 2
    try:
        for col in range(m):
            start = taken
            if costed:
                next(values, None)
            count = next(values, 0)
            if not 0 < count <= most:
                raise ValueError
            rows = sorted(islice(values, count))
            if len(rows) < count:
                raise ValueError
            lo, hi = rows[0], rows[-1]
            if lo < 1 or hi > n:
                raise ValueError
            if hi > most:  # then n > most as well: see below
                rows = [r for r in rows if r <= most]
                lo, hi = (rows[0], rows[-1]) if rows else (1, 1)
            masks.append(index_mask(rows, lo, hi) >> 1)
            ids.extend(rows)
            taken += lead + count
    except ValueError:  # a non-integer token, or a record that failed a check
        ints.replay(start, _read_rail_column, n, col, layout)
    ints.expect_end(taken)
    if n > most:
        # More rows than the data has tokens, so some row is uncovered, the
        # lowest of them below ``most``: rows above it were left out of the
        # masks rather than allocated.
        union = 0
        for bits in masks:
            union |= bits
        raise ParseError(uncovered_message(union), ints.offset(taken - 1))
    # A column's mask holds one bit per row it names, unless it names a row
    # twice; then the masks hold fewer bits than the columns named rows, and
    # each column's distinct rows are its mask's bits.
    starts = array("I", accumulate(map(int.bit_count, masks), initial=0))
    if starts[-1] == len(ids):
        ids = lower_ids(ids, 1)
    else:
        ids = array("I", chain.from_iterable(map(iter_bits, masks)))
    return _build_instance(n, masks, ints, taken, (starts, ids))


def _scp_shaped(data: bytes) -> bool:
    """Whether the tokens of ``data`` fall into scp's records: a header
    ``n m``, ``m`` costs, then ``n`` rows, each a positive count and that
    many more tokens, and nothing after.

    Only the header and the row counts are converted to ints; the other
    tokens are skipped in C as they were split, and no mask is built.
    """
    tokens = chain.from_iterable(_Ints(data)._chunks())
    try:
        head = list(map(int, islice(tokens, 2)))
        if len(head) < 2:
            return False
        n, m = head
        if m > 0 and next(islice(tokens, m - 1, m), None) is None:
            return False
        for _ in range(n):
            count = int(next(tokens, 0))
            if count <= 0 or next(islice(tokens, count - 1, count), None) is None:
                return False
        return next(tokens, None) is None
    except ValueError:
        return False


def parse_auto(data: bytes, layout: str = "cost-first") -> Instance:
    """Detect the format: the one that parses, or either when both agree.

    Rail bytes are read in the column ``layout`` of ``parse_rail``.

    Small files can be valid in both layouts while describing different
    instances; those are rejected rather than guessed.  Bytes that parse as
    rail are parsed as scp too only when their records have scp's shape.
    """
    try:
        rail = parse_rail(data, layout)
    except ParseError:
        return parse_scp(data)
    if not _scp_shaped(data):
        return rail
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
    starts, ids = inst.members
    for s, t in zip(starts, islice(starts, 1, None)):
        lines.append(" ".join(["1", str(t - s)] + [str(e + 1) for e in ids[s:t]]))
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
    The instance keeps the member lists as its ``members`` arrays.
    Deterministic in ``cfg.seed``.
    """
    rng = random.Random(cfg.seed)
    k = cfg.groups
    base, extra = divmod(cfg.n, k)
    ids = list(range(cfg.n))
    blocks: List[List[int]] = []
    start = 0
    for b in range(k):
        size = base + (1 if b < extra else 0)
        blocks.append(ids[start:start + size])
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
        repaired = [e for e in block if not covered[e]]
        if repaired:
            member_lists[b] = sorted(member_lists[b] + repaired)

    masks = [index_mask(ms, ms[0], ms[-1]) for ms in member_lists]
    return Instance(cfg.n, masks, member_arrays(member_lists))


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
