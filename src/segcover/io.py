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
spans the file.  A rail file names only its ``n`` rows, so once
``parse_rail`` has read the header, the chunks after the header's are
converted by a lookup from the canonical decimal tokens ``0..n`` to their
ints (when the table is small against the data); any other token, bad ones
included, still goes to ``int``.  ``parse_scp``, whose ids run up to ``m``,
keeps ``int``.  A record (the header, the scp costs, one scp row or one
rail column) is taken with ``islice``, its count first where it has one,
and its count and length are checked.  A rail column's row ids are checked
at the ends of the column, sorted as read.  An scp row's column ids are
checked by the indexing that files each row under its columns, with
``min`` only for data that holds a minus sign; a row that names a column
twice is found afterwards, by the bit count of the range-local masks.

A fault stops this fast read, which keeps no position.  The parser then
reads the data again token by token with a regex from byte 0 (``_read_scp``,
``_read_rail``), which raises the first fault in token order with its
message and byte offset.  A fault of the instance itself, such as a row no
column covers, shows only once every token has passed; its message is
raised at the last token.  ``parse_auto`` runs the fast reads alone, so an
attempt it throws away is never read token by token.
"""
from __future__ import annotations

import csv
import io as _io
import random
import re
from array import array
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
    "error",
)


class ParseError(ValueError):
    """Malformed instance file; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


_TOKEN = re.compile(rb"\S+")
_SPACE = re.compile(rb"\s")
_CHUNK = 1 << 16


class _Fault(Exception):
    """A fast read failed a check.  A fault of the instance itself, which a
    token-by-token read cannot see, carries its message as ``args[0]``."""


class _Tokens:
    """Token-by-token reader with byte offsets, from byte 0.

    Only data that failed a fast read is read this way: it finds the first
    fault in token order and names it with its byte offset.
    """

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


class _Table(dict):
    """Tokens to their ints: a key is a canonical decimal token, and any
    other token converts with ``int``, which raises for a bad one."""

    __slots__ = ()

    def __missing__(self, token: bytes) -> int:
        return int(token)


def _chunks(data: bytes) -> Iterator[List[bytes]]:
    """The tokens of ``data``, one whitespace-aligned chunk of about
    ``_CHUNK`` bytes at a time."""
    size = len(data)
    start = 0
    while start < size:
        end = start + _CHUNK
        if end < size:
            space = _SPACE.search(data, end)
            end = space.start() if space else size
        else:
            end = size
        yield data[start:end].split()
        start = end


class _Ints:
    """The integers of ``data`` as one iterator, ``values``, converted in C
    one chunk at a time; no token list spans the file."""

    def __init__(self, data: bytes) -> None:
        self.data = data
        self._most = -1
        self.values = chain.from_iterable(self._converted())

    def tabulate(self, most: int) -> None:
        """Convert the chunks after the current one through a ``_Table`` of
        the tokens ``0..most``, if it is small against the data: a file that
        names few distinct ids names each of them many times, and a lookup
        is cheaper than ``int``, but a miss costs a Python call."""
        if most + 1 <= len(self.data) >> 4:
            self._most = most

    def _converted(self) -> Iterator[Iterator[int]]:
        convert = int
        for tokens in _chunks(self.data):
            if self._most >= 0 and convert is int:
                # Built at the first chunk it converts, so bytes that fault
                # before then never pay for it.
                convert = _Table((b"%d" % i, i) for i in range(self._most + 1)).__getitem__
            yield map(convert, tokens)

    def header(self) -> Tuple[int, int]:
        """The row and column counts: tokens 0 and 1.  Raises ValueError
        when either is missing, not an integer or negative."""
        n, m = islice(self.values, 2)
        if n < 0 or m < 0:
            raise ValueError
        return n, m


# The token-by-token readers of each format, used only to locate a fault.

def _read_header(tokens: _Tokens) -> Tuple[int, int]:
    n = tokens.next_int("row count")
    m = tokens.next_int("column count")
    if n < 0 or m < 0:
        raise ParseError("negative count in header", tokens.last_offset)
    return n, m


def _read_scp(tokens: _Tokens) -> None:
    n, m = _read_header(tokens)
    for _ in range(m):
        tokens.next_int("column cost")
    for row in range(1, n + 1):
        count = tokens.next_int(f"cover count of row {row}")
        if count <= 0:
            raise ParseError(f"row {row} has zero covering columns", tokens.last_offset)
        what = f"column id covering row {row}"
        for _ in range(count):
            col = tokens.next_int(what)
            if not 1 <= col <= m:
                raise ParseError(f"column id {col} out of range 1..{m}", tokens.last_offset)


def _read_rail(tokens: _Tokens, layout: str) -> None:
    n, m = _read_header(tokens)
    for col in range(1, m + 1):
        if layout == "cost-first":
            tokens.next_int(f"cost of column {col}")
        count = tokens.next_int(f"row count of column {col}")
        if count <= 0:
            raise ParseError(f"column {col} covers zero rows", tokens.last_offset)
        what = f"row id in column {col}"
        for _ in range(count):
            row = tokens.next_int(what)
            if not 1 <= row <= n:
                raise ParseError(f"row id {row} out of range 1..{n}", tokens.last_offset)


def _locate(data: bytes, fault: _Fault, read: Callable[..., None], *args: object) -> NoReturn:
    """Read ``data`` token by token with ``read(tokens, *args)``, which
    raises the first fault in token order; if every token passes, raise the
    instance fault that ``fault`` carries at the last token."""
    tokens = _Tokens(data)
    read(tokens, *args)
    tokens.expect_end()
    if not fault.args:
        raise RuntimeError("a fast read failed a check but the data reads cleanly")
    raise ParseError(fault.args[0], tokens.last_offset)


def _instance(n: int, masks: List[int], members: Members) -> Instance:
    try:
        return Instance(n, masks, members)
    except ValueError as exc:
        raise _Fault(str(exc)) from None


def _scp(data: bytes) -> Instance:
    """``parse_scp``'s fast read; raises ``_Fault`` at any fault."""
    ints = _Ints(data)
    values = ints.values
    # A record can hold no more tokens than the data has bytes; a larger
    # count is a fault, found without reading the rest of the data.
    most = len(data)
    try:
        n, m = ints.header()
        if len(list(islice(values, m))) < m:
            raise ValueError
        members: List[List[int]] = [[] for _ in range(m + 1)]  # by 1-based column id
        add = [ms.append for ms in members]
        # Column ids are checked by the indexing: an id above ``m`` raises
        # IndexError at ``add``, and id 0 appends to ``bad``.  A negative id
        # would wrap onto a real column, so ``min`` runs only when the data
        # holds a minus sign.
        bad = members[0]
        signed = b"-" in data
        for row in range(n):
            count = next(values, 0)
            if not 0 < count <= most:
                raise ValueError
            cols = list(islice(values, count))
            if len(cols) < count or signed and min(cols) < 1:
                raise ValueError
            for col in cols:
                add[col](row)
            if bad:
                raise ValueError
        if next(values, None) is not None:
            raise ValueError
    except (ValueError, IndexError):  # a non-integer token, or a failed check
        raise _Fault from None
    del members[0], add
    # Rows are read in order, so each list ascends; it is distinct unless a
    # row named a column twice, and then its range-local mask holds fewer
    # bits than the list has entries.
    masks = []
    distinct = True
    for ms in members:
        if ms:
            lo = ms[0]
            bits = 0
            for i in ms:
                bits |= 1 << (i - lo)
            distinct = distinct and bits.bit_count() == len(ms)
            masks.append(bits << lo)
        else:
            masks.append(0)
    if not distinct:
        members = [list(dict.fromkeys(ms)) for ms in members]
    flat = member_arrays(members)
    del members
    return _instance(n, masks, flat)


def _rail(data: bytes, layout: str) -> Instance:
    """``parse_rail``'s fast read; raises ``_Fault`` at any fault."""
    if layout not in ("cost-first", "count-first"):
        raise ValueError(f"unknown rail layout {layout!r}")
    ints = _Ints(data)
    values = ints.values
    costed = layout == "cost-first"
    masks: List[int] = []
    ids = array("I")  # 1-based rows, as read
    most = len(data)  # as in _scp: no record holds more tokens
    try:
        n, m = ints.header()
        ints.tabulate(n)
        for _ in range(m):
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
                lo = rows[0] if rows else 1
            masks.append(index_mask(rows, lo) >> 1)
            ids.extend(rows)
        if next(values, None) is not None:
            raise ValueError
    except ValueError:  # a non-integer token, or a failed check
        raise _Fault from None
    if n > most:
        # More rows than the data has tokens, so some row is uncovered, the
        # lowest of them below ``most``: rows above it were left out of the
        # masks rather than allocated.
        union = 0
        for bits in masks:
            union |= bits
        raise _Fault(uncovered_message(union))
    # A column's mask holds one bit per row it names, unless it names a row
    # twice; then the masks hold fewer bits than the columns named rows, and
    # each column's distinct rows are its mask's bits.
    starts = array("I", accumulate(map(int.bit_count, masks), initial=0))
    if starts[-1] == len(ids):
        ids = lower_ids(ids, 1)
    else:
        ids = array("I", chain.from_iterable(map(iter_bits, masks)))
    return _instance(n, masks, (starts, ids))


def parse_scp(data: bytes) -> Instance:
    """Parse a row-major set-cover file; rows are elements, columns subsets.

    The instance keeps each column's distinct rows as its ``members`` arrays.
    """
    try:
        return _scp(data)
    except _Fault as fault:
        _locate(data, fault, _read_scp)


def parse_rail(data: bytes, layout: str = "cost-first") -> Instance:
    """Parse a column-major set-cover file; one record per column (subset).

    Each column's rows are sorted as they are read, which also gives their
    range; the instance keeps the distinct ones as its ``members`` arrays.
    """
    try:
        return _rail(data, layout)
    except _Fault as fault:
        _locate(data, fault, _read_rail, layout)


def _scp_shaped(data: bytes) -> bool:
    """Whether the tokens of ``data`` fall into scp's records: a header
    ``n m``, ``m`` costs, then ``n`` rows, each a positive count and that
    many more tokens, and nothing after.

    Only the header and the row counts are converted to ints; the other
    tokens are skipped in C as they were split, and no mask is built.
    """
    tokens = chain.from_iterable(_chunks(data))
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
    Only a fault of the scp read, the format reported then, is located.
    """
    try:
        rail = _rail(data, layout)
    except _Fault:
        return parse_scp(data)
    if not _scp_shaped(data):
        return rail
    try:
        scp = _scp(data)
    except _Fault:
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

    masks = [index_mask(ms, ms[0]) for ms in member_lists]
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
