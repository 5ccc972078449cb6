import pickle
import random
import tracemalloc
from functools import partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segcover import core, io, preprocess
from segcover.core import Instance, iter_bits
from segcover.grasp import create_row_map
from segcover.grasp_su import split
from segcover.io import (
    GeneratorConfig,
    ParseError,
    emit_results_csv,
    generate_segmentable,
    parse_auto,
    parse_rail,
    parse_scp,
    write_rail,
    write_scp,
)
from segcover.preprocess import reduce
from segcover.segmentation import find_groups

from oracles import (
    MUTANT_TOKENS,
    assert_members_are_the_mask_bits,
    bfs_components,
    member_lists,
    mutated_file,
    rail_bytes,
    random_covering_family,
    reference_parse_rail,
    reference_parse_scp,
    reference_reduce,
    tie_rich_family,
    to_instance,
)


class TestParseScp:
    def test_minimal(self):
        inst = parse_scp(b"1 1\n1\n1 1\n")
        assert inst.n == 1 and inst.m == 1
        assert inst.masks == (0b1,)

    def test_twelve_fixture(self, twelve_file, twelve):
        assert parse_scp(twelve_file) == twelve

    def test_truncated(self):
        with pytest.raises(ParseError, match="truncated"):
            parse_scp(b"2 1\n1\n1 1\n")

    def test_out_of_range_column(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_scp(b"1 1\n1\n1 2\n")

    def test_zero_cover_row(self):
        with pytest.raises(ParseError, match="zero covering columns"):
            parse_scp(b"1 1\n1\n0\n")

    def test_error_reports_offset(self):
        data = b"1 1\n1\n1 9\n"
        with pytest.raises(ParseError) as err:
            parse_scp(data)
        assert err.value.offset == data.index(b"9")


class TestParseRail:
    def test_three_rows_two_columns(self):
        inst = parse_rail(b"3 2\n1 2 1 2\n1 2 2 3\n")
        assert inst.n == 3 and inst.m == 2
        assert inst.masks == (0b011, 0b110)

    def test_single_spanning_column(self):
        inst = parse_rail(b"4 1\n1 4 1 2 3 4\n")
        assert inst.m == 1
        assert inst.masks == (0b1111,)

    def test_count_first_layout(self):
        inst = parse_rail(b"3 2\n2 1 2\n2 2 3\n", layout="count-first")
        assert inst.masks == (0b011, 0b110)

    def test_unknown_layout(self):
        with pytest.raises(ValueError, match="layout"):
            parse_rail(b"1 1\n1 1 1\n", layout="weird")

    def test_out_of_range_row(self):
        with pytest.raises(ParseError, match="out of range"):
            parse_rail(b"2 1\n1 1 3\n")


def test_auto_detect_prefers_rail():
    data = b"3 2\n1 2 1 2\n1 2 2 3\n"
    assert parse_auto(data) == parse_rail(data)


def test_auto_detect_reads_rail_in_the_given_layout():
    # cost-first would read these bytes as masks (2, 5), count-first as (7, 5)
    data = b"3 2\n3 1 2 3\n2 1 3\n"
    assert parse_auto(data, "count-first") == parse_rail(data, "count-first")
    assert parse_auto(data, "count-first").masks == (7, 5)
    assert parse_auto(data) == parse_rail(data)


def test_auto_falls_back_to_scp(twelve_file, twelve):
    # The fixture file happens to be rejected by the rail reader.
    assert parse_auto(twelve_file) == twelve


family_strategy = st.integers(0, 10_000)


@given(family_strategy)
@settings(max_examples=60, deadline=None)
def test_roundtrip_both_formats(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    inst = to_instance(n, random_covering_family(rng, n, rng.randint(1, 12)))
    assert parse_scp(write_scp(inst)) == inst
    assert parse_rail(write_rail(inst)) == inst


@given(family_strategy)
@settings(max_examples=300, deadline=None)
def test_auto_detect_never_returns_a_different_instance(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    inst = to_instance(n, random_covering_family(rng, n, rng.randint(1, 5), max_size=rng.randint(1, n)))
    for data in (write_scp(inst), write_rail(inst)):
        try:
            assert parse_auto(data) == inst
        except ParseError as exc:
            assert "--format" in str(exc)


PARSER_PAIRS = (
    (parse_scp, reference_parse_scp),
    (parse_rail, reference_parse_rail),
    (partial(parse_rail, layout="count-first"), partial(reference_parse_rail, layout="count-first")),
)


def _outcome(parse, data):
    try:
        return parse(data)
    except ParseError as exc:
        return str(exc), exc.offset


@pytest.mark.parametrize("chunk", [1, 3, 7, io._CHUNK])
@given(family_strategy)
@settings(max_examples=300, deadline=None)
def test_parsers_match_reference_on_mutated_bytes(chunk, seed):
    # Small chunks make tokens and records straddle chunk boundaries.
    data = mutated_file(random.Random(seed))
    with mock.patch.object(io, "_CHUNK", chunk):
        for parse, reference in PARSER_PAIRS:
            assert _outcome(parse, data) == _outcome(reference, data)


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b" \n",
        b"2 1\n1\n1 1\n1 1 7",
        b"1 1 1 1 1 junk",
        b"3 2\n1 2 1 2\n1 99999999999999999999 2 3\n",
        b"3 2\n1 2 1 2\n1 2 2 3\n" + b"1" * 5000,
        # scp column ids: 0 in the last row, m + 1, -(m + 1), -1, which
        # indexing alone would take for column m, and a negative cost with
        # valid ids, which must parse.
        b"3 2\n1 1\n1 1\n1 2\n2 2 0\n",
        b"2 2\n1 1\n1 1\n2 2 3\n",
        b"2 2\n1 1\n1 1\n2 2 -3\n",
        b"2 2\n1 1\n2 1 2\n1 -1\n",
        b"2 2\n-1 1\n2 1 2\n1 2\n",
    ],
)
def test_parsers_match_reference_on_edge_bytes(data):
    for parse, reference in PARSER_PAIRS:
        assert _outcome(parse, data) == _outcome(reference, data)


def test_fault_offset_found_in_a_late_chunk():
    columns = [f"1 2 {c % 3 + 1} {(c + 1) % 3 + 1}" for c in range(20_000)]
    data = ("3 20001\n" + "\n".join(columns) + "\n1 1 4\n").encode()
    assert len(data) > 2 * io._CHUNK
    with pytest.raises(ParseError, match="row id 4 out of range 1..3") as err:
        parse_rail(data)
    assert err.value.offset == len(data) - 2


@pytest.mark.parametrize("col", [b"0", b"4", b"-1"])
def test_scp_column_fault_found_in_a_late_chunk(col):
    rows = [f"2 {r % 3 + 1} {(r + 1) % 3 + 1}" for r in range(30_000)]
    data = ("30001 3\n1 1 1\n" + "\n".join(rows) + "\n2 1 ").encode() + col + b"\n"
    offset = len(data) - 1 - len(col)
    assert offset - 4 > 2 * io._CHUNK  # the faulty row starts in the third chunk
    message = f"column id {int(col)} out of range 1..3 (byte offset {offset})"
    assert _outcome(reference_parse_scp, data) == (message, offset)
    assert _outcome(parse_scp, data) == (message, offset)


def _rail_columns(n, count, costed, seed=0):
    """``count`` rail columns of 20 random rows of ``1..n`` each, as token
    lists; the first column holds every row."""
    rng = random.Random(seed)
    lead = [b"1"] if costed else []
    rows = [range(1, n + 1)] + [sorted(rng.sample(range(1, n + 1), 20)) for _ in range(count - 1)]
    return [lead + [b"%d" % len(r)] + [b"%d" % e for e in r] for r in rows]


def _rail_file(n, columns):
    return b"%d %d\n" % (n, len(columns)) + b"\n".join(map(b" ".join, columns)) + b"\n"


def _counting_tables():
    return mock.patch.object(io, "_Table", side_effect=io._Table)


@pytest.mark.parametrize("costed", [True, False])
@pytest.mark.parametrize("token", MUTANT_TOKENS)
def test_rail_token_in_a_late_chunk_matches_reference(token, costed):
    # Past the header's chunk, rail tokens convert through the table; each
    # mutant token, substituted in turn for a cost, a count or a row id, or
    # inserted before a row id, parses as the token-by-token reference does.
    layout = "cost-first" if costed else "count-first"
    columns = _rail_columns(500, 1800, costed)
    late = len(columns) - 3
    assert sum(map(len, map(b" ".join, columns[:late]))) > 2 * io._CHUNK
    slot = MUTANT_TOKENS.index(token) % (3 if costed else 2)
    for edit in ("substitute", "insert"):
        mutated = [c[:] for c in columns]
        if edit == "substitute":
            mutated[late][slot] = token
        else:
            mutated[late].insert(len(mutated[late]) - 1, token)
        data = _rail_file(500, mutated)
        with _counting_tables() as built:
            outcome = _outcome(partial(parse_rail, layout=layout), data)
        assert built.call_count == 1
        assert outcome == _outcome(partial(reference_parse_rail, layout=layout), data)


def test_table_converts_every_token_as_int_does():
    n = 500
    tokens = [b"007", b"+2", b"1_0", b"-0", b"00", b"0", b"500", b"501", b"-3", b"10" * 15]
    body = tokens * 2000
    data = b"%d 1\n" % n + b" ".join(body)
    ints = io._Ints(data)
    assert ints.header() == (n, 1)
    ints.tabulate(n)
    with _counting_tables() as built:
        assert list(ints.values) == list(map(int, body))
    assert built.call_count == 1
    for bad in (b"x", b"1.5", b"\xff", b"1__0"):
        at = len(body) - 5
        ints = io._Ints(b"%d 1\n" % n + b" ".join(body[:at] + [bad] + body[at:]))
        ints.header()
        ints.tabulate(n)
        taken = []
        with pytest.raises(ValueError) as err:
            taken.extend(ints.values)
        assert taken == list(map(int, body[:at]))
        with pytest.raises(ValueError) as expected:
            int(bad)
        assert str(err.value) == str(expected.value)


def test_no_table_for_bytes_that_fault_early_or_declare_too_many_rows():
    # scp bytes read as rail fault inside the first chunk, as W1's do.
    inst = generate_segmentable(GeneratorConfig(n=2000, m=4000, groups=4, density=0.02, seed=3))
    scp = write_scp(inst)
    assert len(scp) > 2 * io._CHUNK and inst.n + 1 <= len(scp) >> 4
    # a row count beyond the data's sixteenth takes no table either
    rail = _rail_file(10**5, _rail_columns(500, 1800, True))
    with _counting_tables() as built:
        assert parse_auto(scp) == inst
        with pytest.raises(ParseError, match="does not cover element 500 "):
            parse_rail(rail)
    assert built.call_count == 0


@pytest.mark.parametrize(
    "data, missing",
    [(b"100000000 1\n1 1 1\n", 1), (b"100000000 2\n1 1 100000000\n1 1 2\n", 0)],
)
def test_huge_declared_row_count_fails_without_allocating_it(data, missing):
    # A universe-wide int here would take 12.5 MB: the coverage check once
    # built one, and so did the mask of a row id near n.
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=f"does not cover element {missing} ") as err:
            parse_rail(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert err.value.offset == len(data) - 2


class TestGenerator:
    def test_exact_group_count(self):
        cfg = GeneratorConfig(n=500, m=240, groups=32, density=0.1, seed=4)
        inst = generate_segmentable(cfg)
        assert len(find_groups(inst).components) == 32

    def test_components_are_the_contiguous_blocks(self):
        cfg = GeneratorConfig(n=103, m=40, groups=4, density=0.1, seed=12)
        seg = find_groups(generate_segmentable(cfg))
        sizes = [26, 26, 26, 25]  # near-equal split of 103
        start = 0
        for comp, size in zip(seg.components, sizes):
            assert comp.element_ids == tuple(range(start, start + size))
            start += size

    def test_connected_when_one_group(self):
        cfg = GeneratorConfig(n=200, m=80, groups=1, density=0.05, seed=9)
        inst = generate_segmentable(cfg)
        groups = bfs_components(inst.n, [set(iter_bits(b)) for b in inst.masks])
        assert len(groups) == 1

    def test_deterministic(self):
        cfg = GeneratorConfig(n=300, m=150, groups=4, seed=77)
        assert write_scp(generate_segmentable(cfg)) == write_scp(
            generate_segmentable(cfg)
        )

    def test_subset_count_and_coverage(self):
        cfg = GeneratorConfig(n=97, m=13, groups=5, density=0.02, seed=1)
        inst = generate_segmentable(cfg)
        assert inst.m == 13
        union = set()
        for b in inst.masks:
            union |= set(iter_bits(b))
        assert union == set(range(inst.n))

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n=5, m=10, groups=6),
            dict(n=10, m=2, groups=3),
            dict(n=10, m=10, groups=0),
            dict(n=10, m=10, groups=2, density=0.0),
            dict(n=10, m=10, groups=2, density=1.5),
        ],
    )
    def test_invalid_configs(self, kw):
        with pytest.raises(ValueError):
            GeneratorConfig(**{"density": 0.1, "seed": 0, **kw})


class _Rec:
    def __init__(self, **kw):
        self.__dict__.update(kw)


class TestResultsCsv:
    def test_rpd_zero(self):
        rec = _Rec(
            instance="scpe1", algorithm="grasp", seed=1, threads=1,
            cardinality=5, bks=5, rpd=0.0, rpd_star=None, wall_ms=12.0,
        )
        out = emit_results_csv([rec]).decode().splitlines()
        assert out[0] == "instance,algorithm,seed,threads,cardinality,bks,rpd,rpd_star,wall_ms,error"
        assert out[1] == "scpe1,grasp,1,1,5,5,0.0000,,12.0000,"

    def test_missing_bks_leaves_cells_empty(self):
        rec = _Rec(
            instance="x", algorithm="greedy", seed=0, threads=1,
            cardinality=7, bks=None, rpd=None, rpd_star=None, wall_ms=1.5,
        )
        row = emit_results_csv([rec]).decode().splitlines()[1]
        assert row == "x,greedy,0,1,7,,,,1.5000,"

    def test_four_decimal_rounding(self):
        rec = _Rec(
            instance="y", algorithm="grasp", seed=0, threads=1,
            cardinality=4, bks=3, rpd=(4 - 3) / 3, rpd_star=None, wall_ms=0.0,
        )
        row = emit_results_csv([rec]).decode().splitlines()[1]
        assert ",0.3333," in row


def test_auto_refuses_bytes_that_read_as_two_instances():
    data = b"2 2\n1 1\n2 1 2\n1 1\n"
    assert parse_rail(data) != parse_scp(data)
    with pytest.raises(ParseError, match="valid as both rail and scp"):
        parse_auto(data)


def test_auto_reads_rail_bytes_without_building_scp_masks():
    inst = generate_segmentable(GeneratorConfig(n=300, m=900, groups=3, seed=5))
    data = write_rail(inst)
    assert not io._scp_shaped(data)
    with mock.patch.object(io, "parse_scp", side_effect=AssertionError("scp parsed")), \
            mock.patch.object(io, "index_mask", wraps=io.index_mask) as built:
        assert parse_auto(data) == inst
    assert built.call_count == inst.m  # one per rail column, none for scp


def test_auto_locates_only_the_fault_it_reports():
    # A fault is located by a token-by-token read of the whole file, one
    # ``_Tokens`` each; parse_auto's attempts run the fast reads alone.
    inst = generate_segmentable(GeneratorConfig(n=300, m=900, groups=3, seed=5))
    scp, rail = write_scp(inst), write_rail(inst)
    with pytest.raises(ParseError):
        parse_rail(scp)
    for data in (scp, rail):
        with mock.patch.object(io, "_Tokens", side_effect=io._Tokens) as built:
            assert parse_auto(data) == inst
        assert built.call_count == 0
    with mock.patch.object(io, "_Tokens", side_effect=io._Tokens) as built:
        with pytest.raises(ParseError, match="unexpected trailing token b'7'"):
            parse_auto(scp + b"7\n")
    assert built.call_count == 1


@given(family_strategy)
@settings(max_examples=300, deadline=None)
def test_every_scp_file_has_the_scp_shape(seed):
    # The shape check is what lets parse_auto skip parse_scp, so any bytes
    # parse_scp accepts must pass it.
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    inst = to_instance(n, random_covering_family(rng, n, rng.randint(1, 6)))
    data = write_scp(inst)
    assert io._scp_shaped(data)
    assert not io._scp_shaped(data + b" 1")
    data = mutated_file(rng)
    if not isinstance(_outcome(parse_scp, data), tuple):
        assert io._scp_shaped(data)


@given(family_strategy)
@settings(max_examples=100, deadline=None)
def test_scp_members_are_the_mask_bits(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    inst = to_instance(n, random_covering_family(rng, n, rng.randint(1, 10)))
    assert_members_are_the_mask_bits(parse_scp(write_scp(inst)))


def test_scp_row_naming_a_column_twice_keeps_distinct_members():
    data = b"2 2\n1 1\n3 1 2 1\n1 2\n"
    inst = parse_scp(data)
    assert inst.masks == (0b01, 0b11)
    assert member_lists(inst) == [[0], [0, 1]]
    assert member_lists(parse_scp(b"2 2\n1 1\n2 1 2\n1 2\n")) == [[0], [0, 1]]


@given(family_strategy)
@settings(max_examples=200, deadline=None)
def test_rail_members_are_the_listed_rows_unless_one_is_named_twice(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 20)
    columns = [
        rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 12))
    ]
    columns[0] = list(range(n))  # every row covered
    for rows in columns:
        kind = rng.random()
        if kind < 0.5:
            rows.sort()
        elif kind < 0.6:
            rows.insert(rng.randrange(len(rows) + 1), rng.choice(rows))  # a row twice
        # otherwise in the order drawn
    data = rail_bytes(n, columns)
    inst = parse_rail(data)
    assert inst.masks == reference_parse_rail(data).masks
    assert_members_are_the_mask_bits(inst)
    assert member_lists(inst) == [sorted(set(rows)) for rows in columns]


def scp_bytes(n, subsets, rng):
    """Scp bytes of the family in which some rows name a column twice."""
    lines = [f"{n} {len(subsets)}", " ".join(["1"] * len(subsets))]
    for e in range(n):
        cols = [sid + 1 for sid, s in enumerate(subsets) if e in s]
        for _ in range(rng.randint(0, 2)):
            cols.insert(rng.randrange(len(cols) + 1), rng.choice(cols))
        lines.append(" ".join(map(str, [len(cols)] + cols)))
    return ("\n".join(lines) + "\n").encode()


@given(family_strategy, st.booleans())
@settings(max_examples=200, deadline=None)
def test_every_instance_carries_its_member_arrays(seed, tie_rich):
    rng = random.Random(seed)
    if tie_rich:
        n, subsets = tie_rich_family(rng)
    else:
        n = rng.randint(1, 20)
        subsets = random_covering_family(rng, n, rng.randint(1, 10))
    want = [sorted(s) for s in subsets]
    built = to_instance(n, subsets)  # from masks alone
    columns = [rng.sample(sorted(s), len(s)) for s in subsets]
    for rows in columns:
        if rng.random() < 0.5:
            rows.sort()
        rows.insert(rng.randrange(len(rows) + 1), rng.choice(rows))  # a row twice
    for inst in (
        built,
        pickle.loads(pickle.dumps(built)),
        parse_scp(scp_bytes(n, subsets, rng)),
        parse_rail(rail_bytes(n, columns)),
    ):
        assert inst == built
        assert_members_are_the_mask_bits(inst)
        assert member_lists(inst) == want


def test_rail_path_never_decomposes_masks():
    # Every row has many columns, so nothing is forced: parse, reduce, split
    # and the row map read the rows each column lists, never a mask's bits.
    rng = random.Random(4)
    n = 60
    columns = [sorted(rng.sample(range(n), rng.randint(2, 10))) for _ in range(900)]
    data = rail_bytes(n, columns)
    decomposed = AssertionError("a mask was decomposed")
    with mock.patch.object(core, "iter_bits", side_effect=decomposed), \
            mock.patch.object(preprocess, "iter_bits", side_effect=decomposed):
        inst = parse_rail(data)
        report = reduce(inst)
        pieces, _ = split(report.residual, "grasp-uf")
        row_maps = [create_row_map(piece) for piece in pieces]
    assert report.forced == () and report.excluded
    assert report == reference_reduce(inst)
    for piece, row_map in zip(pieces, row_maps):
        from_masks = create_row_map(Instance(piece.n, piece.masks))
        assert (row_map.levels, row_map.coverers) == (from_masks.levels, from_masks.coverers)


@pytest.mark.parametrize("seed", range(4))
def test_generator_members_are_the_mask_bits(seed):
    # Dense enough draws leave no element to repair; sparse ones repair many.
    for density in (0.02, 0.5):
        assert_members_are_the_mask_bits(
            generate_segmentable(GeneratorConfig(n=200, m=60, groups=5, density=density, seed=seed))
        )
