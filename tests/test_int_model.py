"""Every layer holds its family as plain int masks, equal to those of the
reference implementations in ``oracles.py``, and member arrays that hold
exactly the masks' bits."""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from segcover.core import iter_bits
from segcover.io import GeneratorConfig, generate_segmentable, parse_rail, parse_scp
from segcover.io import write_rail, write_scp
from segcover.mst import build_cograph, mst_bipartition
from segcover.preprocess import reduce
from segcover.segmentation import find_groups

from oracles import (
    assert_members_are_the_mask_bits,
    reference_find_groups,
    reference_parse_rail,
    reference_parse_scp,
    reference_reduce,
    tie_rich_family,
    to_instance,
)


def assert_int_masks(inst, expected):
    assert all(type(b) is int for b in inst.masks)
    assert (inst.n, inst.masks) == (expected.n, expected.masks)
    assert_members_are_the_mask_bits(inst)


def reference_side(inst, elements):
    """Subfamily and subinstance of one bipartition side, restricted member
    by member through Python sets."""
    local = {e: j for j, e in enumerate(elements)}
    restricted = [{local[e] for e in iter_bits(b) if e in local} for b in inst.masks]
    family = tuple(sid for sid, ms in enumerate(restricted) if ms)
    return family, to_instance(len(elements), [restricted[sid] for sid in family])


def _instance(seed):
    """A tie-rich family, or every other seed a segmentable one."""
    rng = random.Random(seed)
    if seed % 2:
        return to_instance(*tie_rich_family(rng))
    groups = rng.randint(1, 4)
    n = rng.randint(groups, 60)
    return generate_segmentable(
        GeneratorConfig(n=n, m=rng.randint(groups, 40), groups=groups, density=0.2, seed=seed)
    )


@given(st.integers(0, 100_000), st.booleans())
@settings(max_examples=150, deadline=None)
def test_every_layer_holds_reference_int_masks(seed, preprocess):
    inst = _instance(seed)
    for parse, reference_parse, write in (
        (parse_scp, reference_parse_scp, write_scp),
        (parse_rail, reference_parse_rail, write_rail),
    ):
        data = write(inst)
        assert_int_masks(parse(data), reference_parse(data))

    work = parse_scp(write_scp(inst))
    if preprocess:
        expected = reference_reduce(work).residual
        work = reduce(work).residual
        assert_int_masks(work, expected)

    seg = find_groups(work)
    expected_seg = reference_find_groups(work)
    assert len(seg.components) == len(expected_seg.components)
    for comp, expected_comp in zip(seg.components, expected_seg.components):
        assert_int_masks(comp.subinstance, expected_comp.subinstance)
        sub = comp.subinstance
        if sub.n < 2:
            continue
        bip = mst_bipartition(build_cograph(sub))
        for side in (bip.side1, bip.side2):
            family, expected_sub = reference_side(sub, side.element_ids)
            assert side.subfamily == family
            assert_int_masks(side.subinstance, expected_sub)
