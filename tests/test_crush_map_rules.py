"""Tests for CrushMap, rules, and the placement engine."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crush import (
    CRUSH_ITEM_NONE,
    BucketAlg,
    CrushMap,
    CrushRule,
    Mapper,
    PlacementEngine,
    Step,
    StepOp,
    WEIGHT_ONE,
    build_flat_cluster,
    build_two_level_cluster,
    erasure_rule,
    object_to_pg,
    replicated_rule,
    stable_mod,
)
from repro.errors import CrushError


def make_cluster(n=12, alg=BucketAlg.STRAW2):
    return build_flat_cluster(n, alg=alg)


# --- map construction -------------------------------------------------------


def test_build_flat_cluster():
    cmap, root = make_cluster(8)
    assert len(cmap.devices) == 8
    assert cmap.weight_of(root) == 8 * WEIGHT_ONE
    assert cmap.roots() == [root]
    assert cmap.devices_under(root) == list(range(8))


def test_build_two_level_cluster_paper_testbed():
    cmap, root = build_two_level_cluster(2, 16)
    assert len(cmap.devices) == 32
    assert cmap.weight_of(root) == 32 * WEIGHT_ONE
    hosts = cmap.buckets[root].items
    assert len(hosts) == 2
    for h in hosts:
        assert len(cmap.devices_under(h)) == 16


def test_weight_mismatch_rejected():
    with pytest.raises(CrushError):
        build_flat_cluster(4, weights=[1.0, 2.0])


def test_reweight_propagates_to_root():
    cmap, root = make_cluster(4)
    cmap.reweight_device(0, 3.0)
    assert cmap.weight_of(root) == 6 * WEIGHT_ONE


def test_reweight_two_level_propagates():
    cmap, root = build_two_level_cluster(2, 2)
    cmap.reweight_device(0, 5.0)
    assert cmap.weight_of(root) == 8 * WEIGHT_ONE


def test_mark_out_in():
    cmap, _ = make_cluster(4)
    cmap.mark_out(2)
    assert cmap.devices[2].is_out
    cmap.mark_in(2)
    assert not cmap.devices[2].is_out


def test_set_reweight_validation():
    cmap, _ = make_cluster(4)
    with pytest.raises(CrushError):
        cmap.set_reweight(0, 1.5)


def test_unknown_device_errors():
    cmap, _ = make_cluster(2)
    with pytest.raises(CrushError):
        cmap.weight_of(99)
    with pytest.raises(CrushError):
        cmap.reweight_device(99, 1.0)


def test_item_single_parent_enforced():
    cmap = CrushMap()
    d = cmap.add_device("osd.0")
    cmap.add_bucket(BucketAlg.STRAW2, 1, [d], name="h0")
    with pytest.raises(CrushError):
        cmap.add_bucket(BucketAlg.STRAW2, 1, [d], name="h1")


def test_ancestors_chain():
    cmap, root = build_two_level_cluster(2, 2)
    chain = cmap.ancestors_of(0)
    assert chain[-1] == root
    assert len(chain) == 2


def test_add_and_remove_device():
    cmap, root = make_cluster(4)
    new = cmap.add_device("osd.new", 2.0)
    cmap.add_device_to_bucket(root, new)
    assert cmap.weight_of(root) == 6 * WEIGHT_ONE
    cmap.remove_item(new)
    assert cmap.weight_of(root) == 4 * WEIGHT_ONE


# --- rule validation ------------------------------------------------------------


def test_rule_must_start_with_take():
    with pytest.raises(CrushError):
        CrushRule(0, "bad", (Step(StepOp.EMIT),))


def test_rule_must_end_with_emit():
    with pytest.raises(CrushError):
        CrushRule(0, "bad", (Step(StepOp.TAKE, arg=-1),))


def test_take_unknown_bucket_raises():
    cmap, _ = make_cluster(2)
    rule = replicated_rule(-99)
    with pytest.raises(CrushError):
        Mapper(cmap).do_rule(rule, 1, 1)


def test_num_rep_validation():
    cmap, root = make_cluster(2)
    with pytest.raises(CrushError):
        Mapper(cmap).do_rule(replicated_rule(root), 1, 0)


# --- firstn placement -------------------------------------------------------------


def test_firstn_returns_distinct_devices():
    cmap, root = make_cluster(12)
    mapper = Mapper(cmap)
    rule = replicated_rule(root)
    for x in range(300):
        osds = mapper.do_rule(rule, x, 3)
        assert len(osds) == 3
        assert len(set(osds)) == 3
        assert all(o in cmap.devices for o in osds)


def test_firstn_deterministic():
    cmap, root = make_cluster(12)
    mapper = Mapper(cmap)
    rule = replicated_rule(root)
    a = [tuple(mapper.do_rule(rule, x, 3)) for x in range(100)]
    b = [tuple(mapper.do_rule(rule, x, 3)) for x in range(100)]
    assert a == b


def test_firstn_skips_out_devices():
    cmap, root = make_cluster(8)
    mapper = Mapper(cmap)
    rule = replicated_rule(root)
    cmap.mark_out(3)
    for x in range(200):
        osds = mapper.do_rule(rule, x, 3)
        assert 3 not in osds
        assert len(osds) == 3


def test_firstn_minimal_remap_on_out():
    """Marking one OSD out must only remap placements that used it."""
    cmap, root = make_cluster(10)
    mapper = Mapper(cmap)
    rule = replicated_rule(root)
    before = {x: mapper.do_rule(rule, x, 3) for x in range(500)}
    cmap.mark_out(7)
    after = {x: mapper.do_rule(rule, x, 3) for x in range(500)}
    for x in range(500):
        if 7 not in before[x]:
            assert before[x] == after[x], f"x={x} remapped without touching osd.7"
        else:
            assert 7 not in after[x]
            # surviving members stay, in order
            kept = [o for o in before[x] if o != 7]
            assert [o for o in after[x] if o in kept] == kept


def test_firstn_weight_proportionality():
    cmap, root = build_flat_cluster(4, weights=[1.0, 1.0, 2.0, 4.0])
    mapper = Mapper(cmap)
    rule = replicated_rule(root)
    counts = collections.Counter()
    n = 8000
    for x in range(n):
        counts[mapper.do_rule(rule, x, 1)[0]] += 1
    for dev, w in enumerate([1.0, 1.0, 2.0, 4.0]):
        expected = n * w / 8.0
        assert abs(counts[dev] - expected) / expected < 0.12, counts


def test_chooseleaf_spreads_across_hosts():
    cmap, root = build_two_level_cluster(4, 4)
    mapper = Mapper(cmap)
    rule = replicated_rule(root, fault_domain_type=1)
    for x in range(300):
        osds = mapper.do_rule(rule, x, 3)
        assert len(osds) == 3
        hosts = {cmap.parent_of(o) for o in osds}
        assert len(hosts) == 3, f"x={x}: replicas share a host: {osds}"


def test_chooseleaf_two_hosts_paper_testbed():
    # The paper's cluster has 2 servers; 2-way replication across hosts.
    cmap, root = build_two_level_cluster(2, 16)
    mapper = Mapper(cmap)
    rule = replicated_rule(root, fault_domain_type=1)
    for x in range(200):
        osds = mapper.do_rule(rule, x, 2)
        hosts = {cmap.parent_of(o) for o in osds}
        assert len(hosts) == 2


# --- indep placement ------------------------------------------------------------------


def test_indep_returns_exact_slots():
    cmap, root = make_cluster(12)
    mapper = Mapper(cmap)
    rule = erasure_rule(root)
    for x in range(200):
        osds = mapper.do_rule(rule, x, 6)
        assert len(osds) == 6
        real = [o for o in osds if o != CRUSH_ITEM_NONE]
        assert len(set(real)) == len(real)


def test_indep_rank_stability_on_failure():
    """EC shard identity: failing one OSD leaves other ranks in place.

    Exception (faithful to crush_choose_indep): a slot that itself placed
    via a collision retry can cascade when the colliding slot's device
    fails.  Placements untouched by the failed OSD must be bitwise stable;
    across placements that did use it, only a small fraction of surviving
    ranks may move.
    """
    cmap, root = make_cluster(12)
    mapper = Mapper(cmap)
    rule = erasure_rule(root)
    before = {x: mapper.do_rule(rule, x, 6) for x in range(300)}
    cmap.mark_out(5)
    after = {x: mapper.do_rule(rule, x, 6) for x in range(300)}
    moved = total = 0
    for x in range(300):
        if 5 not in before[x]:
            assert before[x] == after[x], f"x={x} remapped without touching osd.5"
            continue
        for rank, (b, a) in enumerate(zip(before[x], after[x])):
            if b != 5:
                total += 1
                moved += a != b
    assert moved / total < 0.10, f"{moved}/{total} surviving ranks moved"


def test_indep_insufficient_devices_leaves_holes():
    cmap, root = make_cluster(4)
    mapper = Mapper(cmap)
    rule = erasure_rule(root)
    osds = mapper.do_rule(rule, 1, 6)
    assert len(osds) == 6
    assert osds.count(CRUSH_ITEM_NONE) >= 2


# --- placement engine -------------------------------------------------------------------


def test_stable_mod_basics():
    # b=12, bmask=15
    for x in range(200):
        v = stable_mod(x, 12, 15)
        assert 0 <= v < 12


def test_object_to_pg_range():
    for pg_num in (1, 8, 12, 100, 128):
        for i in range(100):
            assert 0 <= object_to_pg(f"obj{i}", pg_num) < pg_num


def test_pg_split_stability():
    """Doubling pg_num must only split PGs (objects stay or move to pg+old)."""
    moved, stayed = 0, 0
    for i in range(2000):
        a = object_to_pg(f"o{i}", 64)
        b = object_to_pg(f"o{i}", 128)
        assert b == a or b == a + 64
        moved += b != a
        stayed += b == a
    assert moved > 0 and stayed > 0


def test_placement_engine_caches_and_invalidates():
    cmap, root = make_cluster(8)
    eng = PlacementEngine(cmap)
    rule = replicated_rule(root)
    a = eng.pg_to_osds(1, 5, 64, rule, 3)
    assert eng.pg_to_osds(1, 5, 64, rule, 3) is a  # cached
    cmap.mark_out(a[0])
    eng.invalidate()
    b = eng.pg_to_osds(1, 5, 64, rule, 3)
    assert b is not a
    assert a[0] not in b


def test_placement_engine_object_roundtrip():
    cmap, root = make_cluster(8)
    eng = PlacementEngine(cmap)
    rule = replicated_rule(root)
    pg, osds = eng.object_to_osds(1, "rbd_data.1.0", 64, rule, 3)
    assert 0 <= pg < 64
    assert len(osds) == 3


def test_primary_of_skips_holes():
    assert PlacementEngine.primary_of([CRUSH_ITEM_NONE, 4, 5]) == 4
    assert PlacementEngine.primary_of([CRUSH_ITEM_NONE]) is None


@given(st.integers(min_value=2, max_value=24), st.integers(min_value=0, max_value=5000))
@settings(max_examples=40, deadline=None)
def test_firstn_always_valid_devices(n, x):
    cmap, root = build_flat_cluster(n)
    mapper = Mapper(cmap)
    rule = replicated_rule(root)
    osds = mapper.do_rule(rule, x, min(3, n))
    assert len(set(osds)) == len(osds)
    for o in osds:
        assert o in cmap.devices
