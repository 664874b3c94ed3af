"""Property tests for the client-side epoch-keyed placement cache.

The cache on :class:`repro.osd.client.RadosClient` memoizes the full
object -> PG -> acting-set path per OSDMap epoch.  Its contract:

* a cached answer is always identical to a freshly computed one against
  the current map (over random maps, pools, and object names);
* any epoch bump — device out/in, as driven by the OpPolicy failover
  refresh — invalidates every entry, so a stale acting set is never
  served; and
* hit/miss counters in the metrics registry reflect reality.

Under the client, :class:`repro.crush.PlacementEngine` memoizes a
pool's batched round-0 descents per epoch.  Its contract is exactness:
over random maps and rules it answers, hits and misses exactly like
unfilled scalar ``Mapper.do_rule`` calls behind the same PG cache.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crush import (
    BucketAlg,
    CrushMap,
    CrushRule,
    DeviceClass,
    Mapper,
    PlacementEngine,
    Step,
    StepOp,
    build_flat_cluster,
    pg_seed,
)
from repro.crush.types import WEIGHT_ONE
from repro.errors import CrushError
from repro.net.stack import KERNEL_TCP
from repro.net.topology import Network
from repro.osd.client import RadosClient
from repro.osd.fabric import Fabric
from repro.osd.osdmap import OSDMap
from repro.sim import Environment, MetricsRegistry


def make_client(num_osds, pg_num, size, metrics=None):
    env = Environment()
    net = Network(env)
    net.add_host("h0")
    fabric = Fabric(env, net)
    fabric.register("c0", "h0", KERNEL_TCP)
    cmap, root = build_flat_cluster(num_osds)
    osdmap = OSDMap(cmap)
    for i in range(num_osds):
        osdmap.register_osd(i, "h0")
    pool = osdmap.create_replicated_pool("p", pg_num, size, root)
    client = RadosClient(env, fabric, osdmap, "c0", metrics=metrics)
    return client, osdmap, pool


def fresh_placement(osdmap, pool, name):
    """Ground truth: a brand-new engine with no cache of any kind."""
    _pg, acting = PlacementEngine(osdmap.crush).object_to_osds(
        pool.pool_id, name, pool.pg_num, pool.rule, pool.size
    )
    # The client returns an immutable tuple (its cached entry must not
    # alias caller-visible state); compare values in the same shape.
    return tuple(acting)


PG_NUMS = st.sampled_from([8, 16, 32])
SIZES = st.integers(min_value=2, max_value=3)


@st.composite
def cluster_and_objects(draw):
    num_osds = draw(st.integers(min_value=4, max_value=12))
    pg_num = draw(PG_NUMS)
    size = draw(SIZES)
    names = draw(
        st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                min_size=1,
                max_size=12,
            ),
            min_size=1,
            max_size=8,
        )
    )
    return num_osds, pg_num, size, names


@given(cluster_and_objects())
@settings(max_examples=25, deadline=None)
def test_cached_placement_equals_fresh_computation(case):
    num_osds, pg_num, size, names = case
    client, osdmap, pool = make_client(num_osds, pg_num, size)
    for name in names:
        first = client.compute_placement(pool, name)
        again = client.compute_placement(pool, name)  # cache hit
        assert again == first
        assert not client.last_was_miss
        assert first == fresh_placement(osdmap, pool, name)


@given(cluster_and_objects(), st.data())
@settings(max_examples=25, deadline=None)
def test_epoch_bump_never_serves_stale_placement(case, data):
    """Interleave queries with OSD outs/ins (the same map mutations the
    OpPolicy failover refresh reacts to): after every bump the cache
    answer must match a fresh engine against the *current* map, and the
    client's cache epoch must track the map epoch."""
    num_osds, pg_num, size, names = case
    client, osdmap, pool = make_client(num_osds, pg_num, size)
    for name in names:
        client.compute_placement(pool, name)  # warm the cache
    downed = []
    steps = data.draw(st.integers(min_value=1, max_value=4))
    for _ in range(steps):
        can_down = len(downed) < num_osds - size
        if downed and (not can_down or data.draw(st.booleans())):
            osdmap.mark_up(downed.pop())
        elif can_down:
            osd = data.draw(
                st.sampled_from([i for i in range(num_osds) if i not in downed])
            )
            osdmap.mark_down(osd)
            downed.append(osd)
        for name in names:
            acting = client.compute_placement(pool, name)
            assert acting == fresh_placement(osdmap, pool, name)
            assert client._placement_epoch == osdmap.epoch
        for name in names:  # repeat queries inside the epoch are hits
            client.compute_placement(pool, name)
            assert not client.last_was_miss


def test_hit_miss_counters_track_cache_behavior():
    metrics = MetricsRegistry()
    client, osdmap, pool = make_client(8, 16, 3, metrics=metrics)
    hits = metrics.counter("client.placement_cache.hits")
    misses = metrics.counter("client.placement_cache.misses")
    names = [f"obj-{i}" for i in range(5)]
    for name in names:
        client.compute_placement(pool, name)
    assert (hits.value, misses.value) == (0, 5)
    for name in names:
        client.compute_placement(pool, name)
    assert (hits.value, misses.value) == (5, 5)
    osdmap.mark_down(0)  # epoch bump clears everything
    for name in names:
        client.compute_placement(pool, name)
    assert (hits.value, misses.value) == (5, 10)


def test_cache_key_separates_pools():
    client, osdmap, pool_a = make_client(8, 16, 3)
    cmap_root = osdmap.crush.roots()[0]
    pool_b = osdmap.create_replicated_pool("q", 8, 2, cmap_root)
    a = client.compute_placement(pool_a, "same-name")
    b = client.compute_placement(pool_b, "same-name")
    assert len(a) == 3 and len(b) == 2
    # Both entries live side by side and hit independently.
    assert client.compute_placement(pool_a, "same-name") == a
    assert client.compute_placement(pool_b, "same-name") == b
    assert not client.last_was_miss


# -- the engine's batched descent memo ------------------------------------------

DEVICE_WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0])
CLASSES = st.sampled_from([DeviceClass.SSD, DeviceClass.HDD])


@st.composite
def crush_maps(draw):
    """1 to 3 bucket levels over every bucket algorithm, with zero-weight
    devices and two device classes.  Returns (map, root, levels)."""
    cmap = CrushMap()
    levels = draw(st.integers(min_value=1, max_value=3))

    def subtree(type_id):
        n = draw(st.integers(min_value=1, max_value=4))
        if type_id == 1:
            items = [
                cmap.add_device(f"osd.{len(cmap.devices)}", draw(DEVICE_WEIGHTS), draw(CLASSES))
                for _ in range(n)
            ]
        else:
            items = [subtree(type_id - 1) for _ in range(n)]
        alg = draw(st.sampled_from(list(BucketAlg)))
        weights = None
        if alg == BucketAlg.UNIFORM:
            weights = [draw(st.sampled_from([0, WEIGHT_ONE // 2, WEIGHT_ONE]))] * n
        return cmap.add_bucket(alg, type_id, items, weights=weights)

    return cmap, subtree(levels), levels


@st.composite
def crush_rules(draw, cmap, root, levels, rule_id):
    """firstn/indep, choose/chooseleaf, sometimes a second choose step
    or a take below the root, sometimes a device class."""
    ops = st.sampled_from(
        [StepOp.CHOOSE_FIRSTN, StepOp.CHOOSE_INDEP, StepOp.CHOOSELEAF_FIRSTN,
         StepOp.CHOOSELEAF_INDEP]
    )
    take = draw(st.one_of(st.just(root), st.sampled_from(sorted(cmap.buckets))))

    def choose():
        return Step(draw(ops), num=draw(st.sampled_from([0, 0, 1, 2, -1])),
                    type_id=draw(st.integers(min_value=0, max_value=levels - 1)))

    steps = [Step(StepOp.TAKE, arg=take), choose()]
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        steps.append(choose())
    device_class = draw(st.one_of(st.none(), CLASSES))
    return CrushRule(rule_id, f"r{rule_id}", tuple(steps) + (Step(StepOp.EMIT),), device_class)


def _outcome(fn):
    """A call's result, or its error: both paths must fail alike too (a
    hole an indep step leaves is no valid start for a second step)."""
    try:
        return fn()
    except (CrushError, KeyError) as exc:
        return type(exc), str(exc)


@given(crush_maps(), st.data())
@settings(max_examples=60, deadline=None)
def test_filling_engine_equals_unfilled_scalar_rules(case, data):
    """Lookups interleaved with device out/in/reweight (no invalidate
    needed: descents ignore reweights), bucket weight changes (followed
    by invalidate, as the engine requires) and bare invalidates."""
    cmap, root, levels = case
    pools = [
        (pool_id, data.draw(PG_NUMS), data.draw(crush_rules(cmap, root, levels, pool_id)),
         data.draw(st.integers(min_value=1, max_value=5)))
        for pool_id in range(1, data.draw(st.integers(min_value=1, max_value=2)) + 1)
    ]
    devices = st.sampled_from(sorted(cmap.devices))
    actions = data.draw(st.lists(st.one_of(
        st.tuples(st.just("lookup"), st.integers(0, len(pools) - 1), st.integers(0, 31)),
        st.tuples(st.just("out"), devices),
        st.tuples(st.just("in"), devices),
        st.tuples(st.just("reweight"), devices, st.sampled_from([0.25, 0.5, 0.9])),
        st.tuples(st.just("weight"), devices, DEVICE_WEIGHTS),
        st.tuples(st.just("invalidate")),
    ), min_size=1, max_size=40))
    eng = PlacementEngine(cmap)
    scalar = Mapper(cmap)  # never filled
    cache: dict = {}
    hits = misses = 0
    for action in actions:
        kind = action[0]
        if kind == "lookup":
            pool_id, pg_num, rule, size = pools[action[1]]
            pg = action[2] % pg_num
            key = (pool_id, pg, rule.rule_id, size)
            miss = key not in cache
            if miss:
                expected = _outcome(lambda: scalar.do_rule(rule, pg_seed(pool_id, pg), size))
            else:
                expected = cache[key]
            got = _outcome(lambda: eng.pg_to_osds(pool_id, pg, pg_num, rule, size))
            assert got == expected
            if isinstance(expected, list):
                cache[key] = expected
                hits, misses = hits + (not miss), misses + miss
                assert eng.last_was_miss == miss
            assert (eng.hits, eng.misses) == (hits, misses)
        elif kind == "out":
            cmap.mark_out(action[1])
        elif kind == "in":
            cmap.mark_in(action[1])
        elif kind == "reweight":
            cmap.set_reweight(action[1], action[2])
        else:
            if kind == "weight":
                cmap.reweight_device(action[1], action[2])
            eng.invalidate()
            cache.clear()
