"""The batched CRUSH kernels equal their scalar counterparts bit for bit.

``repro.crush.batch`` recomputes a pool's round-0 descents in one NumPy
pass; every placement must stay byte-identical, so each kernel is
compared with the scalar code it replaces: exhaustively where the input
space is small (``crush_ln``), by seeded samples and edge values for the
hashes, and by property for buckets and descents.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crush import (
    BucketAlg,
    CrushMap,
    Mapper,
    PlacementEngine,
    Straw2Bucket,
    build_two_level_cluster,
    erasure_rule,
    hash32_2,
    hash32_3,
    replicated_rule,
)
from repro.crush import batch
from repro.crush.ln_table import crush_ln
from repro.crush.placement import pg_seed, pg_seeds
from repro.errors import CrushError

EDGES = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, -1, -2, -7, -(1 << 31))


def test_crush_ln_matches_scalar_on_every_input():
    got = batch.crush_ln(np.arange(65536, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == [crush_ln(u) for u in range(65536)]


def _triples():
    rng = random.Random(20)
    triples = [
        (rng.getrandbits(32), rng.getrandbits(32), rng.getrandbits(32)) for _ in range(2000)
    ]
    # Bucket ids are negative: straw2 hashes them as uint32.
    triples += [(rng.getrandbits(32), -rng.randint(1, 1 << 31), rng.randint(0, 400))
                for _ in range(500)]
    triples += [(a, b, c) for a in EDGES for b in EDGES for c in (0, 3, 0xFFFFFFFF)]
    return triples


def test_hash32_3_matches_scalar():
    triples = _triples()
    a, b, c = (np.array(col, dtype=np.int64) for col in zip(*triples))
    got = batch.hash32_3(a, b, c)
    assert got.dtype == np.uint32
    assert got.tolist() == [hash32_3(*t) for t in triples]


def test_hash32_2_matches_scalar_and_pg_seeds():
    triples = _triples()
    a, b = (np.array(col, dtype=np.int64) for col in list(zip(*triples))[:2])
    assert batch.hash32_2(a, b).tolist() == [hash32_2(x, y) for x, y, _ in triples]
    for pool_id in (0, 1, 7, 0xFFFFFFFF):
        assert pg_seeds(pool_id, 300).tolist() == [pg_seed(pool_id, pg) for pg in range(300)]


def test_hashes_broadcast_scalars_against_arrays():
    xs = np.arange(50, dtype=np.int64)
    got = batch.hash32_3(xs[:, None], np.array([[-3, 4, 0xFFFFFFFF]]), np.int64(2))
    assert got.shape == (50, 3)
    assert got.tolist() == [[hash32_3(x, b, 2) for b in (-3, 4, 0xFFFFFFFF)] for x in range(50)]


@given(
    st.lists(st.sampled_from([0, 1, 0x8000, 0x10000, 0x18000, 0x30000]), min_size=1,
             max_size=9),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
)
@example([0, 0, 0], 0)  # all draws tie: the first item wins
@example([0x10000, 0, 0x10000], 1)
@settings(max_examples=60, deadline=None)
def test_straw2_choose_matches_scalar(weights, salt):
    """Zero weights, ties of equal weights and a single item included."""
    bucket = Straw2Bucket(-4, [3 * i - 5 for i in range(len(weights))], weights)
    xs = (np.arange(200, dtype=np.int64) * 7919 + salt) & 0xFFFFFFFF
    rs = np.arange(200, dtype=np.int64) % 5
    got = batch.straw2_choose(bucket, xs.astype(np.uint32), rs.astype(np.uint32))
    assert got.tolist() == [bucket.choose(x, r) for x, r in zip(xs.tolist(), rs.tolist())]


def _scalar_descent(mapper, start, x, r, want_type):
    try:
        return mapper._descend(start, x, r, want_type)
    except CrushError:
        return None


@pytest.mark.parametrize("alg", list(BucketAlg), ids=lambda alg: alg.name.lower())
def test_descend_many_matches_scalar_descents(alg):
    cmap = CrushMap()
    hosts = []
    for h in range(3):
        devs = [cmap.add_device(f"osd.{h}.{d}", [1.0, 0.0, 2.0, 1.0][d]) for d in range(4)]
        weights = [0x10000] * 4 if alg == BucketAlg.UNIFORM else None
        hosts.append(cmap.add_bucket(alg, 1, devs, weights=weights))
    root = cmap.add_bucket(BucketAlg.STRAW2, 10, hosts)
    empty = cmap.add_bucket(alg, 1, [])  # a dead end
    mapper = Mapper(cmap)
    lanes = [(start, x, r) for start in (root, hosts[1], empty, 2)
             for x in range(0, 4000, 97) for r in (0, 1, 5)]
    for want in (0, 1, 10):
        got = batch.descend_many(cmap, *zip(*lanes), want)
        assert got == [_scalar_descent(mapper, s, x, r, want) for s, x, r in lanes]


def test_descend_many_leaves_raising_lanes_to_the_scalar_path():
    """An all-zero tree bucket raises in ``choose``: the batch answers
    None for its lanes instead of raising, and the scalar rule still
    raises exactly as before."""
    cmap = CrushMap()
    devs = [cmap.add_device(f"osd.{i}", 0.0) for i in range(3)]
    tree = cmap.add_bucket(BucketAlg.TREE, 1, devs)
    assert batch.descend_many(cmap, [tree] * 4, range(4), [0] * 4, 0) == [None] * 4
    eng = PlacementEngine(cmap)
    with pytest.raises(CrushError):
        eng.pg_to_osds(1, 0, 8, replicated_rule(tree), 2)


def _count_fills(monkeypatch, eng):
    fills = []
    fill = eng.mapper.fill_memo

    def counted(rule, xs, num_rep):
        fills.append((rule.rule_id, num_rep))
        fill(rule, xs, num_rep)

    monkeypatch.setattr(eng.mapper, "fill_memo", counted)
    return fills


def test_one_fill_per_pool_rule_and_size_per_epoch(monkeypatch):
    cmap, root = build_two_level_cluster(4, 4)
    eng = PlacementEngine(cmap)
    fills = _count_fills(monkeypatch, eng)
    rep, ec = replicated_rule(root, 1), erasure_rule(root, 0)
    for pg in range(16):
        eng.pg_to_osds(1, pg, 16, rep, 3)
        eng.pg_to_osds(1, pg, 16, rep, 3)  # hit: no CRUSH at all
    assert fills == [(rep.rule_id, 3)]
    eng.pg_to_osds(1, 0, 16, rep, 2)  # another size
    eng.pg_to_osds(2, 0, 16, rep, 3)  # another pool
    eng.pg_to_osds(1, 0, 16, ec, 4)  # another rule
    eng.pg_to_osds(1, 5, 16, ec, 4)
    assert fills == [(rep.rule_id, 3), (rep.rule_id, 2), (rep.rule_id, 3), (ec.rule_id, 4)]
    assert (eng.hits, eng.misses) == (16, 20)
    eng.invalidate()
    for pg in range(16):
        eng.pg_to_osds(1, pg, 16, rep, 3)
    assert fills[4:] == [(rep.rule_id, 3)]


def test_filled_lookups_skip_most_scalar_draws(monkeypatch):
    """The memo is used: after the fill, the scalar straw2 draws left are
    the collision retries, a small share of an unfilled mapper's."""
    cmap, root = build_two_level_cluster(8, 4)
    rule = replicated_rule(root, 1)
    draws = []
    choose = Straw2Bucket.choose

    def counted(bucket, x, r):
        draws.append(bucket.id)
        return choose(bucket, x, r)

    monkeypatch.setattr(Straw2Bucket, "choose", counted)
    expected = [Mapper(cmap).do_rule(rule, pg_seed(1, pg), 3) for pg in range(64)]
    unfilled = len(draws)
    draws.clear()
    eng = PlacementEngine(cmap)
    assert [eng.pg_to_osds(1, pg, 64, rule, 3) for pg in range(64)] == expected
    assert len(draws) * 5 < unfilled


def test_invalidate_drops_memoized_descents():
    """A weight change can turn a memoized descent into a raising one:
    after invalidate() the engine must raise like the scalar rule, not
    serve the descent memoized before the change."""
    cmap = CrushMap()
    devs = [cmap.add_device(f"osd.{i}", 1.0) for i in range(2)]
    host = cmap.add_bucket(BucketAlg.TREE, 1, devs)
    root = cmap.add_bucket(BucketAlg.STRAW2, 10, [host])
    rule = replicated_rule(root)
    eng = PlacementEngine(cmap)
    assert eng.pg_to_osds(1, 0, 8, rule, 1) == Mapper(cmap).do_rule(rule, pg_seed(1, 0), 1)
    for dev in devs:
        cmap.reweight_device(dev, 0.0)
    eng.invalidate()
    with pytest.raises(CrushError):
        Mapper(cmap).do_rule(rule, pg_seed(1, 1), 1)
    with pytest.raises(CrushError):
        eng.pg_to_osds(1, 1, 8, rule, 1)
