"""Tests for CRUSH device-class rules."""

from repro.crush import BucketAlg, erasure_rule, replicated_rule


# --- device-class rules -------------------------------------------------------


def _mixed_media_cluster():
    from repro.crush import CrushMap, DeviceClass

    cmap = CrushMap()
    cmap.register_type(10, "root")
    ssds = [cmap.add_device(f"ssd.{i}", 1.0, DeviceClass.SSD) for i in range(4)]
    smrs = [cmap.add_device(f"smr.{i}", 1.0, DeviceClass.SMR) for i in range(4)]
    root = cmap.add_bucket(BucketAlg.STRAW2, 10, ssds + smrs, name="root")
    return cmap, root, set(ssds), set(smrs)


def test_class_rule_places_only_on_matching_devices():
    from repro.crush import DeviceClass, Mapper

    cmap, root, ssds, smrs = _mixed_media_cluster()
    ssd_rule = replicated_rule(root, device_class=DeviceClass.SSD, rule_id=5, name="ssd-only")
    smr_rule = replicated_rule(root, device_class=DeviceClass.SMR, rule_id=6, name="smr-only")
    mapper = Mapper(cmap)
    for x in range(200):
        assert set(mapper.do_rule(ssd_rule, x, 2)) <= ssds
        assert set(mapper.do_rule(smr_rule, x, 2)) <= smrs


def test_class_rule_indep_mode():
    from repro.crush import CRUSH_ITEM_NONE, DeviceClass, Mapper

    cmap, root, ssds, _ = _mixed_media_cluster()
    rule = erasure_rule(root, device_class=DeviceClass.SSD, rule_id=7)
    mapper = Mapper(cmap)
    for x in range(100):
        placed = [o for o in mapper.do_rule(rule, x, 3) if o != CRUSH_ITEM_NONE]
        assert set(placed) <= ssds


def test_unclassed_rule_uses_everything():
    from repro.crush import Mapper

    cmap, root, ssds, smrs = _mixed_media_cluster()
    mapper = Mapper(cmap)
    seen = set()
    for x in range(300):
        seen.update(mapper.do_rule(replicated_rule(root), x, 2))
    assert seen == ssds | smrs
