"""Tests for the FPGA substrate: resources, QDMA, accelerators, DFX, power."""

import pytest

from repro.errors import FpgaError, ReconfigurationError, ResourceOverflowError
from repro.fpga import (
    KERNEL_SPECS,
    PAPER_POWER_NO_PR_W,
    PAPER_POWER_WITH_PR_W,
    Accelerator,
    AlveoU280,
    Bitstream,
    Descriptor,
    DescriptorKind,
    DescriptorRing,
    DfxController,
    MAX_QUEUE_SETS,
    PcieLink,
    PowerModel,
    PowerReport,
    QdmaEngine,
    QueuePurpose,
    ReconfigurableModule,
    RegionLedger,
    ResourceVector,
    U280_SLR0,
    U280_TOTAL,
    build_deliba_k_rms,
    full_load_power,
    hls_variant,
    pr_verify,
    spec_by_name,
)
from repro.sim import Environment
from repro.units import us


# --- resources -----------------------------------------------------------------


def test_resource_vector_arithmetic():
    a = ResourceVector(lut=100, ff=200, bram=3)
    b = ResourceVector(lut=50, ff=50, uram=2)
    assert (a + b).lut == 150
    assert (a - b).ff == 150
    assert b.fits_in(a + b)
    assert not ResourceVector(lut=1000).fits_in(a)


def test_resource_utilization_percentages():
    used = ResourceVector(lut=130_000)
    pct = used.utilization_of(U280_TOTAL)
    assert pct["lut"] == pytest.approx(10.0)


def test_region_ledger_allocate_release():
    ledger = RegionLedger("r", ResourceVector(lut=100, ff=100))
    ledger.allocate("m1", ResourceVector(lut=60))
    with pytest.raises(ResourceOverflowError):
        ledger.allocate("m2", ResourceVector(lut=60))
    with pytest.raises(ResourceOverflowError):
        ledger.allocate("m1", ResourceVector(lut=1))
    ledger.release("m1")
    ledger.allocate("m2", ResourceVector(lut=60))
    with pytest.raises(ResourceOverflowError):
        ledger.release("m1")


def test_table3_static_kernels_fit_u280():
    """The three static kernels + infra must fit the chip with room."""
    device = AlveoU280()
    for name in ("straw", "straw2", "rs_encoder"):
        device.place_static(name, KERNEL_SPECS[name].resources)
    assert device.utilization()["lut"] < 50


def test_table3_percentages_match_paper():
    # Paper: Straw Bucket 6.2% LUTs, RS encoder 22.32% registers.
    straw_pct = KERNEL_SPECS["straw"].resources.utilization_of(U280_TOTAL)
    assert straw_pct["lut"] == pytest.approx(6.2, abs=0.3)
    rs_pct = KERNEL_SPECS["rs_encoder"].resources.utilization_of(U280_TOTAL)
    assert rs_pct["ff"] == pytest.approx(22.32, abs=1.0)
    # RM rows are relative to SLR0.
    rm3 = KERNEL_SPECS["uniform"].resources.utilization_of(U280_SLR0)
    assert rm3["lut"] == pytest.approx(17.59, abs=0.3)


# --- accelerators -------------------------------------------------------------------


def test_spec_lookup_and_validation():
    assert spec_by_name("straw").sloc_verilog == 880
    with pytest.raises(FpgaError):
        spec_by_name("nonexistent")
    with pytest.raises(FpgaError):
        spec_by_name("straw", impl="vhdl")


def test_hls_variant_slower():
    rtl = spec_by_name("straw2")
    hls = hls_variant(rtl)
    assert hls.cycles[1] > rtl.cycles[1]
    assert hls.vivado_latency_ns[0] > rtl.vivado_latency_ns[0]
    assert hls.impl == "hls"


def test_rtl_improvement_factors_match_paper():
    """RTL rework: ~38.61% fewer cycles, ~45.71% lower latency."""
    rtl = spec_by_name("tree")
    hls = hls_variant(rtl)
    assert 1 - rtl.cycles[1] / hls.cycles[1] == pytest.approx(0.3861, abs=0.01)
    assert 1 - rtl.vivado_latency_ns[0] / hls.vivado_latency_ns[0] == pytest.approx(0.4571, abs=0.01)


def test_compute_ns_single_item():
    spec = spec_by_name("straw")
    # 105 cycles at 235 MHz ~ 447 ns.
    assert 430 <= spec.compute_ns(1) <= 460


def test_compute_ns_pipelined_items():
    spec = spec_by_name("straw")
    # Pipelined: 1000 items cost ~ (105 + 999) cycles, far less than 1000x.
    assert spec.compute_ns(1000) < 1000 * spec.compute_ns(1) / 50


def test_accelerator_process_counts():
    env = Environment()
    accel = Accelerator(env, spec_by_name("uniform"))

    def proc(env):
        yield from accel.process(10)

    env.process(proc(env))
    env.run()
    assert accel.invocations == 1
    assert accel.items_processed == 10
    assert env.now > 0


def test_compute_ns_validation():
    with pytest.raises(FpgaError):
        spec_by_name("straw").compute_ns(0)


# --- descriptor rings ------------------------------------------------------------------


def test_descriptor_ring_post_fetch():
    ring = DescriptorRing(entries=8)
    for i in range(3):
        ring.post(Descriptor(DescriptorKind.H2C, 0, 0, 4096))
    assert len(ring) == 3
    fetched = ring.fetch(2)
    assert len(fetched) == 2
    assert len(ring) == 1


def test_descriptor_ring_full():
    ring = DescriptorRing(entries=2)
    ring.post(Descriptor(DescriptorKind.H2C, 0, 0, 1))
    ring.post(Descriptor(DescriptorKind.H2C, 0, 0, 1))
    assert ring.is_full
    with pytest.raises(FpgaError):
        ring.post(Descriptor(DescriptorKind.H2C, 0, 0, 1))


def test_descriptor_ring_wraps():
    ring = DescriptorRing(entries=4)
    for _ in range(20):
        ring.post(Descriptor(DescriptorKind.C2H, 0, 0, 1))
        ring.fetch(1)
    assert ring.is_empty


def test_descriptor_memory_budget():
    # 512-entry ring x 128 B = exactly the 64 kB budget from the paper.
    ring = DescriptorRing()
    assert ring.entries * 128 == 64 * 1024


def test_descriptor_validation():
    with pytest.raises(FpgaError):
        Descriptor(DescriptorKind.H2C, 0, 0, -1)
    with pytest.raises(FpgaError):
        DescriptorRing(entries=3)


# --- qdma ------------------------------------------------------------------------------


def make_qdma():
    env = Environment()
    qdma = QdmaEngine(env, PcieLink(env))
    return env, qdma


def test_qdma_queue_allocation_and_limit():
    env, qdma = make_qdma()
    q = qdma.allocate_queue(QueuePurpose.REPLICATION)
    assert q.qid == 0
    assert qdma.queues_in_use == 1
    qdma._next_qid = MAX_QUEUE_SETS
    qdma._queues = {i: None for i in range(MAX_QUEUE_SETS)}
    with pytest.raises(FpgaError):
        qdma.allocate_queue(QueuePurpose.ERASURE_CODING)


def test_qdma_sriov_function_binding():
    env, qdma = make_qdma()
    qdma.allocate_queue(QueuePurpose.REPLICATION, function=0)
    qdma.allocate_queue(QueuePurpose.REPLICATION, function=1)
    qdma.allocate_queue(QueuePurpose.ERASURE_CODING, function=1)
    assert len(qdma.queues_of_function(1)) == 2
    with pytest.raises(FpgaError):
        qdma.allocate_queue(QueuePurpose.REPLICATION, function=-1)


def test_qdma_h2c_transfer_timing():
    env, qdma = make_qdma()
    q = qdma.allocate_queue(QueuePurpose.REPLICATION)

    def proc(env):
        yield from qdma.h2c_transfer(q, 4096)

    env.process(proc(env))
    env.run()
    # Doorbell + descriptor fetch + DMA: single-digit microseconds.
    assert us(1) < env.now < us(10)
    assert q.descriptors_processed == 1
    assert q.bytes_moved == 4096


def test_qdma_c2h_posts_completion():
    env, qdma = make_qdma()
    q = qdma.allocate_queue(QueuePurpose.ERASURE_CODING)

    def proc(env):
        yield from qdma.c2h_transfer(q, 8192)

    env.process(proc(env))
    env.run()
    assert qdma.completions_posted == 1


def test_qdma_bus_width_scales_bandwidth():
    def transfer_time(bits):
        env = Environment()
        qdma = QdmaEngine(env, PcieLink(env), data_bus_bits=bits)
        q = qdma.allocate_queue(QueuePurpose.REPLICATION)

        def proc(env):
            yield from qdma.h2c_transfer(q, 1 << 20)

        env.process(proc(env))
        env.run()
        return env.now

    assert transfer_time(512) < transfer_time(256)


def test_qdma_validation():
    env = Environment()
    with pytest.raises(FpgaError):
        QdmaEngine(env, PcieLink(env), data_bus_bits=128)
    env, qdma = make_qdma()
    q = qdma.allocate_queue(QueuePurpose.REPLICATION)
    with pytest.raises(FpgaError):
        next(qdma.h2c_transfer(q, 0))
    with pytest.raises(FpgaError):
        qdma.queue(99)


def test_qdma_packet_length_limits():
    QdmaEngine.validate_packet(64)
    QdmaEngine.validate_packet(1518)
    QdmaEngine.validate_packet(9018, jumbo=True)
    with pytest.raises(FpgaError):
        QdmaEngine.validate_packet(63)
    with pytest.raises(FpgaError):
        QdmaEngine.validate_packet(1519)
    with pytest.raises(FpgaError):
        QdmaEngine.validate_packet(9019, jumbo=True)


# --- dfx -------------------------------------------------------------------------------


def make_dfx():
    env = Environment()
    device = AlveoU280()
    rp = build_deliba_k_rms(device)
    return env, device, rp, DfxController(env, device, rp)


def test_dfx_paper_modules_verify_clean():
    env, device, rp, ctrl = make_dfx()
    assert pr_verify(rp) == []
    assert set(rp.modules) == {"rm1_list", "rm2_tree", "rm3_uniform"}


def test_dfx_reconfigure_swaps_active():
    env, device, rp, ctrl = make_dfx()

    def proc(env):
        yield from ctrl.reconfigure("rm1_list")
        yield from ctrl.reconfigure("rm3_uniform")

    env.process(proc(env))
    env.run()
    assert rp.active == "rm3_uniform"
    assert ctrl.reconfigurations == 2
    # SLR0 only ever hosts one RM.
    assert list(device.ledger("slr0").allocations) == ["rm:rm3_uniform"]


def test_dfx_reconfig_time_is_bitstream_bound():
    env, device, rp, ctrl = make_dfx()
    t = ctrl.reconfiguration_ns("rm2_tree")
    # 25 MB over ~400 MB/s MCAP: tens of milliseconds.
    assert 10_000_000 < t < 200_000_000


def test_dfx_reload_same_rm_noop():
    env, device, rp, ctrl = make_dfx()

    def proc(env):
        yield from ctrl.reconfigure("rm1_list")
        before = env.now
        yield from ctrl.reconfigure("rm1_list")
        assert env.now == before

    env.process(proc(env))
    env.run()
    assert ctrl.reconfigurations == 1


def test_dfx_unknown_rm():
    env, device, rp, ctrl = make_dfx()
    with pytest.raises(ReconfigurationError):
        ctrl.reconfiguration_ns("rm9")
    with pytest.raises(ReconfigurationError):
        ctrl.active_accelerator()


def test_dfx_full_bitstream_rejected():
    env, device, rp, ctrl = make_dfx()
    with pytest.raises(ReconfigurationError):
        ReconfigurableModule(
            "bad", spec_by_name("list"), Bitstream("full.bit", partial=False, size_bytes=1)
        )


def test_pr_verify_flags_oversized_rm():
    env, device, rp, ctrl = make_dfx()
    rm = ReconfigurableModule(
        "huge",
        spec_by_name("list"),
        Bitstream("huge.bit", partial=True, size_bytes=1, target_rp="rp0"),
        resources=ResourceVector(lut=10_000_000),
    )
    rp.modules["huge"] = rm  # bypass register check to exercise pr_verify
    problems = pr_verify(rp)
    assert any("exceeds" in p for p in problems)


# --- power ------------------------------------------------------------------------------


def test_power_no_pr_matches_paper():
    model = PowerModel()
    accels = [KERNEL_SPECS[k].resources for k in KERNEL_SPECS]
    watts = full_load_power(model, accels)
    assert watts == pytest.approx(PAPER_POWER_NO_PR_W, abs=8)


def test_power_with_pr_matches_paper():
    model = PowerModel()
    # With DFX only one bucket RM is resident alongside the static kernels.
    resident = [KERNEL_SPECS[k].resources for k in ("straw", "straw2", "rs_encoder", "uniform")]
    watts = full_load_power(model, resident)
    assert watts == pytest.approx(PAPER_POWER_WITH_PR_W, abs=8)


def test_power_pr_saves_power():
    model = PowerModel()
    all_accels = [KERNEL_SPECS[k].resources for k in KERNEL_SPECS]
    one_rm = [KERNEL_SPECS[k].resources for k in ("straw", "straw2", "rs_encoder", "list")]
    assert full_load_power(model, all_accels) > full_load_power(model, one_rm) + 10


def test_power_report_breakdown():
    report = PowerReport(PowerModel())
    report.add_module("straw", KERNEL_SPECS["straw"].resources)
    breakdown = report.breakdown_w()
    assert "board_static" in breakdown and "qdma" in breakdown and "straw" in breakdown
    assert report.total_w() == pytest.approx(sum(breakdown.values()))
    report.remove_module("straw")
    assert "straw" not in report.breakdown_w()
