"""Self-healing reproduction: recovery time and client impact.

Not a paper figure — validates the online recovery subsystem: killing an
OSD mid-workload must heal through the fabric (PG_LIST/PULL/PUSH) while
the client keeps reading and writing with zero hard-failures, and a
revived OSD must be backfilled without resurrecting stale data.
"""

from repro.bench.recovery import DELTA_SCENARIO, SCENARIOS, exp_recovery, run_recovery_scenario


def test_recovery_self_healing(report):
    result = exp_recovery(smoke=True)
    report(result)
    rows = {r[0]: r for r in result.rows}
    for name, row in rows.items():
        # Availability: zero client hard-failures while the cluster heals.
        assert row[8] == 0, f"{name}: {row[8]} client hard-failures"
        # Integrity: byte-identical reads and a clean deep scrub.
        assert row[11] == "y", f"{name}: scrub dirty or reads diverged"
        # Every recovery byte moved through the fabric.
        assert row[3] > 0, f"{name}: no recovery bytes pushed"
    # Revive doubles the work (backfill out, then backfill back).
    assert rows["rep-kill1-revive"][4] > rows["rep-kill1"][4]
    assert rows["ec-kill1-revive"][4] > rows["ec-kill1"][4]
    # The revive path trims the strays left on remapped members.
    assert rows["rep-kill1-revive"][6] > 0
    assert "throttle sweep" in result.notes
    assert "delta recovery" in result.notes


def test_delta_recovery_vs_full_backfill():
    """A power-cycled (WAL-replaying) OSD rejoins with log-based delta
    recovery: only the ops missed during the outage move, measurably
    fewer bytes than the wipe-and-backfill path on the same schedule."""

    def _run():
        delta = run_recovery_scenario(DELTA_SCENARIO, seed=0, nobjects=12)
        full = run_recovery_scenario(SCENARIOS[1], seed=0, nobjects=12)
        return delta, full

    delta, full = _run()
    # The delta path still moves real bytes (outage-era writes)...
    assert delta.bytes_pushed > 0
    # ...but strictly fewer than the full backfill of the same OSD.
    assert delta.bytes_pushed < full.bytes_pushed, (
        f"delta recovery pushed {delta.bytes_pushed} bytes, "
        f"full backfill only {full.bytes_pushed}"
    )
    # Same availability/integrity invariants as the wipe path.
    assert delta.client_failures == 0
    assert delta.read_mismatches == 0
    assert delta.scrub_clean
    assert delta.unrecoverable == 0
