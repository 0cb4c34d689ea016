"""The verifier's acceptance contract: healthy states verify clean, and
every planted corruption is flagged with exactly its invariant ID."""

import pytest

from repro.verify import (
    ALL_INVARIANTS,
    INVARIANTS,
    PLANTED,
    snapshot_control_plane,
    snapshot_testbed,
    verify_control_plane,
    verify_snapshot,
    verify_testbed,
)


class TestHealthyStateVerifiesClean:
    def test_testbed_vantage_clean(self, parta_testbed):
        tb, _svc = parta_testbed
        report = verify_testbed(tb)
        assert report.ok, report.to_text()
        assert report.classes_checked > 0
        assert report.rules_checked > 0
        assert report.switches_checked == 1

    def test_control_plane_vantage_clean(self, parta_testbed):
        tb, _svc = parta_testbed
        report = verify_control_plane(tb.manager, tb.controller)
        assert report.ok, report.to_text()

    def test_snapshot_is_pure(self, parta_testbed):
        """Snapshotting twice without running the sim yields equal values."""
        tb, _svc = parta_testbed
        first = snapshot_testbed(tb)
        second = snapshot_testbed(tb)
        assert first.switches == second.switches
        assert first.hosts == second.hosts
        assert first.control == second.control
        lookups_before = tb.switch.table.lookups
        snapshot_testbed(tb)
        assert tb.switch.table.lookups == lookups_before


class TestPlantedViolations:
    @pytest.fixture(scope="class")
    def healthy_snapshot(self, parta_testbed):
        tb, _svc = parta_testbed
        snapshot = snapshot_testbed(tb)
        assert verify_snapshot(snapshot).ok
        return snapshot

    @pytest.mark.parametrize(
        "name,mutate,expected",
        PLANTED, ids=[name for name, _m, _e in PLANTED])
    def test_plant_flagged_with_exact_invariant(self, healthy_snapshot,
                                                name, mutate, expected):
        report = verify_snapshot(mutate(healthy_snapshot))
        flagged = sorted(set(v.invariant for v in report.violations))
        assert flagged == [expected], (
            f"{name}: expected only {expected}, got {flagged}:\n"
            f"{report.to_text()}")

    def test_all_invariants_covered_by_plants(self):
        planted_ids = set(expected for _n, _m, expected in PLANTED)
        assert planted_ids == set(ALL_INVARIANTS)

    def test_invariant_selection_masks_findings(self, healthy_snapshot):
        """Restricting the invariant set silences other violations."""
        name, mutate, expected = PLANTED[0]
        mutated = mutate(healthy_snapshot)
        others = tuple(i for i in ALL_INVARIANTS if i != expected)
        assert verify_snapshot(mutated, invariants=others).ok
        assert not verify_snapshot(mutated, invariants=(expected,)).ok
        scoped = verify_snapshot(mutated, invariants=("V2", "V1"))
        assert scoped.invariants == ("V1", "V2")

    def test_relaxed_cookies_tolerate_booked_cookie_without_flow(
            self, healthy_snapshot):
        """A booked cookie no switch carries is V4 only in strict mode;
        the relaxed mode (the sanitizer's post-resync hook) lets it pass."""
        mutate = {n: m for n, m, _e in PLANTED}["stale-cookie"]
        mutated = mutate(healthy_snapshot)
        strict = verify_snapshot(mutated, strict_cookies=True)
        assert {v.invariant for v in strict.violations} == {"V4"}
        relaxed = verify_snapshot(mutated, strict_cookies=False)
        assert relaxed.ok, relaxed.to_text()


class TestReport:
    def test_text_report_shape(self, parta_testbed):
        tb, _svc = parta_testbed
        report = verify_testbed(tb)
        text = report.to_text()
        assert "OK" in text and "header classes" in text

    def test_violations_are_sorted_and_deduped(self, parta_testbed):
        tb, _svc = parta_testbed
        snapshot = snapshot_testbed(tb)
        _name, mutate, _expected = PLANTED[0]
        report = verify_snapshot(mutate(snapshot))
        assert list(report.violations) == sorted(set(report.violations))

    def test_invariant_catalogue(self):
        assert tuple(sorted(INVARIANTS)) == ALL_INVARIANTS
        for description in INVARIANTS.values():
            assert description.strip()


class TestControlPlaneVantage:
    def test_cluster_attachments_survive_crash_view(self, parta_testbed):
        """After on_crash the learned host table is empty, but cluster
        attachment configuration still anchors delivery ports — the
        control-plane snapshot must include them (a reconciled redirect is
        not a blackhole just because no packet re-taught the host)."""
        tb, _svc = parta_testbed
        snapshot = snapshot_control_plane(tb.manager, tb.controller)
        for attachment in tb.controller.cluster_attachments.values():
            assert snapshot.host_at(attachment.dpid, attachment.port_no)
