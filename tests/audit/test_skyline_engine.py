"""The skyline audit engine must reproduce the per-adversary attack exactly."""

import numpy as np
import pytest

from repro.anonymize.anonymizer import anonymize
from repro.audit import SkylineAuditEngine, audit_skyline
from repro.exceptions import AuditError
from repro.knowledge.bandwidth import Bandwidth
from repro.knowledge.prior import kernel_prior
from repro.privacy.disclosure import BackgroundKnowledgeAttack
from repro.privacy.models import DistinctLDiversity

SKYLINE = ((0.1, 0.3), (0.3, 0.25), (0.5, 0.2))


@pytest.fixture(scope="module")
def release(audit_table):
    return anonymize(audit_table, DistinctLDiversity(3), k=3).release


@pytest.fixture(scope="module")
def audit_table():
    from repro.data.adult import generate_adult

    return generate_adult(400, seed=13)


@pytest.fixture(scope="module")
def loop_results(audit_table, release):
    return [
        BackgroundKnowledgeAttack(audit_table, b).attack(release.groups, t)
        for b, t in SKYLINE
    ]


@pytest.mark.parametrize("method", ["omega", "exact"])
def test_engine_matches_per_adversary_loop(audit_table, release, method):
    if method == "exact":
        # Exact inference is only affordable on the first few groups.
        groups = [g for g in release.groups if len(g) <= 8][:10]
    else:
        groups = release.groups
    loop = [
        BackgroundKnowledgeAttack(audit_table, b, method=method).attack(groups, t)
        for b, t in SKYLINE
    ]
    report = SkylineAuditEngine(audit_table, SKYLINE, method=method).audit(groups)
    for entry, reference in zip(report.entries, loop):
        np.testing.assert_allclose(entry.attack.risks, reference.risks, atol=1e-9)
        assert entry.attack.vulnerable_tuples == reference.vulnerable_tuples
        assert entry.attack.worst_case_risk == pytest.approx(reference.worst_case_risk)


def test_satisfied_flags_match_budgets(audit_table, release, loop_results):
    report = SkylineAuditEngine(audit_table, SKYLINE).audit(release.groups)
    for entry, (_, t) in zip(report.entries, SKYLINE):
        assert entry.satisfied == (entry.attack.worst_case_risk <= t + 1e-12)
        assert entry.margin == pytest.approx(t - entry.attack.worst_case_risk)
    assert report.satisfied == all(entry.satisfied for entry in report.entries)
    assert report.worst_entry().margin == min(e.margin for e in report.entries)


def test_chunked_audit_is_equivalent(audit_table, release):
    full = SkylineAuditEngine(audit_table, SKYLINE).audit(release.groups)
    chunked = SkylineAuditEngine(audit_table, SKYLINE, chunk_rows=17).audit(release.groups)
    for a, b in zip(full.entries, chunked.entries):
        np.testing.assert_allclose(a.attack.risks, b.attack.risks, atol=1e-12)


def test_multiprocessing_path_is_equivalent(audit_table, release):
    serial = SkylineAuditEngine(audit_table, SKYLINE).audit(release.groups)
    parallel = SkylineAuditEngine(audit_table, SKYLINE).audit(release.groups, processes=2)
    for a, b in zip(serial.entries, parallel.entries):
        np.testing.assert_allclose(a.attack.risks, b.attack.risks, atol=1e-12)
        assert a.attack.vulnerable_tuples == b.attack.vulnerable_tuples


def test_per_attribute_bandwidth_points(audit_table, release):
    names = list(audit_table.quasi_identifier_names)
    bandwidth = Bandwidth.split(names[:3], 0.2, names[3:], 0.5)
    report = SkylineAuditEngine(audit_table, [(bandwidth, 0.25)]).audit(release.groups)
    reference = BackgroundKnowledgeAttack(
        audit_table, 0.0, priors=kernel_prior(audit_table, bandwidth)
    ).attack(release.groups, 0.25)
    np.testing.assert_allclose(report.entries[0].attack.risks, reference.risks, atol=1e-9)
    assert np.isnan(report.entries[0].adversary.scalar_b)
    assert report.entries[0].as_dict()["b"] is None


def test_injected_priors_skip_estimation(audit_table, release):
    priors = [kernel_prior(audit_table, b) for b, _ in SKYLINE]
    engine = SkylineAuditEngine(audit_table, SKYLINE, priors=priors)
    assert engine.prepared
    report = engine.audit(release.groups)
    assert report.timings["prepare_seconds"] == 0.0


def test_engine_prepares_once_across_audits(audit_table, release):
    engine = SkylineAuditEngine(audit_table, SKYLINE)
    engine.audit(release.groups)
    first = engine.prepare_seconds
    engine.audit(release.groups[:5])
    assert engine.prepare_seconds == first


def test_report_summary_is_json_friendly(audit_table, release):
    import json

    report = SkylineAuditEngine(audit_table, SKYLINE).audit(release.groups)
    payload = report.summary()
    assert payload["skyline_size"] == len(SKYLINE)
    assert payload["groups"] == release.n_groups
    assert len(payload["adversaries"]) == len(SKYLINE)
    json.dumps(payload)  # must serialise without custom encoders
    text = report.render()
    assert "skyline audit" in text and "Adv(" in text


def test_one_call_helper(audit_table, release, loop_results):
    report = audit_skyline(audit_table, release.groups, SKYLINE)
    for entry, reference in zip(report.entries, loop_results):
        np.testing.assert_allclose(entry.attack.risks, reference.risks, atol=1e-9)


def test_configuration_errors(audit_table):
    with pytest.raises(AuditError, match="at least one"):
        SkylineAuditEngine(audit_table, [])
    with pytest.raises(AuditError, match="method"):
        SkylineAuditEngine(audit_table, SKYLINE, method="sampled")
    with pytest.raises(AuditError, match="align"):
        SkylineAuditEngine(audit_table, SKYLINE, priors=[None])
    with pytest.raises(AuditError, match="t must lie"):
        SkylineAuditEngine(audit_table, [(0.3, 1.5)])
    engine = SkylineAuditEngine(audit_table, SKYLINE)
    with pytest.raises(AuditError, match="processes"):
        engine.audit([np.array([0, 1])], processes=0)


def test_priors_accepted_as_generator(audit_table, release, loop_results):
    # A lazily-built priors iterable must not be silently exhausted into an
    # empty (and trivially "satisfied") audit.
    priors = (kernel_prior(audit_table, b) for b, _ in SKYLINE)
    engine = SkylineAuditEngine(audit_table, SKYLINE, priors=priors)
    report = engine.audit(release.groups)
    assert len(report.entries) == len(SKYLINE)
    for entry, reference in zip(report.entries, loop_results):
        np.testing.assert_allclose(entry.attack.risks, reference.risks, atol=1e-9)


# -- dirty-group (incremental) re-audit ---------------------------------------------


def test_audit_incremental_matches_full_audit():
    from repro.data.adult import generate_adult

    full = generate_adult(700, seed=13)
    previous_table = full.select(np.arange(600))
    previous_release = anonymize(previous_table, DistinctLDiversity(3), k=4).release
    previous_report = SkylineAuditEngine(previous_table, SKYLINE).audit(
        previous_release.groups
    )

    # Grow the release naively: appended rows join the last group, a few
    # groups are reused byte-for-byte.
    grown_groups = [group.copy() for group in previous_release.groups]
    grown_groups[-1] = np.sort(
        np.concatenate([grown_groups[-1], np.arange(600, 700, dtype=np.int64)])
    )
    engine = SkylineAuditEngine(full, SKYLINE)
    # Dirty rows: the appended block plus every row whose prior changed.
    previous_priors = SkylineAuditEngine(previous_table, SKYLINE).priors
    masks = []
    for before, after in zip(previous_priors, engine.priors):
        mask = np.ones(full.n_rows, dtype=bool)
        mask[:600] = (after.matrix[:600] != before.matrix).any(axis=1)
        masks.append(mask)
    incremental = engine.audit_incremental(
        grown_groups,
        previous_groups=previous_release.groups,
        previous_report=previous_report,
        dirty_rows=masks,
    )
    reference = SkylineAuditEngine(full, SKYLINE).audit(grown_groups)
    assert incremental.delta is not None
    for recomputed, entry, ref in zip(
        incremental.delta["recomputed_groups"], incremental.entries, reference.entries
    ):
        assert recomputed <= len(grown_groups)
        np.testing.assert_allclose(entry.attack.risks, ref.attack.risks, atol=1e-12)
        assert entry.attack.vulnerable_tuples == ref.attack.vulnerable_tuples
        assert entry.attack.worst_case_risk == pytest.approx(
            ref.attack.worst_case_risk, abs=1e-12
        )


def test_audit_incremental_validates_inputs():
    from repro.data.adult import generate_adult

    table = generate_adult(300, seed=13)
    release = anonymize(table, DistinctLDiversity(3), k=4).release
    engine = SkylineAuditEngine(table, SKYLINE)
    report = engine.audit(release.groups)
    with pytest.raises(AuditError, match="dirty"):
        engine.audit_incremental(
            release.groups,
            previous_groups=release.groups,
            previous_report=report,
            dirty_rows=[np.ones(table.n_rows, dtype=bool)],  # wrong arity
        )
    with pytest.raises(AuditError, match="cover"):
        engine.audit_incremental(
            release.groups,
            previous_groups=release.groups,
            previous_report=report,
            dirty_rows=np.ones(10, dtype=bool),
        )


def test_audit_incremental_rejects_repeated_previous_rows():
    # Two current rows mapped to one previous row would make a group look
    # like a previous group's image and keep its stale risks.
    from repro.data.adult import generate_adult

    table = generate_adult(300, seed=13)
    release = anonymize(table, DistinctLDiversity(3), k=4).release
    engine = SkylineAuditEngine(table, SKYLINE)
    report = engine.audit(release.groups)
    previous_of = np.arange(table.n_rows, dtype=np.int64)
    first = release.groups[0]
    previous_of[first[1]] = first[0]
    with pytest.raises(AuditError, match="two current rows"):
        engine.audit_incremental(
            release.groups,
            previous_groups=release.groups,
            previous_report=report,
            dirty_rows=np.zeros(table.n_rows, dtype=bool),
            previous_of=previous_of,
        )
