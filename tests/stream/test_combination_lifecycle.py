"""Stream lifecycle on combination-level risks: append -> delete -> update -> resume.

The stream's backend rebuilds its QI-combination index after every
mutation; the maintained audit and the (B,t) checks run per (group,
combination) pair on it.  After every step the maintained risks must equal
a from-scratch audit, and every released group's (B,t) risk the per-row
reference (``tests/omega_reference.py``), within 1e-12.
"""

import numpy as np
from omega_reference import group_risks_rows

from repro.audit.engine import SkylineAuditEngine
from repro.data.adult import adult_schema, generate_adult
from repro.knowledge.prior import kernel_prior
from repro.privacy.models import BTPrivacy
from repro.stream import IncrementalPublisher

SEED_ROWS = 600
SKYLINE = [(0.1, 0.3), (0.3, 0.25)]


def _check(publisher, version):
    table = publisher.table
    groups = version.release.groups
    fresh = SkylineAuditEngine(table, SKYLINE).audit(groups)
    for entry, reference in zip(version.report.entries, fresh.entries):
        assert float(np.abs(entry.attack.risks - reference.attack.risks).max()) <= 1e-12
    model = BTPrivacy(0.3, 0.25)
    model.prepare(table)
    priors = kernel_prior(table, 0.3)
    reference = group_risks_rows(priors, table.sensitive_codes(), groups, model.measure)
    np.testing.assert_allclose(model.group_risks(groups), reference, rtol=0, atol=1e-12)
    assert np.all(reference <= 0.25 + 1e-12)


def test_lifecycle_with_resume_matches_scratch(tmp_path):
    full = generate_adult(SEED_ROWS + 300, seed=23)
    publisher = IncrementalPublisher(
        full.select(np.arange(SEED_ROWS)),
        BTPrivacy(0.3, 0.25),
        skyline=SKYLINE,
        k=4,
        store_path=tmp_path / "store",
    )
    _check(publisher, publisher.publish())
    rng = np.random.default_rng(41)
    _check(publisher, publisher.append(full.select(np.arange(SEED_ROWS, SEED_ROWS + 150))))
    removed = np.sort(rng.choice(publisher.table.n_rows, size=40, replace=False))
    _check(publisher, publisher.delete(removed))
    positions = np.sort(rng.choice(publisher.table.n_rows, size=25, replace=False))
    donors = rng.integers(0, publisher.table.n_rows, size=25)
    _check(publisher, publisher.update(positions, [publisher.table.row(int(d)) for d in donors]))
    del publisher

    resumed = IncrementalPublisher.resume(
        tmp_path / "store", schema=adult_schema(), model=BTPrivacy(0.3, 0.25)
    )
    _check(resumed, resumed.append(full.select(np.arange(SEED_ROWS + 150, SEED_ROWS + 300))))
