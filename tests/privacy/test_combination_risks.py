"""Risks computed once per (group, QI combination) equal the per-row reference.

Tuples sharing a QI combination share their kernel prior, so inside one
group they share their Omega posterior and knowledge gain.  ``group_risks``,
``tuple_disclosure_risks`` and the skyline audit evaluate each distinct pair
once; these tests pin them to the per-row pass (``tests/omega_reference.py``)
within 1e-12 for every distance measure, on a table whose combinations hold
several rows each, with overlapping candidate groups and with priors
injected without a combination index.
"""

import numpy as np
import pytest
from omega_reference import group_risks_rows, tuple_risks_rows

from repro.audit.engine import SkylineAuditEngine
from repro.data.table import MicrodataTable
from repro.exceptions import InferenceError, PrivacyModelError
from repro.knowledge.prior import PriorBeliefs, kernel_prior
from repro.obs.tracing import Tracer
from repro.privacy.disclosure import tuple_disclosure_risks
from repro.privacy.measures import (
    HierarchicalEMD,
    JSDivergence,
    KLDivergence,
    sensitive_distance_measure,
)
from repro.privacy.models import BTPrivacy

COARSE_QIS = ["Workclass", "Race", "Gender"]


@pytest.fixture(scope="module")
def coarse(small_adult):
    """A 1 000-row table over three categorical QIs: few combinations, many rows each."""
    names = COARSE_QIS + [small_adult.sensitive_name]
    schema = small_adult.schema.subset(names)
    return MicrodataTable.from_columns(schema, {name: small_adult.column(name) for name in names})


@pytest.fixture(scope="module")
def coarse_priors(coarse):
    return kernel_prior(coarse, 0.3)


def _measures(table):
    domain = table.sensitive_domain()
    taxonomy = domain.attribute.taxonomy
    return {
        "smoothed-js": sensitive_distance_measure(table, bandwidth=0.8),
        "js": JSDivergence(),
        "hierarchical-emd": HierarchicalEMD(taxonomy, [str(v) for v in domain.values.tolist()]),
        "kl": KLDivergence(),
    }


def _candidate_groups(n, rng):
    """Overlapping alternatives: the whole table, a split's halves, random subsets."""
    everything = np.arange(n)
    halves = [everything[: n // 2], everything[n // 2 :]]
    subsets = [np.sort(rng.choice(n, size=int(size), replace=False)) for size in (3, 40, 200, 611)]
    return [everything, *halves, *subsets]


def _partition(n, rng):
    order = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), size=25, replace=False))
    return [np.sort(group) for group in np.split(order, cuts)]


def test_coarse_table_has_repeated_combinations(coarse_priors):
    index = coarse_priors.index
    assert not index.identity
    assert index.n_combinations < coarse_priors.n_rows // 5
    assert index.multiplicity.sum() == coarse_priors.n_rows
    np.testing.assert_array_equal(coarse_priors.matrix, coarse_priors.combinations[index.combo_of_row])


@pytest.mark.parametrize("measure_name", ["smoothed-js", "js", "hierarchical-emd", "kl"])
def test_group_risks_match_per_row_reference(coarse, coarse_priors, measure_name):
    measure = _measures(coarse)[measure_name]
    codes = coarse.sensitive_codes()
    groups = _candidate_groups(coarse.n_rows, np.random.default_rng(3))
    model = BTPrivacy(0.3, 0.3, measure=measure)
    model.set_priors(coarse_priors, codes, coarse.sensitive_domain().size)
    risks = model.group_risks(groups)
    reference = group_risks_rows(coarse_priors, codes, groups, measure)
    np.testing.assert_allclose(risks, reference, rtol=0, atol=1e-12)
    assert model.risk_combinations < model.risk_rows


@pytest.mark.parametrize("measure_name", ["smoothed-js", "js", "hierarchical-emd", "kl"])
def test_tuple_risks_match_per_row_reference(coarse, coarse_priors, measure_name):
    measure = _measures(coarse)[measure_name]
    codes = coarse.sensitive_codes()
    groups = _partition(coarse.n_rows, np.random.default_rng(4))
    risks = tuple_disclosure_risks(coarse_priors, codes, groups, measure)
    reference = tuple_risks_rows(coarse_priors, codes, groups, measure)
    np.testing.assert_allclose(risks, reference, rtol=0, atol=1e-12)
    chunked = tuple_disclosure_risks(coarse_priors, codes, groups, measure, chunk_rows=97)
    np.testing.assert_allclose(chunked, reference, rtol=0, atol=1e-12)


def test_injected_priors_without_an_index_give_the_same_risks(coarse, coarse_priors):
    codes = coarse.sensitive_codes()
    groups = _candidate_groups(coarse.n_rows, np.random.default_rng(5))
    indexed = BTPrivacy(0.3, 0.3)
    indexed.prepare(coarse)
    per_row = BTPrivacy(0.3, 0.3, measure=indexed.measure)
    flat = PriorBeliefs(matrix=coarse_priors.matrix.copy())
    assert flat.index.identity
    per_row.set_priors(flat, codes, coarse.sensitive_domain().size)
    np.testing.assert_allclose(
        indexed.group_risks(groups), per_row.group_risks(groups), rtol=0, atol=1e-12
    )
    assert per_row.risk_combinations == per_row.risk_rows


def test_risk_counters_count_rows_and_distinct_pairs(coarse, coarse_priors):
    model = BTPrivacy(0.3, 0.3)
    model.prepare(coarse)
    model.set_priors(coarse_priors, coarse.sensitive_codes(), coarse.sensitive_domain().size)
    combo = coarse_priors.index.combo_of_row
    first = np.arange(0, 60)
    second = np.arange(30, 100)
    model.group_risks([first, second])
    assert model.risk_evaluations == 2
    assert model.risk_rows == 130
    expected = np.unique(combo[first]).size + np.unique(combo[second]).size
    assert model.risk_combinations == expected
    model.group_risks([first])  # memo hit: nothing evaluated
    assert (model.risk_rows, model.risk_combinations) == (130, expected)


def test_group_risk_rejects_out_of_range_indices(tiny_adult):
    model = BTPrivacy(0.3, 0.25)
    model.prepare(tiny_adult)
    with pytest.raises(PrivacyModelError, match="must lie in"):
        model.group_risk(np.array([-1, 1, 2]))
    with pytest.raises(PrivacyModelError, match="must lie in"):
        model.group_risk(np.array([tiny_adult.n_rows]))
    assert model.group_risk(np.array([0, 1, 2])) >= 0.0


def test_tuple_risks_reject_a_repeated_index(coarse, coarse_priors):
    measure = sensitive_distance_measure(coarse)
    with pytest.raises(InferenceError, match="more than once"):
        tuple_disclosure_risks(
            coarse_priors, coarse.sensitive_codes(), [np.array([0, 0, 1])], measure
        )


def test_audit_spans_report_rows_and_combinations(coarse):
    groups = _partition(coarse.n_rows, np.random.default_rng(6))
    engine = SkylineAuditEngine(coarse, [(0.3, 0.3), (0.5, 0.3)])
    tracer = Tracer()
    with tracer.activate(), tracer.span("test"):
        report = engine.audit(groups)
    spans = [span for span in tracer.take_root().walk() if span.name == "engine.adversary"]
    index = engine.priors[0].index
    pairs = sum(np.unique(index.combo_of_row[group]).size for group in groups)
    assert [span.attributes["rows"] for span in spans] == [coarse.n_rows] * 2
    assert [span.attributes["combinations"] for span in spans] == [pairs] * 2
    for entry, priors in zip(report.entries, engine.priors):
        reference = tuple_risks_rows(priors, coarse.sensitive_codes(), groups, engine.measure)
        np.testing.assert_allclose(entry.attack.risks, reference, rtol=0, atol=1e-12)
