"""Tests for partitions, generalized groups and the release container."""

import numpy as np
import pytest

from repro.anonymize.partition import AnonymizedRelease, GeneralizedValue, generalize_group
from repro.data.examples import table_i_groups
from repro.exceptions import AnonymizationError


@pytest.fixture()
def release(patients):
    return AnonymizedRelease(patients, table_i_groups(), method="paper-table-1b")


def test_generalize_group_matches_table_ib(patients):
    """The first group of Table I(b) generalizes to Age [45,69], Sex *."""
    group = generalize_group(patients, np.array([0, 1, 2]))
    by_name = group.generalized_by_name()
    assert by_name["Age"].low == 45.0
    assert by_name["Age"].high == 69.0
    assert str(by_name["Age"]) == "[45,69]"
    assert set(by_name["Sex"].values) == {"M", "F"}
    assert sorted(group.sensitive_values) == ["Cancer", "Emphysema", "Flu"]


def test_generalize_group_single_valued_categorical(patients):
    group = generalize_group(patients, np.array([3, 4, 5]))
    by_name = group.generalized_by_name()
    assert str(by_name["Sex"]) == "F"
    assert by_name["Age"].low == 42.0 and by_name["Age"].high == 47.0


def test_generalize_empty_group_rejected(patients):
    with pytest.raises(AnonymizationError):
        generalize_group(patients, np.array([], dtype=int))


def test_generalized_value_rendering():
    assert str(GeneralizedValue("Age", low=30.0, high=30.0)) == "30"
    assert str(GeneralizedValue("Age", low=30.0, high=40.0)) == "[30,40]"
    assert str(GeneralizedValue("Sex", values=("M",))) == "M"
    assert str(GeneralizedValue("Sex", values=("F", "M"))) == "{F,M}"
    assert str(GeneralizedValue("Work", label="Government", values=("Federal", "State"))) == "Government"


def test_release_basic_accessors(patients, release):
    assert release.table is patients
    assert release.n_groups == 3
    assert release.method == "paper-table-1b"
    assert release.group_sizes().tolist() == [3, 3, 3]
    assert release.average_group_size() == pytest.approx(3.0)


def test_release_group_of_tuples(release):
    assignment = release.group_of_tuples()
    assert assignment.tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]


def test_release_rejects_overlapping_groups(patients):
    with pytest.raises(AnonymizationError):
        AnonymizedRelease(patients, [np.array([0, 1]), np.array([1, 2])])


def test_release_rejects_tuple_repeated_within_a_group(patients):
    # Tuple 0 twice in one group (and every other tuple once) used to pass.
    others = np.arange(1, patients.n_rows)
    with pytest.raises(AnonymizationError, match="overlap"):
        AnonymizedRelease(patients, [np.array([0, 0, 1]), others[1:]])


def test_release_rejects_partial_cover(patients):
    with pytest.raises(AnonymizationError):
        AnonymizedRelease(patients, [np.array([0, 1, 2])])


def test_release_rejects_out_of_range_indices(patients):
    with pytest.raises(AnonymizationError):
        AnonymizedRelease(patients, [np.array([0, 99])])


def test_release_rejects_empty_partition(patients):
    with pytest.raises(AnonymizationError):
        AnonymizedRelease(patients, [])


def test_generalized_rows_cover_all_tuples(patients, release):
    rows = release.generalized_rows()
    assert len(rows) == patients.n_rows
    # Tuple 0 (Bob) sits in the first group of Table I(b).
    assert rows[0]["Age"] == "[45,69]"
    assert rows[0]["Disease"] in {"Emphysema", "Cancer", "Flu"}
    # Every row has all attributes.
    for row in rows:
        assert set(row) == {"Age", "Sex", "Disease"}


def test_generalized_rows_keep_sensitive_multiset(patients, release):
    rows = release.generalized_rows()
    published = sorted(row["Disease"] for row in rows)
    original = sorted(str(v) for v in patients.sensitive_values())
    assert published == original


def test_bucketized_tables(patients, release):
    qit, st = release.bucketized_tables()
    assert len(qit) == patients.n_rows
    assert {row["GroupID"] for row in qit} == {0, 1, 2}
    # The sensitive table counts per group sum to the group sizes.
    for group_id in range(3):
        total = sum(row["Count"] for row in st if row["GroupID"] == group_id)
        assert total == 3
    # QI values in the QIT are exact (bucketization does not generalize).
    assert qit[0]["Age"] == 69.0
