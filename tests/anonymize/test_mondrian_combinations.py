"""Mondrian over QI combinations cuts exactly the row-level partition.

The frontier works on each region's distinct combinations weighted by their
row counts and takes every round's medians from one vectorised pass.  A
test-only reference below recomputes widths and ``np.median`` per node over
the region's rows, as the partitioner did before; both must produce the same
groups in the same order for every strategy, on tables with heavy ties and
both even and odd multiplicities.
"""

import numpy as np
import pytest

from repro.anonymize.mondrian import MondrianAnonymizer
from repro.data.schema import Schema, categorical_qi, numeric_qi, sensitive
from repro.data.table import MicrodataTable
from repro.privacy.models import (
    BTPrivacy,
    CompositeModel,
    DistinctLDiversity,
    KAnonymity,
    SkylineBTPrivacy,
)


class _Node:
    def __init__(self, indices, depth):
        self.indices, self.depth, self.children = indices, depth, None
        self.dimensions, self.medians, self.next = [], None, 0


def _reference_partition(model, table, strategy):
    """Frontier Mondrian with per-node widths and ``np.median`` over rows."""
    names = list(table.quasi_identifier_names)
    values = MondrianAnonymizer._value_matrix(table, names)
    spans = MondrianAnonymizer._span_vector(table, names)

    def start(node):
        sub = values[node.indices]
        widths = (sub.max(axis=0) - sub.min(axis=0)) / spans
        candidates = [int(j) for j in np.flatnonzero(widths > 0.0)]
        if strategy == "round_robin" and candidates:
            offset = node.depth % len(candidates)
            candidates = candidates[offset:] + candidates[:offset]
        else:
            candidates = sorted(candidates, key=lambda j: widths[j], reverse=True)
        node.dimensions = candidates
        node.medians = np.median(sub, axis=0)

    root = _Node(np.arange(table.n_rows), 0)
    start(root)
    frontier = [root]
    while frontier:
        proposals = []
        for node in frontier:
            while node.next < len(node.dimensions):
                column = values[node.indices, node.dimensions[node.next]]
                median = node.medians[node.dimensions[node.next]]
                mask = column <= median
                if mask.all():
                    mask = column < median
                if mask.any() and not mask.all():
                    proposals.append((node, node.indices[mask], node.indices[~mask]))
                    break
                node.next += 1
        if not proposals:
            break
        verdicts = model.is_satisfied_batch([half for _, *halves in proposals for half in halves])
        frontier = []
        for position, (node, left, right) in enumerate(proposals):
            if verdicts[2 * position] and verdicts[2 * position + 1]:
                node.children = [_Node(left, node.depth + 1), _Node(right, node.depth + 1)]
                for child in node.children:
                    start(child)
                frontier.extend(node.children)
            else:
                node.next += 1
                frontier.append(node)

    def leaves(node):
        if node.children is None:
            yield np.sort(node.indices)
        else:
            for child in node.children:
                yield from leaves(child)

    return list(leaves(root))


def _tied_table(seed, n_rows):
    """Numeric and categorical QIs drawn from tiny pools: ties everywhere."""
    rng = np.random.default_rng(seed)
    schema = Schema(
        [numeric_qi("Age"), numeric_qi("Hours"), categorical_qi("Region"), sensitive("Disease")]
    )
    columns = {
        "Age": rng.choice([20.0, 25.0, 25.5, 30.0, 41.0, 60.0], size=n_rows),
        "Hours": rng.choice([10.0, 20.0, 40.0, 40.0, 45.0], size=n_rows),
        "Region": rng.choice(["north", "south", "east", "west"], size=n_rows),
        "Disease": rng.choice(["flu", "cold", "ulcer", "gastritis", "cancer"], size=n_rows),
    }
    return MicrodataTable.from_columns(schema, columns)


def _models():
    return {
        "bt": lambda: CompositeModel([KAnonymity(3), BTPrivacy(0.3, 0.4)]),
        "skyline": lambda: CompositeModel(
            [KAnonymity(2), SkylineBTPrivacy([(0.1, 0.45), (0.5, 0.35)])]
        ),
        "k-only": lambda: KAnonymity(4),
        "distinct-l": lambda: CompositeModel([KAnonymity(2), DistinctLDiversity(2)]),
    }


@pytest.mark.parametrize("strategy", ["widest", "round_robin"])
@pytest.mark.parametrize("model_name", ["bt", "skyline", "k-only", "distinct-l"])
@pytest.mark.parametrize("seed,n_rows", [(1, 240), (2, 301), (3, 64)])
def test_partition_matches_row_level_medians(strategy, model_name, seed, n_rows):
    table = _tied_table(seed, n_rows)
    model = _models()[model_name]()
    groups = MondrianAnonymizer(model, split_strategy=strategy).partition(table)
    reference_model = _models()[model_name]()
    reference_model.prepare(table)
    reference = _reference_partition(reference_model, table, strategy)
    assert len(groups) == len(reference)
    for group, expected in zip(groups, reference):
        np.testing.assert_array_equal(group, expected)


@pytest.mark.parametrize("strategy", ["widest", "round_robin"])
def test_adult_partition_matches_row_level_medians(tiny_adult, strategy):
    model = CompositeModel([KAnonymity(3), BTPrivacy(0.3, 0.25)])
    groups = MondrianAnonymizer(model, split_strategy=strategy).partition(tiny_adult)
    reference_model = CompositeModel([KAnonymity(3), BTPrivacy(0.3, 0.25)])
    reference_model.prepare(tiny_adult)
    reference = _reference_partition(reference_model, tiny_adult, strategy)
    assert [group.tolist() for group in groups] == [group.tolist() for group in reference]


def test_forest_regions_stay_row_arrays(tiny_adult):
    """Regions need not be unions of whole combinations; leaves stay sorted rows."""
    model = KAnonymity(3)
    model.prepare(tiny_adult)
    rng = np.random.default_rng(9)
    regions = [np.sort(part) for part in np.array_split(rng.permutation(tiny_adult.n_rows), 3)]
    roots = MondrianAnonymizer(model).partition_forest(tiny_adult, regions)
    for region, root in zip(regions, roots):
        leaves = [leaf.indices for leaf in root.leaves()]
        for leaf in leaves:
            assert np.all(np.diff(leaf) > 0)
        np.testing.assert_array_equal(np.sort(np.concatenate(leaves)), region)
