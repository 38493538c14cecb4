"""Unit tests for predicates and join conditions."""

from __future__ import annotations

import random

import pytest

from repro.engine.errors import QueryError
from repro.query.predicates import (
    AndPredicate,
    ComparisonPredicate,
    CrossProductCondition,
    EquiJoinCondition,
    FalsePredicate,
    ModularMatchCondition,
    NotPredicate,
    OrPredicate,
    ThetaJoinCondition,
    TruePredicate,
    attribute_gt,
    disjunction,
    selectivity_filter,
    selectivity_join,
)
from repro.streams.tuples import make_tuple


def tup(**values):
    return make_tuple("A", 0.0, **values)


class TestComparisonPredicates:
    def test_operators(self):
        assert attribute_gt("x", 5).matches(tup(x=6))
        assert not attribute_gt("x", 5).matches(tup(x=5))
        assert ComparisonPredicate("x", ">=", 5).matches(tup(x=5))
        assert ComparisonPredicate("x", "<", 5).matches(tup(x=4))
        assert ComparisonPredicate("x", "<=", 5).matches(tup(x=5))
        assert ComparisonPredicate("x", "==", 5).matches(tup(x=5))
        assert not ComparisonPredicate("x", "==", 5).matches(tup(x=6))

    def test_unknown_operator_rejected(self):
        with pytest.raises(QueryError):
            ComparisonPredicate("x", "~", 1)

    def test_selectivity_bounds_enforced(self):
        with pytest.raises(QueryError):
            ComparisonPredicate("x", ">", 1, selectivity=1.5)

    def test_describe_is_readable(self):
        assert attribute_gt("value", 10).describe() == "value > 10"

    def test_callable_protocol(self):
        predicate = attribute_gt("x", 1)
        assert predicate(tup(x=2))


class TestTrivialAndComposite:
    def test_true_false(self):
        assert TruePredicate().matches(tup(x=0))
        assert not FalsePredicate().matches(tup(x=0))
        assert TruePredicate().selectivity == 1.0
        assert FalsePredicate().selectivity == 0.0

    def test_and_or_not(self):
        p = attribute_gt("x", 0) & ComparisonPredicate("x", "<", 10)
        assert p.matches(tup(x=5))
        assert not p.matches(tup(x=20))
        q = ComparisonPredicate("x", "<", 0) | attribute_gt("x", 10)
        assert q.matches(tup(x=20))
        assert not q.matches(tup(x=5))
        assert (~attribute_gt("x", 0)).matches(tup(x=-1))

    def test_composite_selectivities(self):
        a = attribute_gt("x", 0, selectivity=0.5)
        b = attribute_gt("y", 0, selectivity=0.4)
        assert AndPredicate((a, b)).selectivity == pytest.approx(0.2)
        assert OrPredicate((a, b)).selectivity == pytest.approx(0.7)
        assert NotPredicate(a).selectivity == pytest.approx(0.5)

    def test_empty_composites_rejected(self):
        with pytest.raises(QueryError):
            AndPredicate(())
        with pytest.raises(QueryError):
            OrPredicate(())


class TestDisjunctionConjunctionHelpers:
    def test_disjunction_simplifications(self):
        a = attribute_gt("x", 0, selectivity=0.5)
        assert isinstance(disjunction([]), TruePredicate)
        assert isinstance(disjunction([TruePredicate(), a]), TruePredicate)
        assert isinstance(disjunction([FalsePredicate()]), FalsePredicate)
        assert disjunction([a]) is a
        assert disjunction([FalsePredicate(), a]) is a

    def test_disjunction_deduplicates_identical_predicates(self):
        a = selectivity_filter(0.5)
        b = selectivity_filter(0.5)
        combined = disjunction([a, b])
        assert combined.describe() == a.describe()

    def test_selectivity_filter_extremes(self):
        assert isinstance(selectivity_filter(1.0), TruePredicate)
        assert isinstance(selectivity_filter(0.0), FalsePredicate)
        with pytest.raises(QueryError):
            selectivity_filter(1.5)

    def test_selectivity_filter_empirical(self):
        predicate = selectivity_filter(0.3)
        rng = random.Random(0)
        hits = sum(predicate.matches(tup(value=rng.random())) for _ in range(5000))
        assert hits / 5000 == pytest.approx(0.3, abs=0.03)


class TestJoinConditions:
    def test_cross_product_matches_everything(self):
        condition = CrossProductCondition()
        assert condition.matches(tup(x=1), tup(x=2))
        assert condition.selectivity == 1.0

    def test_equi_join(self):
        condition = EquiJoinCondition("k", "k", key_domain=10)
        assert condition.matches(tup(k=3), tup(k=3))
        assert not condition.matches(tup(k=3), tup(k=4))
        assert condition.selectivity == pytest.approx(0.1)

    def test_equi_join_domain_validation(self):
        with pytest.raises(QueryError):
            EquiJoinCondition("k", "k", key_domain=0)

    def test_modular_match_selectivity_is_exact(self):
        condition = ModularMatchCondition(threshold=250, domain=1000)
        rng = random.Random(7)
        trials = 4000
        hits = sum(
            condition.matches(
                tup(join_key=rng.randrange(1000)), tup(join_key=rng.randrange(1000))
            )
            for _ in range(trials)
        )
        assert condition.selectivity == pytest.approx(0.25)
        assert hits / trials == pytest.approx(0.25, abs=0.03)

    def test_modular_match_validation(self):
        with pytest.raises(QueryError):
            ModularMatchCondition(threshold=-1, domain=100)
        with pytest.raises(QueryError):
            ModularMatchCondition(threshold=10, domain=0)

    def test_theta_join(self):
        condition = ThetaJoinCondition(lambda a, b: a["x"] < b["x"], selectivity=0.5)
        assert condition.matches(tup(x=1), tup(x=2))
        assert not condition.matches(tup(x=2), tup(x=1))

    def test_selectivity_join_factory(self):
        assert isinstance(selectivity_join(1.0), CrossProductCondition)
        condition = selectivity_join(0.4)
        assert condition.selectivity == pytest.approx(0.4)
        with pytest.raises(QueryError):
            selectivity_join(0.0)
        with pytest.raises(QueryError):
            selectivity_join(0.0001, domain=100)
