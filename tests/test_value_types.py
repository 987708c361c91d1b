"""The contract of the package's value types: construction, defaults,
equality, hashing, immutability, repr and copying.

Eight classes carry values between the layers, all on the ``Value`` base:
``Weight``, ``BWBOutcome``, ``BundleExpr``, ``GradedCohomology``,
``ConditionRecord``, ``VerificationReport``, ``CheckResult`` and
``RepElement``.  Each is equal only to an instance of the same class with
equal fields.  ``Weight`` alone is immutable and hashable, because it is the
one dict and cache key; the other seven are mutable and unhashable.  A
character is no value type: it is a plain sorted tuple, which caches hold as
a value, never as a key.  ``RepElement`` prints as its Schur sum, not through
the shared repr.  ``TestContract`` finds every ``Value`` subclass in the
package, so a value type cannot be added or deleted without this file.
"""

import copy
import importlib
import pickle
import pkgutil

import pytest

import schurbott
from schurbott.bwb import BWBOutcome, BundleExpr, GradedCohomology
from schurbott.partitions import Value, Weight
from schurbott.rep_ring import RepElement
from schurbott.soc import ConditionRecord, VerificationReport
from schurbott.verify import CheckResult

W = Weight((1, 0))
OUTCOME = BWBOutcome(repeated_value=3)


def same_twice():
    """Pairs of equal but distinct instances, one pair per class."""
    return [
        (Weight((5, 3)), Weight(entries=(5, 3))),
        (BWBOutcome(0, W, None), BWBOutcome(degree=0, weight=Weight((1, 0)))),
        (BundleExpr(3, 1, {(Weight((0, 0)), Weight((1,))): 2}),
         BundleExpr(d=3, k=1, terms={(Weight((0, 0)), Weight((1,))): 2})),
        (GradedCohomology(3, {0: RepElement.one(3)}), GradedCohomology(d=3, groups={0: RepElement.one(3)})),
        (ConditionRecord(1, Weight((2, 0)), OUTCOME),
         ConditionRecord(q=1, weight=Weight((2, 0)), outcome=BWBOutcome(repeated_value=3))),
        (VerificationReport(True, 5, W), VerificationReport(verdict=True, d=5, alpha=Weight((1, 0)))),
        (CheckResult("counting", True, "ok"), CheckResult(name="counting", passed=True, detail="ok")),
        (RepElement(2, {W: 2}), RepElement(rank=2, terms={Weight((1, 0)): 2, Weight((0, 0)): 0})),
    ]


FIELDS = {
    Weight: ("entries",),
    BWBOutcome: ("degree", "weight", "repeated_value"),
    BundleExpr: ("d", "k", "terms"),
    GradedCohomology: ("d", "groups"),
    ConditionRecord: ("q", "weight", "outcome", "required_zero"),
    VerificationReport: ("verdict", "d", "alpha", "beta", "conditions", "hom_dimension", "kind"),
    CheckResult: ("name", "passed", "detail"),
    RepElement: ("rank", "terms"),
}
IDS = [type(a).__name__ for a, _ in same_twice()]


class TestEquality:
    @pytest.mark.parametrize("a, b", same_twice(), ids=IDS)
    def test_equal_fields_are_equal(self, a, b):
        assert a is not b and a == b and not a != b

    @pytest.mark.parametrize(
        "a, b",
        [
            (Weight((5, 3)), Weight((5, 2))),
            (BWBOutcome(repeated_value=3), BWBOutcome(repeated_value=4)),
            (BundleExpr(3, 1), BundleExpr(3, 2)),
            (GradedCohomology(3), GradedCohomology(4)),
            (ConditionRecord(1, Weight((2, 0)), OUTCOME), ConditionRecord(1, Weight((2, 0)), OUTCOME, False)),
            (VerificationReport(True, 5, W), VerificationReport(True, 5, W, kind="x")),
            (CheckResult("a", True, ""), CheckResult("a", False, "")),
            (RepElement(2, {W: 2}), RepElement(2, {W: 1})),
        ],
        ids=IDS,
    )
    def test_one_field_apart_is_unequal(self, a, b):
        assert a != b and not a == b

    @pytest.mark.parametrize("a, _", same_twice(), ids=IDS)
    def test_never_equal_to_a_tuple_of_its_fields(self, a, _):
        fields = tuple(getattr(a, name) for name in FIELDS[type(a)])
        assert a != fields and fields != a
        assert a != fields[0] and a is not None and a != object()


class TestHashing:
    @pytest.mark.parametrize("a, b", same_twice()[:1], ids=IDS[:1])
    def test_frozen_types_hash_by_value(self, a, b):
        assert hash(a) == hash(b)
        assert len({a, b}) == 1 and {a: 1}[b] == 1

    @pytest.mark.parametrize("a, _", same_twice()[1:], ids=IDS[1:])
    def test_mutable_types_are_unhashable(self, a, _):
        with pytest.raises(TypeError):
            hash(a)


class TestImmutability:
    @pytest.mark.parametrize("value, field", [(Weight((5, 3)), "entries")], ids=IDS[:1])
    def test_assignment_and_deletion_raise(self, value, field):
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, field) == before

    def test_mutable_types_take_new_field_values(self):
        report = VerificationReport(False, 5, W)
        report.verdict = True
        assert report == VerificationReport(True, 5, W)

    def test_bwb_outcome_takes_new_field_values(self):
        outcome = BWBOutcome(repeated_value=3)
        outcome.degree, outcome.weight, outcome.repeated_value = 0, W, None
        assert outcome == BWBOutcome(0, W) and not outcome.is_zero
        with pytest.raises(AttributeError):
            outcome.extra = 1


class TestConstruction:
    def test_weight_keyword_and_any_integral_iterable(self):
        assert Weight(entries=[5, 3]).entries == (5, 3)
        assert Weight(iter((2, -1))).entries == (2, -1)

    def test_bwb_outcome_defaults(self):
        zero = BWBOutcome(repeated_value=3)
        assert (zero.degree, zero.weight, zero.repeated_value) == (None, None, 3)
        assert zero.is_zero
        empty = BWBOutcome()
        assert (empty.degree, empty.weight, empty.repeated_value) == (None, None, None)
        full = BWBOutcome(1, W, None)
        assert (full.degree, full.weight) == (1, W) and not full.is_zero

    def test_bundle_expr_defaults_and_zero_filter(self):
        expr = BundleExpr(3, 1)
        assert (expr.d, expr.k, expr.terms) == (3, 1, {})
        key = (Weight((0, 0)), Weight((1,)))
        assert BundleExpr(3, 1, {key: 0}).terms == {}

    def test_graded_cohomology_defaults_and_zero_filter(self):
        assert (GradedCohomology(3).d, GradedCohomology(3).groups) == (3, {})
        assert GradedCohomology(3, {1: RepElement.zero(3)}).groups == {}

    def test_condition_record_defaults(self):
        record = ConditionRecord(2, W, OUTCOME)
        assert (record.q, record.weight, record.outcome, record.required_zero) == (2, W, OUTCOME, True)
        assert ConditionRecord(2, W, OUTCOME, required_zero=False).required_zero is False

    def test_verification_report_defaults(self):
        report = VerificationReport(True, 5, W)
        assert (report.beta, report.conditions, report.hom_dimension, report.kind) == (None, [], 0, "")
        full = VerificationReport(False, 6, W, Weight((0, 0)), [], 1, "semiorthogonal")
        assert (full.beta, full.hom_dimension, full.kind) == (Weight((0, 0)), 1, "semiorthogonal")

    def test_passed_containers_are_kept(self):
        conditions = [ConditionRecord(0, Weight((0, 0)), OUTCOME)]
        assert VerificationReport(True, 5, W, conditions=conditions).conditions is conditions

    def test_check_result_fields(self):
        result = CheckResult("counting", False, "d=5")
        assert (result.name, result.passed, result.detail) == ("counting", False, "d=5")

    @pytest.mark.parametrize("cls, args", [(Weight, ()), (ConditionRecord, ()), (ConditionRecord, (1, Weight((0,)))),
                                           (VerificationReport, (True, 5)), (CheckResult, ("a", True)),
                                           (BundleExpr, (3,)), (GradedCohomology, ()), (RepElement, ())])
    def test_missing_required_fields_raise(self, cls, args):
        with pytest.raises(TypeError):
            cls(*args)

    def test_unknown_keyword_raises(self):
        with pytest.raises(TypeError):
            BWBOutcome(degree=0, beta=W)


class TestFreshDefaults:
    def test_reports_do_not_share_a_conditions_list(self):
        a, b = VerificationReport(True, 5, W), VerificationReport(True, 5, W)
        a.conditions.append(ConditionRecord(0, Weight((0, 0)), OUTCOME))
        assert b.conditions == [] and a.conditions is not b.conditions

    def test_bundle_exprs_do_not_share_a_terms_dict(self):
        a, b = BundleExpr(3, 1), BundleExpr(3, 1)
        a.terms[(Weight((0, 0)), Weight((1,)))] = 1
        assert b.terms == {} and a.terms is not b.terms


class TestRepr:
    @pytest.mark.parametrize("a, _", same_twice()[:-1], ids=IDS[:-1])
    def test_lists_every_field_in_constructor_order(self, a, _):
        fields = ", ".join(f"{name}={getattr(a, name)!r}" for name in FIELDS[type(a)])
        assert repr(a) == f"{type(a).__name__}({fields})"

    def test_weight(self):
        assert repr(Weight((5, 3))) == "Weight(entries=(5, 3))"
        assert str(Weight((5, 3))) == "(5,3)"

    def test_bwb_outcome(self):
        assert repr(OUTCOME) == "BWBOutcome(degree=None, weight=None, repeated_value=3)"

    def test_nested(self):
        record = ConditionRecord(1, Weight((2, 0)), BWBOutcome(0, W))
        assert repr(record) == (
            "ConditionRecord(q=1, weight=Weight(entries=(2, 0)), outcome=BWBOutcome(degree=0, "
            "weight=Weight(entries=(1, 0)), repeated_value=None), required_zero=True)"
        )
        assert repr(CheckResult("a", True, "x")) == "CheckResult(name='a', passed=True, detail='x')"
        assert repr(BundleExpr(3, 1)) == "BundleExpr(d=3, k=1, terms={})"
        assert repr(GradedCohomology(3)) == "GradedCohomology(d=3, groups={})"
        assert repr(VerificationReport(True, 5, W)) == (
            "VerificationReport(verdict=True, d=5, alpha=Weight(entries=(1, 0)), beta=None, "
            "conditions=[], hom_dimension=0, kind='')"
        )


class TestCopying:
    @pytest.mark.parametrize("a, _", same_twice(), ids=IDS)
    def test_copy_and_pickle_round_trip(self, a, _):
        for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(clone) is type(a) and clone == a


class TestContract:
    def test_every_value_type_is_in_the_contract(self):
        for module in pkgutil.iter_modules(schurbott.__path__):
            importlib.import_module(f"schurbott.{module.name}")
        found, todo = set(), [Value]
        while todo:
            for cls in todo.pop().__subclasses__():
                todo.append(cls)
                if cls.__module__.partition(".")[0] == "schurbott":
                    found.add(cls)
        assert found == set(FIELDS)
        assert {cls for cls in found if cls.__hash__ is not None} == {Weight}
