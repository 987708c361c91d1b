import hashlib
import itertools
import json
from math import comb

import pytest

from schurbott import soc
from schurbott.bundle_calculus import NPRIME, NPRIME_RANK, wedge_nprime
from schurbott.bwb import BundleExpr, bwb_single, cohomology
from schurbott.partitions import precedes, sort_key
from schurbott.rep_ring import RepElement, dual, tensor
from schurbott.soc import (
    ConditionRecord,
    VerificationReport,
    box_partitions,
    check_exceptional,
    check_fully_faithful,
    check_semiorthogonal,
    enumerate_ff,
    enumerate_sos,
    ext_decomposition,
    kummer_count,
)
from young import weight


class TestBoxLabel:
    def test_box_bound(self):
        kernel_checks = (
            lambda a: check_exceptional(a, 5),
            lambda a: check_fully_faithful(a, 5),
            lambda a: check_semiorthogonal(a, weight(0, 0), 5),
        )
        for check in kernel_checks:
            assert check(weight(3, 3)).alpha == weight(3, 3)
            with pytest.raises(ValueError, match="not inscribed in the 2x3 box"):
                check(weight(4, 0))
            with pytest.raises(ValueError, match="rank-2 partition"):
                check(weight(1, 0, 0))


class TestExtDecomposition:
    def test_self_ext_of_line(self):
        assert ext_decomposition(weight(1, 1), weight(1, 1)) == RepElement.one(2)

    def test_rectangular_against_hook(self):
        got = ext_decomposition(weight(2, 0), weight(1, 0))
        assert got == RepElement.schur(2, (2, -1)) + RepElement.schur(2, (1, 0))

    def test_matches_ring_route(self):
        shapes = [weight(a1, a2) for a1 in range(4) for a2 in range(a1 + 1)]
        for a, b in itertools.product(shapes, repeat=2):
            ext = ext_decomposition(a, b)
            assert ext == tensor(RepElement.schur(2, a), dual(RepElement.schur(2, b)))
            assert len(ext.terms) == min(a.entries[0] - a.entries[1], b.entries[0] - b.entries[1]) + 1

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            ext_decomposition(weight(1, -1), weight(1, 0))


class TestExceptional:
    def test_all_box_labels_pass(self):
        for d in (3, 4, 5, 6):
            for a1 in range(d - 1):
                for a2 in range(a1 + 1):
                    report = check_exceptional(weight(a1, a2), d)
                    assert report.verdict, (d, a1, a2)
                    assert report.hom_dimension == 1

    def test_trace_records_every_summand(self):
        report = check_exceptional(weight(3, 0), 6)
        assert len(report.conditions) == 4  # width 3 gives 4 Ext summands
        survivors = [c for c in report.conditions if not c.required_zero]
        assert len(survivors) == 1 and survivors[0].weight == weight(0, 0)

    @pytest.mark.parametrize("d", [2, 1, -3])
    def test_requires_d_at_least_three(self, d):
        with pytest.raises(ValueError, match="requires d >= 3"):
            check_exceptional(weight(0, 0), d)

    def test_json_schema(self):
        data = check_exceptional(weight(2, 1), 5).to_json()
        json.dumps(data)  # serializable
        assert data["verdict"] == "pass"
        assert data["kind"] == "exceptional"
        assert data["alpha"] == [2, 1]
        assert all({"q", "weight", "outcome", "required_zero"} <= set(c) for c in data["conditions"])


class TestFullyFaithful:
    def test_narrow_labels_pass(self):
        for d in (5, 6):
            for a in enumerate_ff(d):
                report = check_fully_faithful(a, d)
                assert report.verdict, (d, a)
                assert report.hom_dimension == 1
                assert not report.failures()

    def test_wide_label_fails_with_witness(self):
        # width 1 > d-5 = 0 at d = 5: the trace must name the survivors
        report = check_fully_faithful(weight(1, 0), 5)
        assert not report.verdict
        bad = report.failures()
        assert bad
        assert {(c.q, c.weight) for c in bad} == {(2, weight(4, -2)), (3, weight(4, -1))}

    def test_requires_d_at_least_five(self):
        with pytest.raises(ValueError):
            check_fully_faithful(weight(0, 0), 4)

    def test_condition_count(self):
        # q = 0 contributes the Ext summands; q = 1..4 one record per
        # weight with multiplicity of wedge^q N' (x) End
        report = check_fully_faithful(weight(3, 3), 6)
        assert report.conditions[0].q == 0
        assert sorted({c.q for c in report.conditions}) == [0, 1, 2, 3, 4]

    def test_records_run_by_q_then_in_the_schur_order(self):
        # one record per unit of multiplicity, by q, then in the Schur order
        report = check_fully_faithful(weight(2, 1), 9)
        keys = [(c.q, c.weight) for c in report.conditions]
        assert (len(keys), len(set(keys))) == (18, 14)
        assert keys == sorted(keys, key=lambda k: (k[0], [-e for e in k[1].entries]))
        terms = soc.fibre_terms(ext_decomposition(weight(2, 1), weight(2, 1)), 4)
        assert soc._trace(9, terms) == report.conditions
        # whatever order the summands were inserted in: Clebsch-Gordan
        # inserts (4,1) before (4,2) here
        element = tensor(RepElement.schur(2, (5, 0)) + RepElement.schur(2, (3, 3)), RepElement.schur(2, (1, -1)))
        assert list(element.terms) == [weight(6, -1), weight(5, 0), weight(4, 1), weight(4, 2)]
        records = soc._trace(9, [element])
        assert [c.weight for c in records] == [weight(6, -1), weight(5, 0), weight(4, 2), weight(4, 1)]


class TestSemiorthogonal:
    def test_sequence_pairs_pass(self):
        for d in (5, 6):
            labels = enumerate_sos(d)
            for i, first in enumerate(labels):
                for second in labels[i + 1 :]:
                    report = check_semiorthogonal(first, second, d)
                    assert report.verdict, (d, first, second)
                    assert report.beta == second

    def test_requires_strict_order(self):
        with pytest.raises(ValueError):
            check_semiorthogonal(weight(3, 3),
                                 weight(4, 4), 5)  # (4,4) precedes (3,3)
        with pytest.raises(ValueError):
            check_semiorthogonal(weight(3, 3), weight(3, 3), 5)

    @pytest.mark.parametrize("d", [4, 3])
    def test_requires_d_at_least_five(self, d):
        with pytest.raises(ValueError, match="^semi-orthogonality check requires d >= 5$"):
            check_semiorthogonal(weight(1, 1), weight(1, 0), d)

    def test_json_includes_beta(self):
        report = check_semiorthogonal(weight(4, 4), weight(3, 3), 6)
        assert report.to_json()["beta"] == [3, 3]

    def test_an_identity_summand_is_read_as_hom_and_fails(self, monkeypatch):
        # S(0,0) never vanishes: between distinct kernels it is a morphism,
        # so the trace reads Hom = 1 and Schur's lemma fails the pair
        ext = soc.ext_decomposition
        monkeypatch.setattr(soc, "ext_decomposition", lambda a, b: ext(a, b) + RepElement.one(2))
        report = check_semiorthogonal(weight(4, 4), weight(3, 3), 6)
        assert (report.verdict, report.hom_dimension) == (False, 1)
        survivors = [(c.q, c.weight) for c in report.conditions if not c.outcome.is_zero]
        assert survivors == [(0, weight(0, 0))]


class TestDerivedState:
    """A report stores its trace alone: the verdict, Hom and required_zero are read from the records."""

    IDENTITY = bwb_single(5, 2, (0, 0, 0), weight(0, 0))

    def test_only_the_q0_identity_record_may_survive(self):
        assert not ConditionRecord(0, weight(0, 0), self.IDENTITY).required_zero
        assert ConditionRecord(1, weight(0, 0), self.IDENTITY).required_zero
        assert ConditionRecord(0, weight(1, -1), self.IDENTITY).required_zero

    def test_a_self_ext_passes_on_the_identity_alone(self):
        report = VerificationReport(5, weight(0, 0), None, [ConditionRecord(0, weight(0, 0), self.IDENTITY)], "")
        assert (report.verdict, report.hom_dimension, report.failures()) == (True, 1, [])
        survivor = ConditionRecord(1, weight(0, 0), self.IDENTITY)
        report.conditions.append(survivor)
        assert (report.verdict, report.hom_dimension, report.failures()) == (False, 1, [survivor])
        assert report.to_json()["verdict"] == "fail"

    def test_a_pair_with_an_identity_record_fails(self):
        report = VerificationReport(5, weight(1, 1), weight(0, 0), [ConditionRecord(0, weight(0, 0), self.IDENTITY)], "")
        assert (report.verdict, report.hom_dimension, report.failures()) == (False, 1, [])

    @pytest.mark.parametrize("name", ["verdict", "hom_dimension"])
    def test_report_verdict_and_hom_are_read_only(self, name):
        report = check_exceptional(weight(0, 0), 5)
        with pytest.raises(AttributeError):
            setattr(report, name, 0)

    def test_required_zero_is_read_only(self):
        record = ConditionRecord(1, weight(0, 0), self.IDENTITY)
        with pytest.raises(AttributeError):
            record.required_zero = False
        assert record.required_zero


class TestQRangeFollowsNPrime:
    def test_the_rank_of_nprime_bounds_the_wedges_and_the_traces(self):
        assert NPRIME_RANK == NPRIME.dimension() == 4
        with pytest.raises(ValueError, match=f"N' has rank {NPRIME_RANK};"):
            wedge_nprime(NPRIME_RANK + 1)
        for report in (check_fully_faithful(weight(3, 3), 6), check_semiorthogonal(weight(4, 3), weight(3, 3), 6)):
            assert max(c.q for c in report.conditions) == NPRIME_RANK


class TestThreshold:
    def test_a_doubled_identity_never_passes_a_self_ext(self):
        terms = soc.fibre_terms(ext_decomposition(weight(2, 1), weight(2, 1)) + RepElement.one(2), 4)
        assert soc.threshold(terms, 1) == float("inf")
        assert soc.threshold(terms, 2) == 6

    def test_an_identity_never_passes_a_pair(self):
        ext = ext_decomposition(weight(4, 4), weight(3, 3))
        assert soc.threshold(soc.fibre_terms(ext, 4), 0) == 6
        assert soc.threshold(soc.fibre_terms(ext + RepElement.one(2), 4), 0) == float("inf")

    def test_the_threshold_is_a_closed_form_in_the_twist_class(self):
        # Ext(b, a) depends only on the widths wa, wb and the gap G = a2 - b1,
        # so one pair per class stands for it; with m, n the smaller and
        # larger width, a1 - b2 = wa + wb + G and e = 1 when n - m >= 3
        inf = float("inf")
        compared = 0
        for wa, wb in itertools.product(range(12), repeat=2):
            m, n = min(wa, wb), max(wa, wb)
            e = int(n - m >= 3)
            for G in range(-wa - wb - 3, 12):
                s = max(0, -(G + wb))
                a, b = weight(G + wb + s + wa, G + wb + s), weight(wb + s, s)
                ext, span = ext_decomposition(a, b), wa + wb + G
                full = inf if G <= -(n - e) else span + 5 if G <= 2 else G + m + 3 + e
                hom = inf if G <= -n else span + 2 if G <= 1 else G + m + 1
                assert soc.threshold(soc.fibre_terms(ext, 4), 0) == full, (a, b)
                assert soc.threshold(soc.fibre_terms(ext, 0), 0) == hom, (a, b)
                compared += 2
        for width in range(36):
            ext = ext_decomposition(weight(width, 0), weight(width, 0))
            assert soc.threshold(soc.fibre_terms(ext, 4), 1) == width + 5
            assert soc.threshold(soc.fibre_terms(ext, 0), 1) == (width + 2 if width else 0)
            compared += 2
        assert compared == 7560


class TestSelfExtReportsDigest:
    def test_reports_match_their_pinned_digest(self):
        # every fully-faithful report on the box at d = 5..9 and every
        # exceptional one at d = 3..8, in JSON: verdicts, Hom and traces
        reports = [check_fully_faithful(a, d) for d in range(5, 10) for a in box_partitions(d)]
        reports += [check_exceptional(a, d) for d in range(3, 9) for a in box_partitions(d)]
        assert len(reports) == 110 + 83
        text = json.dumps([r.to_json() for r in reports], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "98268e73f9bf8cb7311053f77704066fc366a6e8d65d11f865b944562099f048"
        )


class TestEnumeration:
    def test_d5(self):
        got = [a.entries for a in enumerate_ff(5)]
        assert set(got) == {(0, 0), (1, 1), (2, 2), (3, 3)}
        assert got == [(3, 3), (2, 2), (1, 1), (0, 0)]  # partition order

    def test_d6_sos(self):
        got = [a.entries for a in enumerate_sos(6)]
        assert got == [(4, 4), (4, 3), (3, 3)]

    def test_counts(self):
        for d in range(5, 13):
            assert len(enumerate_ff(d)) == comb(d - 3, 2) + 3 * (d - 4)
            assert len(enumerate_ff(d)) == (d * d - d - 12) // 2
            assert len(enumerate_sos(d)) == comb(d - 3, 2)

    def test_order_is_the_partition_order(self):
        labels = enumerate_ff(8)
        keys = [sort_key(a) for a in labels]
        assert keys == sorted(keys)
        for a, b in zip(labels, labels[1:]):
            assert precedes(a, b)

    def test_box_is_built_in_the_partition_order(self):
        # the box is emitted in order, not sorted: pin it against the sorted
        # box, and the two enumerations against filters of that box
        for d in range(-1, 41):
            box = sorted((weight(a1, a2) for a1 in range(d - 1) for a2 in range(a1 + 1)), key=sort_key)
            assert box_partitions(d) == box, d
            if d < 5:
                with pytest.raises(ValueError, match="requires d >= 5"):
                    enumerate_ff(d)
                with pytest.raises(ValueError, match="requires d >= 5"):
                    enumerate_sos(d)
                continue
            ff = [a for a in box if a.entries[0] - a.entries[1] <= d - 5]
            assert enumerate_ff(d) == ff, d
            assert enumerate_sos(d) == [a for a in ff if a.entries[1] >= 3], d

    def test_width_bound(self):
        for d in (5, 7, 9):
            assert all(a.entries[0] - a.entries[1] <= d - 5 for a in enumerate_ff(d))

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            enumerate_ff(4)


class TestKummerCount:
    def test_d5_value(self):
        assert kummer_count(5) == 59049
        assert kummer_count(5) == 3**10

    def test_closed_form(self):
        for d in range(5, 13):
            assert kummer_count(d) == comb(d - 3, 2) * 3 ** (2 * d)

    def test_exact_big_integer(self):
        assert kummer_count(12) == comb(9, 2) * 3**24

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            kummer_count(4)


def graded(d, ext, top_q):
    """H^*(wedge^q N' (x) ext) on G(2,d) for q = 0..top_q, grouped by degree."""
    return [
        cohomology(BundleExpr.from_qdual(d, 2, tensor(wedge_nprime(q), ext)))
        for q in range(top_q + 1)
    ]


class TestVerdictsMatchGradedCohomology:
    """Verdicts read from the witness trace agree with the degree-graded rule."""

    def test_exceptional_and_fully_faithful(self):
        verdicts = set()
        for d in range(5, 10):
            for a in box_partitions(d):
                coh0, *twisted = graded(d, ext_decomposition(a, a), 4)
                exceptional = coh0.dimensions() == {0: 1}
                hom = coh0.dimensions().get(0, 0)
                ff = exceptional and all(coh.is_zero() for coh in twisted)
                report = check_exceptional(a, d)
                assert (report.verdict, report.hom_dimension) == (exceptional, hom), (d, a)
                report = check_fully_faithful(a, d)
                assert (report.verdict, report.hom_dimension) == (ff, hom), (d, a)
                verdicts.add(ff)
        assert verdicts == {True, False}

    def test_semiorthogonal(self):
        verdicts = set()
        for d in range(5, 9):
            labels = box_partitions(d)
            for i, a in enumerate(labels):
                for b in labels[i + 1 :]:
                    cohs = graded(d, ext_decomposition(a, b), 4)
                    expected = all(coh.is_zero() for coh in cohs)
                    report = check_semiorthogonal(a, b, d)
                    hom = cohs[0].dimensions().get(0, 0)
                    assert (report.verdict, report.hom_dimension) == (expected, hom), (d, a, b)
                    verdicts.add(expected)
        assert verdicts == {True, False}
