"""End-to-end acceptance suite.

One test per headline claim, each printing a single pass/fail line
(run with ``pytest -s tests/test_acceptance.py`` to see them live).
Every check uses exact integer arithmetic; there are no tolerances.
"""

import itertools
from math import comb

import pytest

from schurbott import (
    RepElement,
    Weight,
    bwb_single,
    char_of,
    check_exceptional,
    check_fully_faithful,
    check_semiorthogonal,
    enumerate_ff,
    enumerate_sos,
    ext_decomposition,
    kummer_count,
    planar_rank_identity,
    tensor,
    verify,
    wedge2_middle,
    wedge_nprime,
)
from schurbott.bundle_calculus import SES_MIDDLE, SES_SUB
from schurbott.partitions import sort_key, trivial
from schurbott.rep_ring import ext_power
from young import char_product


@pytest.fixture
def report(request):
    state = {"ok": False}
    yield state
    label = request.node.name.replace("test_", "", 1)
    print(f"{'PASS' if state['ok'] else 'FAIL'}: {label}")


def box_labels(d):
    out = [Weight((a1, a2)) for a1 in range(d - 1) for a2 in range(a1 + 1)]
    out.sort(key=sort_key)
    return out


def test_01_label_counting(report):
    for d in range(5, 13):
        assert len(enumerate_ff(d)) == comb(d - 3, 2) + 3 * (d - 4)
        assert len(enumerate_sos(d)) == comb(d - 3, 2)
    report["ok"] = True


def test_02_kummer_count(report):
    assert kummer_count(5) == 59049
    for d in range(5, 13):
        assert kummer_count(d) == comb(d - 3, 2) * 3 ** (2 * d)
    report["ok"] = True


def test_03_fully_faithfulness_soundness(report):
    for d in range(5, 10):
        for label in box_labels(d):
            if label.entries[0] - label.entries[1] > d - 5:
                continue
            result = check_fully_faithful(label, d)
            assert result.verdict, (d, label)
            assert result.hom_dimension == 1
    report["ok"] = True


def test_04_semiorthogonality_soundness(report):
    for d in range(5, 10):
        labels = box_labels(d)
        sos = enumerate_sos(d)
        checked = set()
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                if a.entries[0] - b.entries[1] > d - 5:
                    continue
                result = check_semiorthogonal(a, b, d)
                assert result.verdict, (d, a, b)
                checked.add((a, b))
        # every ordered pair from the semi-orthogonal sequence is covered
        for i, a in enumerate(sos):
            for b in sos[i + 1 :]:
                assert (a, b) in checked
    report["ok"] = True


def test_05_kapranov_exceptionality(report):
    for d in range(3, 9):
        labels = box_labels(d)
        for a in labels:
            result = check_exceptional(a, d)
            assert result.verdict and result.hom_dimension == 1, (d, a)
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                # no morphisms backward, in any degree
                for w in ext_decomposition(a, b).terms:
                    assert bwb_single(d, 2, trivial(d - 2), w).is_zero, (d, a, b, w)
    report["ok"] = True


def test_06_normal_bundle_identities(report):
    assert wedge_nprime(3) == RepElement.schur(2, (3, 0))
    assert wedge_nprime(4) == RepElement.schur(2, (2, 2))
    assert wedge2_middle() == RepElement(
        2, {Weight((3, -1)): 2, Weight((1, 1)): 2, Weight((2, 0)): 1}
    )
    for q in range(5):
        filtration = RepElement.zero(2)
        for i in range(min(q, 2) + 1):
            filtration = filtration + tensor(ext_power(SES_SUB, i), wedge_nprime(q - i))
        assert ext_power(SES_MIDDLE, q) == filtration
    report["ok"] = True


def test_07_cotangent_simplicity(report):
    # End(Omega) on each G(k,d), 2 <= k <= d-2, d = 4..8, is its closed form
    assert verify.check_cotangent(8) == verify.CheckResult("cotangent-simplicity", True, "15 Grassmannians, d <= 8")
    report["ok"] = True


def partitions_up_to(n_max, rows):
    out = [()]

    def rec(prefix, cap):
        if len(prefix) == rows:
            return
        for v in range(1, cap + 1):
            if sum(prefix) + v > n_max:
                break
            prefix.append(v)
            out.append(tuple(prefix))
            rec(prefix, v)
            prefix.pop()

    rec([], n_max)
    return out


def test_08_oracle_equivalence(report):
    rank = 3
    shapes = partitions_up_to(6, rank)
    for pa, pb in itertools.product(shapes, repeat=2):
        a = RepElement.schur(rank, pa + (0,) * (rank - len(pa)))
        b = RepElement.schur(rank, pb + (0,) * (rank - len(pb)))
        assert char_of(tensor(a, b)) == char_product(char_of(a), char_of(b))
    for d in range(2, 7):
        n = d - 1
        for m in range(-12, 13):
            outcome = bwb_single(d, 1, (0,) * n, (m,))
            got = {} if outcome.is_zero else {outcome.degree: outcome.dimension()}
            expected = {}
            if m <= 0:
                expected[0] = comb(n - m, n)
            elif m >= d:
                expected[n] = comb(m - 1, n)
            expected = {p: v for p, v in expected.items() if v}
            assert got == expected, (n, m)
    report["ok"] = True


def test_09_pieri_golden(report):
    base = RepElement.schur(3, (2, 1, 0))
    sym = tensor(base, RepElement.schur(3, (2, 0, 0)))
    ext = tensor(base, RepElement.schur(3, (1, 1, 0)))
    assert sym == RepElement(
        3,
        {
            Weight((4, 1, 0)): 1,
            Weight((3, 2, 0)): 1,
            Weight((3, 1, 1)): 1,
            Weight((2, 2, 1)): 1,
        },
    )
    assert ext == RepElement(
        3, {Weight((3, 2, 0)): 1, Weight((3, 1, 1)): 1, Weight((2, 2, 1)): 1}
    )
    report["ok"] = True


def test_10_rank_identity(report):
    for d in range(1, 13):
        for l in range(1, d + 1):
            assert planar_rank_identity(d, l) == (d - l) + comb(l + 1, 2)
    report["ok"] = True
