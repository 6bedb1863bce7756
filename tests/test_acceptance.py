"""Acceptance suite: the twelve desk-scale cross-validation criteria, each
run at its stated bounds with exact equality and a wall-clock budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import time

import pytest

from residuo.selftest import (
    sweep_classical_zolotarev,
    sweep_counterexample,
    sweep_euler,
    sweep_lemma_l4,
    sweep_oracle_agreement,
    sweep_probabilistic_two_squares,
    sweep_qrp,
    sweep_t3,
    sweep_t5,
    sweep_two_squares,
    sweep_valuation_algorithm,
    sweep_valuation_lemma,
)
from residuo.zolotarev import find_tripleprime_counterexample

pytestmark = pytest.mark.acceptance


def _gate(criterion, budget_s, fn):
    started = time.monotonic()
    report = fn()
    elapsed = time.monotonic() - started
    status = "PASS" if report.passed and elapsed < budget_s else "FAIL"
    print(
        f"criterion {criterion}: {status} "
        f"({report.cases} cases, {elapsed:.1f}s / {budget_s}s)"
    )
    assert report.passed, f"criterion {criterion}: {report.failures[:5]}"
    assert elapsed < budget_s, f"criterion {criterion}: {elapsed:.1f}s over budget"
    return report


def test_criterion_01_euler_vs_definition():
    _gate(1, 60, lambda: sweep_euler(500, 6))


def test_criterion_02_prime_zolotarev():
    _gate(2, 120, lambda: sweep_t3(200, 4))


def test_criterion_03_semiprime_zolotarev():
    _gate(3, 180, lambda: sweep_t5(4, prime_bound=60))


def test_criterion_04_classical_zolotarev():
    _gate(4, 60, lambda: sweep_classical_zolotarev(500))


def test_criterion_05_tripleprime_counterexample():
    started = time.monotonic()
    found = find_tripleprime_counterexample(200)
    assert found is not None and found[0] == 195
    report = sweep_counterexample(200)
    assert report.passed and report.detail["found"][0] == "195"
    assert find_tripleprime_counterexample(100) is None
    elapsed = time.monotonic() - started
    print(f"criterion 5: PASS (found {found}, {elapsed:.1f}s / 30s)")
    assert elapsed < 30


def test_criterion_06_valuation_lemma():
    _gate(6, 10, lambda: sweep_valuation_lemma(200))


def test_criterion_07_valuation_algorithm():
    _gate(7, 300, lambda: sweep_valuation_algorithm(5000))


def test_criterion_08_qrp():
    _gate(8, 300, lambda: sweep_qrp(3000))


def test_criterion_09_two_squares_agreement():
    report = _gate(
        9, 300, lambda: sweep_two_squares(10**4, extra=(11009, 11021))
    )
    # The four named instances are inside the sweep; spot-check them too.
    from residuo.oracle import FactorOracle
    from residuo.reductions import two_squares_oracle

    oracle = FactorOracle()
    assert two_squares_oracle(65, oracle, floor=50).solvable
    assert not two_squares_oracle(21, oracle, floor=50).solvable
    assert two_squares_oracle(11009, oracle, floor=50).solvable
    assert not two_squares_oracle(11021, oracle, floor=50).solvable
    assert report.cases >= 10**4


def test_criterion_10_lemma_l4_necessity():
    _gate(10, 120, lambda: sweep_lemma_l4(3000))


def test_criterion_11_three_way_oracle_agreement():
    _gate(11, 300, lambda: sweep_oracle_agreement(2000, 4))


def test_criterion_12_probabilistic_sanity():
    _gate(12, 60, sweep_probabilistic_two_squares)
