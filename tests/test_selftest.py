"""The selftest sweeps stream their moduli: before its first case a sweep
has neither listed nor factorized the moduli past it."""

import tracemalloc

import pytest

from residuo import selftest


class FirstCase(Exception):
    pass


def _stop(*args):
    raise FirstCase


class TestSweepsStream:
    def test_two_squares_lists_no_range(self, monkeypatch):
        # A list of 10^6 ints would take about 48 MB.
        monkeypatch.setattr(selftest, "two_squares_oracle", _stop)
        tracemalloc.start()
        try:
            with pytest.raises(FirstCase):
                selftest.sweep_two_squares(10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "case, sweep",
        [
            ("semiprime_valuations", selftest.sweep_valuation_algorithm),
            ("qrp_bruteforce", selftest.sweep_qrp),
            ("zolotarev_semiprime", lambda n: selftest.sweep_t5(1, product_bound=n)),
        ],
        ids=["a1", "qrp", "t5"],
    )
    def test_factorizes_only_up_to_first_case(self, monkeypatch, case, sweep):
        factorize, factorized = selftest.factorize, []

        def counting(n):
            factorized.append(n)
            return factorize(n)

        monkeypatch.setattr(selftest, "factorize", counting)
        monkeypatch.setattr(selftest, case, _stop)
        with pytest.raises(FirstCase):
            sweep(5 * 10**4)
        # 15 = 3 * 5, the least odd semiprime, holds each sweep's first case.
        assert factorized == [3, 5, 7, 9, 11, 13, 15]
