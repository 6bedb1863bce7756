import json
from collections import Counter

import pytest

from residuo import arithmetic, selftest
from residuo.cli import _ORACLES, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestSymbol:
    def test_examples(self, capsys):
        assert run_json(capsys, "symbol", "--a", "4", "--n", "15", "--k", "2") == {
            "symbol": -1
        }
        assert run_json(capsys, "symbol", "--a", "1", "--n", "9", "--k", "3") == {
            "symbol": 1
        }
        assert run_json(
            capsys, "symbol", "--a", "4", "--n", "13", "--k", "2", "--method", "euler"
        ) == {"symbol": -1}

    @pytest.mark.parametrize("method", ["euler", "definition", "factor", "zolotarev"])
    def test_methods_agree(self, capsys, method):
        result = run_json(
            capsys, "symbol", "--a", "4", "--n", "13", "--k", "2", "--method", method
        )
        assert result == {"symbol": -1}

    @pytest.mark.parametrize("method", ["euler", "definition", "factor", "zolotarev"])
    def test_large_k(self, capsys, method):
        result = run_json(
            capsys, "symbol", "--a", "3", "--n", "13", "--k", "5000", "--method", method
        )
        assert result == {"symbol": 1}

    def test_precondition_violation_exits_2(self, capsys):
        code, out, err = run(capsys, "symbol", "--a", "2", "--n", "13", "--k", "2")
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_not_coprime_exits_1(self, capsys):
        code, out, err = run(capsys, "symbol", "--a", "5", "--n", "15", "--k", "1")
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize("method", ["euler", "definition", "factor", "zolotarev"])
    @pytest.mark.parametrize("a, n", [(3, 13), (13, 13), (2, 0)])
    def test_level_zero_exits_1(self, capsys, method, a, n):
        code, out, err = run(
            capsys, "symbol", "--a", str(a), "--n", str(n), "--k", "0",
            "--method", method,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [("symbol", "--a", "3", "--n", "13", "--k", "notanint"), ("bogus",)],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_type_error_names_no_private_converter(self, capsys):
        code, _, err = run(capsys, "symbol", "--a", "3", "--n", "13", "--k", "notanint")
        assert code == 1
        assert "_natural" not in err
        assert "--k" in err and "nonnegative integer" in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out


class TestSubgroup:
    def test_examples(self, capsys):
        data = run_json(capsys, "subgroup", "--n", "15", "--k", "1", "--units")
        assert data["members"] == ["1", "4"]
        data = run_json(capsys, "subgroup", "--n", "13", "--k", "2", "--units")
        assert data["members"] == ["1", "3", "9"]
        data = run_json(capsys, "subgroup", "--n", "5", "--k", "0", "--units")
        assert data["members"] == ["1", "2", "3", "4"]

    def test_too_large_exits_1(self, capsys):
        code, _, _ = run(capsys, "subgroup", "--n", str(10**6 + 1), "--k", "1")
        assert code == 1


class TestTwoSquares:
    def test_examples(self, capsys):
        assert run_json(capsys, "two-squares", "--n", "65")["solvable"] is True
        verdict = run_json(capsys, "two-squares", "--n", "21")
        assert verdict["solvable"] is False and verdict["certificate"] == "3"
        verdict = run_json(capsys, "two-squares", "--n", "11021")
        assert verdict["solvable"] is False

    def test_probabilistic_deterministic_given_seed(self, capsys):
        args = (
            "two-squares", "--n", "11021", "--mode", "probabilistic",
            "--trials", "20", "--seed", "3",
        )
        assert run_json(capsys, *args) == run_json(capsys, *args)

    def test_probabilistic_without_trials_exits_1(self, capsys):
        code, out, err = run(
            capsys, "two-squares", "--n", "11021", "--mode", "probabilistic",
            "--trials", "0",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")


class TestSemiprimeBits:
    def test_examples(self, capsys):
        data = run_json(capsys, "semiprime-bits", "--n", "39")
        assert data["v_small"] == 1 and data["v_large"] == 2
        assert data["p_bits"] == "3" and data["q_bits"] == "5" and data["m"] == 3
        data = run_json(capsys, "semiprime-bits", "--n", "65")
        assert data["v_small"] == 2 and data["p_bits"] == "5"
        data = run_json(capsys, "semiprime-bits", "--n", "15")
        assert data["v_small"] == 1 and data["v_large"] == 2

    def test_search_exhausted_exits_1(self, capsys):
        # jacobi(2, 15) = +1, so one trial finds no nonresidue.
        code, _, err = run(capsys, "semiprime-bits", "--n", "15", "--trial-cap", "1")
        assert code == 1
        assert "no quadratic nonresidue" in err

    def test_factorization_timeout_exits_1(self, capsys, monkeypatch):
        # The product of two 32-bit safe primes needs rho, capped here.
        monkeypatch.setattr(arithmetic, "_RHO_ITERATION_CAP", 1000)
        code, out, err = run(capsys, "semiprime-bits", "--n", str(4294965887 * 4294967087))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "rho" in err

    @pytest.mark.parametrize("n", ["13", "9", "105", "27", "3125"])
    def test_prime_or_square_exits_1(self, capsys, n):
        code, out, err = run(capsys, "semiprime-bits", "--n", n)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "odd semiprime" in err


class TestQrp:
    def test_examples(self, capsys):
        data = run_json(capsys, "qrp", "--n", "39", "--a", "2", "--method", "c2")
        assert data["is_residue"] is False
        data = run_json(capsys, "qrp", "--n", "39", "--a", "10", "--method", "c3")
        assert data["is_residue"] is True
        data = run_json(capsys, "qrp", "--n", "39", "--a", "1")
        assert data["is_residue"] is True

    def test_bad_jacobi_exits_1(self, capsys):
        code, _, _ = run(capsys, "qrp", "--n", "39", "--a", "7")
        assert code == 1

    @pytest.mark.parametrize(
        "n, a, method",
        # 21 = 3*7 has equal valuations nu_2(2) = nu_2(6), outside Theorem
        # T4's promise; 63 = 3^2*7 is no semiprime.
        [("21", "5", "t4"), ("63", "2", "c2"), ("63", "2", "c3")],
    )
    def test_outside_promise_exits_1(self, capsys, n, a, method):
        code, out, err = run(capsys, "qrp", "--n", n, "--a", a, "--method", method)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")


class TestOracleOption:
    @pytest.mark.parametrize(
        "argv",
        [
            ("semiprime-bits", "--n", "39"),
            ("qrp", "--n", "39", "--a", "10"),
            ("two-squares", "--n", "11021"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_oracle_gives_the_same_result(self, capsys, monkeypatch, argv):
        evaluated = Counter()
        for name, cls in _ORACLES.items():

            def counted(self, m, n, k, name=name, evaluate=cls._evaluate):
                evaluated[name] += 1
                return evaluate(self, m, n, k)

            monkeypatch.setattr(cls, "_evaluate", counted)
        results = {}
        for name in _ORACLES:
            evaluated.clear()
            record = run_json(capsys, *argv, "--oracle", name, "--record")
            # The chosen oracle answered every query the record counts.
            assert record["inputs"]["oracle"] == name
            assert evaluated == {name: record["oracle_stats"]["calls_total"]}
            assert evaluated[name] > 0
            results[name] = record["result"]
        assert results["definition"] == results["zolotarev"] == results["factor"]


class TestSelftest:
    def test_small_suites_pass(self, capsys):
        code, out, err = run(
            capsys, "selftest", "--max-n", "100", "--suites", "t3,t5"
        )
        assert code == 0
        data = json.loads(out)
        names = [s["name"] for s in data["suites"]]
        assert names == ["t3", "t5"]
        assert all(s["passed"] for s in data["suites"])
        assert "t3: pass" in err

    def test_counterexample_suite_reports_pair(self, capsys):
        data = run_json(capsys, "selftest", "--suites", "counterexample")
        assert data["suites"][0]["detail"]["found"] == ["195", "79"]

    def test_zero_bound_zero_cases(self, capsys):
        data = run_json(capsys, "selftest", "--max-n", "0")
        assert all(s["cases"] == 0 for s in data["suites"])

    def test_defaults_pass_with_known_case_counts(self, capsys):
        data = run_json(capsys, "selftest")
        assert {s["name"]: (s["passed"], s["cases"]) for s in data["suites"]} == {
            "euler": (True, 9358),
            "stabilization": (True, 145),
            "t3": (True, 9354),
            "t5": (True, 3750),
            "jacobi": (True, 8150),
            "counterexample": (True, 1),
            "l2": (True, 3960),
            "a1": (True, 32),
            "qrp": (True, 676),
            "two_squares": (True, 199),
            "l4": (True, 4693),
            "agreement": (True, 13108),
            "probabilistic": (True, 1),
        }

    def test_failed_suite_exits_1_with_report(self, capsys, monkeypatch):
        def failing(max_n, max_k):
            report = selftest.SuiteReport("euler")
            report.check(False, "a=2 p=3 k=1")
            return report

        monkeypatch.setitem(selftest.SUITES, "euler", failing)
        code, out, err = run(capsys, "selftest", "--suites", "euler")
        assert code == 1
        assert json.loads(out) == {
            "suites": [
                {
                    "name": "euler",
                    "cases": 1,
                    "passed": False,
                    "failures": ["a=2 p=3 k=1"],
                    "detail": {},
                }
            ]
        }
        assert "euler: FAIL (1 cases), first failure: a=2 p=3 k=1" in err

    def test_stabilization_checks_the_literal_image(self, monkeypatch):
        # A residue_set that is wrong at every level from nu_2(p-1) on, the
        # same wrong set at each, must fail against the literal image.
        real = selftest.residue_set

        def wrong(n, k, units_only):
            rset = real(n, k, units_only)
            if k >= arithmetic.valuation(n - 1, 2):
                return rset._replace(members=rset.members[:-1])
            return rset

        report = selftest.sweep_stabilization(50, 4)
        assert report.passed and report.cases == 47
        monkeypatch.setattr(selftest, "residue_set", wrong)
        report = selftest.sweep_stabilization(50, 4)
        assert report.cases == 47 and not report.passed
        assert report.failures[0] == "p=3 k=1"

    def test_unknown_suite_exits_1(self, capsys):
        code, out, err = run(capsys, "selftest", "--suites", "bogus")
        assert code == 1
        assert out == ""
        assert err.startswith("error: unknown suites: bogus")


class TestRunRecord:
    def test_record_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "symbol", "--a", "4", "--n", "15", "--k", "2", "--record"
        )
        assert code == 0
        record = json.loads(out)
        assert record["command"] == "symbol"
        assert record["result"] == {"symbol": -1}
        assert record["inputs"]["n"] == "15"
        assert isinstance(record["elapsed_ms"], int)
        assert record["oracle_stats"]["calls_total"] == 1
        assert json.loads(json.dumps(record)) == record

    @pytest.mark.parametrize(
        "flag, units", [(("--units",), True), ((), False)], ids=["units", "no-units"]
    )
    def test_flags_recorded_as_booleans(self, capsys, flag, units):
        record = run_json(
            capsys, "subgroup", "--n", "13", "--k", "2", *flag, "--record"
        )
        assert record["inputs"] == {"n": "13", "k": "2", "units": units}

    def test_euler_records_its_query(self, capsys):
        code, out, _ = run(
            capsys, "symbol", "--a", "4", "--n", "13", "--k", "2",
            "--method", "euler", "--record",
        )
        assert code == 0
        record = json.loads(out)
        assert record["result"] == {"symbol": -1}
        assert record["oracle_stats"]["calls_total"] == 1

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("RESIDUO_SEED", "42")
        code, out, _ = run(
            capsys, "two-squares", "--n", "65", "--mode", "probabilistic",
            "--trials", "5", "--seed", "7", "--record",
        )
        assert code == 0
        assert json.loads(out)["seed"] == 7

    def test_seed_env_is_ignored(self, capsys, monkeypatch):
        # The seed comes from --seed alone, 0 when the flag is absent.
        monkeypatch.setenv("RESIDUO_SEED", "abc")
        code, out, _ = run(
            capsys, "two-squares", "--n", "65", "--mode", "probabilistic",
            "--record",
        )
        assert code == 0
        assert json.loads(out)["seed"] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("two-squares", "--n", "65", "--floor", "50"),
            ("semiprime-bits", "--n", "39", "--search", "seeded_random"),
            ("semiprime-bits", "--n", "39", "--seed", "7"),
        ],
        ids=["floor", "search", "semiprime-seed"],
    )
    def test_removed_flags_exit_1(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: unrecognized arguments")

    def test_stdout_is_single_json_line(self, capsys):
        code, out, _ = run(capsys, "qrp", "--n", "39", "--a", "10")
        assert code == 0
        assert out.endswith("\n") and out.count("\n") == 1
        json.loads(out)
