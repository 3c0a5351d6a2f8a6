"""Command-line surface: document round trips, report shapes, exit codes."""

import json
import time

import pytest

from evolsym.cli import (
    _worker_count,
    equation_to_document,
    main,
    parse_equation_document,
)
from evolsym.errors import InputError
from evolsym.kernel import Verdict, is_zero, normalize, to_str
from evolsym.model import ReducedEquation

FREE3 = {"order": 3, "form": "reduced", "coefficients": {}}
FREE4 = {"order": 4, "form": "reduced", "coefficients": {}}
# coefficient strings in the canonical printer spelling, so documents
# round-trip byte-identically
CASE2_R4 = {
    "order": 4,
    "form": "reduced",
    "coefficients": {"A0": "x^(-4)", "A1": "x^(-3)", "A2": "x^(-2)"},
}
DRIFT3 = {"order": 3, "form": "reduced", "coefficients": {"A0": "x"}}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj), encoding="utf-8")
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestEquationDocuments:
    def test_roundtrip_reduced(self):
        eq, params = parse_equation_document(CASE2_R4)
        assert isinstance(eq, ReducedEquation)
        assert equation_to_document(eq) == CASE2_R4

    def test_parameters_rational_and_symbolic(self):
        doc = {
            "order": 3,
            "form": "reduced",
            "coefficients": {"A0": "c*x", "A1": "k"},
            "parameters": {"c": "1/3", "k": "symbolic"},
        }
        eq, params = parse_equation_document(doc)
        assert params == ("c", "k")
        assert to_str(normalize(eq.A[0]).as_expr()) == "1/3*x"
        assert to_str(normalize(eq.A[1]).as_expr()) == "k"

    def test_inconsistent_names_rejected(self):
        bad = {"order": 3, "form": "reduced", "coefficients": {"A2": "1"}}
        with pytest.raises(InputError):
            parse_equation_document(bad)
        bad = {"order": 3, "form": "reduced", "coefficients": {"B": "x"}}
        with pytest.raises(InputError):
            parse_equation_document(bad)

    def test_general_form(self):
        doc = {
            "order": 3,
            "form": "general",
            "coefficients": {"A3": "2", "B": "x"},
        }
        eq, _ = parse_equation_document(doc)
        assert to_str(normalize(eq.A[3]).as_expr()) == "2"
        assert to_str(normalize(eq.B).as_expr()) == "x"


class TestClassify:
    def test_case5_summary(self, capsys, tmp_path):
        rep = run_json(
            capsys, "classify", write(tmp_path, "eq.json", FREE3)
        )
        assert rep["summary"] == "case 5; dim 4; basis I(1),D(1),D(t),P(1)"
        assert rep["signature"] == [1, 1, 2]

    def test_case2_r4(self, capsys, tmp_path):
        rep = run_json(
            capsys, "classify", write(tmp_path, "eq.json", CASE2_R4)
        )
        assert rep["case"] == "2"
        assert rep["dim"] == 3

    def test_general_document_is_gauged_first(self, capsys, tmp_path):
        doc = {"order": 3, "form": "general", "coefficients": {"A3": "2"}}
        rep = run_json(capsys, "classify", write(tmp_path, "eq.json", doc))
        assert rep["case"] == "5"
        assert any("gauged" in c for c in rep["caveats"])

    def test_malformed_expression_exit2_with_offset(self, capsys, tmp_path):
        doc = {"order": 3, "form": "reduced", "coefficients": {"A0": "x^^"}}
        code, out, err = run(
            capsys, "classify", write(tmp_path, "eq.json", doc)
        )
        assert code == 2
        payload = json.loads(err)
        assert payload["exit_code"] == 2
        assert "offset" in payload

    def test_determinism(self, capsys, tmp_path):
        p = write(tmp_path, "eq.json", CASE2_R4)
        _, out1, _ = run(capsys, "classify", p)
        _, out2, _ = run(capsys, "classify", p)
        assert out1 == out2

    def test_batch_isolation(self, capsys, tmp_path):
        batch = [FREE3, {"order": 3, "form": "reduced", "coefficients": {"A0": "(("}}, CASE2_R4]
        rep = run_json(capsys, "classify", write(tmp_path, "b.json", batch))
        res = rep["results"]
        assert res[0]["case"] == "5"
        assert "error" in res[1] and res[1]["exit_code"] == 2
        assert res[2]["case"] == "2"

    def test_oversized_system_exit3(self, capsys, tmp_path):
        # 909 unknowns and about 600 monomials per order exceed the default
        # bound of 500000 cells
        code, out, err = run(
            capsys, "--ansatz-degree", "100", "classify", write(tmp_path, "eq.json", FREE3)
        )
        assert code == 3 and out == ""
        payload = json.loads(err)
        assert payload["exit_code"] == 3
        assert "size bound" in payload["error"]

    def test_deep_nesting_exit2(self, capsys, tmp_path):
        deep = {"order": 3, "form": "reduced", "coefficients": {"A0": "(" * 3000 + "x" + ")" * 3000}}
        code, _out, err = run(capsys, "classify", write(tmp_path, "eq.json", deep))
        assert code == 2
        payload = json.loads(err)
        assert payload["exit_code"] == 2
        assert "limit of 50 levels" in payload["error"]
        assert payload["offset"] == 50

    def test_huge_rational_power_exit2(self, capsys, tmp_path):
        # refused at the '^' before a 10^8-bit integer is built
        doc = {"order": 3, "form": "reduced", "coefficients": {"A0": "x + 2^(10^8)"}}
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", write(tmp_path, "eq.json", doc))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["exit_code"] == 2
        assert "limit of 100000 bits" in payload["error"]
        assert payload["offset"] == 5

    def test_deep_nesting_in_batch_is_isolated(self, capsys, tmp_path):
        deep = {"order": 3, "form": "reduced", "coefficients": {"A0": "-" * 3000 + "x"}}
        batch = [FREE3, deep, CASE2_R4]
        rep = run_json(capsys, "classify", write(tmp_path, "b.json", batch))
        res = rep["results"]
        assert res[0]["case"] == "5"
        assert res[1]["exit_code"] == 2 and "limit of 50 levels" in res[1]["error"]
        assert res[2]["case"] == "2"

    def test_jobs_below_one_exit2(self, capsys, tmp_path):
        p = write(tmp_path, "b.json", [FREE3, CASE2_R4])
        for jobs in ("0", "-3"):
            code, out, err = run(capsys, "--jobs", jobs, "classify", p)
            assert code == 2 and out == ""
            assert "--jobs must be at least 1" in json.loads(err)["error"]

    def test_worker_count_is_clamped(self, monkeypatch):
        # the helper only: no pool is started with these values
        monkeypatch.setattr("evolsym.cli.os.cpu_count", lambda: 2)
        assert _worker_count(10**6, 10**6) == 2
        assert _worker_count(10**6, 1) == 1
        assert _worker_count(1, 50) == 1
        monkeypatch.setattr("evolsym.cli.os.cpu_count", lambda: None)
        assert _worker_count(8, 50) == 1

    def test_term_budget_exit3(self, capsys, tmp_path):
        doc = {"order": 3, "form": "reduced", "coefficients": {"A0": "(x+t+1)^400"}}
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", write(tmp_path, "eq.json", doc))
        assert time.perf_counter() - start < 2
        assert code == 3 and out == ""
        assert "term budget exceeded" in json.loads(err)["error"]

    def test_power_tower_exit3(self, capsys, tmp_path):
        doc = {"order": 3, "form": "reduced", "coefficients": {"A0": "^".join(["x"] * 50)}}
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", write(tmp_path, "eq.json", doc))
        assert time.perf_counter() - start < 2
        assert code == 3 and out == ""
        assert "exponent nesting budget exceeded" in json.loads(err)["error"]

    def test_batch_jobs_matches_serial(self, capsys, tmp_path):
        p = write(tmp_path, "b.json", [FREE3, CASE2_R4])
        _, serial, _ = run(capsys, "classify", p)
        _, parallel, _ = run(capsys, "--jobs", "2", "classify", p)
        assert serial == parallel


class TestTransform:
    def test_identity(self, capsys, tmp_path):
        eqp = write(tmp_path, "eq.json", CASE2_R4)
        trp = write(tmp_path, "tr.json", {"T": "t"})
        out = run_json(capsys, "transform", eqp, trp)
        assert out == CASE2_R4

    def test_scaling_invariance_of_free_equation(self, capsys, tmp_path):
        eqp = write(tmp_path, "eq.json", FREE3)
        trp = write(tmp_path, "tr.json", {"T": "2*t"})
        out = run_json(capsys, "transform", eqp, trp)
        assert out == FREE3

    def test_round_trip(self, capsys, tmp_path):
        eqp = write(tmp_path, "eq.json", CASE2_R4)
        fwd = write(tmp_path, "fwd.json", {"T": "2*t"})
        back = write(tmp_path, "back.json", {"T": "1/2*t"})
        mid = run_json(capsys, "transform", eqp, fwd)
        midp = write(tmp_path, "mid.json", mid)
        out = run_json(capsys, "transform", midp, back)
        assert out == CASE2_R4


class TestGauge:
    def test_leading_coefficient(self, capsys, tmp_path):
        doc = {"order": 3, "form": "general", "coefficients": {"A3": "2"}}
        rep = run_json(capsys, "gauge", write(tmp_path, "eq.json", doc))
        assert rep["equation"] == FREE3
        assert any(step["T"] == "2*t" for step in rep["report"]["chain"])

    def test_inhomogeneity_auto_particular(self, capsys, tmp_path):
        doc = {
            "order": 3,
            "form": "general",
            "coefficients": {"A3": "1", "B": "x"},
        }
        rep = run_json(capsys, "gauge", write(tmp_path, "eq.json", doc))
        assert rep["equation"] == FREE3
        # deterministic t-free gauge shift: u -> u + x^4/24
        assert any(
            step.get("U0") == "1/24*x^4" for step in rep["report"]["chain"]
        )

    def test_already_reduced_noop(self, capsys, tmp_path):
        rep = run_json(capsys, "gauge", write(tmp_path, "eq.json", FREE3))
        assert rep["equation"] == FREE3
        assert rep["report"]["chain"] == []


class TestSolve:
    def test_poly_t(self, capsys, tmp_path):
        rep = run_json(
            capsys,
            "solve",
            write(tmp_path, "eq.json", FREE3),
            "--method",
            "poly-t",
            "--N",
            "1",
            "--top-layer",
            "x^2",
        )
        assert rep["solutions"][0]["expr"] == "t*x^2 + 1/60*x^5"
        assert rep["solutions"][0]["certificate"] == "zero-residual"

    def test_p1i(self, capsys, tmp_path):
        rep = run_json(
            capsys,
            "solve",
            write(tmp_path, "eq.json", DRIFT3),
            "--method",
            "P1I",
            "--phi0",
            "0",
        )
        assert rep["solutions"][0]["expr"] == "c0*exp(1/4*t^4 + t*x)"

    def test_gen_reduction(self, capsys, tmp_path):
        rep = run_json(
            capsys,
            "solve",
            write(tmp_path, "eq.json", FREE3),
            "--method",
            "gen-reduction",
            "--family",
            "D",
            "--lambda",
            "1",
            "--N",
            "0",
        )
        assert rep["system"] == ["v0_3 = (1)*v0"]
        symbolic = [
            s["expr"] for s in rep["solutions"] if s["kind"] == "symbolic"
        ]
        assert symbolic == ["exp(t + x)"]

    def test_d1_constant_basis(self, capsys, tmp_path):
        rep = run_json(
            capsys,
            "solve",
            write(tmp_path, "eq.json", FREE3),
            "--method",
            "D1",
        )
        assert [s["expr"] for s in rep["solutions"]] == ["1", "x", "x^2"]

    def test_d1_nonconstant_reports_ode(self, capsys, tmp_path):
        rep = run_json(
            capsys,
            "solve",
            write(tmp_path, "eq.json", CASE2_R4),
            "--method",
            "D1",
        )
        assert rep["solutions"] == []
        assert "v_4" in rep["ode"]

    def test_nonlocal(self, capsys, tmp_path):
        seed = write(
            tmp_path,
            "seed.json",
            {"kind": "symbolic", "expr": "exp(t*x + 1/4*t^4)"},
        )
        grid = write(
            tmp_path,
            "grid.json",
            {"t": [0.0, 1.0], "x": [0.0, 1.0], "ht": 0.03125, "hx": 0.03125,
             "order": 6},
        )
        rep = run_json(
            capsys,
            "solve",
            write(tmp_path, "eq.json", DRIFT3),
            "--method",
            "nonlocal",
            "--seed",
            seed,
            "--grid",
            grid,
        )
        sol = rep["solutions"][0]
        assert sol["kind"] == "numeric"
        assert sol["max_residual"] < 5e-6

    def test_unsupported_shape_exit3(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "solve",
            write(tmp_path, "eq.json", CASE2_R4),
            "--method",
            "P1I",
        )
        assert code == 3
        assert json.loads(err)["exit_code"] == 3

    def test_gen_reduction_omits_trigonometric_chains(self, capsys, tmp_path):
        # u_t = u_xxxx, lam = 1: the basis is e^-x, e^x, cos x, sin x; the
        # layer-1 chains of cos and sin leave the exp-polynomial span, the
        # exponential chains close
        argv = ["--method", "gen-reduction", "--family", "D", "--N", "1"]
        argv += ["--lambda", "1"]
        rep = run_json(
            capsys, "solve", write(tmp_path, "eq.json", FREE4), *argv
        )
        chains = {
            s["provenance"]["chain"]: s["expr"]
            for s in rep["solutions"]
            if s["certificate"] == "zero-residual"
        }
        assert chains["layer 1, basis 0"] == "t*exp(t - x) - 1/4*x*exp(t - x)"
        assert chains["layer 1, basis 1"] == "t*exp(t + x) + 1/4*x*exp(t + x)"
        assert len(chains) == 6
        assert rep["notes"] == [
            f"layer 1, basis {i}: layer right-hand side left the"
            " exp-polynomial span; chain omitted"
            for i in (2, 3)
        ]

    def test_gen_reduction_top_layer_outside_span_exit3(self, capsys, tmp_path):
        code, out, err = run(
            capsys,
            "solve",
            write(tmp_path, "eq.json", FREE4),
            "--method",
            "gen-reduction",
            "--family",
            "D",
            "--N",
            "1",
            "--lambda",
            "1",
            "--top-layer",
            "cos(x)",
        )
        assert code == 3
        assert "exp-polynomial span" in json.loads(err)["error"]


class TestVerify:
    def test_wrong_solution_reported(self, capsys, tmp_path):
        sol = write(tmp_path, "sol.json", {"kind": "symbolic", "expr": "x^3"})
        rep = run_json(
            capsys, "verify", write(tmp_path, "eq.json", FREE3), sol
        )
        assert rep["symbolic_residual"] == "-6"
        assert rep["verdict"] == "nonzero"

    def test_certified_solution(self, capsys, tmp_path):
        sol = write(
            tmp_path, "sol.json", {"kind": "symbolic", "expr": "exp(t + x)"}
        )
        rep = run_json(
            capsys,
            "--tolerance",
            "1e-6",
            "verify",
            write(tmp_path, "eq.json", FREE3),
            sol,
            "--numeric",
        )
        assert rep["symbolic_residual"] == "zero"
        assert rep["max_residual"] < 1e-8
        assert rep["slope"] == pytest.approx(6.0, abs=0.5)
        assert rep["within_tolerance"] is True

    def test_numeric_grid_document(self, capsys, tmp_path):
        import math

        n = 33
        ts = [i / (n - 1) for i in range(n)]
        xs = [i / (n - 1) for i in range(n)]
        vals = [[math.exp(tv + xv) for xv in xs] for tv in ts]
        sol = write(
            tmp_path,
            "sol.json",
            {
                "kind": "numeric",
                "grid": {"t": ts, "x": xs, "values": vals},
                "max_residual": None,
            },
        )
        rep = run_json(
            capsys, "verify", write(tmp_path, "eq.json", FREE3), sol
        )
        assert rep["max_residual"] < 1e-7


class TestSymmetryCheck:
    def test_yes(self, capsys, tmp_path):
        f = write(tmp_path, "f.json", {"tau": "1"})
        rep = run_json(
            capsys, "symmetry-check", write(tmp_path, "eq.json", FREE3), f
        )
        assert rep["holds"] == "yes"

    def test_no(self, capsys, tmp_path):
        f = write(tmp_path, "f.json", {"tau": "t^2"})
        rep = run_json(
            capsys, "symmetry-check", write(tmp_path, "eq.json", FREE3), f
        )
        assert rep["holds"] == "no"
        assert any(r != "0" for r in rep["residuals"])
