"""Command-line surface: document round trips, report shapes, exit codes."""

import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evolsym
from conftest import oracle_examples
from evolsym.cli import (
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

    def test_reduced_inhomogeneous_round_trip_and_gauge(self, capsys, tmp_path):
        # u_t = u_xxx + u + t keeps the reduced shape with a source term B
        doc = {
            "order": 3,
            "form": "reduced-inhomogeneous",
            "coefficients": {"A0": "1", "B": "t"},
        }
        eq, _ = parse_equation_document(doc)
        assert equation_to_document(eq) == doc
        rep = run_json(capsys, "gauge", write(tmp_path, "eq.json", doc))
        assert rep["equation"] == {"order": 3, "form": "reduced", "coefficients": {"A0": "1"}}
        # w = -t - 1 is the particular solution that u -> u + t + 1 absorbs
        assert rep["report"]["chain"] == [
            {"T": "t", "U0": "t + 1", "U1": "1", "X0": "0", "eps": 1}
        ]


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

    def test_equation_read_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(FREE3)))
        rep = run_json(capsys, "classify", "-")
        assert rep["summary"] == "case 5; dim 4; basis I(1),D(1),D(t),P(1)"

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

    def test_term_budget_exit3(self, capsys, tmp_path):
        doc = {"order": 3, "form": "reduced", "coefficients": {"A0": "(x+t+1)^400"}}
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", write(tmp_path, "eq.json", doc))
        assert time.perf_counter() - start < 2
        assert code == 3 and out == ""
        assert "term budget exceeded" in json.loads(err)["error"]

    def test_semiprime_surd_exit3(self, capsys, tmp_path):
        # factoring the 59-digit semiprime stops at the trial-division limit
        n = "30000000000000000000000000096400000000000000000000000002233"
        doc = {"order": 3, "form": "reduced", "coefficients": {"A0": f"x*{n}^(1/2)"}}
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", write(tmp_path, "eq.json", doc))
        assert time.perf_counter() - start < 2
        assert code == 3 and out == ""
        assert "factoring budget exceeded" in json.loads(err)["error"]

    def test_power_tower_exit3(self, capsys, tmp_path):
        doc = {"order": 3, "form": "reduced", "coefficients": {"A0": "^".join(["x"] * 50)}}
        start = time.perf_counter()
        code, out, err = run(capsys, "classify", write(tmp_path, "eq.json", doc))
        assert time.perf_counter() - start < 2
        assert code == 3 and out == ""
        assert "exponent nesting budget exceeded" in json.loads(err)["error"]

    def test_exp_rates_widen_the_ansatz(self, capsys, tmp_path):
        # phi = e^(2t)/2 of A0 = x e^(2t) lies in the ansatz only with the
        # rate 2; without it the label is case 0, dim 1, which is wrong: the
        # essential algebra is case 3, dim 2 (an open item, pinned here)
        doc = {"order": 3, "form": "reduced", "coefficients": {"A0": "x*exp(2*t)"}}
        eq = write(tmp_path, "eq.json", doc)
        rep = run_json(capsys, "--exp-rates", "0,2,-2", "classify", eq)
        assert rep["summary"] == "case 3; dim 2; basis I(1),P(1) + I(1/2*exp(2*t))"
        assert rep["ansatz"] == "t^k exp(l*t), k<=3, l in {0,-2,2}"
        rep = run_json(capsys, "classify", eq)
        assert rep["summary"] == "case 0; dim 1; basis I(1)"

    @pytest.mark.parametrize(
        "rates,message",
        [("1,2", "the rate set must contain 0"), ("0,x", "--exp-rates must be rational")],
    )
    def test_bad_exp_rates_exit2(self, capsys, tmp_path, rates, message):
        eq = write(tmp_path, "eq.json", FREE3)
        code, out, err = run(capsys, "--exp-rates", rates, "classify", eq)
        assert (code, out) == (2, "")
        assert message in json.loads(err)["error"]


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
        assert rep["report"]["target_form"] == "reduced-homogeneous"
        assert any(step["T"] == "2*t" for step in rep["report"]["chain"])

    def test_inhomogeneity_auto_particular(self, capsys, tmp_path):
        doc = {
            "order": 3,
            "form": "general",
            "coefficients": {"A3": "1", "B": "x"},
        }
        rep = run_json(capsys, "gauge", write(tmp_path, "eq.json", doc))
        assert rep["equation"] == FREE3
        assert rep["report"]["target_form"] == "reduced-homogeneous"
        # deterministic t-free gauge shift: u -> u + x^4/24
        assert any(
            step.get("U0") == "1/24*x^4" for step in rep["report"]["chain"]
        )

    def test_already_reduced_noop(self, capsys, tmp_path):
        rep = run_json(capsys, "gauge", write(tmp_path, "eq.json", FREE3))
        assert rep["equation"] == FREE3
        assert rep["report"]["chain"] == []


# valid inhomogeneous equations whose coefficients are not polynomial: the
# automatic particular-solution search has nothing to offer
NON_POLYNOMIAL_INHOMOGENEOUS = [
    {"order": 3, "form": "general", "coefficients": {"A3": "1", "A0": "exp(t)", "B": "x"}},
    {"order": 3, "form": "general", "coefficients": {"A3": "1", "A0": "x", "B": "exp(t)"}},
]


@pytest.mark.parametrize("doc", NON_POLYNOMIAL_INHOMOGENEOUS)
@pytest.mark.parametrize("command", [("gauge",), ("classify",), ("solve", "--method", "D1")])
def test_non_polynomial_inhomogeneous_without_particular_exits3(capsys, tmp_path, doc, command):
    eq = write(tmp_path, "eq.json", doc)
    code, out, err = run(capsys, command[0], eq, *command[1:])
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "no polynomial particular solution found; pass one explicitly",
        "exit_code": 3,
    }


class TestSolve:
    @pytest.mark.parametrize(
        "A0",
        [
            # 10^21 has 484 divisors; the root 10^7 is exact, the complex
            # pair's numeric certificate overflows a float
            "1000000000000000000000",
            # a 59-digit semiprime constant: no divisor list within budget
            "30000000000000000000000000096400000000000000000000000002233",
        ],
    )
    def test_large_constant_term_ends(self, capsys, tmp_path, A0):
        # the rational root search takes the constant's divisors from its
        # bounded factorization, not from trial division up to its root
        doc = {"order": 3, "form": "reduced", "coefficients": {"A0": A0}}
        start = time.perf_counter()
        code, _out, err = run(capsys, "solve", write(tmp_path, "eq.json", doc), "--method", "D1")
        assert time.perf_counter() - start < 2
        assert code in (0, 3), err

    def test_semiprime_constant_term_keeps_its_rational_root(self, capsys, tmp_path):
        # char (w + 2)(w^2 - 2w + c), c = 4094999 * 7038671: A0 = 2c has a
        # composite factor that only the complete factorization splits
        c = 4094999 * 7038671
        doc = {"order": 3, "form": "reduced", "coefficients": {"A0": str(2 * c), "A1": str(c - 4)}}
        rep = run_json(capsys, "solve", write(tmp_path, "eq.json", doc), "--method", "D1")
        assert rep["solutions"][0]["expr"] == "exp(-2*x)"
        assert rep["solutions"][0]["certificate"] == "zero-residual"

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

    def test_p1i_quadrature_takes_the_grid_and_phi0_value(self, capsys, tmp_path):
        # exp(t^2) closes in no catalog: the solution is sampled on --grid
        # (9 points an axis, not the default 17) with phi0 bound to --phi0-value
        eq = write(tmp_path, "eq.json", {**FREE4, "coefficients": {"A2": "exp(t^2)"}})
        grid = write(tmp_path, "grid.json", {"t": [0, 1], "x": [0, 1], "ht": 0.125, "hx": 0.125})
        rep = run_json(capsys, "solve", eq, "--method", "P1I", "--grid", grid, "--phi0-value", "0.5")
        sol = rep["solutions"][0]
        assert sol["grid"]["t"] == sol["grid"]["x"] == [i / 8 for i in range(9)]
        assert sol["provenance"]["phi0_value"] == 0.5
        code, out, err = run(capsys, "solve", eq, "--method", "P1I", "--grid", str(tmp_path / "missing.json"))
        assert (code, out) == (2, "")
        assert json.loads(err)["exit_code"] == 2

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

    def test_gen_reduction_prints_coefficients_unchanged(self, capsys, tmp_path):
        # each layer's operator is printed with its own unknown's name; the
        # coefficient text, here a parameter named like an unknown, is not
        # rewritten
        doc = {
            "order": 3,
            "form": "reduced",
            "coefficients": {"A0": "kv_1*x"},
            "parameters": {"kv_1": "symbolic"},
        }
        rep = run_json(
            capsys,
            "solve",
            write(tmp_path, "eq.json", doc),
            "--method",
            "gen-reduction",
            "--family",
            "D",
            "--N",
            "1",
            "--lambda",
            "0",
        )
        assert rep["system"] == [
            "v0_3 + (kv_1*x)*v0_0 = (1)*v1",
            "v1_3 + (kv_1*x)*v1_0 = 0",
        ]

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

    @pytest.mark.parametrize(
        "coefficients,flags,note",
        [
            (
                {},
                ("--family", "D", "--N", "1", "--mu", "0", "--nu", "1"),
                "complex D chains with N > 0 are not solved in closed form",
            ),
            (
                {"A0": "x/t"},
                ("--family", "P", "--N", "0"),
                "time quadrature outside the catalog",
            ),
            (
                {"A0": "x*t"},
                ("--family", "P", "--N", "1"),
                "time-dependent layer coupling with N > 0 has no closed form here",
            ),
        ],
        ids=["D-complex-N1", "P-quadrature", "P-coupling-N1"],
    )
    def test_gen_reduction_without_closed_form_notes_why(
        self, capsys, tmp_path, coefficients, flags, note
    ):
        # the note names the reason only: the CLI has no integrator request
        doc = {"order": 3, "form": "reduced", "coefficients": coefficients}
        eq = write(tmp_path, "eq.json", doc)
        rep = run_json(capsys, "solve", eq, "--method", "gen-reduction", *flags)
        assert (rep["solutions"], rep["notes"]) == ([], [note])

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--method", "poly-t"), "--N is required for --method poly-t"),
            (("--method", "gen-reduction", "--N", "1"), "--family and --N are required"),
            (("--method", "gen-reduction", "--family", "D"), "--family and --N are required"),
            (("--method", "nonlocal"), "--seed is required for --method nonlocal"),
        ],
    )
    def test_missing_method_flags_exit2(self, capsys, tmp_path, flags, message):
        code, out, err = run(capsys, "solve", write(tmp_path, "eq.json", FREE3), *flags)
        assert (code, out) == (2, "")
        assert message in json.loads(err)["error"]


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

    def test_overflow_of_sin_on_the_grid_exits2(self, capsys, tmp_path):
        # t*x overflows to inf, whose sine raises ValueError in math.sin
        sol = write(tmp_path, "sol.json", {"kind": "symbolic", "expr": "sin(t*x)"})
        grid = {"t": [1e199, 1e200], "x": [1e199, 1e200], "ht": 1.125e199, "hx": 1.125e199}
        eq = write(tmp_path, "eq.json", FREE3)
        argv = ("verify", eq, sol, "--numeric", "--grid", write(tmp_path, "grid.json", grid))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "numeric overflow", "exit_code": 2}

    @pytest.mark.parametrize(
        "coefficients,flags",
        [
            # floating roots: closed forms with approximate constants
            ({}, ("--method", "gen-reduction", "--family", "D", "--N", "0", "--lambda=1")),
            ({}, ("--method", "gen-reduction", "--family", "D", "--N", "0", "--mu=1/2", "--nu=1")),
            # values sampled on a grid after quadrature
            ({}, ("--method", "nonlocal", "--x0=0.25", "--v0=1", "--phi0-value=0.5")),
            ({"A2": "exp(t^2)"}, ("--method", "P1I", "--phi0", "1")),
        ],
        ids=["lambda", "complex-pair", "nonlocal", "p1i-quadrature"],
    )
    def test_verify_reproduces_the_certificates_solve_prints(
        self, capsys, tmp_path, coefficients, flags
    ):
        r = 4 if coefficients else 3
        eq = write(tmp_path, "eq.json", {"order": r, "form": "reduced", "coefficients": coefficients})
        if "nonlocal" in flags:
            seed = {"kind": "symbolic", "expr": "t*x^2 + 1/60*x^5"}
            flags += ("--seed", write(tmp_path, "seed.json", seed))
        rep = run_json(capsys, "solve", eq, *flags)
        numeric = [s for s in rep["solutions"] if s["kind"] == "numeric"]
        assert numeric
        for sol in numeric:
            rep = run_json(capsys, "verify", eq, write(tmp_path, "sol.json", sol))
            assert rep == {"max_residual": sol["max_residual"], "slope": sol["slope"]}

    def test_verify_certifies_a_numeric_mode_with_an_ode_certificate(self, capsys, tmp_path):
        # v_xxx + v_x + 2 v = 0 has a complex root pair: D1 prints its modes
        # with the ODE's own certificate and no grid, and verify checks them
        # on the default grid
        doc = {"order": 3, "form": "reduced", "coefficients": {"A0": "2", "A1": "1"}}
        eq = write(tmp_path, "eq.json", doc)
        rep = run_json(capsys, "solve", eq, "--method", "D1")
        numeric = [s for s in rep["solutions"] if s["kind"] == "numeric"]
        assert len(numeric) == 2
        for sol in numeric:
            assert "grid" not in sol
            rep = run_json(capsys, "verify", eq, write(tmp_path, "sol.json", sol))
            assert rep["max_residual"] <= 1e-6
            assert rep["slope"] == pytest.approx(6.0, abs=0.5)

    def test_numeric_document_without_expr_or_grid_exits2(self, capsys, tmp_path):
        sol = write(tmp_path, "sol.json", {"kind": "numeric", "max_residual": 0.0})
        code, out, err = run(capsys, "verify", write(tmp_path, "eq.json", FREE3), sol)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == (
            "numeric solution document carries neither 'expr' nor 'grid'"
        )

    @pytest.mark.parametrize(
        "grid,message",
        [
            ([0, 1], "grid document must be a JSON object"),
            ({"t": [0, 1], "x": [0, 1]}, "malformed grid document: missing ['ht', 'hx']"),
        ],
    )
    def test_bad_grid_document_exits2(self, capsys, tmp_path, grid, message):
        sol = write(tmp_path, "sol.json", {"kind": "symbolic", "expr": "exp(t + x)"})
        argv = ("verify", write(tmp_path, "eq.json", FREE3), sol, "--numeric")
        code, out, err = run(capsys, *argv, "--grid", write(tmp_path, "grid.json", grid))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == message

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


DRIFT_SEED = {"kind": "symbolic", "expr": "exp(t*x + 1/4*t^4)"}
# Python's json reads and writes NaN
NAN_GRID_SOLUTION = {
    "kind": "numeric",
    "grid": {
        "t": [i / 16 for i in range(17)],
        "x": [i / 16 for i in range(17)],
        "values": [[float("nan") if i == j == 8 else 0.0 for j in range(17)] for i in range(17)],
    },
}
# a well-formed grid for documents that spoil one of its values
NESTED_GRID = {"t": [0, 0.5, 1], "x": [0, 0.5, 1], "values": [[0, 0, 0]] * 3}


@pytest.mark.parametrize(
    "command,document,flags",
    [
        ("verify", [1, 2], ()),
        ("verify", "x", ()),
        ("verify", {"kind": "symbolic", "expr": "x", "parameters": 5}, ()),
        ("nonlocal", [1, 2], ()),
        ("nonlocal", "x", ()),
        ("nonlocal", {"kind": "symbolic", "expr": "x", "parameters": 5}, ()),
        ("transform", [1], ()),
        ("transform", {"eps": True}, ()),
        ("transform", {"eps": 1.0}, ()),
        ("classify", {**DRIFT3, "parameters": ["a"]}, ()),
        ("nonlocal", DRIFT_SEED, ("--x0", "nan")),
        ("nonlocal", DRIFT_SEED, ("--x0", "inf")),
        ("nonlocal", DRIFT_SEED, ("--v0", "inf")),
        ("nonlocal", DRIFT_SEED, ("--t0", "nan")),
        ("nonlocal", DRIFT_SEED, ("--phi0-value=-inf",)),
        # finite, but the solution overflows the float range on the grid
        ("nonlocal", DRIFT_SEED, ("--v0", "1e308")),
        ("verify", NAN_GRID_SOLUTION, ()),
        ("symmetry-check", [1], ()),
    ],
)
def test_malformed_documents_and_nonfinite_flags_exit2(
    capsys, tmp_path, command, document, flags
):
    doc = write(tmp_path, "doc.json", document)
    eq = write(tmp_path, "eq.json", DRIFT3)
    argv = {
        "verify": ("verify", eq, doc),
        "nonlocal": ("solve", eq, "--method", "nonlocal", "--seed", doc),
        "transform": ("transform", eq, doc),
        "classify": ("classify", doc),
        "symmetry-check": ("symmetry-check", eq, doc),
    }[command]
    code, out, err = run(capsys, *argv, *flags)
    assert code == 2, err
    assert out == ""
    assert json.loads(err)["exit_code"] == 2


@pytest.mark.parametrize(
    "flag,stage",
    [
        # math.exp overflows in the value loop
        ("--phi0-value=1e300", "nonlocal generation"),
        # finite grid values whose stencil products overflow to inf - inf
        ("--v0=1e308", "the residual"),
    ],
)
def test_nonlocal_out_of_float_range_exits3(capsys, tmp_path, flag, stage):
    seed = write(tmp_path, "seed.json", {"kind": "symbolic", "expr": "t*x^2 + 1/60*x^5"})
    eq = write(tmp_path, "eq.json", FREE3)
    code, out, err = run(capsys, "solve", eq, "--method", "nonlocal", "--seed", seed, flag)
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": f"numeric certificate out of float range in {stage}",
        "exit_code": 3,
    }


@pytest.mark.parametrize("t0", ["0", "0.5"])
def test_nonlocal_overflow_exits3_whatever_t0(capsys, tmp_path, t0):
    # phi0 = 1e200 overflows math.exp in the value loop at t0 = 0, and the
    # evaluator, at phi^3 in the time integrals, first at t0 = 0.5
    seed = write(tmp_path, "seed.json", {"kind": "symbolic", "expr": "t*x^2 + 1/60*x^5"})
    eq = write(tmp_path, "eq.json", FREE3)
    argv = ("solve", eq, "--method", "nonlocal", "--seed", seed, "--phi0-value=1e200")
    code, out, err = run(capsys, *argv, f"--t0={t0}")
    assert (code, out) == (3, "")
    assert json.loads(err) == {
        "error": "numeric certificate out of float range in nonlocal generation",
        "exit_code": 3,
    }


@pytest.mark.parametrize(
    "command,document,key",
    [
        # refused before a coefficient slot is made for each order
        ("classify", {**DRIFT3, "order": 10**30}, "order"),
        # one wrong-typed value per document kind: nothing is coerced
        # through str(), and the message names the key
        ("classify", {**DRIFT3, "coefficients": {"A0": True}}, "A0"),
        ("classify", {**DRIFT3, "coefficients": {"A0": 1.5}}, "A0"),
        ("classify", {**DRIFT3, "parameters": {"c": 0.5}}, "c"),
        ("classify", {**DRIFT3, "parameters": None}, "parameters"),
        ("symmetry-check", {"tau": None}, "tau"),
        ("symmetry-check", {"eta0": [1]}, "eta0"),
        ("verify", {"kind": "symbolic", "expr": 1.5}, "expr"),
        ("transform", {"X1": {"a": 1}}, "X1"),
        # the solution document's own shape
        ("verify", {"kind": "numeric", "grid": [1, 2]}, "grid"),
        ("verify", {"kind": "numeric", "grid": "abc"}, "grid"),
        ("verify", {"kind": "bogus", "expr": "x"}, "kind"),
        ("verify", {"kind": "symbolic"}, "expr"),
        ("nonlocal", {**DRIFT_SEED, "grid": None}, "grid"),
        # the grid's nested values: JSON numbers only, values a list of lists
        ("verify", {"kind": "numeric", "grid": {**NESTED_GRID, "t": True}}, "grid.t"),
        ("verify", {"kind": "numeric", "grid": {**NESTED_GRID, "x": [0, True]}}, "grid.x"),
        ("verify", {"kind": "numeric", "grid": {**NESTED_GRID, "values": [1, 2]}}, "grid.values"),
        # a missing key and an unknown one
        ("classify", {"order": 3, "form": "reduced"}, "coefficients"),
        ("symmetry-check", {"tau": "1", "xi": "0"}, "xi"),
    ],
)
def test_wrong_values_exit2_naming_the_key(capsys, tmp_path, command, document, key):
    doc = write(tmp_path, "doc.json", document)
    eq = write(tmp_path, "eq.json", DRIFT3)
    argv = {
        "classify": ("classify", doc),
        "symmetry-check": ("symmetry-check", eq, doc),
        "verify": ("verify", eq, doc),
        "transform": ("transform", eq, doc),
        "nonlocal": ("solve", eq, "--method", "nonlocal", "--seed", doc),
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 2, err
    assert out == ""
    assert re.search(rf"\b{key}\b", json.loads(err)["error"]), err


GRID = {"t": [0, 1], "x": [0, 1], "ht": 0.0625, "hx": 0.0625}


@pytest.mark.parametrize(
    "key,document,flags",
    [
        ("U1", {"U1": True}, ()),
        ("T", {"T": 2.0}, ()),
        ("X0", {"X0": None}, ()),
        ("order", {**GRID, "order": 6.9}, ()),
        ("ht", {**GRID, "ht": True}, ()),
        ("x", {**GRID, "x": [0, "1"]}, ()),
        # past the float range: float() would overflow
        ("hx", {**GRID, "hx": 10**400}, ()),
        ("--tolerance", GRID, ("--tolerance", "nan")),
        ("--tolerance", GRID, ("--tolerance", "inf")),
        ("--tolerance", GRID, ("--tolerance=-1e-6",)),
    ],
)
def test_lossy_json_values_and_bad_tolerance_exit2(capsys, tmp_path, key, document, flags):
    # nothing is coerced: the error names the offending key or flag
    doc = write(tmp_path, "doc.json", document)
    eq = write(tmp_path, "eq.json", FREE3)
    if "t" in document:
        sol = write(tmp_path, "sol.json", {"kind": "symbolic", "expr": "exp(t + x)"})
        argv = ("verify", eq, sol, "--numeric", "--grid", doc)
    else:
        argv = ("transform", eq, doc)
    code, out, err = run(capsys, *flags, *argv)
    assert code == 2, err
    assert out == ""
    rep = json.loads(err)
    assert rep["exit_code"] == 2
    assert key in rep["error"]


@pytest.mark.parametrize(
    "text",
    [
        # bytes that are not UTF-8
        b'{"order": 3, "form": "reduced", "coefficients": {"A0": "\xff"}}',
        # an integer literal past the interpreter's digit limit
        b'{"order": ' + b"1" * 5000 + b"}",
        # nesting deeper than the decoder's stack
        b"[" * 100000 + b"]" * 100000,
    ],
)
def test_undecodable_json_exit2(capsys, tmp_path, text):
    p = tmp_path / "eq.json"
    p.write_bytes(text)
    code, out, err = run(capsys, "classify", str(p))
    assert code == 2, err
    assert out == ""
    assert "invalid JSON" in json.loads(err)["error"]


def test_huge_stencil_order_exit2_fast(capsys, tmp_path):
    # the margins are checked before any stencil weights are computed
    doc = write(tmp_path, "grid.json", {**GRID, "order": 2000})
    eq = write(tmp_path, "eq.json", FREE3)
    sol = write(tmp_path, "sol.json", {"kind": "symbolic", "expr": "exp(t + x)"})
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", eq, sol, "--numeric", "--grid", doc)
    assert time.perf_counter() - start < 2.0
    assert code == 2, err
    assert out == ""
    assert json.loads(err)["error"] == "interior region is empty after stencil margins"


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

    def test_linearity_residual_listed_with_its_verdict(self, capsys, tmp_path):
        # eta0 = x^2 + 2t leaves u_t - u_xxx = 2 on the free equation
        f = write(tmp_path, "f.json", {"phi": "1", "eta0": "x^2 + 2*t"})
        rep = run_json(
            capsys, "symmetry-check", write(tmp_path, "eq.json", FREE3), f
        )
        assert rep == {
            "holds": "no",
            "residuals": ["0", "0", "2"],
            "verdicts": ["zero", "zero", "nonzero"],
        }


@pytest.mark.parametrize(
    "command",
    [("solve", "--method", "D1"), ("symmetry-check",)],
)
def test_general_document_carries_the_gauge_caveat(capsys, tmp_path, command):
    # u_t = 2 u_xxx is gauged by T = 2t before it is solved or checked
    eq = write(tmp_path, "eq.json", {"order": 3, "form": "general", "coefficients": {"A3": "2"}})
    args = (write(tmp_path, "f.json", {"tau": "1"}),) if command[0] == "symmetry-check" else ()
    rep = run_json(capsys, command[0], eq, *args, *command[1:])
    assert len(rep["caveats"]) == 1
    assert rep["caveats"][0].startswith("gauged to reduced form via [")
    assert '"T": "2*t"' in rep["caveats"][0]


# a fresh interpreter imports the CLI and solves the cold-start example,
# then prints the names of the loaded modules
_START_UP = """
import json, sys
import evolsym.cli
codes = [evolsym.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(sys.modules)]))
"""


def test_start_up_loads_no_scipy(tmp_path):
    # quadrature is the kernel's own QAGS port: neither the import, nor the
    # cold-start solve, nor a nonlocal solve that integrates may pull in
    # scipy, which would double start-up; and batches classify in-process,
    # so no process-pool module is loaded either
    eq = write(tmp_path, "drift.json", DRIFT3)
    seed = write(tmp_path, "seed.json", {"kind": "symbolic", "expr": "exp(t*x + 1/4*t^4)"})
    grid = write(
        tmp_path,
        "grid.json",
        {"t": [0.0, 0.5], "x": [0.0, 0.5], "ht": 0.0625, "hx": 0.0625, "order": 2},
    )
    cold, nonlocal_ = str(tmp_path / "cold.json"), str(tmp_path / "nonlocal.json")
    runs = [
        ["--output", cold, "solve", eq, "--method", "P1I", "--phi0", "0"],
        ["--output", nonlocal_, "solve", eq, "--method", "nonlocal", "--seed", seed, "--grid", grid],
    ]
    src = str(Path(evolsym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _START_UP, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    codes, modules = json.loads(proc.stdout)
    assert codes == [0, 0], proc.stderr
    assert json.loads(Path(cold).read_text(encoding="utf-8"))["solutions"]
    [sol] = json.loads(Path(nonlocal_).read_text(encoding="utf-8"))["solutions"]
    assert sol["kind"] == "numeric"
    for pkg in ("scipy", "multiprocessing", "concurrent"):
        assert [m for m in modules if m == pkg or m.startswith(pkg + ".")] == [], pkg


# --- document fuzz ----------------------------------------------------------------

# one valid document of each kind, which every command below accepts, and
# the JSON types each key takes; the entries of an equation's coefficients
# and parameters are keys too
_EXPR = (str, int)
FUZZ_DOCS = {
    "equation": {
        "order": 3,
        "form": "general",
        "coefficients": {"A3": "1", "A0": "c*x"},
        "parameters": {"c": "1"},
    },
    "field": {"tau": "1", "chi": "0", "phi": "0", "eta0": "0"},
    "transformation": {"T": "2*t", "X0": "t", "U1": "exp(t)", "U0": "0", "X1": "1", "eps": 1},
    "solution": {"kind": "symbolic", "expr": "exp(t*x + 1/4*t^4)", "parameters": []},
    "grid": {"t": [0.0, 0.5], "x": [0.0, 0.5], "ht": 0.0625, "hx": 0.0625, "order": 2},
}
FUZZ_TYPES = {
    "equation": {"order": (int,), "form": (str,), "coefficients": (dict,), "parameters": (dict,)},
    "coefficients": _EXPR,
    "parameters": _EXPR,
    "field": dict.fromkeys(("tau", "chi", "phi", "eta0"), _EXPR),
    "transformation": {**dict.fromkeys(("T", "X0", "U1", "U0", "X1"), _EXPR), "eps": (int,)},
    "solution": {"kind": (str,), "expr": _EXPR, "parameters": (list,)},
    "grid": {"t": (list,), "x": (list,), "ht": (int, float), "hx": (int, float), "order": (int,)},
}
FUZZ_COMMANDS = {
    "classify": ("classify", "equation"),
    "transform": ("transform", "equation", "transformation"),
    "solve": ("solve", "equation", "--method", "nonlocal", "--seed", "solution", "--grid", "grid"),
    "verify": ("verify", "equation", "solution", "--numeric", "--grid", "grid"),
    "symmetry-check": ("symmetry-check", "equation", "field"),
}
# a bool, a float, null, a list, an object and an integer past the float range
_REPLACEMENTS = (True, False, 1.5, None, [1], {"a": 1}, 10**400)
_NON_OBJECTS = ([1, 2], "x", 3, None, True)


@st.composite
def _fuzz_cases(draw):
    """(argv words, documents, and the replaced key, its new value and the
    types it accepts, or None when a whole document was replaced)."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    words = FUZZ_COMMANDS[command]
    kind = draw(st.sampled_from([w for w in words if w in FUZZ_DOCS]))
    docs = copy.deepcopy(FUZZ_DOCS)
    paths = [(key,) for key in docs[kind]]
    if kind == "equation":
        paths += [(m, key) for m in ("coefficients", "parameters") for key in docs[kind][m]]
    path = draw(st.sampled_from(paths + [None]))
    if path is None:
        docs[kind] = draw(st.sampled_from(_NON_OBJECTS))
        return words, docs, None
    target = docs[kind]
    for key in path[:-1]:
        target = target[key]
    value = target[path[-1]] = draw(st.sampled_from(_REPLACEMENTS))
    types = FUZZ_TYPES[path[0]] if len(path) == 2 else FUZZ_TYPES[kind][path[0]]
    return words, docs, (path[-1], value, types)


def test_fuzz_documents_are_valid():
    # the unmutated documents pass every command, so each exit 2 below comes
    # from the replaced value
    with tempfile.TemporaryDirectory() as tmp:
        for words in FUZZ_COMMANDS.values():
            argv = [write(Path(tmp), w, FUZZ_DOCS[w]) if w in FUZZ_DOCS else w for w in words]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, words


@pytest.mark.oracle
@settings(max_examples=oracle_examples(25), deadline=None)
@given(_fuzz_cases())
def test_cli_document_fuzz_property(case):
    # every document ends in bounded time with exit 0, 2 or 3; a value of a
    # JSON type its key does not take exits 2 with a message naming the key
    words, docs, replaced = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = [write(Path(tmp), w, docs[w]) if w in docs else w for w in words]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - start < 2.0, (words, docs)
    assert code in (0, 2, 3), err.getvalue()
    if replaced is not None and type(replaced[1]) not in replaced[2]:
        key = replaced[0]
        assert code == 2, (replaced, out.getvalue())
        assert re.search(rf"\b{key}\b", json.loads(err.getvalue())["error"]), err.getvalue()
