"""Command-line interface: exit codes, JSON output, fuzzy names."""

import json
import os
import re
import shlex
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from superjet import catalog, cli
from superjet.cli import main
from superjet.grammar import print_poly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_expression(capsys):
    code, out = run(capsys, "parse", "--catalog", "pskdv", "--expr", "D(D(b))")
    assert code == 0
    assert "b_x" in out


def test_normalize_to_zero(capsys):
    code, out = run(capsys, "parse", "--catalog", "skdv", "--expr", "f*f")
    assert code == 0
    assert "0" in out


def test_derive(capsys):
    code, out = run(capsys, "derive", "--catalog", "pskdv", "--expr", "b", "--dir", "Dx")
    assert code == 0
    assert "b_x" in out


def test_check_symmetry_pass_and_fail(capsys):
    code, _ = run(capsys, "check-symmetry", "--catalog", "burgers-repr",
                  "--flow", "eq3_4_x")
    assert code == 0
    code, _ = run(capsys, "check-symmetry", "--catalog", "burgers-repr",
                  "--flow", "seed_susy")  # odd translation seed: still a symmetry
    assert code == 0


def test_commute_requires_two_flows(capsys):
    code, _ = run(capsys, "commute", "--catalog", "burgers-repr",
                  "--flow", "eq3_4_x")
    assert code == 2


def test_commuting_pair(capsys):
    code, _ = run(capsys, "commute", "--catalog", "burgers-repr",
                  "--flow", "eq3_4_x", "--flow", "eq3_4_t")
    assert code == 0


def test_fuzzy_flow_names(capsys):
    code, _ = run(capsys, "check-symmetry", "--catalog", "bous-embed",
                  "--flow", "eq-5.4")
    assert code == 0


def test_verify_shadow(capsys):
    code, _ = run(capsys, "verify-shadow", "--catalog", "dbous", "--shadow", "R")
    assert code == 0


def test_check_covering_json(capsys):
    code, out = run(capsys, "check-covering", "--catalog", "superburg", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"


def test_conserved_direction_semantics(capsys):
    code, _ = run(capsys, "conserved", "--catalog", "pskdv",
                  "--expr", "rho2", "--image", "D")
    assert code == 0
    code, _ = run(capsys, "conserved", "--catalog", "pskdv",
                  "--expr", "rho2", "--image", "Dx")
    assert code == 1


def test_euler(capsys):
    code, out = run(capsys, "euler", "--catalog", "pskdv", "--expr", "1/2*b^2")
    assert code == 0
    assert "b" in out


def test_nilpotency(capsys):
    code, out = run(capsys, "nilpotency", "--catalog", "hospital-1",
                    "--shadow", "R1", "--max", "6")
    assert code == 0
    assert "2" in out


def test_nilpotency_through_nonlocal_phantoms_is_an_error(capsys):
    """Composing shadows through non-local phantoms is not supported: the
    command reports it and exits 1, not with the engine-fault code."""
    code, out = run(capsys, "nilpotency", "--catalog", "superburg",
                    "--shadow", "R2", "--json")
    assert code == 1
    assert "non-local phantoms" in json.loads(out)["error"]


@pytest.mark.parametrize("max_power", ["1", "6"])
def test_the_zero_shadow_has_nilpotency_order_one(capsys, tmp_path, max_power):
    doc = tmp_path / "zero.sj"
    doc.write_text(catalog.get("hospital-1").sources["main"] + "shadow Z: f = 0, b = 0;\n")
    code, out = run(capsys, "nilpotency", "--file", str(doc), "--shadow", "Z",
                    "--max", max_power, "--json")
    assert code == 0
    assert json.loads(out)["order"] == 1


def test_apply_recursion(capsys):
    code, out = run(capsys, "apply-recursion", "--catalog", "skdv-a",
                    "--shadow", "R", "--seed", "seed_x", "--iterations", "1")
    assert code == 0


def test_infer_weights(capsys):
    code, out = run(capsys, "infer-weights", "--catalog", "burgers-repr")
    assert code == 0
    assert "1/2" in out


def test_a_list_of_dicts_prints_one_numbered_line_per_entry(capsys, tmp_path):
    """Plain text numbers the items of a list of dicts and prints their
    entries as ``key.i.name: value``; ``--json`` keeps the list."""
    doc = tmp_path / "doc.sj"
    doc.write_text("field b even susy 1 weight 1; param alpha; time weight -3; b_t = b_xxx;")
    code, out = run(capsys, "infer-weights", "--file", str(doc))
    assert code == 0
    assert out.splitlines() == ["weights.b: 0", "weights.t: -3", "weights.alpha: 0",
                                "unique: False", "freedom.0.b: 1", "freedom.1.alpha: 1",
                                "status: ok"]
    code, out = run(capsys, "infer-weights", "--file", str(doc), "--json")
    assert json.loads(out)["freedom"] == [{"b": "1"}, {"alpha": "1"}]


def test_plain_text_flattens_nested_lists_and_dicts(capsys):
    code, out = run(capsys, "find-symmetries", "--catalog", "bous-embed",
                    "--weight=-1/2..-1", "--parity", "even")
    assert code == 0
    assert "{" not in out and "[" not in out
    assert "rows.1.flows.0.b: b_x" in out.splitlines()


def test_a_reused_parser_keeps_calls_independent(capsys, monkeypatch):
    for a, b in (("eq3_4_x", "eq3_4_t"), ("eq3_4_t", "eq3_4_x")):
        assert main(["commute", "--catalog", "burgers-repr", "--flow", a, "--flow", b]) == 0
        assert capsys.readouterr().err == ""
    fixes = []
    monkeypatch.setattr(cli, "infer_weights",
                        lambda system, fixed, params: fixes.append(fixed))
    for pin in ("alpha=1", "f=1/2"):
        main(["infer-weights", "--catalog", "superburg", "--fix", pin])
    assert fixes == [{"alpha": 1}, {"f": Fraction(1, 2)}]
    capsys.readouterr()
    code, out = run(capsys, "verify-shadow", "--catalog", "dbous", "--shadow", "R", "--json")
    assert code == 0 and json.loads(out)["status"] == "ok"
    code, out = run(capsys, "verify-shadow", "--catalog", "dbous", "--shadow", "R")
    assert code == 0 and "status: ok" in out.splitlines()


def test_catalog_list_and_show(capsys):
    code, out = run(capsys, "catalog", "list")
    assert code == 0
    assert "skdv" in out and "dbous" in out
    code, out = run(capsys, "catalog", "show", "pskdv")
    assert code == 0
    code, out = run(capsys, "catalog", "show", "dbous")
    assert code == 0
    assert "scales.R-on-x: 3/2" in out.splitlines()
    code, out = run(capsys, "catalog", "show", "dbous", "--json")
    assert code == 0
    assert json.loads(out)["scales"] == {"R-on-x": "3/2", "hamiltonian-flows": "1"}


def test_catalog_verify_entry(capsys):
    code, out = run(capsys, "catalog", "verify", "pskdv")
    assert code == 0
    assert "ok" in out.lower() or "OK" in out


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["no-such-command"])
    assert ei.value.code == 2
    capsys.readouterr()
    code, _ = run(capsys, "parse", "--catalog", "no-such-entry", "--expr", "b")
    assert code == 2
    code, _ = run(capsys, "parse", "--catalog", "pskdv", "--expr", "b +* b")
    assert code == 2


def test_negative_result_exit_code(capsys):
    # a density that is not conserved must exit 1
    code, _ = run(capsys, "conserved", "--catalog", "pskdv",
                  "--expr", "1/3*b^3", "--image", "D")
    assert code == 1


def test_find_symmetries_reports_assumptions_and_branches(capsys):
    code, out = run(capsys, "find-symmetries", "--catalog", "bous-embed",
                    "--weight=-2", "--case-split-limit", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 1
    assert "2*alpha*beta" in payload["assumptions"]
    assert payload["branches"][0] == {"zero_params": [], "dimension": 1}
    assert {"zero_params": ["alpha"], "dimension": 2} in payload["branches"]


def test_find_symmetries_over_a_weight_range(capsys):
    code, out = run(capsys, "find-symmetries", "--catalog", "bous-embed",
                    "--weight=-1..-2", "--parity", "both", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["weight"], r["parity"], r["dimension"]) for r in rows] == [
        ("-1", "even", 1), ("-1", "odd", 0), ("-3/2", "even", 0),
        ("-3/2", "odd", 0), ("-2", "even", 1), ("-2", "odd", 0)]
    assert [r["ansatz_size"] for r in rows] == [4, 0, 0, 5, 7, 0]
    assert rows[0]["flows"] == [{"b": "b_x", "f": "f_x"}]
    assert "2*alpha*beta" in rows[0]["assumptions"]


def test_find_symmetries_assume_nonzero(capsys):
    code, out = run(capsys, "find-symmetries", "--catalog", "bous-embed",
                    "--weight=-4", "--assume-nonzero", "alpha,beta,gamma", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 1
    assert payload["assumptions"] == []
    assert payload["branches"] == [{"zero_params": [], "dimension": 1}]


@pytest.mark.parametrize("entry, names, declared", [
    ("bous-embed", "alpah,beta,gamma", "declared: alpha, beta, gamma"),
    ("pskdv", "alpha", "declared: none"),
])
def test_assume_nonzero_of_an_undeclared_name_is_a_usage_error(capsys, entry, names, declared):
    code = main(["find-symmetries", "--catalog", entry, "--weight=-4",
                 "--assume-nonzero", names])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert repr(names.split(",")[0]) in err and declared in err


def test_hamiltonian_operator_of_the_wrong_parity_is_a_usage_error(capsys):
    """The odd direction D on one even field gives an odd component for
    an even field."""
    code = main(["hamiltonian-flow", "--catalog", "pskdv", "--density", "rho2",
                 "--operator", "susy"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("weight", ["-1..0", "-1..-2..-3", "one", "1/0", "-1/2..-5/4"])
def test_bad_weight_is_a_usage_error(capsys, weight):
    code = main(["find-symmetries", "--catalog", "bous-embed", f"--weight={weight}"])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["infer-weights", "--catalog", "skdv", "--fix", "t=abc"],
    ["infer-weights", "--catalog", "skdv", "--fix", "t=1/0"],
    ["derive", "--catalog", "skdv", "--expr", "f", "--dir", "D", "--times", "-1"],
    ["apply-recursion", "--catalog", "skdv-a", "--shadow", "R", "--seed", "seed_x",
     "--iterations", "-2"],
])
def test_bad_number_is_a_usage_error(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # rejected by the argument parser
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("source, argv", [
    ("field b even susy 1 weight 1/0;\n", ["parse", "--file"]),
    (None, ["parse", "--catalog", "pskdv", "--expr", "1/0*b"]),
])
def test_zero_denominator_is_a_parse_error(capsys, tmp_path, source, argv):
    if source is not None:
        doc = tmp_path / "doc.sj"
        doc.write_text(source)
        argv = argv + [str(doc)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "zero denominator" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("source, argv, line", [
    ("field b even susy 1 weight 1;\nnonlocal w even weight 1: D(w) = b;\n",
     ["parse"], 2),
    ("field b even susy 1 weight 1;\nfield b even susy 1 weight 1;\n", ["parse"], 2),
    ("field b even susy 1 weight 1;\nflow s: b = Db;\n", ["parse"], 2),
    ("field b even susy 1 weight 1;\nfield f odd susy 1 weight 3/2;\ntime weight -2;\n"
     "b_t = b_xx;\nf_t = b_xx;\n", ["find-symmetries", "--weight=-1"], 5),
    ("field b even susy 1 weight 1;\nparam b weight 0;\ntime weight -2;\nb_t = b_xx;\n",
     ["dt", "--expr", "b"], 2),
    ("param a weight 0;\nparam a weight 1;\n", ["parse"], 2),
    ("field b even susy 1 weight 1;\nparam t weight 0;\ntime weight -2;\nb_t = t*b_xx;\n",
     ["infer-weights"], 2),
    ("field b even susy 0 weight 0;\nfn Q of b;\nfn Q of b;\nparam Q weight 0;\n"
     "time weight -2;\nb_t = b_xx + Q*b;\n", ["parse"], 3),
    ("field b even susy 0 weight 0;\nfn Q of b;\nparam Q weight 0;\n", ["parse"], 3),
    ("field b even susy 0 weight 0;\nfn b of b;\ntime weight -2;\nb_t = b_xx;\n",
     ["dt", "--expr", "b"], 2),
], ids=["nonlocal-parity", "duplicate", "flow-parity", "equation-parity",
        "param-shadows-field", "duplicate-param", "reserved-t", "duplicate-fn",
        "param-shadows-fn", "fn-shadows-field"])
def test_an_inconsistent_statement_is_a_parse_error(capsys, tmp_path, source, argv, line):
    doc = tmp_path / "doc.sj"
    doc.write_text(source)
    code = main(argv + ["--file", str(doc)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"parse error: line {line}, column 1: ") and err.count("\n") == 1


def test_theta_expand_map_of_the_wrong_parity_is_a_usage_error(capsys, tmp_path):
    doc = tmp_path / "doc.sj"
    doc.write_text("field u even susy 0 weight 1;\nfield f odd susy 0 weight 1;\n"
                   "time weight -2;\nu_t = u_xx + u*u_x;\nf_t = f_xx;\n")
    code = main(["theta-expand", "--file", str(doc), "--field", "u", "--map", "f"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_infer_weights_pin_of_an_undeclared_name_is_a_usage_error(capsys):
    code = main(["infer-weights", "--catalog", "pskdv", "--fix", "nosuch=1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "'nosuch'" in err and "declared: b, t" in err


def test_integrate_with_a_denominator_is_not_integrable(capsys, tmp_path):
    """The Dx-preimage of u would be w/(a + 1), which is not a Laurent
    polynomial in a."""
    doc = tmp_path / "doc.sj"
    doc.write_text("param a weight 0;\nfield u even susy 0 weight 1;\ntime weight -2;\n"
                   "u_t = u_xx;\n"
                   "nonlocal w even susy 0 weight 0: w_x = a*u + u, w_t = a*u_x + u_x;\n")
    code, out = run(capsys, "integrate", "--file", str(doc), "--dir", "Dx", "--expr", "u",
                    "--json")
    assert code == 1
    assert "not a Laurent polynomial" in json.loads(out)["error"]
    code, out = run(capsys, "integrate", "--file", str(doc), "--dir", "Dx",
                    "--expr", "a*u + u", "--json")
    assert code == 0 and json.loads(out)["preimage"] == "w"


def test_apply_recursion_integrates_along_a_declared_d2(capsys, tmp_path):
    """The phantom of a non-local variable with only D2 declared is
    integrated along D2; with no space direction at all the seed's image
    is not local."""
    doc = tmp_path / "doc.sj"
    head = "field b even susy 2 weight 1;\ntime weight -2;\nb_t = b_xx;\n"
    doc.write_text(head + "nonlocal w even susy 2 weight 1: D2(w) = D2b, w_t = b_xx;\n"
                   "shadow R: b = B_x;\nflow seed_x: b = b_x;\n")
    code, out = run(capsys, "apply-recursion", "--file", str(doc), "--shadow", "R",
                    "--seed", "seed_x", "--iterations", "2", "--json")
    assert code == 0
    assert json.loads(out)["flows"] == [{"b": "b_xx"}, {"b": "b_xxx"}]
    doc.write_text(head + "nonlocal w even susy 2 weight 1: w_t = b_xx;\n"
                   "shadow R: b = B_x + W*b_x;\nflow seed_x: b = b_x;\n")
    code, out = run(capsys, "apply-recursion", "--file", str(doc), "--shadow", "R",
                    "--seed", "seed_x", "--json")
    assert code == 1
    assert "has no space-direction declaration" in json.loads(out)["error"]


def test_missing_weight_is_a_usage_error(capsys, tmp_path):
    doc = tmp_path / "doc.sj"
    doc.write_text("field b even susy 0;\nfield c even susy 0 weight 1;\n"
                   "time weight -2;\nb_t = c_x;\nc_t = b_x;\n")
    code, _ = run(capsys, "find-symmetries", "--file", str(doc), "--weight=-1")
    assert code == 2


def test_unweighted_parameter_is_a_usage_error(capsys, tmp_path):
    doc = tmp_path / "doc.sj"
    doc.write_text("field b even susy 1 weight 1;\nparam alpha;\n"
                   "time weight -3;\nb_t = b_xxx;\n")
    code = main(["integrate", "--file", str(doc), "--dir", "Dx",
                 "--expr", "alpha*b*b_x"])
    assert code == 2
    assert capsys.readouterr().err == "error: no weight assigned to parameter alpha\n"


def test_unknown_catalog_id_is_a_usage_error(capsys):
    code = main(["catalog", "show", "nosuch"])
    assert code == 2
    assert capsys.readouterr().err == "error: unknown catalog entry 'nosuch'\n"


def test_parameter_named_like_an_engine_unknown(capsys, tmp_path):
    """The symmetry-search unknowns cannot clash with a document's names:
    a parameter c0 gives what the same parameter named k gives."""
    outs = []
    for name in ("c0", "k"):
        doc = tmp_path / f"{name}.sj"
        doc.write_text(f"param {name} weight 0;\nfield b even susy 1 weight 1;\n"
                       f"time weight -2;\nb_t = {name}*b_xx + b*b_x;\n")
        code, out = run(capsys, "find-symmetries", "--file", str(doc), "--weight=-1", "--json")
        assert code == 0
        outs.append(json.loads(out))
    assert outs[0] == outs[1]
    assert outs[0]["dimension"] == 1 and outs[0]["flows"] == [{"b": "b_x"}]


@pytest.mark.parametrize("argv", [
    ["integrate", "--dir", "Dx", "--expr", "Q'(b)*b_x"],
    ["conserved", "--expr", "Q(b)", "--image", "Dx"],
])
def test_function_factor_of_a_weighted_field_is_a_usage_error(capsys, tmp_path, argv):
    doc = tmp_path / "doc.sj"
    doc.write_text("field b even susy 1 weight 1;\nfn Q of b;\ntime weight -2;\nb_t = b_xx;\n")
    code = main(argv + ["--file", str(doc)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: function factor Q has no weight") and err.count("\n") == 1


NO_F_T = ("field f odd susy 1 weight 1/2; field b even susy 1 weight 1/2;"
          " time weight -1/2; b_t = D(f);")
NO_V_T = ("field f odd susy 1 weight 3/2; time weight -3; f_t = D(f_x*f);"
          " nonlocal v even weight 1: D(v) = f; shadow R: f = f*DF - f_x*V;")


@pytest.mark.parametrize("source, argv, message", [
    (NO_F_T, ["dt", "--expr", "f"], "no evolution declared for f"),
    (NO_F_T, ["find-symmetries", "--weight=-1"], "flow symmetry ansatz has no component for f"),
    (NO_F_T, ["theta-expand", "--field", "f", "--map", "b"], "no evolution declared for f"),
    (NO_V_T, ["verify-shadow", "--shadow", "R"],
     "no t-derivative declared for non-local variable V"),
], ids=["dt", "find-symmetries", "theta-expand", "verify-shadow"])
def test_an_undeclared_evolution_is_a_usage_error(capsys, tmp_path, source, argv, message):
    doc = tmp_path / "doc.sj"
    doc.write_text(source + "\n")
    code = main(argv + ["--file", str(doc)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_engine_fault_is_not_a_usage_error(capsys, monkeypatch):
    def broken(cov):
        raise KeyError("engine bug")

    monkeypatch.setattr(cli, "check_covering", broken)
    code = main(["check-covering", "--catalog", "superburg"])
    assert code == 3
    assert "KeyError: 'engine bug'" in capsys.readouterr().err


def test_options_are_attached_where_they_are_read(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["parse", "--catalog", "pskdv", "--all"])
    assert ei.value.code == 2
    capsys.readouterr()
    code, out = run(capsys, "find-symmetries", "--catalog", "bous-embed", "--weight=-2",
                    "--max-degree", "2", "--case-split-limit", "1",
                    "--assume-nonzero", "alpha", "--json")
    assert code == 0
    assert json.loads(out)["dimension"] == 1


def _catalog_snapshot():
    """What every shared catalog entry holds, in printed form."""
    def polys(table):
        return {getattr(k, "name", k): print_poly(p) for k, p in table.items()}

    def doc_snapshot(doc):
        return (polys(doc.equations),
                {n: polys(fl.components) for n, fl in doc.flows.items()},
                {n: polys(sh.components) for n, sh in doc.shadows.items()},
                polys(doc.functionals))

    out = {}
    for cid in catalog.ids():
        e = catalog.get(cid)
        out[cid] = ({n: doc_snapshot(d) for n, d in e.docs.items()},
                    dict(e.scales), [n for n, _fn in e.checks])
    return out


def test_readme_commands_run(capsys):
    """Every ``superjet`` line of the README's sh blocks runs and exits 0,
    and leaves the shared catalog entries as it found them."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S)).replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in text.splitlines()
                if line.startswith("superjet ")]
    assert len(commands) > 10
    assert ["catalog", "verify", "--all"] in commands
    before = _catalog_snapshot()
    for argv in commands:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0, f"superjet {shlex.join(argv)}\n{captured.out}{captured.err}"
    assert _catalog_snapshot() == before


def test_parse_whole_document_with_a_shadow(capsys):
    code, out = run(capsys, "parse", "--catalog", "dbous", "--json")
    assert code == 0
    assert json.loads(out) == {
        "equations": {"b_t": "Df_x", "f_t": "b*Db"},
        "flows": {
            "eq4_9_t": "b = 1/2*b^2*b_x + Df*Df_x, f = b*Df*Db + 1/2*b^2*f_x",
            "eq4_9_x": "b = b*Df_x + b_x*Df, f = b^2*Db + Df*f_x",
            "seed_t": "b = Df_x, f = b*Db",
            "seed_x": "b = b_x, f = f_x",
        },
        "functionals": {
            "H1_0": "b",
            "H1_1": "b*Df",
            "H1_2": "1/2*b*Df^2 + 1/12*b^4",
            "H2_0": "Df",
            "H2_1": "1/6*b^3 + 1/2*Df^2",
            "H2_2": "1/6*b^3*Df + 1/6*Df^3",
        },
        "shadows": {
            "R": "b = 3/4*B*Df + 1/2*DF*b + V*Df_x + 3/4*W*b_x, "
                 "f = 3/4*Df*F + 1/2*b^2*DV + V*b*Db + 3/4*W*f_x",
        },
        "status": "ok",
    }


def test_dt(capsys):
    code, out = run(capsys, "dt", "--catalog", "dbous", "--expr", "b*Df", "--json")
    assert code == 0
    assert json.loads(out)["result"] == "b^2*b_x + Df*Df_x"


def test_hamiltonian_flow(capsys):
    code, out = run(capsys, "hamiltonian-flow", "--catalog", "dbous",
                    "--density", "H1_1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["flow"] == {"b": "b_x", "f": "f_x"}
    assert payload["is_symmetry"] is True


def test_gardner_search_runs_on_a_document_without_a_recorded_deformation(capsys, tmp_path):
    """The search needs the system, a functional and a weighted eps only:
    on the hydro-bous main text it finds what the catalog entry finds."""
    doc = tmp_path / "hb.sj"
    doc.write_text(catalog.get("hydro-bous").sources["main"])
    code, out = run(capsys, "gardner", "search", "--file", str(doc),
                    "--max-order", "2", "--json")
    assert code == 0
    assert json.loads(out) == {
        "deformations": [{
            "density": "1/6*w1^3 + 1/2*w2^2 + eps*t1_0*w2^3",
            "free": ["t1_0"],
            "miura": {
                "b": "w1 + 6*eps*t1_0*w1*w2",
                "c": "2*eps*t1_0*w1^3 + w2 + 6*eps*t1_0*w2^2 + 12*eps^2*t1_0^2*w2^3",
            },
        }],
        "status": "ok",
    }
    assert run(capsys, "gardner", "search", "--catalog", "hydro-bous",
               "--max-order", "2", "--json") == (code, out)


def test_gardner_verify_needs_a_recorded_deformation(capsys, tmp_path):
    doc = tmp_path / "hb.sj"
    doc.write_text(catalog.get("hydro-bous").sources["main"])
    assert main(["gardner", "verify", "--file", str(doc)]) == 2
    assert "recorded deformation" in capsys.readouterr().err


def test_gardner_densities(capsys):
    code, out = run(capsys, "gardner", "densities", "--catalog", "hydro-bous",
                    "--order", "2", "--json")
    assert code == 0
    assert json.loads(out)["densities"] == {
        "w1": ["b", "-b*c", "2*b*c^2 + 1/3*b^4"],
        "w2": ["c", "-1/3*b^3 - c^2", "5/3*b^3*c + 5/3*c^3"],
    }


def test_theta_expand(capsys, tmp_path):
    doc = tmp_path / "doc.sj"
    doc.write_text("param alpha;\naux th clifford alpha;\n"
                   "field u even susy 0 weight 1;\nfield b even susy 0 weight 1;\n"
                   "field f odd susy 0 weight 1;\ntime weight -2;\n"
                   "u_t = u_xx + u*u_x;\nb_t = b_xx;\nf_t = f_xx;\n")
    code, out = run(capsys, "theta-expand", "--file", str(doc), "--field", "u",
                    "--map", "b + th*f", "--json")
    assert code == 0
    assert json.loads(out)["components"] == {
        "b_t": "b*b_x + b_xx - alpha*f*f_x",
        "f_t": "b_x*f + b*f_x + f_xx",
    }


def test_integrate_along_d(capsys):
    code, out = run(capsys, "integrate", "--catalog", "pskdv", "--dir", "D",
                    "--expr", "b*b_x", "--json")
    assert code == 0
    assert json.loads(out)["preimage"] == "b*Db"


def test_apply_recursion_to_a_seed_with_a_nonlocal_image(capsys, tmp_path):
    """A seed whose phantom value has no local preimage: the command
    reports it and exits 1."""
    doc = tmp_path / "doc.sj"
    doc.write_text(catalog.get("skdv-a").sources["main"] + "flow bad1: f = f*Df;\n")
    code, out = run(capsys, "apply-recursion", "--file", str(doc),
                    "--shadow", "R", "--seed", "bad1")
    assert code == 1
    assert "error: value of phantom for v is not local" in out


def test_commands_run_without_importing_sympy():
    """No command and no solve imports sympy: not the weight scan without
    --assume-nonzero, which records its assumptions through the ring's own
    numerator, and not the systems whose pivots have several terms."""
    script = textwrap.dedent("""
        import contextlib, io, sys
        from fractions import Fraction
        from superjet import cli
        from superjet.algebra import SuperPoly
        from superjet.determine import extract_linear_system, solve_linear
        from superjet.jets import substitute_params
        for argv in (
            ["catalog", "verify", "--all"],
            ["find-symmetries", "--catalog", "bous-embed", "--weight=-1/2..-5",
             "--parity", "both"],
            ["apply-recursion", "--catalog", "dbous", "--shadow", "R",
             "--seed", "seed_x", "--iterations", "3"],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        P = SuperPoly.param
        alpha, beta, one = P("alpha"), P("beta"), SuperPoly.one()
        names = ["c0", "c1", "c2"]
        c0, c1, c2 = map(P, names)
        eqs = extract_linear_system([alpha * c0 + c1, c0 + beta * c1 + c2], names)
        (sol,) = solve_linear(eqs, names, assume_nonzero=("alpha", "beta"))
        assert sol.basis == [{"c0": one, "c1": -alpha, "c2": alpha * beta - one}]

        def entry(i, j):  # a Laurent monomial in alpha, beta and gamma
            exps = ((i + j) % 3 - 1, (i * j) % 3 - 1, (i + 2 * j) % 3 - 1)
            params = tuple((nm, e) for nm, e in zip(("alpha", "beta", "gamma"), exps) if e)
            return SuperPoly({((), (), (), params): Fraction(i + j + 1, 2)})

        names = [f"c{j}" for j in range(5)]
        rows = [[entry(i, j) for j in range(5)] for i in range(4)]
        rows[1][2] = rows[1][2] + alpha
        polys = [sum((a * P(u) for a, u in zip(row, names)), SuperPoly.zero()) for row in rows]
        (sol,) = solve_linear(extract_linear_system(polys, names), names)
        assert sol.dim == 1 and len(sol.assumptions[-1].terms) > 1
        assert all(substitute_params(p, sol.basis[0]).is_zero for p in polys)
        print(sorted(m for m in sys.modules if m.split(".")[0] == "sympy")[:3])
    """)
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
