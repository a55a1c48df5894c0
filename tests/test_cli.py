import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diagvf import ConfigError, parse_config, report_to_dict, \
    run_characterize, emit_report, solve_quartic, candidate_model
from diagvf import admissibility_verdict, build_characteristic_quartic
from diagvf import _num, cli, measure, model, pipeline, roots, series
from diagvf._num import compositions
from diagvf.pipeline import parse_params, to_json
from diagvf.roots import DiagonalVFParams, _ordinate
from diagvf.cli import build_parser, main
from oracles import report_from_dict
from test_roots import complex_disc, params_for, quartic_from, small_root

E1_CONFIG = {
    "params": {"A": "-1", "a": "0", "b": "1", "c": "0", "d": "1",
               "e": "0", "f": "0"},
    "weights": ["1/4", "1/2", "1/4"],
}
P2_CONFIG = {
    "params": {"A": "-1", "a": "0", "b": "1", "c": "0", "d": "-1",
               "e": "1", "f": "0"},
    "weights": ["1/4", "1/2", "1/4"],
}
# the float quartic (x - 3)(x + 2)((x - 1)^2 + 4.9e-15): at the default tol
# the pair 1 +- 7e-8 i lies between cluster_tol / 2 and cluster_tol = 1.2e-7
# off the axis
NEAR_DOUBLE_CONFIG = {
    "params": {"A": -0.5, "a": 1.5, "b": 1.0, "c": -3.1250000000000027,
               "d": 5.249999999999995, "e": 0.0, "f": 12.000000000000059},
    "weights": [0.25, 0.25, 0.25, 0.25],
}
GOLDEN_DIR = Path(__file__).parent / "golden"
SQRT2_DOUBLE_GOLDEN = GOLDEN_DIR / "sqrt2_double.roots.json"


def huge_roots_config(k, n_weights=3):
    """E1-like params, written as integer strings, whose quartic
    x (x + 2 10^k)(x^2 - 10^2k) has four rational roots up to 2 10^k."""
    return {"params": {"A": "-1", "a": str(-10 ** k), "b": "1", "c": "0",
                       "d": str(2 * 10 ** (2 * k)), "e": "0", "f": "0"},
            "weights": ["1/4", "1/2", "1/4"] if n_weights == 3 else ["1/4"] * 4}


# decimal params whose quartic has roots -964777.4 and 1.2090602,
# 1.2090623, 1.2090662: the three close ones do not resolve in floats
UNRESOLVED_ROOTS = {"params": {"A": -1.0, "a": -482386.8888811743, "b": 1.0,
                               "c": -1.1225172329797608e+17, "d": 232700609989.82886,
                               "e": 0.0, "f": 1705194.1315738985},
                    "weights": [0.25, 0.25, 0.25, 0.25]}


def capped_params(digits, seed=0):
    """Exact params whose numerators and denominators have `digits` digits."""
    rng = np.random.default_rng(seed)

    def number():
        return "".join(map(str, [rng.integers(1, 10), *rng.integers(0, 10, digits - 1)]))
    params = {k: f"{'-' if rng.random() < 0.5 else ''}{number()}/{number()}" for k in "abcdef"}
    return dict(params, A=f"-{number()}/{number()}")


# atoms (-1, 10^155), (0, 0), (1, 10^155): a covariance of the float checks
# passes the float range
WIDE_ORDINATES = {"params": {"A": -1, "a": 0, "b": 1e-155, "c": 0, "d": 1e155,
                             "e": 0, "f": 0},
                  "weights": [0.25, 0.5, 0.25]}
WIDE_ORDINATES_EXACT = {
    "params": dict(WIDE_ORDINATES["params"], b="1/" + str(10 ** 155), d=str(10 ** 155)),
    "weights": ["1/4", "1/2", "1/4"]}

# atoms near (0, 0), (1e-6, -1e-12), (3e-6, 3e-12) on a parabola: three
# points, not collinear at any scale
SMALL_ATOMS = {"params": {"A": -1.0, "a": 2e-06, "b": 1.0, "c": 2e-18, "d": 1e-12,
                          "e": 0.0, "f": 0.0},
               "weights": [0.25, 0.5, 0.25]}
SMALL_ATOMS_EXACT = {
    "params": dict(SMALL_ATOMS["params"], A="-1", a="1/500000", b="1",
                   c="1/500000000000000000", d="1/1000000000000", e="0", f="0"),
    "weights": ["1/4", "1/2", "1/4"]}


# exact E1 weights a hair off the simplex: each is decided exactly, not
# within the float tolerance 1e-9
OFF_SIMPLEX_WEIGHTS = [
    (["1/4", "1/2", "1000000000001/4000000000000"],
     "nonnegative weights do not sum to 1"),
    (["1/4", "1/2", "1000000000020/4000000000000"],
     "nonnegative weights do not sum to 1"),
    (["1/2", "1000000000001/2000000000000", "-1/2000000000000"],
     "weights have mixed signs"),
]


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestParseConfig:
    def test_rational_strings(self):
        cfg = parse_config(json.dumps(E1_CONFIG))
        assert cfg["params"].A == -1 and cfg["params"].is_exact
        assert cfg["weights"][1].numerator == 1

    def test_invalid_json(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    def test_non_object(self):
        with pytest.raises(ConfigError):
            parse_config("[1, 2]")

    def test_missing_param_field(self):
        with pytest.raises(ConfigError):
            parse_config(json.dumps({"params": {"A": "-1"}}))

    def test_bad_param_domain(self):
        bad = dict(E1_CONFIG, params=dict(E1_CONFIG["params"], A="1"))
        with pytest.raises(ConfigError):
            parse_config(json.dumps(bad))

    @pytest.mark.parametrize("name", sorted(p.name.split(".")[0] for p in
                                            GOLDEN_DIR.glob("*.characterize.json")))
    def test_parsed_config_is_not_parsed_again(self, name):
        # a raw dict of strings and decimals gives the report its parsed
        # config gives, and only the raw dict goes through parse_config
        raw = json.loads((GOLDEN_DIR / f"{name}.config.json").read_text())
        cfg = parse_config(raw)
        with mock.patch("diagvf.pipeline.parse_config", wraps=parse_config) as parse:
            from_parsed = emit_report(run_characterize(cfg))
            assert parse.call_count == 0
            from_raw = emit_report(run_characterize(raw))
            assert parse.call_count == 1
        assert from_raw == from_parsed

    @pytest.mark.parametrize("cfg", [
        dict(E1_CONFIG, weights="121"), dict(E1_CONFIG, weights=["1/0"]),
        {"params": E1_CONFIG["params"], "weight_search": {"denominator": 0}}])
    def test_raw_dict_is_still_validated(self, cfg):
        with pytest.raises(ConfigError):
            run_characterize(cfg)

    @pytest.mark.parametrize("edit", [
        lambda c: c.__setitem__("weights", "121"), lambda c: c.update(weights="121"),
        lambda c: c.setdefault("quartic", [1, 0, 0, 0, 1]), lambda c: c.pop("weights"),
        lambda c: c.__delitem__("params"), lambda c: c.popitem(), lambda c: c.clear(),
        lambda c: c.__ior__({"weights": "121"}),
        lambda c: c["weight_search"].__setitem__("denominator", "3")])
    def test_parsed_config_refuses_edits(self, edit):
        # run_characterize takes a parsed config as it is, so one edited
        # after parse_config would skip the checks
        cfg = parse_config(dict(E1_CONFIG, weight_search={"denominator": 4}))
        before = dict(cfg)
        with pytest.raises(ConfigError, match="cannot be edited"):
            edit(cfg)
        assert cfg == before

    def test_edited_copy_of_a_parsed_config_is_validated(self):
        import copy
        import pickle
        cfg = parse_config(E1_CONFIG)
        for same in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
            assert same == cfg and type(same) is type(cfg)
        for edited in (dict(cfg, weights="121"), cfg | {"weights": "121"},
                       dict(cfg, weights="1/2")):
            assert type(edited) is dict
            with pytest.raises(ConfigError):
                run_characterize(edited)


class TestRunCharacterize:
    def test_e1_admissible(self):
        rep = run_characterize(E1_CONFIG)
        assert rep.status == "Admissible"
        assert rep.verdict == {"case": "CaseA", "N": 1, "reason": None}
        assert rep.pattern == "DoublePlusTwoSingleReal" and rep.n_r == 3
        assert rep.diag_check["pass"] and rep.regression["pass"]
        assert rep.regression["exact"] and rep.regression["max_dev"] == 0.0
        assert rep.star["holds"]

    def test_p2_admissible(self):
        rep = run_characterize(P2_CONFIG)
        assert rep.status == "Admissible"
        assert [a["nu"] for a in rep.atoms] == ["0", "-1", "0"]

    @pytest.mark.parametrize("a, c, d", [("103", "969612", "9404"),
                                         ("1003", "996996012", "994004")],
                             ids=["roots-0-1-5-200", "roots-0-1-5-2000"])
    def test_wide_exact_roots_pass_the_diag_check(self, a, c, d):
        # the exact diag deviation is 0, where a float theta grid read
        # 1.6e-8 and 2.5e-7
        cfg = {"params": {"A": "-1/2", "a": a, "b": "1", "c": c, "d": d,
                          "e": "0", "f": "0"},
               "weights": ["1/4"] * 4}
        rep = run_characterize(cfg)
        assert rep.status == "Admissible" and rep.pattern == "FourSingleReal"
        assert rep.diag_check == {"max_dev": 0.0, "pass": True}
        assert rep.regression["exact"] and rep.regression["max_dev"] == 0.0

    @pytest.mark.parametrize("cfg", [SMALL_ATOMS, SMALL_ATOMS_EXACT],
                             ids=["decimal", "exact"])
    def test_small_atoms_are_not_degenerate(self, cfg):
        rep = run_characterize(cfg)
        assert (rep.status, rep.degenerate) == ("Admissible", False)

    def test_bad_weights_rejected(self):
        cfg = dict(E1_CONFIG, weights=["1/2", "-1/4", "3/4"])
        rep = run_characterize(cfg)
        assert rep.status == "Rejected"
        assert "mixed" in rep.verdict["reason"]

    def test_quartic_only_inconclusive(self):
        rep = run_characterize({"quartic": ["0", "0", "-1", "0", "1"]})
        assert rep.status == "Inconclusive"
        assert rep.n_r == 3 and rep.atoms == []

    def test_no_real_roots_rejected(self):
        rep = run_characterize({"quartic": ["1", "0", "0", "0", "1"]})
        assert rep.status == "Rejected"
        assert rep.pattern == "FourComplex"
        assert "NRootDeficit" in rep.verdict["reason"]

    def test_weight_search(self):
        cfg = {"params": E1_CONFIG["params"],
               "weight_search": {"denominator": 4}}
        rep = run_characterize(cfg)
        assert rep.status == "Admissible"
        assert len(rep.weights) == 3 and rep.verdict["case"] == "CaseA"

    def test_series_probe_does_not_overflow(self):
        # the heaviest atom is the rightmost one, far from the others
        cfg = {"params": {"A": "-1", "a": "3/2", "b": "3", "c": "-13/8",
                          "d": "89/12", "e": "0", "f": "-64/9"},
               "weights": ["2/9", "1/3", "4/9"]}
        rep = run_characterize(cfg)
        assert rep.status == "Admissible"
        assert rep.regression == {"max_dev": 0.0, "pass": True, "exact": True}
        assert rep.series == {"depth": 8, "first_negative": None}

    @pytest.mark.parametrize("A, extra, status", [
        ("-1", {"weights": ["1/4", "1/2", "1/4"]}, "Admissible"),
        ("-1", {"weight_search": {"denominator": 4}}, "Admissible"),
        # r = 3/2: the one grid point the search takes is rejected on its
        # abscissas, so no model is built
        ("-2/3", {"weight_search": {"denominator": 5}}, "Rejected"),
    ])
    def test_quartic_solved_once(self, monkeypatch, A, extra, status):
        calls, builds, atoms = [], [], []

        def counting(q, tol=1e-8):
            calls.append(q)
            return solve_quartic(q, tol)

        def counting_model(*args, **kwargs):
            builds.append(args)
            return candidate_model(*args, **kwargs)

        def counting_atom(lam, p, rest, tol):
            atoms.append(lam)
            return _ordinate(lam, p, rest, tol)

        monkeypatch.setattr(pipeline, "solve_quartic", counting)
        monkeypatch.setattr(model, "solve_quartic", counting)
        monkeypatch.setattr(pipeline, "candidate_model", counting_model)
        monkeypatch.setattr(model, "_ordinate", counting_atom)
        rep = run_characterize(dict(params=dict(E1_CONFIG["params"], A=A), **extra))
        assert rep.status == status and len(calls) == 1
        # one model, also for an accepted search: the report takes the
        # search's model; a rejected search builds none
        built = status != "Rejected"
        assert len(builds) == built and len(atoms) == built * rep.n_r

    def test_series_block_needs_no_expansion(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return series.expand_series(*args, **kwargs)

        monkeypatch.setattr(series, "expand_series", counting)
        monkeypatch.setattr(pipeline, "expand_series", counting, raising=False)
        for cfg in (E1_CONFIG, P2_CONFIG,
                    dict(E1_CONFIG, params=dict(E1_CONFIG["params"], A="-1/8"))):
            rep = run_characterize(cfg)
            assert rep.status == "Admissible"
            assert rep.series == {"depth": 8, "first_negative": None}
        assert calls == []

    @pytest.mark.parametrize("module, name, count", [
        (roots, "build_characteristic_quartic", 1),
        (_num, "power_terms", 0),
    ], ids=["quartic", "power"])
    def test_exact_run_builds_each_object_once(self, monkeypatch, module, name, count):
        # counted under every diagvf module that binds the name; the
        # certificate checks the model, so no power is built
        calls = []
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for mod in (roots, _num, model, measure, pipeline, series):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
        rep = run_characterize(E1_CONFIG)
        assert rep.status == "Admissible" and rep.n_r == 3
        assert rep.regression["exact"] and len(calls) == count

    @pytest.mark.parametrize("name, realized", [
        (name, 0) for name in ("e1", "p2", "e1_n8", "e1_n60", "q4", "q4_wide", "c2",
                               "q4_tight", "q4_decimal", "float_chain", "mixed_within_tol",
                               "irrational4", "signed_tail")
    ])
    def test_measure_is_realized_only_off_the_certificate(self, monkeypatch, name,
                                                         realized):
        # the certificate checks every model, so no characterize golden
        # builds a measure: not float_chain, whose three float atoms are
        # 1.5e-4 and 4e-6 apart, nor mixed_within_tol and signed_tail, whose
        # weights share one sign only within the verdict's tol.  Counted
        # under every module that binds the name.
        calls = []
        original = measure.realize_measure

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for mod in (measure, pipeline):
            if getattr(mod, "realize_measure", None) is original:
                monkeypatch.setattr(mod, "realize_measure", counting)
        cfg = json.loads((GOLDEN_DIR / f"{name}.config.json").read_text())
        text = emit_report(run_characterize(cfg)) + "\n"
        assert text == (GOLDEN_DIR / f"{name}.characterize.json").read_text()
        assert len(calls) == realized

    @pytest.mark.parametrize("name", ["e1", "q4_tight"])
    def test_verdict_does_no_row_reduction(self, monkeypatch, name):
        # the verdict reads the kernel from the abscissas: it builds no
        # lattice matrix and never goes through star_condition
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            raise AssertionError("the verdict built a lattice matrix")

        monkeypatch.setattr(model, "star_condition", counting)
        monkeypatch.setattr(model, "LatticeMatrix", counting)
        cfg = json.loads((GOLDEN_DIR / f"{name}.config.json").read_text())
        rep = run_characterize(cfg)
        assert rep.star is not None and calls == []

    def test_dropped_float_atoms_leave_the_regression_exact(self):
        # the quartic's roots are -1 and 3 and the irrational 1 -+ sqrt(3),
        # floats whose zero weights drop them: the model is not exact, but
        # its kept atoms and weights, and so its measure, are
        cfg = {"params": {"A": "-1", "a": "2", "b": "-1", "c": "0", "d": "1",
                          "e": "3", "f": "0"},
               "weights": ["1/2", "0", "0", "1/2"]}
        rep = run_characterize(cfg)
        assert [a["lambda"] for a in rep.atoms][::3] == ["-1", "3"]
        assert rep.status == "Degenerate-Admissible"
        assert rep.regression == {"max_dev": 0.0, "pass": True, "exact": True}

    def test_float_weights_off_one_by_rounding_need_no_measure(self):
        # the weights sum to 1 + 5e-10, within the verdict's tol; a float
        # measure refuses masses that far off 1, but the certificate
        # builds none
        cfg = {"params": {k: float(v) for k, v in E1_CONFIG["params"].items()},
               "weights": [0.25, 0.5, 0.2500000005]}
        rep = run_characterize(cfg)
        assert rep.status == "Admissible" and rep.regression["max_dev"] == 0.0

    def test_exact_atoms_near_a_line_are_not_degenerate(self):
        # atoms (-1, 1e-13), (0, 0), (1, 1e-13): off one line by 1e-13
        cfg = {"params": {"A": "-1/2", "a": "0", "b": "10000000000000", "c": "0",
                          "d": "1/10000000000000", "e": "0", "f": "0"},
               "weights": ["1/4", "1/2", "1/4"]}
        rep = run_characterize(cfg)
        assert rep.status == "Admissible" and rep.degenerate is False

    def test_missing_weights(self):
        with pytest.raises(ConfigError):
            run_characterize({"params": E1_CONFIG["params"]})

    def test_report_round_trip(self):
        rep = run_characterize(E1_CONFIG)
        assert report_from_dict(report_to_dict(rep)) == rep

    def test_emit_deterministic(self):
        assert emit_report(run_characterize(E1_CONFIG)) == \
            emit_report(run_characterize(E1_CONFIG))


def grid_search_oracle(p, n_r, denominator, roots):
    """Every point of the 1/denominator weight grid, in composition order."""
    for ns in compositions(denominator, n_r):
        if 0 in ns:
            continue
        weights = tuple(F(n, denominator) for n in ns)
        if admissibility_verdict(candidate_model(p, weights, roots=roots)).accepted:
            return weights
    return None


def _params(A, c, d, Af):
    # a = e = 0, b = 1: the characteristic quartic is x^4 - d x^2 - c x + A f
    return parse_params(dict(A=A, a="0", b="1", c=c, d=d, e="0", f=str(F(Af) / F(A))))


# small integer roots give four atoms a mixed lattice generator within
# the bound (-2, -1, 1, 2 has (2, -2, 1)) often enough to be drawn
search_root = st.one_of(small_root, st.integers(-4, 4).map(F))


@st.composite
def search_params(draw):
    """Exact params (b = 1, e = 0) whose characteristic quartic, built by
    `quartic_from`, has 2 to 4 distinct rational roots: four simple ones,
    three with one doubled, or two beside an irreducible quadratic with
    complex roots.  The coefficients q_k of the quartic then give a = -q_3/2,
    d = a^2 - q_2, c = a d - q_1 and f = q_0 / A."""
    k = draw(st.integers(2, 4))
    lams = draw(st.lists(search_root, min_size=k, max_size=k, unique=True))
    quads = []
    if k == 3:
        lams.append(lams[0])
    elif k == 2:
        u = draw(small_root)
        quads.append((u, (u * u - draw(complex_disc)) / 4))
    q0, q1, q2, q3, _ = quartic_from(lams, quads).coeffs
    A = draw(st.sampled_from([F(-1), F(-1, 2), F(-1, 3), F(-2, 3), F(-2, 5)]))
    a = -q3 / 2
    d = a * a - q2
    return DiagonalVFParams(A, a, F(1), a * d - q1, d, F(0), q0 / A)


def _searched(p, den, bound=50):
    """The characterize report of p with a weight search over the 1/den grid."""
    return run_characterize({"params": p, "weight_search": {"denominator": den}},
                            bound=bound)


def _first_point(den, n_r):
    """The first point (1, ..., 1, den - n_r + 1) / den of the 1/den grid."""
    return (F(1, den),) * (n_r - 1) + (F(den - n_r + 1, den),)


def _verdict_json(v):
    return {"case": v.outcome, "N": v.N, "reason": v.reason}


class TestWeightSearch:
    @pytest.mark.parametrize("p", [
        _params("-1", "0", "1", "0"),       # E1: three atoms, N = 1
        _params("-1/2", "0", "1", "0"),     # three atoms, N = 2
        _params("-2/3", "0", "1", "0"),     # r = 3/2: rejected
        _params("-1", "0", "0", "-1"),      # x^4 - 1: two atoms
        _params("-1/3", "0", "5", "4"),     # roots -2, -1, 1, 2: mixed kernel
        _params("-1", "1", "5", "4"),       # four irrational atoms
    ], ids=["e1", "n2", "r-3/2", "two-atoms", "mixed-kernel", "irrational"])
    def test_matches_grid_oracle(self, p):
        rs = solve_quartic(build_characteristic_quartic(p))
        for den in range(1, 13):
            rep = _searched(p, den)
            found = grid_search_oracle(p, rs.n_r, den, rs)
            assert rep.weights == [_num.format_number(w) for w in found or ()]
            if den >= rs.n_r:
                # the verdict of the model on the grid's first point, with
                # its ordinates: an accepted search reports it
                v = admissibility_verdict(candidate_model(p, _first_point(den, rs.n_r),
                                                          roots=rs))
                assert v.accepted == (found is not None)
                if v.accepted:
                    assert rep.verdict == _verdict_json(v)

    @settings(max_examples=200, deadline=None)
    @given(search_params(), st.booleans(), st.integers(1, 16), st.sampled_from([1, 50]))
    @example(_params("-1/3", "0", "5", "4"), False, 4, 50)   # mixed kernel
    @example(_params("-1/3", "0", "5", "4"), True, 16, 50)
    @example(_params("-1/3", "0", "5", "4"), False, 4, 1)    # past bound 1
    def test_verdict_matches_model_verdict(self, p, decimal, den, bound):
        # the search judges the roots' abscissas with no model; the model on
        # the grid's first point, with its ordinates, gets the same verdict
        if decimal:
            p = DiagonalVFParams(*map(float, p.as_tuple()))
        rs = solve_quartic(p.quartic)
        assume(rs.n_r >= 2)
        rep = _searched(p, den, bound)
        rejected = {"case": "Rejected", "N": None,
                    "reason": f"no admissible weights on the 1/{den} grid"}
        if den < rs.n_r:
            assert rep.verdict == rejected and rep.atoms == []
            return
        m = candidate_model(p, _first_point(den, rs.n_r), roots=rs)
        v = admissibility_verdict(m, bound=bound)
        if v.accepted:
            assert rep.verdict == _verdict_json(v)
            assert rep.weights == [_num.format_number(w) for w in m.weights]
            assert rep.atoms == [{"lambda": _num.format_number(lam),
                                  "nu": _num.format_number(nu)} for lam, nu in m.atoms]
        else:
            assert rep.verdict == rejected and rep.atoms == []

    @pytest.mark.parametrize("p, built", [
        (_params("-1", "0", "1", "0"), 1),       # E1: accepted
        (_params("-2/3", "0", "1", "0"), 0),     # r = 3/2
        (_params("-1/3", "0", "5", "4"), 0),     # mixed kernel
    ], ids=["e1", "r-3/2", "mixed-kernel"])
    def test_builds_a_model_only_on_acceptance(self, monkeypatch, p, built):
        count = []
        post_init = model.CandidateModel.__post_init__
        monkeypatch.setattr(model.CandidateModel, "__post_init__",
                            lambda m: count.append(m) or post_init(m))
        rep = _searched(p, 4)
        assert (rep.weights != []) == bool(built) and len(count) == built

    def test_bound_reaches_the_verdict(self):
        # roots -2, -1, 1, 2: the lattice generator (2, -2, 1) is mixed,
        # within the default bound 50 but past bound 1
        cfg = {"params": _params("-1/3", "0", "5", "4"),
               "weight_search": {"denominator": 4}}
        assert run_characterize(cfg).weights == []
        assert run_characterize(cfg, bound=1).weights == ["1/4"] * 4

    def test_large_denominator_is_fast(self):
        cfg = {"params": dict(E1_CONFIG["params"], A="-2/3"),
               "weight_search": {"denominator": 1000}}
        start = time.perf_counter()
        rep = run_characterize(cfg)
        assert time.perf_counter() - start < 1.0
        assert rep.verdict["reason"] == "no admissible weights on the 1/1000 grid"


# decimal weights that share one sign only within the verdict's tol, with
# the diag max_dev of the model, which reads them as |w|
SIGNED_TAILS = [
    ({"params": {"A": -1, "a": 0, "b": 1, "c": 0, "d": 400, "e": 0, "f": 0},
      "weights": [0.5, 0.5000000000001, -1e-13]}, 0.0),
    ({"params": {"A": -1.0, "a": -7.75, "b": -0.01, "c": -9674218.75, "d": -14881.25,
                 "e": 1.0, "f": -7715625.0},
      "weights": [0.514821711555707, 0.15277534904846782, 0.3324029393959253, -1e-13]},
     4.7488055154865094e-15),
]


class TestCliCharacterize:
    @pytest.mark.parametrize("cfg, diag", SIGNED_TAILS, ids=["three-atoms", "four-atoms"])
    def test_signed_tail_weights_are_read_as_absolute(self, tmp_path, capsys, cfg, diag):
        # mu reads the weights as |w|: tilting the signed mixture instead
        # turns its transform nonpositive on a theta grid (the first) or
        # reads a tilt far off mu's (the second, at diag max_dev 7.8e-8)
        assert main(["characterize", write_config(tmp_path, cfg), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "Admissible" and out["diag_check"]["max_dev"] == diag
        if diag:
            # the twin whose tail weight is 0 keeps three atoms
            twin = dict(cfg, weights=cfg["weights"][:-1] + [0])
            rep = run_characterize(twin)
            assert rep.status == "Admissible" and rep.diag_check["max_dev"] == diag
        else:
            assert out["regression"]["max_dev"] == 0.0

    def test_e1_json(self, tmp_path, capsys):
        path = write_config(tmp_path, E1_CONFIG)
        assert main(["characterize", path, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "Admissible"
        assert out["verdict"]["case"] == "CaseA"

    def test_byte_equality_across_runs(self, tmp_path, capsys):
        path = write_config(tmp_path, P2_CONFIG)
        main(["characterize", path, "--json"])
        first = capsys.readouterr().out
        main(["characterize", path, "--json"])
        assert capsys.readouterr().out == first

    def test_human_output(self, tmp_path, capsys):
        path = write_config(tmp_path, E1_CONFIG)
        assert main(["characterize", path]) == 0
        out = capsys.readouterr().out
        assert "CaseA" in out and "Admissible" in out

    def test_rejected_exit_code(self, tmp_path):
        cfg = dict(E1_CONFIG, weights=["1/2", "-1/4", "3/4"])
        assert main(["characterize", write_config(tmp_path, cfg)]) == 1

    @pytest.mark.parametrize("weights, reason", OFF_SIMPLEX_WEIGHTS,
                             ids=["over", "far-over", "mixed"])
    def test_exact_weights_off_the_simplex(self, tmp_path, capsys, weights, reason):
        cfg = dict(E1_CONFIG, weights=weights)
        assert main(["characterize", write_config(tmp_path, cfg), "--json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "Rejected" and out["verdict"]["reason"] == reason

    def test_invalid_json_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["characterize", str(path)]) == 2

    def test_missing_file_exit_code(self):
        assert main(["characterize", "/nonexistent/cfg.json"]) == 2

    def test_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(E1_CONFIG)))
        assert main(["characterize", "-", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "Admissible"

    @pytest.mark.parametrize("as_json", [True, False])
    def test_closed_stdout_exits_141_quietly(self, as_json):
        # 128 + SIGPIPE when the reader of stdout has gone, and no traceback
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        try:
            with open(GOLDEN_DIR / "e1.config.json") as config:
                done = subprocess.run(
                    [sys.executable, "-m", "diagvf.cli", "characterize", "-"]
                    + ["--json"] * as_json,
                    stdin=config, stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
        assert done.returncode == 141 and done.stderr == b""

    @pytest.mark.parametrize("params, weights, code", [
        (dict(E1_CONFIG["params"], A="-1/60"), E1_CONFIG["weights"], 0),
        (dict(E1_CONFIG["params"], A="-1/100000"), E1_CONFIG["weights"], 0),
        (dict(E1_CONFIG["params"], A="-1/1000000"), E1_CONFIG["weights"], 0),
        (dict(E1_CONFIG["params"], A=-0.001), [0.5, 0, 0.5], 0),
        (dict(E1_CONFIG["params"], A=-0.0009090909090909091), [0.5, 0, 0.5], 0),
        (dict(E1_CONFIG["params"], A=-1e-300), E1_CONFIG["weights"], 2),
        (dict(E1_CONFIG["params"], A="-1/1" + "0" * 250), E1_CONFIG["weights"], 2),
    ], ids=["N=60", "N=1e5", "N=1e6", "float-N=1000", "float-N=1100", "N=1e300",
            "N=1e250"])
    def test_characterize_builds_no_measure_to_cap(self, tmp_path, capsys, params,
                                                   weights, code):
        # the certificate checks these models with no measure, so only the
        # float range of 2N max |coordinate| can refuse them
        path = write_config(tmp_path, {"params": params, "weights": weights})
        start = time.perf_counter()
        assert main(["characterize", path, "--json"]) == code
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        if code:
            assert captured.out == "" and "overflow" in captured.err
        else:
            out = json.loads(captured.out)
            assert out["status"] in ("Admissible", "Degenerate-Admissible")
            assert out["diag_check"]["pass"] and out["regression"]["pass"]


def _search_text(weight_search):
    return json.dumps({"params": E1_CONFIG["params"],
                       "weight_search": weight_search})


class TestCliMalformedInput:
    """Malformed input exits 2 with one `input error:` line, no traceback."""

    E1_TEXT = json.dumps(E1_CONFIG)
    EXPAND_TEXT = json.dumps({"atoms": [[0, 0], [1, 1]], "weights": [0.5, 0.5],
                              "r": 2})

    @pytest.mark.parametrize("command,text,flags", [
        ("characterize", E1_TEXT, ["--tol", "0"]),
        ("characterize", E1_TEXT, ["--tol=-1e-8"]),
        ("characterize", E1_TEXT.replace('"1/2"', '"1/0"'), []),
        ("characterize", E1_TEXT.replace('"e": "0"', '"e": "inf"'), []),
        ("characterize", E1_TEXT.replace('"e": "0"', '"e": NaN'), []),
        ("characterize", E1_TEXT.replace('"e": "0"', '"e": 1e999'), []),
        ("characterize",
         json.dumps(dict(E1_CONFIG, params=list(E1_CONFIG["params"].values()))), []),
        ("characterize", _search_text(8), []),
        ("characterize", _search_text({"denominator": "x"}), []),
        ("characterize", _search_text({"denominator": 0}), []),
        ("characterize", _search_text({"denominator": -4}), []),
        ("characterize", _search_text({"denominator": 2.5}), []),
        ("characterize", E1_TEXT, ["--bound", "0"]),
        ("characterize", E1_TEXT, ["--bound=-1"]),
        ("expand", EXPAND_TEXT, ["--depth=-1"]),
        ("characterize", json.dumps(dict(E1_CONFIG, quartic=[0, 0, -1, 0, 1])), []),
        ("roots", json.dumps(dict(E1_CONFIG, quartic=[0, 0, -1, 0, 1])), []),
        ("scan", "{}", []),
        ("scan", '{"exp_terms": [[1]]}', []),
        ("scan", '{"osc_blocks": [[1, 2]]}', []),
        ("scan", '{"linexp": [1, 2, 3]}', []),
        ("scan", '{"poly": [1], "n_grid": -5}', []),
        ("scan", '{"poly": [1], "n_grid": 100000000000}', []),
        ("scan", '{"poly": [0], "r": -1}', []),
        ("expand", EXPAND_TEXT.replace("[1, 1]", "[0, 1]"), []),
        ("expand", EXPAND_TEXT.replace('"r": 2', '"r": -2'), []),
        ("expand", '{"atoms": [], "weights": [], "r": 1}', []),
        ("eval", '{"atoms": 5, "weights": [1], "r": 1}', []),
        ("eval", '{"atoms": [[0]], "weights": [1], "r": 1}', []),
        ("tilt", json.dumps(dict(E1_CONFIG, theta=[1])), []),
        ("lattice", '{"matrix": [[1, 0], [0, 1], [1, 1]]}', []),
        ("lattice", '{"matrix": 3}', []),
        ("lattice", '{"matrix": ["123", "456", "789"]}', []),
        ("characterize", json.dumps(dict(E1_CONFIG, weights="121")), []),
        ("characterize", json.dumps(dict(E1_CONFIG, weights=1)), []),
        ("characterize", json.dumps(dict(E1_CONFIG, weights={"w": 1})), []),
        ("characterize", '{"quartic": {"c0": 1}}', []),
        ("roots", '{"quartic": "10001"}', []),
        ("roots", '{"quartic": 10001}', []),
        ("expand", EXPAND_TEXT.replace("[0.5, 0.5]", '"11"'), []),
        ("characterize", json.dumps(huge_roots_config(155)), []),
        ("roots", json.dumps(huge_roots_config(155)), []),
        ("characterize", json.dumps(WIDE_ORDINATES), []),
        ("characterize", json.dumps(WIDE_ORDINATES_EXACT), []),
        ("characterize", json.dumps(huge_roots_config(110)), []),
        ("characterize", json.dumps(UNRESOLVED_ROOTS), []),
        ("characterize", '{"params": {"A": -%s}}' % ("1" * 5000), []),
        ("characterize", json.dumps({"params": capped_params(1000), "weights": ["1/4"] * 4}), []),
        ("expand", json.dumps({"atoms": [[0, 0], [1, 1]], "weights": ["1/2", "1/2"],
                               "r": f"{10 ** 2000}/3"}), []),
        ("expand", json.dumps({"atoms": [[0, 0], ["1" * 3001, 1]], "weights": ["1/2", "1/2"],
                               "r": "2"}), []),
        # 3^1000.5, and the falling factorial over q^2 at r = (10^298 + 1)/2,
        # past the float range
        ("expand", json.dumps({"atoms": [[0, 0], [1, 1]], "weights": ["3", "-2"],
                               "r": "2001/2"}), []),
        ("expand", json.dumps({"atoms": [[0, 0], [1, 1]], "weights": ["1/2", "1/2"],
                               "r": f"{10 ** 298 + 1}/2"}), []),
        ("characterize", None, []),
        ("characterize", b'{"params": "\xff"}', []),
    ], ids=["tol-zero", "tol-negative", "zero-denominator", "inf-string",
            "nan", "overflowing-literal", "params-list", "weight-search-number",
            "search-denominator-string", "search-denominator-zero",
            "search-denominator-negative", "search-denominator-fraction",
            "bound-zero", "bound-negative", "depth-negative", "params-and-quartic",
            "roots-params-and-quartic",
            "scan-no-block", "scan-short-exp-term", "scan-short-osc-block",
            "scan-long-linexp", "scan-n-grid-negative", "scan-n-grid-huge",
            "scan-r-negative", "expand-atoms-not-ascending", "expand-r-negative",
            "expand-no-atoms", "eval-atoms-number", "eval-short-atom",
            "tilt-short-theta", "lattice-not-3x3", "lattice-matrix-number",
            "lattice-rows-strings", "weights-string", "weights-number",
            "weights-object", "quartic-object", "roots-quartic-string",
            "roots-quartic-number", "expand-weights-string",
            "quartic-past-float-range", "roots-quartic-past-float-range",
            "float-checks-overflow", "float-checks-overflow-exact",
            "quartic-past-float-range-within-digit-cap", "float-roots-unresolved",
            "json-int-past-str-limit", "params-of-1000-digits", "expand-r-of-2001-digits",
            "expand-atom-of-3001-digits", "expand-float-lead-overflow",
            "expand-falling-factorial-overflow", "config-is-a-directory",
            "config-not-utf-8"])
    def test_exit_2_one_line(self, tmp_path, capsys, command, text, flags):
        path = tmp_path / "cfg.json"
        if text is None:  # the config path names a directory
            path.mkdir()
        elif isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        assert main([command, str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: ")

    @pytest.mark.parametrize("weights", [{"weights": ["1/4"] * 4},
                                         {"weight_search": {"denominator": 4}}],
                             ids=["weights", "weight-search"])
    def test_quadratic_rest_on_one_float(self, tmp_path, capsys, weights):
        # (x - 3)(x + 2)(x^2 - 2x + 1 - 2e-40): two distinct atoms would
        # share the abscissa 1.0
        q = quartic_from((F(3), F(-2)), [(F(-2), 1 - F(2, 10 ** 40))])
        params = dict(zip("Aabcdef", map(str, params_for(q).as_tuple())))
        assert main(["characterize", write_config(tmp_path, {"params": params, **weights})]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "input error: the float roots of the quartic do not resolve: "
            "2 distinct roots merge at 1.0"]

    def test_misspelt_weight_search_key(self, tmp_path, capsys):
        # without the refusal, the default denominator 4 would run unseen
        path = tmp_path / "cfg.json"
        path.write_text(_search_text({"denominatr": 8}))
        assert main(["characterize", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "input error: weight_search does not read denominatr"]

    @pytest.mark.parametrize("command", ["characterize", "roots", "expand", "tilt"])
    def test_misspelt_top_level_key(self, tmp_path, capsys, command):
        # without the refusal, characterize would run the search with 1/8
        # weights and exit 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"params": E1_CONFIG["params"],
                                    "weigths": ["1/2", "1/4", "1/4"],
                                    "weight_search": {"denominator": 8}, "Theta": [0, 0]}))
        assert main([command, str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["input error: config does not read Theta, weigths"]

    @pytest.mark.parametrize("A", [-1e-300, "-1/100000"])
    def test_support_cap_exits_fast(self, tmp_path, capsys, A):
        # N = 1e300 and N = 100000: tilt realizes mu, C(N + 2, 2) support
        # points (at 1e300 its coordinates also pass the float range)
        path = write_config(tmp_path, dict(E1_CONFIG,
                                           params=dict(E1_CONFIG["params"], A=A)))
        start = time.perf_counter()
        assert main(["tilt", path, "--json"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: ")


    @pytest.mark.parametrize("A", [-0.0009090909090909091])
    def test_float_power_out_of_range_exits_fast(self, tmp_path, capsys, A):
        # N = 1100 with float weights 1/2: the least mass 2^-1100 of the
        # measure tilt realizes underflows (and a multinomial would
        # overflow)
        cfg = {"params": {"A": A, "a": 0, "b": 1, "c": 0, "d": 1, "e": 0, "f": 0},
               "weights": [0.5, 0, 0.5]}
        start = time.perf_counter()
        assert main(["tilt", write_config(tmp_path, cfg)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: ")
        assert "masses of the float N-fold power (N = 1100) underflow" in lines[0]

    def test_float_power_with_normal_masses_realizes(self, tmp_path, capsys):
        # N = 1000 with float weights 1/2: the least mass 2^-1000 is a
        # normal float and C(1000, 500) ~ 2.7e299 is in range
        cfg = {"params": {"A": -0.001, "a": 0, "b": 1, "c": 0, "d": 1, "e": 0, "f": 0},
               "weights": [0.5, 0, 0.5]}
        assert main(["tilt", write_config(tmp_path, cfg), "--json"]) == 0
        masses = [pt["mass"] for pt in json.loads(capsys.readouterr().out)["measure"]]
        assert len(masses) == 1001 and min(masses) == 0.5 ** 1000
        assert math.fsum(masses) == pytest.approx(1.0, abs=1e-12)


class TestCliHugeRoots:
    """Exact quartics with rational roots near 10^100: a report, no
    overflow."""

    def test_characterize(self, tmp_path, capsys):
        path = write_config(tmp_path, huge_roots_config(100))
        assert main(["characterize", path, "--json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["n_r"] == 4 and "WeightCountMismatch" in out["verdict"]["reason"]
        path = write_config(tmp_path, huge_roots_config(100, 4))
        assert main(["characterize", path, "--json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["status"] == "Inconclusive"
        assert captured.err == ""

    def test_irrational_ordinates_do_not_cancel(self, tmp_path, capsys):
        # (x - a/2)^2 (x^2 - a x - 1): lambda^2 - a lambda = 1 at the
        # irrational roots, so nu = 1 there, which the rest's linear form
        # gives; in floats lambda^2 - a lambda cancelled to -3.8e22 at
        # lambda = 1.76e19
        cfg = {"params": {"A": "-1/2", "a": "123456789012345678901/7", "b": "1",
                          "c": "0", "d": "-15241578753238836750437433565526596567605/196",
                          "e": "0", "f": "15241578753238836750437433565526596567801/98"},
               "weights": ["1/3"] * 3}
        assert main(["characterize", write_config(tmp_path, cfg), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "Admissible" and out["verdict"]["N"] == 2
        assert out["pattern"] == "DoublePlusTwoSingleReal"
        assert [a["nu"] for a in out["atoms"]] == [
            1.0, "-15241578753238836750437433565526596567801/196", 1.0]
        assert out["diag_check"]["pass"] and out["regression"]["pass"]

    def test_exact_and_float_atoms_keep_the_star_condition(self, tmp_path, capsys):
        # x (x - a) (x^2 - a x - 1): the root a + 1/a rounds to float(a),
        # and float(a) - a, taken in floats, is 0; the exact values of the
        # atoms keep the differences apart, and the huge generator of the
        # float atom passes the bound
        cfg = {"params": {"A": "-1/2", "a": "123456789012345678901/7", "b": "1",
                          "c": "0", "d": "1", "e": "0", "f": "0"},
               "weights": ["1/4"] * 4}
        assert main(["characterize", write_config(tmp_path, cfg), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "Admissible"
        assert out["star"] == {"holds": True, "witness": None, "method": "bounded-search"}

    def test_roots(self, tmp_path, capsys):
        path = write_config(tmp_path, huge_roots_config(100))
        assert main(["roots", path, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        big = 10 ** 100
        assert [e["re"] for e in out["roots"]] == [str(-2 * big), str(-big), "0", str(big)]
        assert out["pattern"] == "FourSingleReal"


class TestCliFlags:
    """Each subcommand takes only the flags it reads."""

    def test_flags_per_subcommand(self):
        want = {"characterize": {"tol", "bound", "json"},
                "roots": {"tol", "json"}, "lattice": {"bound", "json"},
                "expand": {"tol", "depth", "json"}, "scan": {"json"},
                "eval": {"tol", "json"}, "tilt": {"tol", "bound", "json"}}
        sub = next(a for a in build_parser()._actions if a.choices)
        got = {name: {a.dest for a in sp._actions if a.option_strings} - {"help"}
               for name, sp in sub.choices.items()}
        assert got == want

    @pytest.mark.parametrize("argv", [["lattice", "--seed", "1"],
                                      ["scan", "--tol", "1e-3"],
                                      ["characterize", "--depth", "5"],
                                      ["characterize", "--grid", "11"],
                                      ["characterize", "--seed", "7"]])
    def test_unread_flag_refused(self, tmp_path, argv):
        path = write_config(tmp_path, {})
        with pytest.raises(SystemExit) as exc:
            main([argv[0], path, *argv[1:]])
        assert exc.value.code == 2


class TestCliRoots:
    @pytest.mark.parametrize("tol", ["1e-8", "1e-10", "1e-12", "1e-14"])
    def test_repeated_irrational_golden(self, tmp_path, capsys, tol):
        # (x^2 - 2)^2 is TwoDoubleReal whatever the tol
        path = write_config(tmp_path, {"quartic": ["4", "0", "-4", "0", "1"]})
        assert main(["roots", path, "--json", "--tol", tol]) == 0
        assert capsys.readouterr().out == SQRT2_DOUBLE_GOLDEN.read_text()

    def test_cubic_rest_golden(self, capsys):
        # (x - 1/3)(x^3 - 2): one rational root, deflated exactly, and an
        # irreducible cubic rest solved in floats and polished
        path = GOLDEN_DIR / "cubic_rest.config.json"
        assert main(["roots", str(path), "--json"]) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / "cubic_rest.roots.json").read_text()

    @pytest.mark.parametrize("name", ["triple", "double_irrational"])
    @pytest.mark.parametrize("tol", ["1e-8", "1e-12"])
    def test_repeated_root_golden(self, capsys, name, tol):
        # triple: (x - 1/3)^3 (x + 2); double_irrational: (x - 1/2)^2 (x^2 - 3),
        # whose rest x^2 - 3 is solved in floats
        path = GOLDEN_DIR / f"{name}.config.json"
        assert main(["roots", str(path), "--json", "--tol", tol]) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / f"{name}.roots.json").read_text()

    def test_float_pair_near_the_axis(self, tmp_path, capsys):
        path = write_config(tmp_path, NEAR_DOUBLE_CONFIG)
        assert main(["roots", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["pattern"] == "TwoRealTwoComplex"
        assert main(["characterize", path, "--json"]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["status"] == "Rejected"
        assert captured.err == ""

    def test_from_quartic(self, tmp_path, capsys):
        path = write_config(tmp_path, {"quartic": ["0", "0", "-1", "0", "1"]})
        assert main(["roots", path, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pattern"] == "DoublePlusTwoSingleReal"
        assert {(e["re"], e["mult"]) for e in out["roots"]} == {
            ("-1", 1), ("0", 2), ("1", 1)}

    def test_from_params(self, tmp_path, capsys):
        path = write_config(tmp_path, {"params": E1_CONFIG["params"]})
        assert main(["roots", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["n_r"] == 3

    def test_missing_input(self, tmp_path):
        assert main(["roots", write_config(tmp_path, {})]) == 2


class TestCliLattice:
    def test_holds(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "matrix": [["1", "-1", "0"], ["2", "0", "0"], ["0", "0", "0"]]})
        assert main(["lattice", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True

    def test_fails_with_witness(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "matrix": [["1", "1", "0"], ["2", "2", "0"], ["0", "0", "0"]]})
        assert main(["lattice", path, "--json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["holds"] is False and out["witness"] is not None

    @pytest.mark.parametrize("name, code", [
        ("lattice_dim0", 0), ("lattice_dim1", 1), ("lattice_dim2", 1),
        ("lattice_dim3", 1), ("lattice_onesign", 0), ("lattice_beyond", 0),
    ])
    def test_golden(self, capsys, name, code):
        # kernel dimensions 0 to 3 (a mixed generator within the bound at
        # 1), a one-sign generator (1, 2, 3) and a mixed one, (60, -7, 1),
        # past the bound 50
        assert main(["lattice", str(GOLDEN_DIR / f"{name}.config.json"), "--json"]) == code
        assert capsys.readouterr().out == (GOLDEN_DIR / f"{name}.lattice.json").read_text()


class TestCliExpand:
    def test_integer_exponent(self, tmp_path, capsys):
        cfg = {"atoms": [["0", "0"], ["1", "1"]],
               "weights": ["1/2", "1/2"], "r": "2"}
        assert main(["expand", write_config(tmp_path, cfg), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["terms"]["(1,1)"] == "1/2"
        assert out["first_negative"] is None

    def test_half_exponent_negative(self, tmp_path, capsys):
        cfg = {"atoms": [["0", "0"], ["1", "1"]],
               "weights": ["3/4", "1/4"], "r": "1/2"}
        assert main(["expand", write_config(tmp_path, cfg), "--json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["first_negative"]["point"] == ["2", "2"]


    @pytest.mark.parametrize("r, depth", [("1/2", 171), (0.5, 171), ("1/2", 10**6),
                                          ("3/2", 60), ("100000", 10**6)],
                             ids=["exact-171", "decimal-171", "exact-huge",
                                  "terms-past-cap", "integer-terms-past-cap"])
    def test_caps_exit_fast(self, tmp_path, capsys, r, depth):
        # past order 170 float coefficients overflow; four atoms at order 60
        # make C(63, 3) = 39711 terms
        cfg = {"atoms": [[str(x), str(x * x)] for x in range(4)],
               "weights": ["1/4"] * 4, "r": r}
        start = time.perf_counter()
        assert main(["expand", write_config(tmp_path, cfg), f"--depth={depth}"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: ")

    @pytest.mark.parametrize("r", ["1000000000", "100000000", "9" * 300],
                             ids=["1e9", "1e8", "300-nines"])
    def test_integer_exponent_past_the_lead_cap(self, tmp_path, capsys, r):
        # the exact lead (1/2)^r would have r bits: past MAX_LEAD_BITS it is
        # an input error before the power is formed
        cfg = {"atoms": [["0", "0"], ["1", "1"]], "weights": ["1/2", "1/2"], "r": r}
        start = time.perf_counter()
        assert main(["expand", write_config(tmp_path, cfg), "--json"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: ")

    @pytest.mark.parametrize("name, code, depth", [
        pytest.param("readme", 1, 8, id="readme-1"),
        pytest.param("exact3", 0, 8, id="exact3-0"),
        pytest.param("frac24", 1, 24, id="frac24-1"),
        pytest.param("decimal16", 1, 16, id="decimal16-1"),
        pytest.param("merge4", 1, 8, id="merge4-1"),
    ])
    def test_golden(self, capsys, name, code, depth):
        # readme: float coefficients, the first negative at order 2;
        # exact3: exact coefficients of an integer power; frac24: exact
        # points and float coefficients of the exponent 9/4 to order 24;
        # decimal16: decimal atoms and exponent to order 16; merge4: four
        # atoms on an integer parabola, whose 165 terms merge on 130 points
        assert main(["expand", str(GOLDEN_DIR / f"{name}.config.json"), "--json",
                     f"--depth={depth}"]) == code
        assert capsys.readouterr().out == (GOLDEN_DIR / f"{name}.expand.json").read_text()

    # the verdict's rules: a decimal exponent within VERDICT_TOL of 2 is N = 2
    # (Admissible, CaseA); decimal weights of sign -1 within VERDICT_TOL are
    # negated (CaseB); a decimal tail of the opposite sign within
    # VERDICT_TOL leaves terms within N S^(N-1) T of 0 (CaseA), while one
    # beyond it is negative (mixed signs, Rejected); an exact coefficient is
    # negative by its sign, however small (mixed signs, Rejected)
    @pytest.mark.parametrize("cfg, first_negative", [
        ({"params": {"A": -0.499999999875, "a": 0, "b": 1, "c": 0, "d": 1, "e": 0,
                     "f": 0}, "weights": [0.25, 0.5, 0.25]}, None),
        ({"params": {"A": "-1/2", "a": "0", "b": "1", "c": "0", "d": "1", "e": "0",
                     "f": "0"}, "weights": [-0.5, -0.5000000000001, 1e-13]}, None),
        ({"params": {"A": "-1/2", "a": "0", "b": "1", "c": "0", "d": "1", "e": "0",
                     "f": "0"}, "weights": [0.5, 0.5000000001, -1e-10]}, None),
        ({"params": {"A": "-1/2", "a": "0", "b": "1", "c": "0", "d": "1", "e": "0",
                     "f": "0"}, "weights": [0.6, 0.6, -0.2]},
         {"point": ["0", "2"], "coefficient": -0.24000000000000002}),
        ({"atoms": [["0", "0"], ["1", "1"]],
          "weights": ["10000000000001/10000000000000", "-1/10000000000000"], "r": "2"},
         {"point": ["1", "1"], "coefficient": "-10000000000001/50000000000000000000000000"}),
    ], ids=["near-integer-exponent", "signed-tail", "tail-within-tol", "mixed-beyond-tol",
            "exact-negative"])
    def test_expand_agrees_with_the_verdict(self, tmp_path, capsys, cfg, first_negative):
        path = write_config(tmp_path, cfg)
        code = main(["expand", path, "--json"])
        assert code == (first_negative is not None)
        assert json.loads(capsys.readouterr().out)["first_negative"] == first_negative
        m = cli._model_from_config(parse_config(cfg), 1e-8)
        assert admissibility_verdict(m).accepted is (code == 0)

    @pytest.mark.parametrize("r", ["1/2", 0.5])
    def test_order_170_works(self, tmp_path, capsys, r):
        cfg = {"atoms": [["0", "0"], ["1", "1"]], "weights": ["3/4", "1/4"], "r": r}
        assert main(["expand", write_config(tmp_path, cfg), "--json",
                     "--depth=170"]) == 1
        assert len(json.loads(capsys.readouterr().out)["terms"]) == 171


class TestCliScan:
    def test_witness(self, tmp_path, capsys):
        path = write_config(tmp_path, {"poly": [1.0, 1.0], "r": "1"})
        assert main(["scan", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["witness"] is not None

    def test_no_witness(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            "exp_terms": [["1/2", "-1"], ["1/2", "1"]], "r": "1"})
        assert main(["scan", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["witness"] is None

    def test_mass_past_the_float_range_is_walked(self, tmp_path, capsys):
        # fsum of the amplitudes overflows: no mass bound, and f(0) is inf
        path = write_config(tmp_path, {"exp_terms": [[1e308, 0], [1e308, 1]], "r": 1})
        assert main(["scan", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["witness"] == 0.0

    @pytest.mark.parametrize("name", ["scan_mixture", "scan_osc", "scan_poly", "scan_signed"])
    def test_golden(self, capsys, name):
        # scan_mixture: no witness, decided by its mass; scan_osc: cosh(20 t)
        # overflows at the witness; scan_poly: "p/q" coefficients and
        # exponent; scan_signed: amplitudes 3/4 and -1/2, whose mass 5/4
        # leaves the witness to the scan
        assert main(["scan", str(GOLDEN_DIR / f"{name}.config.json"), "--json"]) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / f"{name}.scan.json").read_text()


class TestCliEval:
    def test_nonpositive_transform_names_theta_as_written(self, tmp_path, capsys):
        cfg = {"atoms": [["-20", "400"], ["0", "0"], ["20", "400"]],
               "weights": ["1/2", "3/4", "-1/4"], "r": "1", "theta": ["4/5", "1/5"]}
        assert main(["eval", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == ("error: mixture transform nonpositive "
                                           "at theta=(4/5, 1/5)\n")

    def test_weights_of_one_sign_by_the_verdicts_rule(self, tmp_path, capsys):
        # CaseB within VERDICT_TOL: the mixture of |alpha_i| is tilted, as
        # the measure is built from it, not the signed one, whose transform
        # is negative
        cfg = {"params": {"A": "-1/2", "a": "0", "b": "1", "c": "0", "d": "1", "e": "0",
                          "f": "0"}, "weights": [-0.5, -0.5000000000001, 1e-13]}
        assert main(["eval", write_config(tmp_path, cfg), "--json"]) == 0
        assert abs(json.loads(capsys.readouterr().out)["k"]) < 1e-12

    def test_e1_origin(self, tmp_path, capsys):
        cfg = dict(E1_CONFIG, theta=["0", "0"])
        assert main(["eval", write_config(tmp_path, cfg), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mean"] == [0.0, 0.5]
        assert out["variance"][0][0] == pytest.approx(0.5)


class TestCliDigitCap:
    """Exact input numbers of up to MAX_DIGITS digits a numerator or
    denominator run to a report in bounded time; one digit more is an
    input error."""

    @pytest.mark.parametrize("seed", range(3))
    def test_characterize_at_the_cap(self, tmp_path, capsys, seed):
        cfg = {"params": capped_params(_num.MAX_DIGITS, seed), "weights": ["1/4"] * 4}
        start = time.perf_counter()
        assert main(["characterize", write_config(tmp_path, cfg), "--json"]) in (0, 1)
        assert time.perf_counter() - start < 10.0
        captured = capsys.readouterr()
        params = json.loads(captured.out)["params"]
        assert {k: F(v) for k, v in params.items()} == {k: F(v) for k, v in cfg["params"].items()}
        assert captured.err == ""

    def test_characterize_past_the_cap(self, tmp_path, capsys):
        params = capped_params(_num.MAX_DIGITS)
        params["f"] = params["f"] + "0"
        cfg = {"params": params, "weights": ["1/4"] * 4}
        assert main(["characterize", write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == (f"input error: more than {_num.MAX_DIGITS} "
                                           "digits in a number\n")

    def test_expand_at_the_cap(self, tmp_path, capsys):
        # an atom coordinate and a weight at the cap
        big = "9" * _num.MAX_DIGITS
        cfg = {"atoms": [[0, 0], [big, f"1/{big}"]], "weights": [f"1/{big}", f"{int(big) - 1}/{big}"],
               "r": "2"}
        start = time.perf_counter()
        assert main(["expand", write_config(tmp_path, cfg), "--json"]) == 0
        assert time.perf_counter() - start < 10.0
        assert capsys.readouterr().err == ""
        cfg["atoms"][1][0] = big + "9"
        assert main(["expand", write_config(tmp_path, cfg)]) == 2


class TestCliTilt:
    @pytest.mark.parametrize("A, last", [(-1.0, 0.2500000005), (-0.5, 0.2500000009)],
                             ids=["N1", "N2"])
    def test_float_weights_within_the_verdict_tol(self, tmp_path, capsys, A, last):
        # the verdict accepts weights that sum to 1 within 1e-9, and so
        # does the N-fold power they realize, whose masses sum to the N-th
        # power of theirs
        cfg = {"params": {"A": A, "a": 0.0, "b": 1.0, "c": 0.0, "d": 1.0, "e": 0.0, "f": 0.0},
               "weights": [0.25, 0.5, last]}
        path = write_config(tmp_path, cfg)
        assert main(["characterize", path]) == 0
        capsys.readouterr()
        assert main(["tilt", path, "--json"]) == 0
        masses = [pt["mass"] for pt in json.loads(capsys.readouterr().out)["measure"]]
        assert abs(sum(masses) - 1) <= 2e-9

    @pytest.mark.parametrize("r", [1.7976931348623157e+308, 9e307], ids=["largest-float", "9e307"])
    def test_float_r_near_the_float_range_is_an_input_error(self, tmp_path, capsys, r):
        # N = int(r) is an int past the float range once doubled: the
        # coordinate cap refuses it with one line, not an OverflowError
        cfg = {"atoms": [["0", "0"], ["1", "1"]], "weights": ["3/4", "1/4"], "r": r}
        assert main(["tilt", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert lines[0].startswith("input error: the float checks of the N-fold power")

    def test_tilt(self, tmp_path, capsys):
        cfg = dict(E1_CONFIG, theta=["1", "0"])
        assert main(["tilt", write_config(tmp_path, cfg), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["measure"]) == 3 and out["degenerate"] is False

    @pytest.mark.parametrize("weights", [[0.25, 0.5, 0.25], ["1/4", "1/2", "1/4"]],
                             ids=["decimal", "exact"])
    def test_wide_conic_degeneracy_reads_the_kept_atoms(self, tmp_path, capsys,
                                                        weights):
        # b = 1e12, d = 1e-12: three atoms on a flat parabola, which a float
        # cross product would call collinear; characterize says Admissible
        cfg = {"params": {"A": -1, "a": 0, "b": 1e12, "c": 0, "d": 1e-12, "e": 0,
                          "f": 0}, "weights": weights}
        path = write_config(tmp_path, cfg)
        assert main(["tilt", path, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["degenerate"] is False
        assert main(["characterize", path, "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "Admissible" and out["degenerate"] is False

    # the characterize goldens but e1_n60, whose mu passes MAX_SUPPORT, and
    # q4_tight, whose verdict is not accepted
    @pytest.mark.parametrize("name", ["e1", "p2", "e1_n8", "q4", "q4_wide", "c2",
                                      "q4_decimal", "float_chain", "mixed_within_tol",
                                      "irrational4", "signed_tail"])
    def test_tilt_and_characterize_agree_on_degeneracy(self, capsys, name):
        want = json.loads((GOLDEN_DIR / f"{name}.characterize.json").read_text())
        assert main(["tilt", str(GOLDEN_DIR / f"{name}.config.json"), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["degenerate"] is want["degenerate"]

    def test_degeneracy_of_explicit_atoms_reads_the_kept_atoms(self, tmp_path, capsys):
        # three collinear float atoms at N = 53: mu has 1485 support points,
        # and degeneracy reads the three atoms, not the support
        cfg = {"atoms": [[0.0, 0.0], [1.0, 1.0], [1.4142135623730951, 1.4142135623730951]],
               "weights": [0.25, 0.5, 0.25], "r": 53}
        assert main(["tilt", write_config(tmp_path, cfg), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["measure"]) == 1485 and out["degenerate"] is True
        kept = cli._model_from_config(parse_config(cfg), 1e-8)._cleared[2]
        best = math.inf
        for _ in range(5):
            start = time.perf_counter()
            assert measure._collinear(kept)
            best = min(best, time.perf_counter() - start)
        assert best < 1e-4

    def test_small_decimal_atoms_are_not_degenerate(self, tmp_path, capsys):
        assert main(["tilt", write_config(tmp_path, SMALL_ATOMS), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["degenerate"] is False

    def test_not_admissible(self, tmp_path):
        cfg = dict(E1_CONFIG, weights=["1/2", "-1/4", "3/4"])
        assert main(["tilt", write_config(tmp_path, cfg)]) == 1

    @pytest.mark.parametrize("weights, reason", OFF_SIMPLEX_WEIGHTS,
                             ids=["over", "far-over", "mixed"])
    def test_exact_weights_off_the_simplex(self, tmp_path, capsys, weights, reason):
        cfg = {"atoms": [["-1", "1"], ["0", "0"], ["1", "1"]],
               "weights": weights, "r": "1"}
        assert main(["tilt", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == f"model not admissible: {reason}\n"

    @pytest.mark.parametrize("lams", [
        [0.1, 1.1, 2.1, 3.1],       # float differences exactly 1, 2, 3
        [-1e17, 2.0, 6.0],          # float differences round to one value
        [-1e16, 2.0, 3.0, 5.0],     # the last two differences round alike
    ], ids=["decimal", "three-collide", "four-collide"])
    def test_float_abscissas_are_differenced_in_float(self, tmp_path, capsys, lams):
        # the lattice rows take lambda_i - lambda_1 as float arithmetic
        # gives it, so each model has a mixed witness within the bound
        cfg = {"atoms": [[x, x * x] for x in lams],
               "weights": [1 / len(lams)] * len(lams), "r": 1}
        assert main(["tilt", write_config(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == (
            "model not admissible: lattice mixed-sign kernel vector exists; "
            "atom masses cannot be identified\n")

    def test_bound_reaches_the_verdict(self, tmp_path):
        # abscissas -2, -1, 1, 2: the lattice generator (2, -2, 1) is mixed,
        # within the default bound 50 but past bound 1
        cfg = {"atoms": [[str(x), str(x * x)] for x in (-2, -1, 1, 2)],
               "weights": ["1/4"] * 4, "r": "1"}
        path = write_config(tmp_path, cfg)
        assert main(["tilt", path]) == 1
        assert main(["tilt", path, "--bound", "1"]) == 0

    @pytest.mark.parametrize("theta", [[1e300, 0], [-1e300, 0], [1e308, 0]])
    def test_underflowing_masses_exit_2(self, tmp_path, capsys, theta):
        # every mass but the largest tilts to exp(-1e300) = 0; at 1e308 the
        # exponent at (2, 4) passes the float range
        cfg = {"atoms": [["0", "0"], ["1", "1"], ["2", "4"]],
               "weights": ["1/4", "1/2", "1/4"], "r": "2", "theta": theta}
        assert main(["tilt", write_config(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: ")
        assert f"theta ({float(theta[0])}, 0.0)" in lines[0]

    @pytest.mark.parametrize("name", ["e1_n8", "q6", "q4", "e1_n8_decimal"])
    def test_golden(self, capsys, name):
        # the realized measure's support order and exact masses at theta 0;
        # q6 has three atoms with denominators up to 88 and 28 points, q4
        # four atoms and 10 points; e1_n8_decimal is e1_n8 in floats,
        # tilted to theta (0.25, -0.5)
        assert main(["tilt", str(GOLDEN_DIR / f"{name}.config.json"), "--json"]) == 0
        assert capsys.readouterr().out == (GOLDEN_DIR / f"{name}.tilt.json").read_text()


def replayed_goldens():
    """The (name, kind) pairs of the goldens tests/replay_goldens.sh diffs:
    each name of a loop whose body reads "$golden/$name.<kind>.json", and
    each golden it names by a literal path."""
    script = (Path(__file__).parent / "replay_goldens.sh").read_text()
    pairs = set(re.findall(r"\$golden/(\w+)\.(\w+)\.json", script))
    for names, body in re.findall(r"^for \w+ in (.*?); do\n(.*?)^done", script, re.M | re.S):
        kinds = re.findall(r"\$golden/\$name\.(\w+)\.json", body)
        pairs |= {(name.split(":")[0], kind)
                  for name in names.replace("\\", " ").split() for kind in kinds}
    return pairs


def test_replay_script_names_every_golden():
    replayed = replayed_goldens()
    for path in GOLDEN_DIR.iterdir():
        name, kind, ext = path.name.split(".")
        assert ext == "json" and (name, kind) in replayed, path.name


@pytest.mark.parametrize("command, cfg", [
    ("characterize", E1_CONFIG),
    ("roots", {"quartic": ["0", "0", "-1", "0", "1"]}),
    ("lattice", {"matrix": [["1", "1", "0"], ["2", "2", "0"], ["0", "0", "0"]]}),
    ("expand", {"atoms": [["0", "0"], ["1", "1"]], "weights": ["3/4", "1/4"], "r": "1/2"}),
    ("scan", {"poly": [1.0, 1.0], "r": "1"}),
    ("eval", dict(E1_CONFIG, theta=["1/2", "0"])),
    ("tilt", dict(E1_CONFIG, theta=["1", "0"])),
])
def test_human_form_is_the_json_object(tmp_path, capsys, command, cfg):
    """Without --json, one `key: value` line per key of the --json object:
    strings as they are, other values as JSON that reads back equal."""
    path = write_config(tmp_path, cfg)
    code = main([command, path, "--json"])
    obj = json.loads(capsys.readouterr().out)
    assert main([command, path]) == code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(obj)
    shown = dict(line.split(": ", 1) for line in lines)
    assert shown.keys() == obj.keys()
    for key, value in obj.items():
        assert (shown[key] if isinstance(value, str) else json.loads(shown[key])) == value


# Fuzzed configs: values from a small pool, so that no input is expensive.
# Most are numbers, and most values have the shape their key asks for, so
# that runs get past the input checks too (one_of would not weight them:
# it drops repeated strategies).
FUZZ_LEAF = st.sampled_from([-2, -1, 0, 1, 2, "1/2"] * 4 + ["x", "1/0", None, True])


def fuzz_lists(item, size=None):
    return st.lists(item, min_size=size or 0, max_size=size or 4)


def fuzz_runs(leaf):
    """(subcommand, config) pairs whose numbers are drawn from leaf."""
    value = st.recursive(leaf, lambda inner: st.lists(inner, max_size=4), max_leaves=12)
    shapes = {
        "params": st.fixed_dictionaries({k: leaf for k in pipeline.PARAM_KEYS}),
        "quartic": st.tuples(*[leaf] * 4, st.just(1)).map(list),
        "weights": fuzz_lists(leaf),
        "weight_search": st.fixed_dictionaries({"denominator": leaf}),
        "atoms": fuzz_lists(fuzz_lists(leaf, 2)),
        "r": leaf,
        "theta": fuzz_lists(leaf, 2),
        "matrix": fuzz_lists(fuzz_lists(leaf, 3), 3),
        "poly": fuzz_lists(leaf),
        "exp_terms": fuzz_lists(fuzz_lists(leaf, 2)),
        "linexp": fuzz_lists(leaf, 2),
        "osc_blocks": fuzz_lists(fuzz_lists(leaf, 6)),
    }
    keys = {key: st.sampled_from([shape] * 3 + [value]).flatmap(lambda s: s)
            for key, shape in shapes.items()}
    return st.one_of(*[
        st.tuples(st.just(command), st.fixed_dictionaries(
            {k: keys[k] for k in read},
            optional={k: keys[k] for ks in sets for k in ks if k not in read}))
        for command, sets in FUZZ_READS.items() for read in sets])


# per subcommand, the key sets it reads; any other key it reads may join
MODEL_KEYS = [("atoms", "weights", "r", "theta"), ("params", "weights", "theta")]
FUZZ_READS = {
    "characterize": [("params", "weights"), ("params", "weight_search"), ("quartic",)],
    "roots": [("params",), ("quartic",)],
    "lattice": [("matrix",)],
    "expand": MODEL_KEYS, "eval": MODEL_KEYS, "tilt": MODEL_KEYS,
    "scan": [("r",), ("poly", "exp_terms", "linexp", "osc_blocks")],
}
FUZZ_RUNS = fuzz_runs(FUZZ_LEAF)


def run_cli(command, cfg):
    """main([command, "-"]) on cfg as stdin: (exit code, stderr lines)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(cfg))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "-"])
    return code, err.getvalue().splitlines()


def assert_clean_exit(code, lines):
    assert code in (0, 1, 2)
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("input error: ")


@settings(max_examples=400, deadline=None)
@given(FUZZ_RUNS)
def test_fuzzed_configs_exit_cleanly(run):
    """Any config exits 0, 1 or 2, never with an exception, and 2 comes
    with exactly one `input error:` line."""
    assert_clean_exit(*run_cli(*run))


# Extreme leaves: the float range's ends, the smallest subnormal, -0.0,
# "p/q" strings of 250 to 300 digits a side, and the normal leaves above so
# that runs get past the input checks; r and theta take them too.
BIG_DIGITS = st.integers(250, 300).flatmap(
    lambda n: st.integers(10 ** (n - 1), 10 ** n - 1))
EXTREME_LEAF = st.one_of(
    st.sampled_from([1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324, -0.0,
                     1e-300, 1e300, -1, 1, 0.5, "1/2", "1e308", "-1e-308"]),
    st.builds(lambda sign, p, q: f"{sign}{p}/{q}", st.sampled_from(["", "-"]),
              BIG_DIGITS, BIG_DIGITS),
    BIG_DIGITS.map(str))
# far above the 2-6 s of the slowest exact quartics seen at the digit cap
# (the fixed-point Newton steps of the exact root search), and far below a hang
EXTREME_SECONDS = 30


@settings(max_examples=150, deadline=None)
@given(fuzz_runs(EXTREME_LEAF))
def test_extreme_leaves_exit_cleanly_and_in_time(run):
    """Numbers at the ends of the float range and of the digit cap exit 0,
    1 or 2, with one `input error:` line on 2, within EXTREME_SECONDS."""
    start = time.perf_counter()
    assert_clean_exit(*run_cli(*run))
    assert time.perf_counter() - start < EXTREME_SECONDS


@pytest.mark.parametrize("command, cfg, want", [
    # a float beside an exact term past the float range in the quartic
    ("characterize", {"params": {"A": "-1", "a": "1" + "0" * 249, "b": 1e308, "c": 0,
                                 "d": 0, "e": 0, "f": 0}, "weights": [0.5, 0.5]}, 2),
    # q overflows at the float range's end, so a Newton step was NaN, and
    # so were the roots; the polish stops there now, and the residual check
    # refuses the eigenvalues
    ("roots", {"quartic": [1e308] * 4 + [1]}, 2),
    # series points past the float range
    ("expand", {"atoms": [[1e308, 0], [0, 0]], "weights": [0.5, 0.5], "r": 10}, 2),
    # the probe's weight ratio 5e-324 / 2 underflows to 0
    ("expand", {"atoms": [[0, 0], [1, 0], [2, 1]], "weights": [2.0, -1.0, 5e-324],
                "r": 0.5}, 1),
])
def test_extreme_leaf_findings(command, cfg, want):
    """What the extreme-leaf fuzz found: each raised a traceback before."""
    code, lines = run_cli(command, cfg)
    assert_clean_exit(code, lines)
    assert code == want


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40)


class TestJsonWriter:
    """to_json against json.dumps(sort_keys=True, indent=2)."""

    @pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda p: p.name)
    def test_goldens(self, path):
        obj = json.loads(path.read_text())
        assert to_json(obj) == json.dumps(obj, sort_keys=True, indent=2)

    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_matches_json_dumps(self, value):
        assert to_json(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_edge_values(self):
        value = {"nan": math.nan, "inf": [math.inf, -math.inf], "empty": [{}, [], ()],
                 "text": "\u00e9\U0001f600\n\"", "float": 1e-310, "int": -2 ** 70,
                 "flags": (True, False, None), "sub": np.float64(0.1)}
        assert to_json(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [{1: 2}, {1}, np.int64(1), [b"x"]],
                             ids=["int-key", "set", "np-int", "bytes"])
    def test_refuses_what_json_does_not_write(self, value):
        with pytest.raises(TypeError):
            to_json(value)
