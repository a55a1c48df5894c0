"""Command-line front end.

Subcommands mirror the pipeline stages so each is independently invokable:
characterize, roots, lattice, expand, scan, eval, tilt.  Configs are JSON
read from a file argument or stdin; numbers may be decimals or exact
rational strings "p/q".  Exit codes: 0 ok/admissible, 1 rejected, 2 input
error, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from ._num import format_number
from .errors import ConfigError, DiagVFError
from .model import (LatticeMatrix, admissibility_verdict, candidate_model,
                    make_model, star_condition)
from .measure import cumulant_eval, realize_measure, tilt_member
from .pipeline import (_built, _degenerate, _items, _number, _roots_json, _star_json,
                       parse_config, report_to_dict, run_characterize, to_json)
from .roots import solve_quartic
from .series import EliminationForm, expand_series, magnitude_scan

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_INPUT = 2


def _read_config(path: str):
    try:
        if path == "-":
            return parse_config(sys.stdin.read())
        with open(path, encoding="utf-8") as fh:
            return parse_config(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(str(exc)) from None


def _emit(obj, as_json: bool):
    """The result dict as indented JSON, or one `key: value` line per key in
    dict order: strings as they are, other values as one-line JSON."""
    if as_json:
        print(to_json(obj))
    else:
        for key, value in obj.items():
            print(f"{key}: {value if isinstance(value, str) else json.dumps(value)}")


def _model_from_config(cfg, tol):
    """Accept either explicit atoms/weights/r or params+weights."""
    if "atoms" in cfg:
        atoms = _items(cfg["atoms"], item=lambda a: _items(a, 2))
        return _built(make_model, atoms, cfg["weights"], _number(cfg["r"]))
    if "params" in cfg and "weights" in cfg:
        return candidate_model(cfg["params"], cfg["weights"], tol)
    raise ConfigError("config needs 'atoms'/'weights'/'r' or 'params'+'weights'")


def cmd_characterize(args) -> int:
    cfg = _read_config(args.config)
    rep = run_characterize(cfg, tol=args.tol, bound=args.bound)
    _emit(report_to_dict(rep), args.json)
    return EXIT_REJECTED if rep.status == "Rejected" else EXIT_OK


def cmd_roots(args) -> int:
    cfg = _read_config(args.config)
    q = cfg.get("quartic")
    if q is None:
        if "params" not in cfg:
            raise ConfigError("roots needs 'params' or 'quartic'")
        q = cfg["params"].quartic
    _emit(_roots_json(q, solve_quartic(q, args.tol)), args.json)
    return EXIT_OK


def cmd_lattice(args) -> int:
    cfg = _read_config(args.config)
    if "matrix" not in cfg:
        raise ConfigError("lattice needs 'matrix': 3x3 rational rows")
    rows = _items(cfg["matrix"], 3, lambda row: tuple(map(Fraction, _items(row, 3))))
    rep = star_condition(LatticeMatrix(rows), bound=args.bound)
    _emit(_star_json(rep), args.json)
    return EXIT_OK if rep.holds else EXIT_REJECTED


def cmd_expand(args) -> int:
    cfg = _read_config(args.config)
    m = _model_from_config(cfg, args.tol)
    rep = expand_series(m, args.depth)
    terms = {f"({format_number(k[0])},{format_number(k[1])})": format_number(v)
             for k, v in rep.terms.items()}
    fneg = None if rep.first_negative is None else {
        "point": [format_number(x) for x in rep.first_negative[0]],
        "coefficient": format_number(rep.first_negative[1])}
    _emit({"depth": rep.depth, "terms": terms, "first_negative": fneg,
           "pivot": rep.pivot}, args.json)
    return EXIT_OK if fneg is None else EXIT_REJECTED


def cmd_scan(args) -> int:
    cfg = _read_config(args.config)
    # a misspelt block would otherwise drop out unseen
    unread = sorted(set(cfg) - {"poly", "exp_terms", "linexp", "osc_blocks", "r"})
    if unread:
        raise ConfigError(f"scan does not read {', '.join(unread)}")
    form = _built(EliminationForm,
                  _items(cfg.get("poly", [])),
                  _items(cfg.get("exp_terms", []), item=lambda t: _items(t, 2)),
                  _items(cfg["linexp"], 2) if cfg.get("linexp") else None,
                  _items(cfg.get("osc_blocks", []), item=lambda b: _items(b, 6)))
    r = _number(cfg.get("r", 1))
    if not r > 0:
        raise ConfigError(f"r must be positive, got {r}")
    # 2001 points over [-50, 50], ordered by |t|
    grid = np.linspace(-50.0, 50.0, 2001)
    grid = grid[np.argsort(np.abs(grid), kind="stable")]
    _emit({"witness": magnitude_scan(form, r, grid)}, args.json)
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _read_config(args.config)
    m = _model_from_config(cfg, args.tol)
    theta = _items(cfg.get("theta", [0, 0]), 2)
    k, mean, cov = cumulant_eval(m, theta)
    _emit({"theta": [float(t) for t in theta], "k": k,
           "mean": [float(x) for x in mean],
           "variance": [[float(x) for x in row] for row in cov]}, args.json)
    return EXIT_OK


def cmd_tilt(args) -> int:
    cfg = _read_config(args.config)
    m = _model_from_config(cfg, args.tol)
    verdict = admissibility_verdict(m, bound=args.bound)
    if not verdict.accepted:
        print(f"model not admissible: {verdict.reason}", file=sys.stderr)
        return EXIT_REJECTED
    mu = realize_measure(m, verdict)
    theta = _items(cfg.get("theta", [0, 0]), 2)
    tilted = _built(tilt_member, mu, theta)
    _emit({"theta": [float(t) for t in theta],
           "measure": [{"point": [format_number(x) for x in pt],
                        "mass": format_number(ms)}
                       for pt, ms in zip(tilted.support, tilted.masses)],
           "degenerate": _degenerate(m, "atoms" in cfg)}, args.json)
    return EXIT_OK


# flag -> (type, default, the rule its value must meet before any work
# starts); every subcommand also takes the switch --json
FLAGS = {
    "tol": (float, 1e-8, lambda v: 0 < v < math.inf, "positive and finite"),
    "bound": (int, 50, lambda v: v >= 1, "at least 1"),
    "depth": (int, 8, lambda v: v >= 0, "at least 0"),
}

# subcommand -> (function, help, the flags it reads)
COMMANDS = {
    "characterize": (cmd_characterize, "run the full pipeline",
                     ("tol", "bound")),
    "roots": (cmd_roots, "solve and classify the characteristic quartic", ("tol",)),
    "lattice": (cmd_lattice, "mixed-sign kernel check on an explicit matrix",
                ("bound",)),
    "expand": (cmd_expand, "series expansion around the dominant atom",
               ("tol", "depth")),
    "scan": (cmd_scan, "characteristic-function magnitude scan", ()),
    "eval": (cmd_eval, "cumulant, mean, and variance at a point", ("tol",)),
    "tilt": (cmd_tilt, "exponentially tilted family member", ("tol", "bound")),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="diagvf",
        description="Bivariate NEF quadratic-diagonal variance function toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, help_, flags) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("config", nargs="?", default="-",
                        help="config file path, or '-' for stdin")
        for flag in flags:
            kind, default, _, _ = FLAGS[flag]
            sp.add_argument(f"--{flag}", type=kind, default=default)
        sp.add_argument("--json", action="store_true")
        sp.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for flag in COMMANDS[args.command][2]:
        _, _, ok, rule = FLAGS[flag]
        value = getattr(args, flag)
        if not ok(value):
            print(f"input error: --{flag} must be {rule}, got {value}", file=sys.stderr)
            return EXIT_INPUT
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # stdout's reader has gone: keep the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, as a shell reports it
    except (ConfigError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DiagVFError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REJECTED


if __name__ == "__main__":
    sys.exit(main())
