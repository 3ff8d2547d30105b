"""Command-line front end.

Subcommands: step, solve, converge, termcount, bounds, stochastic-check.
The fields of RunConfig are the input of the first four: each is a flag
and a key of an optional JSON file (--config) that flags override, and
both are checked by the field's type.  Output is CSV on stdout, or to a
file with --out; complex values are serialized as "re+imj" with 17
significant digits so runs are byte-reproducible.  Exit codes: 0 success,
1 bound check violated, 2 rejected input (any ValueError), 3 numeric failure.

`main` keeps each command's parser once built, for the life of the
process: that pays only where one process calls `main` more than once,
as tests and scripts do, since a shell run builds one parser either way.
`build_problem` likewise keeps the built-in fields it made last, so the
steps of `converge` and `bounds`, and repeated calls of `main`, share a
field and the tapes it recorded.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, OscistepError
from .jets import builtin_field, make_field
from .oscillator import absorb_mean, make_oscillator, v_norm
from .oracles import (_exact_exp_values, _oscillatory_integrals,
                      exact_pure_oscillatory, fit_slope, rk4_micro_solve)
from .stepping import (BoundInputs, bound_R11, bound_R22, build_scheme,
                       estimate_coefficient_bound, solve, step,
                       step_phase_averaged)
from .terms import (TruncationPolicy, enumerate_words, policy_matches_scheme,
                    stochastic_scheme_words, term_count)

__all__ = ["RunConfig", "main"]


@dataclass
class RunConfig:
    """One flag and JSON key per field (`fourier`, a table, is JSON only);
    values are converted and checked by the declared type."""

    problem: Literal["linear", "nonlinear", "power", "freqdep", "custom-fourier"] = "linear"
    omega: float = 100.0
    phi: float = 0.0
    nu: float = 0.0
    mu: complex = 10.0 + 0j
    alpha: complex = 1.0 + 0j
    gamma: int = 1
    u0: complex = 1.0 + 0j
    t0: float = 0.0
    tend: float = 1.0
    h: float = 0.1
    kappa: float | None = None
    rho: float | None = None
    kappa0: float | None = None
    kappa1: float | None = None
    phase_averaged: bool = False
    emit_contributions: bool = False
    oracle: Literal["exact", "rk4", "none"] = "none"
    fourier: dict | None = None
    out: str | None = None

    def __post_init__(self):
        for name in _SCHEMA:
            setattr(self, name, _convert(name, getattr(self, name)))

    def policy(self) -> TruncationPolicy:
        if self.kappa0 is not None and self.kappa1 is not None:
            return TruncationPolicy(self.kappa0, self.kappa1)
        if self.kappa is not None and self.rho is not None:
            return TruncationPolicy.from_order(self.kappa, self.rho, self.nu)
        raise ConfigError("supply either (kappa0, kappa1) or (kappa, rho)")


def _schema(hint) -> tuple:
    """(value type, choices, None allowed) of a RunConfig annotation."""
    args = get_args(hint)
    if get_origin(hint) is Literal:
        return str, args, False
    return next((a for a in args if a is not type(None)), hint), None, type(None) in args


_SCHEMA = {name: _schema(hint) for name, hint in get_type_hints(RunConfig).items()}


def _convert(name: str, value):
    """`value`, a flag string or a JSON value, as the RunConfig field `name`;
    raises ConfigError when it does not fit the field's annotation."""
    kind, choices, nullable = _SCHEMA[name]
    if value is None and nullable:
        return None
    if choices:
        if value in choices:
            return value
        raise ConfigError(f"{name} must be one of {', '.join(choices)}; got {value!r}")
    if kind in (bool, str, dict):
        if type(value) is kind:
            return value
        raise ConfigError(f"{name} must be {kind.__name__}; got {value!r}")
    return _number(name, value, kind)


def _number(name: str, value, kind=float):
    """`value`, a flag string or a JSON number, as a finite `kind` (float,
    complex or int); raises ConfigError naming `name` otherwise.  An int is
    read as a float, so it must lie below 2**53 in magnitude, where every
    float that is an integer is the number typed: a larger one would round
    onto a float, such as 9007199254740993 onto 2**53."""
    if not isinstance(value, bool):
        try:
            x = parse_complex(value) if kind is complex else float(value)
        except (TypeError, ValueError, OverflowError):
            x = None
        if x is not None and cmath.isfinite(x) and (
                kind is not int or (x.is_integer() and abs(x) < 2 ** 53)):
            return kind(x)
    what = "int below 2**53 in magnitude" if kind is int else kind.__name__
    raise ConfigError(f"{name} must be {what}; got {value!r}")


def parse_complex(text) -> complex:
    """Parse 're', 're,im' or a [re, im] pair."""
    if isinstance(text, (int, float, complex)):
        return complex(text)
    parts = text if isinstance(text, (list, tuple)) else str(text).split(",")
    try:
        if len(parts) in (1, 2):
            return complex(*map(float, parts))
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"cannot parse complex value {text!r}; use 're' or 're,im'")


def fmt_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}j"


def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


# a named ODE setup: coefficient field, oscillator, and its closed form,
# which maps increasing times from 0 to u at each
Problem = namedtuple("Problem", "field osc exact")

# the built-in fields `build_problem` made last, by problem name and the
# type and repr of each parameter, so -0.0 and 0.0, or 10 and 10.0, get
# fields of their own: a field records each of its tapes once
_FIELDS: dict[tuple, object] = {}
_FIELD_CACHE_SIZE = 8


def _builtin_field(name: str, **params):
    """The built-in field `name` with `params`, kept across calls for the
    `_FIELD_CACHE_SIZE` parameter sets used last."""
    key = (name, *((k, type(v), repr(v)) for k, v in sorted(params.items())))
    field = _FIELDS.pop(key, None)
    if field is None:
        field = builtin_field(name, **params)
    _FIELDS[key] = field
    if len(_FIELDS) > _FIELD_CACHE_SIZE:
        del _FIELDS[next(iter(_FIELDS))]
    return field


def build_problem(cfg: RunConfig) -> Problem:
    om, phi, u0 = cfg.omega, cfg.phi, cfg.u0
    if cfg.problem == "linear":
        field = _builtin_field("linear", mu=cfg.mu)
        osc = make_oscillator("cos", om, phi, cfg.nu)
        exact = lambda times: _exact_exp_values(lambda s: s, 1, cfg.mu, osc, times, u0,
                                                alpha_antideriv=lambda s: s * s / 2.0)
    elif cfg.problem in ("nonlinear", "freqdep"):
        # freqdep is the nonlinear pair with an amplitude exponent nu
        # (default -1/2, see _validate)
        field = _builtin_field("nonlinear", alpha=cfg.alpha, mu=cfg.mu)
        osc = make_oscillator("exp", om, phi, cfg.nu)
        exact = lambda times: _exact_exp_values(cfg.alpha, -1, cfg.mu, osc, times, u0)
    elif cfg.problem == "power":
        field = _builtin_field("power", gamma=cfg.gamma)
        osc = make_oscillator("cos", om, phi, cfg.nu)

        def exact(times):
            dvs = _oscillatory_integrals(osc.value, osc, times, 1e-12)
            return [exact_pure_oscillatory(cfg.gamma, u0, q.value) if t else complex(u0)
                    for t, q in zip(times, dvs)]
    else:  # custom-fourier
        if not cfg.fourier:
            raise ConfigError("problem 'custom-fourier' requires a 'fourier' "
                              "coefficient table in the config file")
        coeffs = {int(k): parse_complex(v) for k, v in cfg.fourier.items()}
        osc = make_oscillator("fourier", om, phi, cfg.nu, coeffs)
        alpha, mu, gamma = cfg.alpha, cfg.mu, cfg.gamma
        expo = 1 - gamma
        base = make_field(1, lambda t, u: [alpha * u[0]],
                          lambda t, u: [mu * u[0] ** expo], name="custom-fourier")
        field = absorb_mean(base, osc.removed_mean)
        exact = lambda times: _exact_exp_values(alpha, gamma, mu, osc, times, u0,
                                                v_offset=osc.removed_mean)
    return Problem(field, osc, exact)


def oracle_values(cfg: RunConfig, prob: Problem, times) -> list[complex] | None:
    """The reference solution at each of the increasing `times` (none
    before t0; t0 itself gives u0), or None without an oracle.  The closed
    form's quadrature, or RK4, runs once across the times, each segment
    starting from the previous value."""
    if cfg.oracle == "none":
        return None
    if cfg.oracle == "exact":
        if cfg.t0 != 0.0:
            raise ConfigError("the exact oracle's closed forms anchor at t0 = 0")
        return prob.exact(times)
    dt = prob.osc.period / 200.0  # the rk4 oracle
    t, u, out = cfg.t0, np.array([cfg.u0]), []
    for t_next in times:
        if t_next > t:
            u = rk4_micro_solve(prob.field, prob.osc, t, u, t_next, dt)[-1][1]
            t = t_next
        out.append(complex(u[0]))
    return out


# -- commands -----------------------------------------------------------------

def cmd_step(cfg: RunConfig) -> tuple[int, list[str]]:
    prob = build_problem(cfg)
    scheme = build_scheme(prob.osc, cfg.policy())
    stepper = step_phase_averaged if cfg.phase_averaged else step
    res = stepper(scheme, prob.field, cfg.t0, np.array([cfg.u0]), cfg.h)
    header = ["t_next", "u_next"]
    row = [fmt_float(res.t_next), fmt_complex(res.u_next[0])]
    if cfg.emit_contributions:
        for entry, contrib in zip(scheme.entries, res.contributions):
            header.append(f"term_{entry.word}")
            row.append(fmt_complex(contrib[0]))
    refs = oracle_values(cfg, prob, [res.t_next])
    if refs is not None:
        header += ["oracle", "abs_error"]
        row += [fmt_complex(refs[0]), fmt_float(abs(res.u_next[0] - refs[0]))]
    return 0, [",".join(header), ",".join(row)]


def cmd_solve(cfg: RunConfig) -> tuple[int, list[str]]:
    prob = build_problem(cfg)
    scheme = build_scheme(prob.osc, cfg.policy())
    traj = solve(scheme, prob.field, cfg.t0, np.array([cfg.u0]), cfg.tend, cfg.h)
    refs = oracle_values(cfg, prob, [t for t, _ in traj])
    lines = ["t,u" + (",oracle,abs_error" if refs is not None else "")]
    for i, (t, u) in enumerate(traj):
        row = [fmt_float(t), fmt_complex(u[0])]
        if refs is not None:
            row += [fmt_complex(refs[i]), fmt_float(abs(u[0] - refs[i]))]
        lines.append(",".join(row))
    return 0, lines


def cmd_converge(cfg: RunConfig, h_list: list[float],
                 couple_c: float | None) -> tuple[int, list[str]]:
    if len(h_list) < 3:
        raise ConfigError("converge needs at least three step sizes")
    if min(h_list) <= 0 or (couple_c is not None and couple_c <= 0):
        raise ConfigError("converge step sizes and couple_c must be positive")
    lines = ["h,omega,abs_error"]
    pts = []
    for h in h_list:
        sub = replace(cfg, h=h)
        if couple_c is not None:
            rho = cfg.rho if cfg.rho is not None else 2.0
            sub.omega = 1.0 / (couple_c * h ** rho)
        prob = build_problem(sub)
        scheme = build_scheme(prob.osc, sub.policy())
        res = step(scheme, prob.field, sub.t0, np.array([sub.u0]), h)
        err = abs(res.u_next[0] - oracle_values(sub, prob, [res.t_next])[0])
        pts.append((h, err))
        lines.append(",".join([fmt_float(h), fmt_float(sub.omega), fmt_float(err)]))
    lines.append("slope,%s," % fmt_float(fit_slope(pts)))
    return 0, lines


def cmd_termcount(kappa: int, rho: int) -> tuple[int, list[str]]:
    n = term_count(kappa, rho)
    return 0, ["kappa,rho,terms", f"{kappa},{rho},{n}"]


def cmd_bounds(cfg: RunConfig, h_list: list[float], omega_list: list[float],
               K: float | None, box_t: float | None,
               box_radius: float) -> tuple[int, list[str]]:
    # the problem, vnorm and the oracle depend on omega but not on h; the
    # field, and so K, only through custom-fourier's absorbed mean
    per_omega, per_mean = {}, {}
    t_hi = box_t if box_t is not None else cfg.t0 + max(h_list)
    u0 = np.array([cfg.u0])
    for om in omega_list:
        prob = build_problem(replace(cfg, omega=om))
        if K is None:
            mean = prob.osc.removed_mean
            if mean not in per_mean:
                per_mean[mean] = [estimate_coefficient_bound(prob.field, (cfg.t0, t_hi), u0,
                                                             box_radius, order) for order in (1, 2)]
            K1, K2 = per_mean[mean]
        else:
            K1 = K2 = K
        # the oracle at every h's end time, in one pass
        times = sorted({cfg.t0 + h for h in h_list})
        refs = dict(zip(times, oracle_values(cfg, prob, times)))
        per_omega[om] = prob, K1, K2, v_norm(prob.osc), refs
    lines = ["h,omega,error_first,bound_first,error_second,bound_second,satisfied"]
    all_ok = True
    for h in h_list:
        for om in omega_list:
            prob, K1, K2, vn, refs = per_omega[om]
            ref = refs[cfg.t0 + h]
            e1, e2 = (abs(step(build_scheme(prob.osc, TruncationPolicy(k, k)),
                               prob.field, cfg.t0, u0, h).u_next[0] - ref)
                      for k in (1, 2))
            b1 = bound_R11(BoundInputs(K1, vn, h, om))
            b2 = bound_R22(BoundInputs(K2, vn, h, om))
            ok = e1 <= b1 and e2 <= b2
            all_ok = all_ok and ok
            lines.append(",".join([fmt_float(h), fmt_float(om), fmt_float(e1),
                                   fmt_float(b1), fmt_float(e2), fmt_float(b2),
                                   "true" if ok else "false"]))
    return (0 if all_ok else 1), lines


def cmd_stochastic_check(kappa: float, rho_prime: float,
                         scheme: str) -> tuple[int, list[str]]:
    match = policy_matches_scheme(kappa, rho_prime, scheme)  # checks rho' > 0
    retained = enumerate_words(TruncationPolicy(kappa, kappa / rho_prime))
    want = ";".join(sorted(str(w) for w in stochastic_scheme_words(scheme)))
    got = ";".join(str(w) for w in retained)
    return 0, ["kappa,rho_prime,scheme,scheme_words,retained_words,match",
               f"{fmt_float(kappa)},{fmt_float(rho_prime)},{scheme},{want},{got},"
               + ("true" if match else "false")]


# -- argument plumbing --------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON file with flat RunConfig keys")
    for name, (kind, choices, _) in _SCHEMA.items():
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            p.add_argument(flag, action="store_true", default=None)
        elif kind is not dict:  # a table (fourier) comes from JSON only
            p.add_argument(flag, metavar="{%s}" % ",".join(choices) if choices
                           else kind.__name__.upper())


def _load_config(ns: argparse.Namespace) -> RunConfig:
    data = {}
    if ns.config:
        try:
            with open(ns.config) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {ns.config!r}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {ns.config!r} must hold a JSON object")
        unknown = set(data) - _SCHEMA.keys()
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    data.update({k: v for k in _SCHEMA if (v := getattr(ns, k, None)) is not None})
    cfg = RunConfig(**data)
    _validate(cfg, ns.command)
    return cfg


def _validate(cfg: RunConfig, command: str):
    if command != "step" and (cfg.phase_averaged or cfg.emit_contributions):
        raise ConfigError("phase_averaged and emit_contributions apply to "
                          f"'step' only, not {command!r}")
    # the frequency-dependent problem defaults to amplitude exponent -1/2,
    # applied here so the truncation policy sees the same nu
    if cfg.problem == "freqdep" and cfg.nu == 0.0:
        cfg.nu = -0.5
    # converge and bounds report errors, so they always have a reference
    if command in ("converge", "bounds") and cfg.oracle == "none":
        cfg.oracle = "exact"
    if command == "solve" and cfg.tend <= cfg.t0:
        raise ConfigError("tend must exceed t0")
    # converge and bounds step by their h lists and never read h
    if command in ("step", "solve") and cfg.h <= 0:
        raise ConfigError("h must be positive")


def _float_list(text: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        values = []
    if not values or not all(map(math.isfinite, values)):
        raise ConfigError(f"cannot parse {text!r} as a list of finite floats")
    return values


def _optional_number(name: str, value) -> float | None:
    """An optional float flag, None when not given."""
    return None if value is None else _number(name, value)


def _add_converge(p: argparse.ArgumentParser):
    _add_common(p)
    p.add_argument("--h-list", required=True, help="comma-separated step sizes")
    p.add_argument("--couple-c",
                   help="couple omega^-1 = c h^rho along the study")


def _add_termcount(p: argparse.ArgumentParser):
    p.add_argument("--kappa", required=True)
    p.add_argument("--rho", required=True)
    p.add_argument("--out")


def _add_bounds(p: argparse.ArgumentParser):
    _add_common(p)
    p.add_argument("--h-list", default="0.2,0.1,0.05")
    p.add_argument("--omega-list", default="50,100,200")
    p.add_argument("--K", help="explicit coefficient bound")
    p.add_argument("--box-t", help="upper end of the K-sampling box in t")
    p.add_argument("--box-radius", default="0.5",
                   help="radius of the K-sampling box around u0")


def _add_stochastic_check(p: argparse.ArgumentParser):
    p.add_argument("--kappa", required=True)
    p.add_argument("--rho-prime", required=True)
    p.add_argument("--scheme", choices=("euler", "milstein"), required=True)
    p.add_argument("--out")


# command -> (adds its arguments to a parser, runner(cfg, ns)); cfg is the
# RunConfig, or None for the two commands without one
COMMANDS = {
    "step": (_add_common, lambda cfg, ns: cmd_step(cfg)),
    "solve": (_add_common, lambda cfg, ns: cmd_solve(cfg)),
    "converge": (_add_converge,
                 lambda cfg, ns: cmd_converge(cfg, _float_list(ns.h_list),
                                              _optional_number("couple_c", ns.couple_c))),
    "termcount": (_add_termcount,
                  lambda cfg, ns: cmd_termcount(_number("kappa", ns.kappa, int),
                                                _number("rho", ns.rho, int))),
    "bounds": (_add_bounds,
               lambda cfg, ns: cmd_bounds(cfg, _float_list(ns.h_list),
                                          _float_list(ns.omega_list),
                                          _optional_number("K", ns.K),
                                          _optional_number("box_t", ns.box_t),
                                          _number("box_radius", ns.box_radius))),
    "stochastic-check": (_add_stochastic_check,
                         lambda cfg, ns: cmd_stochastic_check(_number("kappa", ns.kappa),
                                                              _number("rho_prime", ns.rho_prime),
                                                              ns.scheme)),
}


# the parser of each command, and of no command (None), with the names
# and the argument builder it was made from: one each per process
_PARSERS: dict[str | None, tuple[tuple, argparse.ArgumentParser]] = {}


def _parser(chosen: str | None) -> argparse.ArgumentParser:
    """The parser of every command name with only the arguments of
    `chosen`, a key of COMMANDS or None, built on the first call for
    `chosen` and kept while COMMANDS keeps its names and `chosen`'s
    argument builder."""
    source = (tuple(COMMANDS), chosen and COMMANDS[chosen][0])
    kept = _PARSERS.get(chosen)
    if kept is not None and kept[0] == source:
        return kept[1]
    parser = argparse.ArgumentParser(
        prog="oscistep",
        description="Macro-step integration of du/dt = a(t,u) + b(t,u) v(t) "
                    "with a rapidly oscillating factor v")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {name: sub.add_parser(name) for name in COMMANDS}
    if chosen is not None:
        COMMANDS[chosen][0](subparsers[chosen])
    _PARSERS[chosen] = (source, parser)
    return parser


def main(argv=None) -> int:
    """Run one command; returns its exit code.  A usage error or --help
    exits through argparse (SystemExit 2 or 0)."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top level takes no options but --help, so the first other word
    # names the command; only that command's arguments are built
    chosen = next((a for a in argv if not a.startswith("-")), None)
    parser = _parser(chosen if chosen in COMMANDS else None)

    ns = parser.parse_args(argv)
    try:
        cfg = _load_config(ns) if "config" in ns else None
        code, lines = COMMANDS[ns.command][1](cfg, ns)
        text = "\n".join(lines) + "\n"
        out_path = ns.out if cfg is None else cfg.out
        if out_path:
            try:
                with open(out_path, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ConfigError(f"cannot write {out_path!r}: {exc}") from exc
        else:
            sys.stdout.write(text)
    except ValueError as exc:  # ConfigError, RegimeError and library argument checks
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OscistepError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    raise SystemExit(main())
