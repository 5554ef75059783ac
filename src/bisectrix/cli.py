"""Command-line interface.

One flag set drives every command:

    bisectrix --field Q --quad "Y=0; Y=X+1; X=0; Y=2X-1" --cmd analyze

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 domain
error (e.g. asking for the partner of a non-bisector).  Output format
"record" prints tab-separated key/value lines whose exact values parse
back bit-for-bit; "text" is for people.  Config may come from a file of
"key value" lines via --config; a key given both there and as a flag is
rejected rather than silently resolved.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain

from .bisectors import (
    AllLinesThrough,
    bisector_locus,
    bisector_through,
    q_partner,
)
from .errors import GeometryError, NotABisector
from .field import Field, GF, PrimeField, QQ, Scalar
from .form import quadratic_data
from .oracle import TheoremReport, random_quadrilateral, verify_all
from .pencil import classify, degenerations, format_polynomial, pencil_of
from .plane import InfPoint, Line, PlanePoint, Point
from .quad import Quadrilateral, standard_form
from .svgplot import PLOT_KINDS, render_svg

_FORMATS = ("text", "record")

# The largest p for which verify runs its exhaustive profile over GF(p):
# verify_all on random_quadrilateral(GF(p), 3) takes 0.02-0.04 s at p = 101,
# 0.15-0.28 s at p = 997 and 0.33-0.52 s at p = 1,999 on a shared 2-vCPU
# machine with Python 3.11 (the spread is the machine's, run to run); the
# bound keeps one instance under a second.
_VERIFY_MAX_P = 1000


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors (unknown flag, flag without its value,
    ambiguous abbreviation) raise ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


@dataclass
class JobConfig:
    cmd: str
    field: Field = QQ
    quad: Quadrilateral | None = None
    seed: int = 0
    out: str | None = None
    format: str = "text"
    point: Point | None = None
    line: Line | None = None
    alpha: Scalar | None = None
    beta: Scalar | None = None
    what: str = "locus"
    instances: int = 0
    timing: str = "off"


def _parse_field(_, text: str) -> Field:
    if text == "Q":
        return QQ
    if text.startswith("GFp:"):
        try:
            return GF(int(text[4:]))
        except ValueError as err:
            raise ConfigError(f"bad field {text!r}: {err}") from err
    raise ConfigError(f"bad field {text!r}: expected Q or GFp:<p>")


def _parse_quad(field: Field, text: str) -> Quadrilateral:
    parts = [p for p in text.split(";") if p.strip()]
    if len(parts) != 4:
        raise ConfigError("quad needs four ';'-separated line literals A;B;A';B'")
    return Quadrilateral(*(Line.parse(field, p) for p in parts))


def _parse_point(field: Field, text: str) -> Point:
    cleaned = text.strip().strip("()")
    parts = cleaned.replace(",", " ").split()
    if len(parts) != 2:
        raise ConfigError(f"bad point {text!r}: expected two scalars")
    return Point(field.parse(parts[0]), field.parse(parts[1]))


def _parse_count(_, text: str) -> int:
    n = int(text)
    if n < 0:
        raise ValueError("a count cannot be negative")
    return n


def _one_of(kind: str, names) -> tuple[str, Callable]:
    """Help text and parser of a key whose value must be one of names."""
    listed = ", ".join(names)

    def parse(_, text: str) -> str:
        if text not in names:
            raise ConfigError(f"unknown {kind} {text!r}: expected one of {listed}")
        return text

    return f"{kind}: {listed}", parse


def _read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for raw in handle:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, value = line.partition("\t")
                if not value:
                    key, _, value = line.partition(" ")
                key, value = key.strip(), value.strip()
                if key not in _KEYS:
                    raise ConfigError(f"unknown config key {key!r}")
                if key in out:
                    raise ConfigError(f"duplicate config key {key!r}")
                out[key] = value
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    return out


def load_config(argv) -> JobConfig:
    # Attach a value such as "-1/4,0" to the flag before it, as in
    # "--point=-1/4,0": argparse would read it as an unknown flag, and no
    # flag starts with '-' and a digit.
    tokens: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        if tokens and re.fullmatch(r"--[^=]+", tokens[-1]) and re.match(r"-\d", token):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    args = _PARSER.parse_args(tokens)
    texts = _read_config_file(args.config) if args.config else {}
    for key in _KEYS:
        value = getattr(args, key)
        if value is not None:
            if key in texts:
                raise ConfigError(f"key {key!r} given both in config file and as a flag")
            texts[key] = value
    if "cmd" not in texts:
        raise ConfigError("missing --cmd")
    values = {"field": QQ}
    for key, (_, parse) in _KEYS.items():
        if key in texts:
            try:
                values[key] = parse(values["field"], texts[key])
            except (ValueError, GeometryError) as err:
                rule = f"{type(err).__name__}: " if isinstance(err, GeometryError) else ""
                raise ConfigError(f"{key} {texts[key]!r}: {rule}{err}") from err
    return JobConfig(**values)


def _render_point(p: PlanePoint) -> str:
    if isinstance(p, InfPoint):
        return f"{p.x}:{p.y}:0"
    return f"{p.x} {p.y}"


def _phi_string(alpha: Scalar, beta: Scalar, gamma: Scalar) -> str:
    return format_polynomial(((alpha, "Y^2"), (-2 * beta, "X*Y"), (gamma, "X^2")))


def _centered_factor(var: str, shift: Scalar) -> str:
    if shift.is_zero():
        return var
    return f"({format_polynomial(((shift.field.one, var), (-shift, '')))})"


def _locus_string(locus) -> str:
    data = locus.data
    h, k = locus.center.x, locus.center.y
    fx = _centered_factor("X", h)
    fy = _centered_factor("Y", k)
    return format_polynomial((
        (data.alpha, f"{fy}^2"),
        (-2 * data.beta, f"{fx}*{fy}"),
        (data.gamma, f"{fx}^2"),
        (-locus.constant, ""),
    ))


def _emit(records: list[tuple[str, str]], fmt: str) -> list[str]:
    if fmt == "record":
        return [f"{key}\t{value}" for key, value in records]
    return [f"{key}: {value}" for key, value in records]


def cmd_analyze(cfg: JobConfig) -> tuple[int, list[str]]:
    q = cfg.quad
    d = quadratic_data(q)
    f, mu = standard_form(q)
    locus = bisector_locus(q)
    records = [
        ("field", cfg.field.name),
        ("side_a", str(q.a)),
        ("side_b", str(q.b)),
        ("side_a2", str(q.a2)),
        ("side_b2", str(q.b2)),
        ("proper", "true" if q.proper else "false"),
    ]
    for i, v in enumerate(q.vertices):
        records.append((f"vertex_{i}", _render_point(v)))
    records.append(("centroid", f"{q.centroid.x}, {q.centroid.y}"))
    records.append(("alpha_beta_gamma", f"{d.alpha} {d.beta} {d.gamma}"))
    records.append(("phi", _phi_string(d.alpha, d.beta, d.gamma)))
    records.append(("mu", str(mu)))
    records.append(
        ("map", f"{f.m00} {f.m01} {f.m10} {f.m11} {f.b0} {f.b1}")
    )
    records.append(("locus", _locus_string(locus)))
    records.append(("locus_conic", " ".join(str(c) for c in locus.conic.coeffs)))
    records.append(("locus_class", classify(locus.conic).kind))
    if locus.components is not None:
        records.append(
            ("locus_components", ", ".join(str(c) for c in locus.components))
        )
    for i, dp in enumerate(q.diagonal_points()):
        records.append((f"diagonal_point_{i}", _render_point(dp)))
    return 0, _emit(records, cfg.format)


def cmd_bisector(cfg: JobConfig) -> tuple[int, list[str]]:
    found = bisector_through(cfg.quad, cfg.point)
    if isinstance(found, AllLinesThrough):
        text = f"all lines through ({found.center.x}, {found.center.y})"
        if cfg.format == "record":
            return 0, [f"bisector\t{text}"]
        return 0, [text]
    if not found:
        return 0, (["bisector\tnone"] if cfg.format == "record" else ["none"])
    lines = []
    for b in found:
        if cfg.format == "record":
            lines.append(f"bisector\t{b.line}")
            lines.append(f"midpoint\t{_render_point(b.midpoint)}")
        else:
            lines.append(str(b.line))
    return 0, lines


def cmd_partner(cfg: JobConfig) -> tuple[int, list[str]]:
    partner = q_partner(cfg.quad, cfg.line)
    if cfg.format == "record":
        return 0, [f"partner\t{partner}"]
    return 0, [str(partner)]


def cmd_pencil(cfg: JobConfig) -> tuple[int, list[str]]:
    alpha = cfg.alpha if cfg.alpha is not None else cfg.field.one
    beta = cfg.beta if cfg.beta is not None else cfg.field.zero
    member = pencil_of(cfg.quad).member(alpha, beta)
    records = [
        ("conic", " ".join(str(c) for c in member.coeffs)),
        ("polynomial", str(member)),
        ("class", str(classify(member))),
    ]
    report = degenerations(member)
    if report.entries:
        for entry in report.entries:
            records.append(
                ("degeneration", f"{entry.pair.a}, {entry.pair.b} at lambda={entry.lam}")
            )
    elif report.family is not None:
        records.append(
            (
                "degeneration_family",
                f"parallel pairs with midline {report.family.midline}",
            )
        )
    elif report.absent_witness is not None:
        records.append(
            ("degeneration", f"absent over {cfg.field.name}"
             f" (nonsquare discriminant {report.absent_witness})")
        )
    else:
        records.append(("degeneration", "none"))
    return 0, _emit(records, cfg.format)


def _reproduce(field: Field, seed: int, q: Quadrilateral) -> str:
    """The shell command that verifies q alone with the same seed (the --quad
    literal holds no quote character, so single quotes protect it)."""
    flag = f"GFp:{field.p}" if isinstance(field, PrimeField) else "Q"
    literal = "; ".join(f"{side.t} {side.u} {side.v}" for side in q.sides)
    return f"bisectrix --cmd verify --field {flag} --seed {seed} --quad '{literal}'"


def cmd_verify(cfg: JobConfig) -> tuple[int, list[str]]:
    profile = "exhaustive" if isinstance(cfg.field, PrimeField) else "fixture"
    if profile == "exhaustive" and cfg.field.p > _VERIFY_MAX_P:
        raise ConfigError(f"verify over GF(p) needs p <= {_VERIFY_MAX_P}, got {cfg.field.name}")
    if cfg.timing == "on" and cfg.format != "record":
        raise ConfigError("timing needs --format record")
    if cfg.quad is None and not cfg.instances:
        raise ConfigError("verify needs --quad and/or --instances")
    runs = [(cfg.quad, cfg.seed)] if cfg.quad is not None else []
    seeds = range(cfg.seed, cfg.seed + cfg.instances)
    # One instance at a time: each is drawn when its turn comes and its
    # reports are folded into the per-tag totals at once.
    runs = chain(runs, ((random_quadrilateral(cfg.field, seed), seed) for seed in seeds))
    totals: dict[str, TheoremReport] = {}
    violations: list[str] = []
    for q, seed in runs:
        where = _reproduce(cfg.field, seed, q)
        for r in verify_all(q, profile, seed=seed):
            total = totals.setdefault(r.tag, TheoremReport(r.tag, r.field_name, 0))
            total.instances += r.instances
            total.violations += r.violations
            total.elapsed += r.elapsed
            violations += [f"violation {r.tag}: {v} [reproduce: {where}]" for v in r.violations]
    lines = [r.summary() for r in totals.values()] + violations
    if cfg.timing == "on":
        lines += [f"timing\t{r.tag}\t{r.elapsed * 1e3:.3f}" for r in totals.values()]
    return (1 if violations else 0), lines


def cmd_plot(cfg: JobConfig) -> tuple[int, list[str]]:
    if not isinstance(cfg.field, type(QQ)):
        raise ConfigError("plotting is only available over Q (no embedding of GF(p))")
    if cfg.out is None:
        raise ConfigError("plot needs --out PATH")
    document = render_svg(cfg.quad, cfg.what)
    try:
        with open(cfg.out, "w", encoding="utf-8") as handle:
            handle.write(document)
    except OSError as err:
        raise ConfigError(f"cannot write {cfg.out!r}: {err}") from err
    return 0, [f"wrote {cfg.out}"]


# Each command: its handler and the JobConfig fields it requires, in the
# order they are checked.
_COMMANDS = {
    "analyze": (cmd_analyze, ("quad",)),
    "bisector": (cmd_bisector, ("quad", "point")),
    "partner": (cmd_partner, ("quad", "line")),
    "pencil": (cmd_pencil, ("quad",)),
    "verify": (cmd_verify, ()),
    "plot": (cmd_plot, ("quad",)),
}


# Each key, given as a flag or as a config-file line: its help text and the
# parser of its text over the field.  Keys are parsed in this order, so the
# field comes first and the other parsers read it.
_KEYS = {
    "field": ("Q or GFp:<p> (default Q)", _parse_field),
    "cmd": _one_of("command", _COMMANDS),
    "format": _one_of("format", _FORMATS),
    "seed": ("PRNG seed (default 0)", lambda _, text: int(text)),
    "instances": ("random instances (verify)", _parse_count),
    "quad": ("four line literals: \"A; B; A'; B'\"", _parse_quad),
    "point": ("midpoint 'x,y' (bisector)", _parse_point),
    "line": ("line literal (partner)", Line.parse),
    "alpha": ("pencil coefficient", Field.parse),
    "beta": ("pencil coefficient", Field.parse),
    "what": _one_of("plot kind", PLOT_KINDS),
    "out": ("output path (plot)", lambda _, text: text),
    # Per-check milliseconds, summed over the instances: verify --format record.
    "timing": _one_of("timing", ("off", "on")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bisectrix",
        description="Exact bisector geometry of quadrilaterals over Q and GF(p).",
    )
    parser.add_argument("--config", help="config file of 'key value' lines")
    for key, (text, _) in _KEYS.items():
        parser.add_argument(f"--{key}", help=text)
    return parser


_PARSER = _build_parser()


def dispatch(cfg: JobConfig) -> tuple[int, list[str]]:
    handler, required = _COMMANDS[cfg.cmd]
    for key in required:
        if getattr(cfg, key) is None:
            raise ConfigError(f"{cfg.cmd} needs --{key}")
    return handler(cfg)


def main(argv=None) -> int:
    try:
        code, lines = dispatch(load_config(argv))
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NotABisector as err:
        print(f"error: NotABisector: {err}", file=sys.stderr)
        return 3
    except (GeometryError, ValueError) as err:
        # ValueError: a Q value past Python's int-to-string digit limit.
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
