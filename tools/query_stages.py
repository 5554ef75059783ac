"""Per-stage time of the query path, raw, on the benchmark's request stream.

    python tools/query_stages.py [--seed 1] [--requests 2000] [--passes 3]

Takes the first --requests requests of the query workload of one seed
(benchmark/inputs.py, imported and not changed) and times each stage of
`bisectrix.cli.main` on them in this process, as microseconds per request,
the best of --passes passes over the whole prefix:

    argv           load_config's token pre-pass and argparse, with every
                   key parser replaced by one that keeps the text
    literals       the key parsers on those texts, --quad's four
                   Line.parse calls included
    quadrilateral  Quadrilateral(...) of the four parsed lines (an
                   invalid quadrilateral raises and counts too)
    <cmd> <field>  dispatch of one command over one field family, on the
                   requests that load_config accepts

Times are raw (not normalised by the benchmark's reference loop), so
compare runs of one machine only.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

from inputs import requests  # noqa: E402

from bisectrix import cli  # noqa: E402
from bisectrix.errors import GeometryError  # noqa: E402
from bisectrix.plane import Line  # noqa: E402
from bisectrix.quad import Quadrilateral  # noqa: E402


def _lines(field, text):
    """_parse_quad without its Quadrilateral: the four Line.parse calls."""
    return [Line.parse(field, part) for part in text.split(";") if part.strip()]


_PARSERS = {**{key: parse for key, (_, parse) in cli._KEYS.items()}, "quad": _lines}


class _Text(str):
    """A key's text as load_config read it, before any key parser."""


# load_config's keys, each with a parser that keeps its text.
_KEEP = {key: (doc, lambda _, text: _Text(text)) for key, (doc, _) in cli._KEYS.items()}


def _load_texts(argv):
    """load_config(argv) up to the key parsers: the token pre-pass, argparse
    and the key loop, with _KEEP's parsers."""
    keys, cli._KEYS = cli._KEYS, _KEEP
    try:
        return cli.load_config(argv)
    finally:
        cli._KEYS = keys


def _parse(texts: dict) -> dict:
    """The key parsers of load_config, field first, on one request's texts."""
    values = {"field": cli._parse_field(None, texts["field"])}
    for key, text in texts.items():
        if key != "field":
            values[key] = _PARSERS[key](values["field"], text)
    return values


def _quadrilateral(lines):
    try:
        return Quadrilateral(*lines)
    except GeometryError as err:
        return err


def _dispatch(cfg):
    try:
        return cli.dispatch(cfg)
    except GeometryError as err:  # NotABisector: exit 3
        return err


def _field_label(spec) -> str:
    return spec.name if spec.p else f"Q height {spec.height:,}"


def _fresh(configs: list) -> list:
    """The dispatch calls of configs, each on a new Quadrilateral of the same
    sides: a quadrilateral memoises its form and side products, and a
    request never finds them computed."""
    return [(_dispatch, replace(cfg, quad=Quadrilateral(*cfg.quad.sides))) for cfg in configs]


def stages(seed: int, n: int) -> list[tuple[str, int, Callable[[], list]]]:
    """(stage, requests, calls) in the order a request meets the stages;
    calls() returns the stage's [(function, argument), ...], prepared
    outside the timed loop."""
    stream = requests("query", seed, n)
    argvs = [list(req.argv) for req in stream]
    texts = [{key: str(text) for key, text in vars(_load_texts(argv)).items()
              if type(text) is _Text} for argv in argvs]
    parsed = [_parse(t) for t in texts]
    front = (
        ("argv", [(_load_texts, argv) for argv in argvs]),
        ("literals", [(_parse, t) for t in texts]),
        ("quadrilateral", [(_quadrilateral, values["quad"]) for values in parsed]),
    )
    out = [(name, len(calls), lambda calls=calls: calls) for name, calls in front]
    groups = defaultdict(list)
    for req, argv in zip(stream, argvs):
        try:
            groups[f"{req.cmd} {_field_label(req.spec)}"].append(cli.load_config(argv))
        except (cli.ConfigError, GeometryError):
            continue  # exit 2 before dispatch
    for name, configs in sorted(groups.items()):
        out.append((name, len(configs), lambda configs=configs: _fresh(configs)))
    return out


def best_us(calls: Callable[[], list], passes: int) -> float:
    """Microseconds per call, the best of passes over all of calls()."""
    best = float("inf")
    for _ in range(passes):
        todo = calls()
        start = perf_counter()
        for fn, arg in todo:
            fn(arg)
        best = min(best, (perf_counter() - start) / len(todo))
    return best * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--requests", type=int, default=2000)
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args(argv)
    print(f"query seed {args.seed}: first {args.requests} requests, best of {args.passes} passes")
    print(f"{'stage':<36}{'requests':>9}{'us':>10}")
    for name, count, calls in stages(args.seed, args.requests):
        print(f"{name:<36}{count:>9}{best_us(calls, args.passes):>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
