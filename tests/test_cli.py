import argparse
import ast
import os
import re
import shlex
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import bisectrix.cli
from bisectrix.cli import main
from bisectrix.errors import ExhaustedSampling

E1_QUAD = "Y=0; Y=X+1; X=0; Y=2X-1"
E2_QUAD = "Y=0; X=0; Y=1; X=1"

SVG_NS = "{http://www.w3.org/2000/svg}"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def test_analyze_e1(capsys):
    code, out, _ = run(capsys, "--field", "Q", "--quad", E1_QUAD, "--cmd", "analyze")
    assert code == 0
    assert "centroid: -1/8, 0" in out
    assert "mu: 2" in out
    assert "locus: Y^2 - 2*(X + 1/8)^2 + 1/32" in out
    assert "alpha_beta_gamma: 1 0 -2" in out


def test_analyze_e2_degenerate(capsys):
    code, out, _ = run(capsys, "--field", "Q", "--quad", E2_QUAD, "--cmd", "analyze")
    assert code == 0
    assert "locus_components: Y=1/2, X=1/2" in out
    assert "locus_class: degenerate_pair" in out


def test_analyze_record_round_trip(capsys):
    """Every exact value that analyze and pencil print as a record parses
    back to the kernel's own value, over Q, GF(7) and GF(101)."""
    from bisectrix import (
        GF, QQ, AffineMap, Line, Point, bisector_locus, pencil_of, quadratic_data,
        random_quadrilateral, standard_form,
    )

    for field, flag in ((QQ, "Q"), (GF(7), "GFp:7"), (GF(101), "GFp:101")):
        parse = field.parse
        for seed in range(60):
            q = random_quadrilateral(field, seed)
            literal = "; ".join(f"{s.t} {s.u} {s.v}" for s in q.sides)
            code, out, _ = run(
                capsys, "--field", flag, "--quad", literal, "--cmd", "analyze",
                "--format", "record",
            )
            assert code == 0
            records = dict(line.split("\t", 1) for line in out)
            keys = ("side_a", "side_b", "side_a2", "side_b2")
            assert tuple(Line.parse(field, records[key]) for key in keys) == q.sides
            for i, vertex in enumerate(q.vertices):  # adjacent sides meet: affine
                x, y = records[f"vertex_{i}"].split()
                assert Point(parse(x), parse(y)) == vertex
            x, y = records["centroid"].split(", ")
            assert Point(parse(x), parse(y)) == q.centroid
            d = quadratic_data(q)
            assert tuple(map(parse, records["alpha_beta_gamma"].split())) == (
                d.alpha, d.beta, d.gamma,
            )
            f, mu = standard_form(q)
            assert parse(records["mu"]) == mu
            assert AffineMap(*map(parse, records["map"].split())) == f
            assert tuple(map(parse, records["locus_conic"].split())) == (
                bisector_locus(q).conic.coeffs
            )
            code, out, _ = run(
                capsys, "--field", flag, "--quad", literal, "--cmd", "pencil",
                "--alpha", "2", "--beta", "3", "--format", "record",
            )
            assert code == 0
            records = dict(line.split("\t", 1) for line in out)
            member = pencil_of(q).member(field.scalar(2), field.scalar(3))
            assert tuple(map(parse, records["conic"].split())) == member.coeffs


def test_partner(capsys):
    code, out, _ = run(
        capsys, "--field", "Q", "--quad", E1_QUAD, "--cmd", "partner",
        "--line", "Y=X+1",
    )
    assert code == 0
    assert out == ["Y=2X-1"]


def test_partner_not_a_bisector(capsys):
    code, out, err = run(
        capsys, "--field", "Q", "--quad", E1_QUAD, "--cmd", "partner",
        "--line", "X=3",
    )
    assert code == 3
    assert "NotABisector" in err


def test_bisector_point(capsys):
    code, out, _ = run(
        capsys, "--field", "Q", "--quad", E1_QUAD, "--cmd", "bisector",
        "--point", "0,0",
    )
    assert code == 0
    assert out == ["X=0"]


def test_bisector_off_locus(capsys):
    code, out, _ = run(
        capsys, "--field", "Q", "--quad", E1_QUAD, "--cmd", "bisector",
        "--point", "5,5",
    )
    assert code == 0
    assert out == ["none"]


def test_bisector_parallelogram_center(capsys):
    code, out, _ = run(
        capsys, "--field", "Q", "--quad", E2_QUAD, "--cmd", "bisector",
        "--point", "1/2,1/2",
    )
    assert code == 0
    assert out == ["all lines through (1/2, 1/2)"]


def test_invalid_quad_exit_2(capsys):
    code, out, err = run(
        capsys, "--field", "Q", "--quad", "Y=0; Y=1; X=0; Y=X", "--cmd", "analyze"
    )
    assert code == 2
    assert "AdjacentParallel" in err


def test_malformed_slope_sugar_exit_2(capsys):
    code, out, err = run(
        capsys, "--field", "Q", "--quad", "Y=0; Y=X2; X=0; Y=2X-1", "--cmd", "analyze"
    )
    assert (code, out) == (2, [])
    assert "DegenerateInput: cannot parse line literal 'Y=X2'" in err


def test_pencil_member(capsys):
    code, out, _ = run(
        capsys, "--field", "Q", "--quad", E1_QUAD, "--cmd", "pencil",
        "--alpha", "1", "--beta", "1",
    )
    assert code == 0
    assert any(line.startswith("polynomial: ") for line in out)
    assert "class: ellipse" in out


def test_verify_exit_zero(capsys):
    code, out, _ = run(
        capsys, "--field", "GFp:7", "--cmd", "verify", "--seed", "1",
        "--instances", "3",
    )
    assert code == 0
    for line in out:
        parts = line.split()
        assert parts[-1] == "0"
        assert parts[1] == "GF(7)"


def test_verify_draws_each_instance_when_its_turn_comes(capsys, monkeypatch):
    """verify holds one instance at a time: after the --quad instance, each
    seed's quadrilateral is drawn right before it is verified, not all of
    them up front.  A draw that fails partway still exits 2 with no output."""
    calls = []
    draw, verify = bisectrix.cli.random_quadrilateral, bisectrix.cli.verify_all
    exhausted = set()

    def logged_draw(field, seed):
        calls.append(("draw", seed))
        if seed in exhausted:
            raise ExhaustedSampling("no valid quadrilateral")
        return draw(field, seed)

    def logged_verify(q, profile, seed):
        calls.append(("verify", seed))
        return verify(q, profile, seed=seed)

    monkeypatch.setattr(bisectrix.cli, "random_quadrilateral", logged_draw)
    monkeypatch.setattr(bisectrix.cli, "verify_all", logged_verify)
    argv = ["--field", "GFp:7", "--cmd", "verify", "--quad", E1_QUAD,
            "--seed", "4", "--instances", "3"]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert calls == [("verify", 4)] + [
        (step, seed) for seed in (4, 5, 6) for step in ("draw", "verify")
    ]
    calls.clear()
    exhausted.add(5)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, []) and "ExhaustedSampling" in err
    assert calls == [("verify", 4), ("draw", 4), ("verify", 4), ("draw", 5)]


def test_verify_fixture_q(capsys):
    code, out, _ = run(
        capsys, "--field", "Q", "--quad", E1_QUAD, "--cmd", "verify"
    )
    assert code == 0


def test_config_file(tmp_path, capsys):
    config = tmp_path / "job.cfg"
    config.write_text(
        f"field Q\nquad {E1_QUAD}\ncmd partner\nline Y=X+1\n", encoding="utf-8"
    )
    code, out, _ = run(capsys, "--config", str(config))
    assert code == 0
    assert out == ["Y=2X-1"]


def test_config_flag_conflict(tmp_path, capsys):
    config = tmp_path / "job.cfg"
    config.write_text("cmd analyze\n", encoding="utf-8")
    code, _, err = run(capsys, "--config", str(config), "--cmd", "verify")
    assert code == 2
    assert "both" in err


def test_config_unknown_key(tmp_path, capsys):
    config = tmp_path / "job.cfg"
    config.write_text("cmd analyze\nbogus 1\n", encoding="utf-8")
    code, _, err = run(capsys, "--config", str(config))
    assert code == 2
    assert "unknown config key" in err


def test_config_not_utf8_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"\xff\xfecmd analyze\n")
    code, out, err = run(capsys, "--config", str(config))
    assert code == 2
    assert out == []
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot read config '{config}': ")
    assert "Traceback" not in err


def _counts(svg_path):
    root = ET.parse(svg_path).getroot()
    declared = {}
    meta = root.find(f"{SVG_NS}metadata")
    for item in meta.text.split():
        key, value = item.split("=")
        declared[key] = int(value)
    actual = {
        g.get("id"): len(list(g)) for g in root.findall(f"{SVG_NS}g")
    }
    return declared, actual


def test_plot_locus_structure(tmp_path, capsys):
    out_path = tmp_path / "e1.svg"
    code, out, _ = run(
        capsys, "--field", "Q", "--quad", E1_QUAD, "--cmd", "plot",
        "--what", "locus", "--out", str(out_path),
    )
    assert code == 0
    declared, actual = _counts(out_path)
    assert declared == actual
    assert actual["sides"] == 4
    assert actual["locus"] >= 1
    assert actual["midpoints"] >= 8
    root = ET.parse(out_path).getroot()
    assert root.get("viewBox")
    polylines = root.find(f"{SVG_NS}g[@id='locus']").findall(f"{SVG_NS}polyline")
    assert polylines


def test_plot_bisector_field_sample(tmp_path, capsys):
    out_path = tmp_path / "e2.svg"
    code, out, _ = run(
        capsys, "--field", "Q", "--quad", E2_QUAD, "--cmd", "plot",
        "--what", "bisector-field-sample", "--out", str(out_path),
    )
    assert code == 0
    declared, actual = _counts(out_path)
    assert declared == actual
    # Midlines plus a star of lines through the center.
    assert actual["pairs"] >= 6
    assert actual["midpoints"] >= 5


def test_plot_rejects_finite_field(tmp_path, capsys):
    code, _, err = run(
        capsys, "--field", "GFp:7", "--quad", E1_QUAD, "--cmd", "plot",
        "--what", "locus", "--out", str(tmp_path / "bad.svg"),
    )
    assert code == 2
    assert "over Q" in err


def test_missing_required_args(capsys):
    code, _, err = run(capsys, "--field", "Q", "--cmd", "analyze")
    assert code == 2
    assert "needs --quad" in err
    code, _, err = run(capsys, "--field", "Q", "--cmd", "verify")
    assert code == 2


def test_plot_unwritable_out_exit_2(tmp_path, capsys):
    out_path = tmp_path / "missing" / "e1.svg"
    code, out, err = run(
        capsys, "--field", "Q", "--quad", E1_QUAD, "--cmd", "plot",
        "--what", "locus", "--out", str(out_path),
    )
    assert code == 2
    assert out == []
    assert err.startswith("error: ")
    assert str(out_path) in err


def test_negative_values_as_separate_arguments(capsys):
    code, out, _ = run(
        capsys, "--field", "Q", "--quad", E1_QUAD, "--cmd", "bisector",
        "--point", "-1/4,0", "--format", "record",
    )
    assert code == 0
    assert out == ["bisector\tY=0", "midpoint\t-1/4 0"]
    midpoint = dict(line.split("\t", 1) for line in out)["midpoint"]
    assert run(
        capsys, "--field", "Q", "--quad", E1_QUAD, "--cmd", "bisector",
        "--point", midpoint, "--format", "record",
    ) == (0, out, "")
    pencil = ("--field", "Q", "--quad", E1_QUAD, "--cmd", "pencil", "--beta", "1")
    assert run(capsys, *pencil, "--alpha", "-1/2") == run(capsys, *pencil, "--alpha=-1/2")


def test_modulus_above_primality_bound_exit_2(capsys):
    code, out, err = run(
        capsys, "--field", f"GFp:{2**89 - 1}", "--quad", E1_QUAD, "--cmd", "analyze"
    )
    assert code == 2
    assert out == []
    assert "3317044064679887385961981" in err


def test_values_past_the_int_string_limit_exit_2(capsys):
    """A Q value whose digits pass Python's int-to-string limit is refused
    like a geometry error, with exit 2 and one error line, not a traceback:
    a 1,500-digit slope makes analyze print wider products, and 1e5000 has
    5,001 digits."""
    sevens = "7" * 1500
    big_quad = f"Y=0; Y={sevens}X+1; X=0; Y=2X-{sevens}"
    for argv in (("--quad", big_quad, "--cmd", "analyze"),
                 ("--quad", E1_QUAD, "--cmd", "partner", "--line", "Y=1e5000")):
        code, out, err = run(capsys, "--field", "Q", *argv)
        assert (code, out) == (2, [])
        assert len(err.splitlines()) == 1 and err.startswith("error: ValueError: "), err



def test_huge_exponents_exit_2_before_expansion(capsys):
    """A decimal exponent past 100,000 is refused with exit 2 and one line
    naming the key, over Q and GF(7), from a point, a pencil coefficient or
    a slope (the t of "t u v"): 10**999999999 is never built."""
    for literal in ("1e999999999", "1e-999999999"):
        quad = f"Y=0; {literal} 1 1; X=0; Y=2X-1"
        for field in ("Q", "GFp:7"):
            for key, argv in (
                ("point", ("--quad", E1_QUAD, "--cmd", "bisector", "--point", f"{literal},0")),
                ("alpha", ("--quad", E1_QUAD, "--cmd", "pencil", "--alpha", literal,
                           "--beta", "1")),
                ("quad", ("--quad", quad, "--cmd", "analyze")),
            ):
                code, out, err = run(capsys, "--field", field, *argv)
                assert (code, out) == (2, []), (field, argv)
                assert len(err.splitlines()) == 1, err
                assert err.startswith(f"error: {key} ") and f"exponent of {literal!r}" in err, err


def test_refusals_print_one_error_line(tmp_path, capsys):
    """Refusals of the field, a point, a config file, the command and the
    plot target: exit 2, nothing on stdout, one line on stderr."""
    config = tmp_path / "twice.cfg"
    config.write_text("seed 1\nseed 2\n", encoding="utf-8")
    cases = [
        (("--field", "GF7", "--cmd", "analyze"),
         "error: bad field 'GF7': expected Q or GFp:<p>"),
        (("--quad", E1_QUAD, "--cmd", "bisector", "--point", "1"),
         "error: bad point '1': expected two scalars"),
        (("--config", str(config), "--cmd", "verify"), "error: duplicate config key 'seed'"),
        (("--quad", E1_QUAD), "error: missing --cmd"),
        (("--quad", E1_QUAD, "--cmd", "plot"), "error: plot needs --out PATH"),
    ]
    for argv, line in cases:
        assert run(capsys, *argv) == (2, [], line + "\n"), argv

def test_verify_imports_no_numpy():
    """An exhaustive verify must not pull numpy in (it would add ~11 MB RSS)."""
    argv = ["--field", "GFp:7", "--cmd", "verify", "--seed", "1", "--instances", "2"]
    script = "\n".join((
        "import contextlib, io, sys",
        "import bisectrix.cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    assert bisectrix.cli.main({argv!r}) == 0",
        "assert 'numpy' not in sys.modules, 'numpy was imported'",
    ))
    src = Path(bisectrix.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_verify_refuses_large_prime_fields(capsys):
    """Exhaustive verify costs p^2 line tests per check; large p is refused
    before any quadrilateral is sampled."""
    for argv in (
        ("--field", "GFp:1000003", "--cmd", "verify", "--seed", "2", "--instances", "1"),
        ("--field", "GFp:1009", "--cmd", "verify", "--quad", "Y=0; Y=X+1; X=0; Y=2X+5"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == []
        assert "p <= 1000" in err


# One non-default value per key of bisectrix.cli._KEYS.
KEY_SAMPLES = {
    "field": "GFp:7",
    "cmd": "pencil",
    "format": "record",
    "seed": "5",
    "instances": "2",
    "quad": E1_QUAD,
    "point": "1/2,0",
    "line": "Y=X+1",
    "alpha": "-1/2",
    "beta": "3",
    "what": "bisector-field-sample",
    "out": "e1.svg",
    "timing": "on",
}


def test_flag_and_config_line_agree_for_every_key(tmp_path):
    assert set(KEY_SAMPLES) == set(bisectrix.cli._KEYS)
    load = bisectrix.cli.load_config
    config = tmp_path / "job.cfg"
    for key, value in KEY_SAMPLES.items():
        base = [] if key == "cmd" else ["--cmd", "analyze"]
        config.write_text(f"{key} {value}\n", encoding="utf-8")
        from_flag = load(base + [f"--{key}", value])
        assert from_flag == load(base + ["--config", str(config)])
        if key != "cmd":
            assert from_flag != load(base), key
    config.write_text("".join(f"{k}\t{v}\n" for k, v in KEY_SAMPLES.items()), encoding="utf-8")
    flags = [arg for k, v in KEY_SAMPLES.items() for arg in (f"--{k}", v)]
    assert load(flags) == load(["--config", str(config)])


def test_unknown_choice_exits_2_from_flag_or_file(tmp_path, capsys):
    config = tmp_path / "job.cfg"
    for key in ("cmd", "format", "what"):
        bad = f"no-such-{key}"
        base = [] if key == "cmd" else ["--quad", E1_QUAD, "--cmd", "analyze"]
        config.write_text(f"{key} {bad}\n", encoding="utf-8")
        for argv in (base + [f"--{key}", bad], base + ["--config", str(config)]):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == []
            assert err.startswith("error: unknown ") and repr(bad) in err


def test_bad_value_exits_2_naming_the_key(tmp_path, capsys):
    """A value that fails to parse exits 2 naming its key and text, from a
    flag or a config line; a kernel rule keeps its class name."""
    config = tmp_path / "job.cfg"
    cases = [  # (other flags, key, value, what the message names)
        (["--quad", E1_QUAD], "seed", "1e3", "invalid literal for int()"),
        (["--quad", E1_QUAD], "point", "1/0,0", "DivisionByZero: "),
        (["--field", "GFp:7", "--quad", E1_QUAD], "alpha", "1/7", "DivisionByZero: "),
        ([], "quad", "Y=0; Y=1; X=0; Y=X", "AdjacentParallel: "),
    ]
    for flags, key, value, named in cases:
        config.write_text(f"{key} {value}\n", encoding="utf-8")
        for extra in ([f"--{key}", value], ["--config", str(config)]):
            code, out, err = run(capsys, *flags, "--cmd", "analyze", *extra)
            assert code == 2, (key, extra)
            assert out == []
            assert err.startswith(f"error: {key} {value!r}: ") and named in err, err


def test_load_config_builds_no_parser(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("load_config built an ArgumentParser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    cfg = bisectrix.cli.load_config(["--quad", E1_QUAD, "--cmd", "analyze"])
    assert cfg.cmd == "analyze"


def test_standard_form_builds_no_quadrilateral(monkeypatch):
    """Past the input, standard_form, bisector_through, q_partner and analyze
    build no further Quadrilateral for a non-parallelogram: mu is read off
    the sides, and bisector_through and q_partner read the raw sides."""
    from bisectrix import (
        Quadrilateral, bisector_through, is_bisector, q_partner, standard_form,
    )

    cfg = bisectrix.cli.load_config(["--quad", E1_QUAD, "--cmd", "analyze"])
    quads = [bisectrix.cli.load_config(["--quad", text, "--cmd", "analyze"]).quad
             for text in (E1_QUAD, "Y=0; X=0; Y=1; Y=X+3") for _ in range(3)]

    def refuse(*args, **kwargs):
        raise AssertionError("built a Quadrilateral")

    monkeypatch.setattr(Quadrilateral, "__init__", refuse)
    for q in quads[0::3]:  # A and A' of the second are parallel
        assert not q.is_parallelogram()
        standard_form(q)
    for q in quads[1::3]:
        m = is_bisector(q, q.b)
        assert [b.line for b in bisector_through(q, m)] == [q.b]
    for q in quads[2::3]:
        assert q_partner(q, q.b) != q.b
    assert bisectrix.cli.dispatch(cfg)[0] == 0


def test_negative_instances_exits_2(tmp_path, capsys):
    config = tmp_path / "job.cfg"
    config.write_text("instances -3\n", encoding="utf-8")
    for quad in ([], ["--quad", E1_QUAD]):
        for extra in (["--instances", "-3"], ["--config", str(config)]):
            code, out, err = run(capsys, "--field", "GFp:7", "--cmd", "verify", *quad, *extra)
            assert code == 2, extra
            assert out == []
            assert err.startswith("error: instances '-3': ") and err.count("\n") == 1, err


def test_help_lists_every_key(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for key in ("config", *bisectrix.cli._KEYS):
        assert f"--{key}" in out
    for name in ("verify", "record", "bisector-field-sample"):
        assert name in out


def test_argparse_errors_exit_2_naming_the_flag(capsys):
    for argv, flag in (
        (["--cmd", "analyze", "--bogus", "1"], "--bogus"),
        (["--cmd"], "--cmd"),
        (["--f", "Q", "--cmd", "verify"], "--f"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == []
        assert err.startswith("error: ") and flag in err, err


def test_violation_line_reproduces_through_main(monkeypatch, capsys):
    """Every violation line carries its seed, field and --quad literal, and
    the command it names prints that violation again."""
    from bisectrix import oracle

    # m2 a nonzero constant: no line is a reflection, so bisectors violate.
    pencil = oracle.desargues_pencil
    monkeypatch.setattr(
        oracle, "desargues_pencil", lambda qr, t, u: (*pencil(qr, t, u)[:2], (1,))
    )
    code, out, _ = run(capsys, "--field", "GFp:7", "--cmd", "verify", "--seed", "1",
                       "--instances", "2")
    assert code == 1
    violations = [line for line in out if line.startswith("violation ")]
    assert violations
    assert all(" --field GFp:7 --seed " in line for line in violations)
    line = violations[-1]
    assert " --seed 2 --quad " in line
    command = line.rpartition(" [reproduce: ")[2].removesuffix("]")
    argv = shlex.split(command)
    assert argv[0] == "bisectrix"
    code, again, _ = run(capsys, *argv[1:], "--instances", "0")
    assert code == 1
    assert line in again


def test_verify_timing_lines_are_opt_in(capsys):
    """--timing on appends one timing<TAB>tag<TAB>ms line per check, in the
    order of the summaries, to otherwise unchanged record output."""
    base = ["--field", "GFp:7", "--cmd", "verify", "--seed", "1", "--instances", "2",
            "--format", "record"]
    code, plain, _ = run(capsys, *base)
    assert code == 0
    code, timed, _ = run(capsys, *base, "--timing", "on")
    assert code == 0
    assert timed[:len(plain)] == plain
    rows = [line.split("\t") for line in timed[len(plain):]]
    assert [row[:2] for row in rows] == [["timing", line.split()[0]] for line in plain]
    assert len(plain) == 17
    assert all(len(row) == 3 and re.fullmatch(r"\d+\.\d{3}", row[2]) for row in rows)
    code, out, err = run(capsys, *base[:-1], "text", "--timing", "on")
    assert (code, out) == (2, [])
    assert "timing needs --format record" in err


def test_verify_output_unchanged_under_optimize():
    """No kernel check is an assert: python -O prints the same verify output."""
    argvs = [
        ["--field", "GFp:7", "--cmd", "verify", "--seed", "0", "--instances", "3",
         "--format", "record"],
        ["--field", "Q", "--quad", E1_QUAD, "--cmd", "verify", "--format", "record"],
    ]
    src = Path(bisectrix.cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    for argv in argvs:
        script = f"import sys, bisectrix.cli; sys.exit(bisectrix.cli.main({argv!r}))"
        done = [
            subprocess.run([sys.executable, *flags, "-c", script], env=env,
                           capture_output=True, text=True, timeout=120)
            for flags in ([], ["-O"])
        ]
        assert done[0].returncode == done[1].returncode == 0, done[1].stderr
        assert done[0].stdout and done[0].stdout == done[1].stdout


def test_package_has_no_assert_statement():
    """Kernel checks raise errors, so none of them vanishes under python -O."""
    found = []
    for path in sorted(Path(bisectrix.cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
