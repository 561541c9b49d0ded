"""Command-line behavior: dispatch, formats, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

import triplesieve.cli as cli
from triplesieve import charsums, groups, modular
from triplesieve.gl2 import Form
from triplesieve.groups import BallBudgetError, coset_counts, enumerate_ball, modular_generators, sample_words


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def data_lines(out):
    return [l for l in out.splitlines() if not l.startswith("#")]


def test_verify_passes_small():
    code, out = run(["verify", "--pmax", "13"])
    assert code == 0
    assert "all suites passed" in out
    assert out.count("PASS") == 5
    assert "FAIL" not in out


def test_verify_mutant_rho_detected(monkeypatch):
    monkeypatch.setattr(cli, "rho", lambda q: Fraction(2 * q, q * q))
    code, out = run(["verify", "--pmax", "13"])
    assert code == 2
    # the detail names the last failing (p, f) in case order
    assert "FAIL weighted-zero-count-vanishes (p=13 f=z)" in out


def test_verify_corrupted_twisted_sum_detected(monkeypatch):
    # one wrong numerator per listed cell; the report names the last wrong
    # cell in (p, f, omega, k, l) order, as a scan over single twists would
    omegas = sorted(sample_words(modular_generators(), 20, 1), key=lambda g: g.entries())[:5]
    flips = {(13, Form.Y, omegas[0]): [(12, 12), (4, 4)],
             (13, Form.Y, omegas[4]): [(1, 2), (0, 5)],
             (11, Form.X, omegas[2]): [(3, 3)]}
    real = cli.s4_numerators

    def corrupted(p, f, k, l, omegas):
        n = real(p, f, k, l, omegas).copy()
        for i, omega in enumerate(omegas):
            for cell in flips.get((p, f, omega), ()):
                n[(i, *cell)] += 1
        return n

    monkeypatch.setattr(cli, "s4_numerators", corrupted)
    code, out = run(["verify", "--pmax", "13"])
    assert code == 2
    assert "FAIL twisted-sum-closed-form (p=13 f=y k=1 l=2)" in out
    assert out.count("PASS") == 4


def test_adq_default_modulus_follows_the_form(tmp_path):
    """With q set neither by flag nor by config file, adq keeps q = 5 where
    the form has local densities at 5 and takes the form's least good prime
    otherwise: 7 for the product, which needs p coprime to 60.  An explicit
    q = 5 with the product is still bad input."""
    code, out = run(["adq", "--X", "6", "--Y", "6", "--f", "product"])
    assert code == 0 and "# q = 7" in out
    assert out == run(["adq", "--X", "6", "--Y", "6", "--f", "product", "--q", "7"])[1]
    assert run(["adq", "--X", "6", "--Y", "6", "--f", "product", "--q", "5"]) == (4, "")
    cfgfile = tmp_path / "q.cfg"
    cfgfile.write_text("q = 5\nf = product\n")
    assert run(["adq", "--X", "6", "--Y", "6", "--config", str(cfgfile)]) == (4, "")
    for f in ("x", "z", "area"):
        code, out = run(["adq", "--X", "6", "--Y", "6", "--f", f])
        assert code == 0 and "# q = 5" in out
    assert "# q = 5" in run(["census", "--T", "5", "--f", "product"])[1]


# sha256 of the whole stdout (header included), recorded before the stacked
# character-sum kernels (verify, adq) and before the Newton sifting minimum
# (constants); every run exits 0
PINNED_STDOUT = {
    "constants --format text": "0e669398bba97b8406810e8f2f72fd8ccd9d1bb72cc9b8e67ec5f65d2f8c178c",
    "constants --format csv": "832f9cbcafceb8d5e736d158e50f447eb0bdaef443cf0e4baf09bd14df7c575c",
    "constants --format json": "9fa3a70b7bb027b57b1e40a19657f55d86450cfac8532e5e88cebf54130ec833",
    "verify --pmax 13 --seed 1 --format text": "7c6e275c1b1ffee2aed4bb7354b61f687a4065d6d3c07d2ce9a3f21e7b4e8cf1",
    "verify --pmax 13 --seed 1 --format csv": "c2d38ccbfa310943941b20aa6cc1d503468f7532b764a7fb61123833cfef8a6a",
    "verify --pmax 13 --seed 1 --format json": "0d367b6adb3f13fb9338459dc6f887932a7c5e2afb680185c64209134b7445e0",
    "verify --pmax 31 --seed 2 --format text": "01e9f4962cd3b2bdd283dc82619c3654fa731fbcbb839234ba94e8e41e58a43d",
    "verify --pmax 31 --seed 2 --format csv": "500489f187ccdb0462617e28e9f4b83d7a59e38aa5ba20f089ccf63f9649057b",
    "verify --pmax 31 --seed 2 --format json": "2fdfa9c5c8edd43ce6335e578db0899432f7a53eeec4e465af50606aefbeb0e1",
    "verify --pmax 97 --seed 3 --format text": "4cee5d8b252cb19cbc76e4b3d4062ed304e2527331104ffdd0425ad2332fb5ae",
    "verify --pmax 97 --seed 3 --format csv": "05ebf0c6fd31b7963eafb7434d95a7e4880f28e1aea1b462e1f70f304cd04316",
    "verify --pmax 97 --seed 3 --format json": "a9904d6de7abca639e80f3254213890adcc403da65ae6e56493da909703a5ea0",
    "adq --f product --q 7 --format text": "27cbf9e962b21360dc2ded95afae54bab5c4d01043fb2afd6dc7cf977f39b702",
    "adq --f product --q 7 --format csv": "1d56b2a215bf06b6a153246e37e626eed8a43da3475701ced9d4aaec673191ed",
    "adq --f product --q 7 --format json": "6fad21864500636704a81b5c76929300a45e14ce71750153d743209ac1ef6e1d",
    # recorded when adq still built the whole sequence: the grid in two and
    # in four chunks, the omega ball the larger, Schottky values past int64
    "adq --X 48 --Y 48 --f z --format json": "e02f1cd1e59c8f801222af12c9af40a8814a4be49a33d522c9583999fee0245b",
    "adq --X 64 --Y 64 --f z --format json": "02c5e0a9f46bf7dccc7da9c4f8dc48bd6de034aa4d2eca9e5b6fd381e9c6c924",
    "adq --X 12 --Y 30 --f area --format json": "6fd3df71c6ee156ce2d08362fead083eecf193273aee272c7b8d1e4f35bc1b7f",
    "adq --group schottky --X 3000 --Y 3000 --f product --format json":
        "202134a9066ab1a2883263048d7149293e47d4e75b5958c70d2a9163a9ee6364",
}


@pytest.mark.parametrize("argv", sorted(PINNED_STDOUT))
def test_stdout_pinned(argv):
    code, out = run(argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]


# sha256 of the stdout without its "#" header lines, recorded before good
# moduli came from one sieve; every run exits 0
PINNED_DATA = {
    "orbit --T 12 --format json": "ac36de46cce9b8fa24fd894ea46782bbe573b038719c8c32892ff103c92c81c7",
    "density --pmax 31 --format json": "f15d86aa5ae1451f9e9b56bef82cb1ab5eac8e9b402c9fbeb5374eae89e73dba",
    "delta --T 60 --format csv": "e7a476cc11a011be75a5982cba7e41bdaa3751df6fb1ca74f7c4807d8fe6fb84",
}


@pytest.mark.parametrize("argv", sorted(PINNED_DATA))
def test_data_lines_pinned(argv):
    code, out = run(argv.split())
    assert code == 0
    body = "".join(l for l in out.splitlines(keepends=True) if not l.startswith("#"))
    assert hashlib.sha256(body.encode()).hexdigest() == PINNED_DATA[argv]


# the Schottky census csvs that CI pins: sha256 of stdout without its "#"
# header lines, with sympy unimportable
SCHOTTKY_CENSUS_PINS = {
    "census --group schottky --T 1e7 --f z --format csv":
        "c9e3ba21a4d49d15cf60f4ffcbf5bf7c9e39e70173c51fc4d88840c3b16e4f8b",
    "census --group schottky --T 1e6 --f x --format csv":
        "e2d2c1bc0c0f1fef555917dae1458a1e632c0167159a4e3ba54fb92c4da3806b",
    "census --group schottky --T 1e6 --f y --format csv":
        "3e882a524c92067d238396339f5fe7404f565f68d0aa6b00c6c381589ce2a768",
    "census --group schottky --T 1e6 --f area --format csv":
        "9f2425aa787fae79f1364b9c4cccb84ba1384eb6066059773eb6cebf546204c1",
    "census --group schottky --T 1e6 --f product --format csv":
        "0c9aaa30178236549998079af263951d5d71aaed3edc84e34290b8d859310f9e",
}


@pytest.mark.parametrize("argv", sorted(SCHOTTKY_CENSUS_PINS))
def test_schottky_census_pinned_without_sympy(argv, monkeypatch):
    monkeypatch.setitem(sys.modules, "sympy", None)
    code, out = run(argv.split())
    assert code == 0
    body = "".join(l for l in out.splitlines(keepends=True) if not l.startswith("#"))
    assert hashlib.sha256(body.encode()).hexdigest() == SCHOTTKY_CENSUS_PINS[argv]


def test_exit_code_bad_input():
    assert run(["nope"])[0] == 4
    assert run(["orbit", "--format", "xml"])[0] == 4
    assert run(["adq", "--q", "6", "--X", "6", "--Y", "6"])[0] == 4
    # 3 * 5 * 7 * ... * 53, odd and squarefree, is a modulus past int64
    assert run(["adq", "--X", "4", "--Y", "4", "--q", "16294579238595022365"]) == (4, "")
    assert run(["census", "--config", "/nonexistent/path"])[0] == 4


def test_probable_prime_modulus_past_int64_is_bad_input(capsys):
    """An 80-bit probable prime past the proven Miller-Rabin range is refused
    as past int64 (exit 4) before factoring could fail to certify it (2)."""
    capsys.readouterr()
    assert run(["adq", "--X", "4", "--Y", "4", "--q", "604462909807314587353111"]) == (4, "")
    err = capsys.readouterr().err
    assert "does not fit in int64" in err and "certify" not in err


@pytest.mark.parametrize("argv", ["census --T inf", "census --T 1e400", "orbit --T inf", "delta --T inf",
                                  "adq --X inf --Y 3"])
def test_non_finite_radius_exits_bad_input(argv):
    """An infinite radius is bad input (exit 4), not a falsified identity."""
    assert run(argv.split()) == (4, "")


@pytest.mark.parametrize("gen, T, code, elements", [("0 -1 1 0", "1e19", 0, 4), ("2 1 1 1", "4e9", 0, 45),
                                                     ("2 1 1 1", "1e12", 4, None)])
def test_orbit_past_int64(tmp_path, gen, T, code, elements):
    """<S> at a radius past 2^63 is its 4 elements; a ball whose sq_norms
    pass int64 is bad input (exit 4), not a failed exactness check (2)."""
    path = tmp_path / "gens.txt"
    path.write_text(gen + "\n")
    got, out = run(["orbit", "--group", str(path), "--T", T])
    assert got == code
    assert (f"elements = {elements}" in out.splitlines()) if elements else out == ""


@pytest.mark.parametrize("T", ["inf", "nan", "0.5"])
def test_delta_refuses_a_bad_radius_before_its_grid(T):
    """delta refuses T as enumerate_ball does, before np.geomspace reads it:
    exit 4, and stderr holds the bad-input line and no numpy warning."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "triplesieve.cli", "delta", "--T", T], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == f"bad input: need a finite T >= 1 with a finite T^2, got {float(T)}\n"


def test_one_parser_serves_every_call():
    """The parser is built once per process; a run refused for an unknown
    flag leaves it as it was, so the next census prints the bytes a fresh
    process prints."""
    assert cli._parser() is cli._parser()
    assert run(["census", "--T", "12", "--bogus", "1"])[0] == cli.EXIT_BAD_INPUT
    argv = ["census", "--T", "12", "--format", "csv"]
    code, out = run(argv)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "triplesieve.cli", *argv], env=env,
                          capture_output=True, timeout=60)
    assert (code, proc.returncode) == (cli.EXIT_PASS, cli.EXIT_PASS)
    assert out.encode() == proc.stdout


def test_exit_code_budget(monkeypatch):
    def boom(*a, **k):
        raise BallBudgetError(100.0, 5, 5)

    monkeypatch.setattr(cli, "enumerate_ball", boom)
    assert run(["orbit", "--T", "10"])[0] == 3


@pytest.mark.parametrize("argv", [["orbit", "--T", "10"], ["adq", "--X", "8", "--Y", "8"]])
def test_exit_code_budget_through_the_ball(argv, monkeypatch, capsys):
    """A small element budget makes the real enumeration raise: exit 3, no
    stdout, and the budget line on stderr."""
    monkeypatch.setattr(groups, "_ELEMENT_CAP", 10)
    capsys.readouterr()
    assert run(argv) == (3, "")
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("budget exceeded: ")


def test_byte_identical_determinism():
    argv = ["census", "--T", "20", "--f", "z", "--R", "2", "--format", "json"]
    a = run(argv)
    b = run(argv)
    assert a == b


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# comment\nT = 10\nf = y\nformat = text\nX = 9\nseed = 3\n")
    code, out = run(["census", "--config", str(cfgfile), "--T", "12", "--R", "2"])
    assert code == 0
    assert "# T = 12.0" in out
    assert "# f = y" in out
    # file values take the type of the setting's default
    assert "# X = 9.0" in out and "# seed = 3" in out
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals\n")
    assert run(["census", "--config", str(bad)])[0] == 4
    bad.write_text("format = xml\n")
    assert run(["census", "--config", str(bad)]) == (4, "")


@pytest.mark.parametrize("key", ["Tt", "alpha", "kappa", "threads", "subcommand"])
def test_config_file_unknown_key_rejected(tmp_path, capsys, key):
    cfgfile = tmp_path / "typo.cfg"
    cfgfile.write_text(f"T = 10\n{key} = 10\n")
    assert run(["orbit", "--config", str(cfgfile)]) == (4, "")
    assert f"unknown config key(s): {key}" in capsys.readouterr().err


def test_constants_json_provenance():
    code, out = run(["constants", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["provenance"] == "saturation_table"
    assert doc["config"]["subcommand"] == "constants"
    assert [r["R"] for r in doc["rows"]] == [4, 18, 26]
    assert all("provenance" in r for r in doc["rows"])
    assert doc["rows"][0]["delta0"] == pytest.approx(0.983994188, abs=5e-6)


def test_census_regression_and_formats():
    code, out = run(["census", "--group", "modular", "--T", "200", "--f", "z",
                     "--R", "4", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    counts = doc["summary"]["almost_prime_counts"]
    assert counts["le_1"] == 15644
    assert counts["le_1"] > 0
    code, out = run(["census", "--T", "30", "--f", "z", "--R", "2", "--format", "csv"])
    lines = data_lines(out)
    assert lines[0] == "c,d,form,n,factors,omega,grade,imprimitive_flag"
    assert "1,2,z,5,5,1,P1,0" in lines


def test_density_z_rows():
    code, out = run(["density", "--f", "z", "--pmax", "97", "--format", "csv"])
    assert code == 0
    rows = [l.split(",") for l in data_lines(out)[1:]]
    for p_str, measured, predicted, match in rows:
        p = int(p_str)
        assert match == "1"
        if p % 4 == 1:
            assert measured == str(Fraction(2, p + 1))
        else:
            assert measured == "0"


def test_orbit_text_count():
    code, out = run(["orbit", "--T", "10"])
    assert code == 0
    assert "elements = 580" in out


@pytest.mark.parametrize("argv, elements", [
    # the smallest double above sqrt(27): its float square rounds onto 27
    (["orbit", "--T", "5.196152422706632"], 180),
    # sq_norms past 2^53, 8 of them 1.18 below the exact T^2
    (["orbit", "--group", "schottky", "--T", "134220186.4253455"], 425633),
])
def test_orbit_counts_with_exact_radius(argv, elements):
    code, out = run(argv)
    assert code == 0
    assert f"elements = {elements}\n" in out


def test_delta_output():
    code, out = run(["delta", "--T", "60", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert 0.5 < doc["delta_hat"] < 1.5
    ts = [s["T"] for s in doc["samples"]]
    assert ts == sorted(ts)
    assert doc["provenance"] == "estimate_delta"


def test_adq_trivial_and_parity():
    code, out = run(["adq", "--X", "8", "--Y", "8", "--q", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mass"] == doc["chi"]
    assert doc["remainder"] == "0"
    code, out = run(["adq", "--X", "8", "--Y", "8", "--q", "7", "--f", "z",
                     "--format", "json"])
    doc = json.loads(out)
    assert doc["main"] == "0"
    assert doc["mass"] == "0"


def test_generator_file_group(tmp_path):
    path = tmp_path / "gens.txt"
    path.write_text("# label: custom\n1 1 0 1\n1 0 1 1\n")
    code, out = run(["orbit", "--group", str(path), "--T", "10"])
    assert code == 0
    assert "elements = 580" in out
    assert "# group = " in out


def test_header_serializes_full_config():
    code, out = run(["orbit", "--T", "5", "--format", "csv"])
    header = [l for l in out.splitlines() if l.startswith("# ")]
    keys = {l.split(" = ")[0][2:] for l in header}
    assert {"subcommand", "group", "T", "X", "Y", "q", "p_max", "R", "f",
            "format", "seed"} <= keys


def test_census_and_density_never_call_sympy(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("sympy called on the census path")

    for name in ("factorint", "isprime", "primerange", "mobius"):
        monkeypatch.setattr(sympy, name, forbidden)
    for f in ("x", "y", "z", "area", "product"):
        assert run(["census", "--T", "20", "--f", f])[0] == 0
        assert run(["census", "--group", "schottky", "--T", "3e4", "--f", f, "--format", "csv"])[0] == 0
        assert run(["density", "--f", f, "--pmax", "31"])[0] == 0
    assert run(["orbit", "--T", "20"])[0] == 0


NO_SYMPY_RUNS = [
    ["census", "--T", "60", "--f", "z"],
    ["census", "--group", "schottky", "--T", "1e5", "--f", "z"],
    ["verify"],
    ["adq", "--X", "16", "--Y", "16"],
    ["constants"],
    ["density", "--f", "z", "--pmax", "97"],
    ["delta", "--T", "100"],
]


def test_cli_paths_import_no_sympy():
    """Importing the package loads no sympy, and each CLI path exits 0 in a
    process where sympy cannot be imported, printing the bytes it prints
    here, where the tests have imported sympy."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))

    def python(script, *args):
        return subprocess.run([sys.executable, "-c", script, *args], env=env,
                              capture_output=True, text=True, timeout=300)

    proc = python("import sys, triplesieve, triplesieve.cli; assert 'sympy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr
    script = ("import sys; sys.modules['sympy'] = None\n"
              "from triplesieve.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    for argv in NO_SYMPY_RUNS:
        proc = python(script, *argv)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert proc.stdout == run(argv)[1], argv


def test_surjectivity_is_computed_once_per_generators_and_prime(monkeypatch):
    """coset_counts and verify share one projection per (generators, p);
    the prime check still raises ahead of the cache."""
    calls = Counter()
    real = modular.project_group

    def spy(gens, q):
        calls[(tuple(g.entries() for g in gens), q)] += 1
        return real(gens, q)

    monkeypatch.setattr(modular, "project_group", spy)
    modular._surjective.cache_clear()
    mg = modular_generators()
    ball = enumerate_ball(mg, 20)
    for _ in range(3):
        coset_counts(mg, 20, 105, ball=ball)
        assert run(["verify", "--pmax", "7"])[0] == 0
    entries = tuple(g.entries() for g in mg.gens)
    assert calls == Counter({(entries, p): 1 for p in (3, 5, 7, 11, 13)})
    with pytest.raises(ValueError):
        modular.strong_approx_check(mg, 15)


def test_verify_detects_a_dropped_projection_row(monkeypatch):
    """With one row dropped from every projection, the probe and the
    surjectivity check still agree (both see the short image), so only the
    closure check on the image can fail verify."""
    real = modular.project_group
    monkeypatch.setattr(modular, "project_group", lambda gens, q: real(gens, q)[1:])
    modular._surjective.cache_clear()
    try:
        code, out = run(["verify", "--pmax", "13"])
    finally:
        modular._surjective.cache_clear()
    assert code == 2
    assert out == ""


def test_verify_builds_each_zero_grid_once():
    """Each suite of default verify builds the zero-locus stack of every
    (f, p) it needs once, all its omegas in one form_values call: the
    zero-count suite 59 stacks of 20 omegas (x and y at every odd p <= 97,
    z at p = 1 mod 4), the closed-form suite 20 stacks of 5 omegas (x and y
    at p <= 31)."""
    primes = modular.primes_upto(97)[1:]
    zero_count = 2 * len(primes) + sum(p % 4 == 1 for p in primes)
    closed = 2 * sum(p <= 31 for p in primes)
    charsums._zero_grids.cache_clear()
    assert run(["verify"])[0] == 0
    assert charsums._zero_grids.cache_info().misses == zero_count + closed == 59 + 20
