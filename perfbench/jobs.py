"""Workload definitions: seeded inputs, the fixed job list of each workload,
and the exactness checks run on every job's output.

A job is a function ``job(ctx) -> check``.  The runner times the job body,
then calls the returned ``check`` outside the timed region.  Every call into
the library goes through ``ctx.call("<module>.<function>", fn, ...)`` so the
traced run can put a span around it; counts come from the returned objects
and are recorded in the check phase.

Digest keys name the inputs of the call, not the seed, so a reference
recorded for one seed is checked by any run that happens to use the same
inputs (every CLI job uses fixed arguments and is therefore checked on every
seed).  Inputs without a stored reference still get the invariant checks.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import math
import random
from typing import Callable, Dict, List, Tuple

import numpy as np

groups = importlib.import_module("triplesieve.groups")
census = importlib.import_module("triplesieve.census")
charsums = importlib.import_module("triplesieve.charsums")
modular = importlib.import_module("triplesieve.modular")
constants = importlib.import_module("triplesieve.constants")
cli = importlib.import_module("triplesieve.cli")
Form = importlib.import_module("triplesieve.gl2").Form

MODULAR = groups.modular_generators()
SCHOTTKY = groups.schottky_generators()

Check = Callable[[], None]
Job = Tuple[str, Callable[["object"], Check]]


class CheckFailed(Exception):
    """A job's output broke an invariant or differs from its reference."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode() if isinstance(p, str) else memoryview(p))
    return h.hexdigest()


def band(rng: random.Random, centre: float, width: float = 0.004) -> float:
    """A ball radius drawn within +-width of centre; work moves by ~2*width."""
    return round(centre * (1.0 + rng.uniform(-width, width)), 3)


def strip_header(out: str) -> str:
    """CLI stdout without the leading '# key = value' config lines, so that
    dropping a RunConfig field does not count as a changed output."""
    lines = out.splitlines(keepends=True)
    i = 0
    while i < len(lines) and lines[i].startswith("# ") and " = " in lines[i]:
        i += 1
    return "".join(lines[i:])


# ------------------------------------------------------------------ checks

def check_ball(ctx, ball, T: float, key: str) -> None:
    rows = ball.rows
    a, b, c, d = (rows[:, i] for i in range(4))
    require(bool((a * d - b * c == 1).all()), f"{key}: determinant != 1")
    sq = (rows * rows).sum(axis=1)
    require(bool((sq < float(T) * float(T)).all()), f"{key}: element outside the ball")
    require(bool((np.diff(sq) >= 0).all()), f"{key}: rows not in canonical order")
    ctx.digest(key, sha(np.ascontiguousarray(rows, dtype="<i8")))
    ctx.add("groups.ball_elements", len(ball))
    ctx.add("groups.ball_bytes", int(rows.nbytes))
    ctx.maximum("groups.bfs_layers", int(ball.word_lengths.max()) + 1)


def check_census(ctx, ball, report, key: str) -> None:
    distinct = len(np.unique(ball.rows[:, 2:4], axis=0))
    graded = sum(report.omega_histogram.values())
    require(len(report.rows) == distinct, f"{key}: {len(report.rows)} rows, ball has {distinct}")
    require(graded + report.zeros + report.units == len(report.rows),
            f"{key}: histogram + zeros + units != rows")
    for r in report.rows:
        if r.n > 1 and (math.prod(r.factors) != r.n or len(r.factors) != r.omega):
            raise CheckFailed(f"{key}: factors of {r.n} do not multiply back")
    ctx.add("census.rows", len(report.rows))
    ctx.add("census.graded", graded)
    ctx.add("census.uncertified", sum(1 for r in report.rows if r.n > census.FACTOR_GUARANTEE))
    ctx.maximum("census.max_value_digits", len(str(report.max_abs_value)))


def check_sequence(ctx, seq, key: str) -> None:
    require(seq.total_mass() == seq.chi, f"{key}: total_mass != chi")
    require(len(seq.ns) == len(seq.numerators) and all(n > 0 for n in seq.numerators),
            f"{key}: malformed support")
    ctx.digest(key, sha(repr((seq.den, seq.ns, seq.numerators))))
    ctx.add("census.sequence_pairs", seq.pair_count)
    ctx.add("census.sequence_support", len(seq.ns))


def check_cli(ctx, code: int, out: str, key: str) -> None:
    require(code == 0, f"{key}: exit code {code}")
    ctx.digest(key, sha(strip_header(out)))
    ctx.add("cli.stdout_bytes", len(out.encode()))


def run_cli(ctx, argv: List[str]) -> Tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ctx.call(f"cli.{argv[0]}", cli.main, argv)
    return code, buf.getvalue()


# ------------------------------------------------------------- shared jobs

def job_ball(ctx, gens, T: float, keep: bool) -> Check:
    ball = ctx.call("groups.enumerate_ball", groups.enumerate_ball, gens, T)
    if keep:
        ctx.keep[(gens.label, T)] = ball
    return lambda: check_ball(ctx, ball, T, f"enumerate_ball({gens.label}, T={T})")


def job_census(ctx, gens, T: float, f, R: int, csv: bool) -> Check:
    ball = ctx.keep[(gens.label, T)]
    report = ctx.call("census.census", census.census, ball, f, R)
    text = ctx.call("census.census_csv", census.census_csv, report) if csv else None
    key = f"census({gens.label}, T={T}, {f.value}, R={R})"

    def check():
        check_census(ctx, ball, report, key)
        ctx.digest(key, sha(text if text is not None else census.census_csv(report)))
    return check


def job_cli(ctx, argv: List[str]) -> Check:
    code, out = run_cli(ctx, argv)
    return lambda: check_cli(ctx, code, out, "cli " + " ".join(argv))


def cli_jobs(*argvs: List[str]) -> List[Job]:
    """One job per CLI run, named cli_<subcommand>_<i>.  Several short runs
    on different inputs give cli_s most of a second of work per pass, enough
    to stand above the host's noise."""
    return [(f"cli_{argv[0]}_{i}", functools.partial(job_cli, argv=argv)) for i, argv in enumerate(argvs, 1)]


def job_probe(ctx) -> Check:
    """One control-sized call into every timed function, so each per-layer
    metric is measured on every workload and a fixed-cost regression in a
    layer the workload does not stress still shows."""
    T = 12.0
    ball = ctx.call("groups.enumerate_ball", groups.enumerate_ball, MODULAR, T)
    est = ctx.call("groups.estimate_delta", groups.estimate_delta, MODULAR, [4.0, 6.0, 9.0, T])
    cosets = ctx.call("groups.coset_counts", groups.coset_counts, MODULAR, T, 5, ball=ball)
    report = ctx.call("census.census", census.census, ball, Form.Z, 2)
    text = ctx.call("census.census_csv", census.census_csv, report)
    seq = ctx.call("census.build_sequence", census.build_sequence, MODULAR, 3.0, 3.0, Form.Z)
    aq = ctx.call("census.a_q", census.a_q, seq, 5)
    dp = ctx.call("census.distribution_probe", census.distribution_probe, seq, 0.4)
    om1, om2 = ctx.inputs["omegas"][:2]
    sums = (ctx.call("charsums.s2", charsums.s2, 3, Form.X, om1, om2),
            ctx.call("charsums.s5", charsums.s5, 3, Form.X, 1, 2, om1, om2))
    s3 = ctx.call("charsums.s3_factorization_check", charsums.s3_factorization_check,
                  3, 5, Form.X, 1, 2, om1, om2)
    disjoint = ctx.call("charsums.disjointness_check", charsums.disjointness_check, 13)
    density = ctx.call("modular.local_density", modular.local_density, Form.Z, 13)
    bad = ctx.call("modular.bad_modulus_probe", modular.bad_modulus_probe, MODULAR, 7)
    sat = ctx.call("constants.saturation_table", constants.saturation_table)
    runs = [(argv, run_cli(ctx, argv)) for argv in
            (["census", "--T", "12"], ["verify", "--pmax", "7"], ["adq", "--X", "3", "--Y", "3"])]

    def check():
        check_ball(ctx, ball, T, f"enumerate_ball(modular, T={T})")
        require([n for _, n in est.samples] == [ball.count_below(t) for t, _ in est.samples],
                "probe: estimate_delta counts differ from the ball")
        require(sum(cosets.values()) == len(ball), "probe: coset counts do not partition the ball")
        check_census(ctx, ball, report, "probe census")
        ctx.digest("probe census_csv(modular, T=12, z, R=2)", sha(text))
        check_sequence(ctx, seq, "build_sequence(modular, X=3.0, Y=3.0, z)")
        require(aq[2] == aq[0] - aq[1], "probe: a_q remainder != mass - main")
        require(dp[1] == seq.chi, "probe: distribution_probe chi")
        require(all(abs(s.value) <= 1 for s in sums), "probe: |S| > 1")
        require(s3 and disjoint and density.match and bad == [2], "probe: identity check failed")
        ctx.add("charsums.cells", 3 * 3 * 2 + 15 * 15 + 13 * 13)
        ctx.digest("saturation_table()", sha(constants.table_csv(sat)))
        for argv, (code, out) in runs:
            check_cli(ctx, code, out, "cli " + " ".join(argv))
    return check


# -------------------------------------------------------------- workloads

def modular_census(rng: random.Random, inputs: Dict) -> List[Job]:
    """Fat orbit: the full modular group.  Enumeration (lexsort + set dedup)
    and sympy factorization of many small values dominate."""
    ladder = [band(rng, T) for T in (60.0, 90.0, 130.0)]
    top = ladder[-1]
    jobs: List[Job] = [(f"ball_T{T}", functools.partial(job_ball, gens=MODULAR, T=T, keep=T in (ladder[0], top)))
                       for T in ladder]
    jobs += [
        ("census_area", functools.partial(job_census, gens=MODULAR, T=ladder[0], f=Form.AREA, R=4, csv=False)),
        ("census_product", functools.partial(job_census, gens=MODULAR, T=ladder[0], f=Form.PRODUCT, R=5, csv=True)),
        ("coset_counts", functools.partial(job_cosets, T=top, qs=(5, 7, 105))),
        *cli_jobs(["census", "--T", "50", "--f", "z", "--format", "csv"],
                  ["census", "--T", "60", "--f", "area"],
                  ["census", "--T", "40", "--f", "product"]),
        ("probe", job_probe),
    ]
    return jobs


def job_cosets(ctx, T: float, qs) -> Check:
    ball = ctx.keep[("modular", T)]
    counts = [ctx.call("groups.coset_counts", groups.coset_counts, MODULAR, T, q, ball=ball) for q in qs]

    def check():
        for q, cnt in zip(qs, counts):
            require(sum(cnt.values()) == len(ball), f"coset_counts q={q}: counts do not partition the ball")
            require(len(cnt) == modular.eta(q), f"coset_counts q={q}: {len(cnt)} labels")
            ctx.digest(f"coset_counts(modular, T={T}, q={q})", sha(repr(sorted(cnt.items()))))
    return check


def thin_census(rng: random.Random, inputs: Dict) -> List[Job]:
    """Thin orbit: the Schottky pair (delta ~ 0.34).  Deep, narrow BFS on the
    Python-int key path and factorization of values up to ~10^10."""
    delta_top = band(rng, 1.0e6)
    T = band(rng, 1.0e5)
    return [
        ("estimate_delta", functools.partial(job_delta, top=delta_top)),
        ("ball", functools.partial(job_ball, gens=SCHOTTKY, T=T, keep=True)),
        ("census_x", functools.partial(job_census, gens=SCHOTTKY, T=T, f=Form.X, R=4, csv=True)),
        *cli_jobs(["census", "--group", "schottky", "--T", "6e4", "--f", "z", "--format", "csv"],
                  ["census", "--group", "schottky", "--T", "8e4", "--f", "x"],
                  ["census", "--group", "schottky", "--T", "8e4", "--f", "y", "--format", "csv"]),
        ("probe", job_probe),
    ]


def job_delta(ctx, top: float) -> Check:
    grid = [round(float(t), 3) for t in np.geomspace(top / 16.0, top, 6)]
    est = ctx.call("groups.estimate_delta", groups.estimate_delta, SCHOTTKY, grid)

    def check():
        counts = [n for _, n in est.samples]
        require(all(a <= b for a, b in zip(counts, counts[1:])), "estimate_delta: counts not monotone")
        require(0.25 < est.delta_hat < 0.45, f"estimate_delta: delta_hat {est.delta_hat} off the Schottky range")
        ctx.digest(f"estimate_delta(schottky, {grid})", sha(repr(est.samples)))
    return check


def exact_sieve(rng: random.Random, inputs: Dict) -> List[Job]:
    """Rational accounting with almost no enumeration and no factorization:
    the accumulation kernel, the a_q sweep and the identity suites."""
    # X stays an integer: a float X with a long binary expansion gives the
    # smoothing weights a denominator too large for the int64 kernel, and
    # build_sequence then takes its pure-Python path (about 8x slower)
    seqs = [(Form.Z, 16, band(rng, 16.0)), (Form.AREA, 16, band(rng, 16.0)),
            (Form.PRODUCT, 12, band(rng, 12.0))]
    moduli = {f: sorted(rng.sample(census.good_moduli(f, 200), 20)) for f in (Form.Z, Form.AREA)}
    twists = [(rng.randrange(1, 105), rng.randrange(1, 105)) for _ in range(3)]
    keys = {f: f"modular, X={X}, Y={Y}, {f.value}" for f, X, Y in seqs}
    return [
        *[(f"sequence_{f.value}", functools.partial(job_sequence, f=f, X=X, Y=Y, key=keys[f]))
          for f, X, Y in seqs],
        ("a_q_sweep", functools.partial(job_aq, keys=keys, moduli=moduli)),
        ("distribution_probe", functools.partial(job_distribution, key=keys[Form.Z])),
        ("charsums", functools.partial(job_charsums, twists=twists)),
        ("local_densities", job_densities),
        ("saturation_table", job_saturation),
        *cli_jobs(["verify", "--seed", str(inputs["seed"]), "--pmax", "11"],
                  ["adq", "--X", "18", "--Y", "18"],
                  ["adq", "--X", "16", "--Y", "16", "--f", "area"],
                  ["adq", "--X", "16", "--Y", "16", "--f", "product", "--q", "7"]),
        ("probe", job_probe),
    ]


def job_sequence(ctx, f, X: int, Y: float, key: str) -> Check:
    seq = ctx.call("census.build_sequence", census.build_sequence, MODULAR, X, Y, f)
    ctx.keep[("sequence", f)] = seq
    return lambda: check_sequence(ctx, seq, f"build_sequence({key})")


def job_aq(ctx, keys: Dict, moduli: Dict) -> Check:
    results = {f: [ctx.call("census.a_q", census.a_q, ctx.keep[("sequence", f)], q) for q in qs]
               for f, qs in moduli.items()}

    def check():
        for f, rows in results.items():
            seq = ctx.keep[("sequence", f)]
            for q, (mass, main, r) in zip(moduli[f], rows):
                require(r == mass - main and 0 <= mass <= seq.chi, f"a_q({f.value}, q={q}) inconsistent")
                require(main == modular.beta(f, q) * seq.chi, f"a_q({f.value}, q={q}) main term")
            ctx.digest(f"a_q({keys[f]}, q in {moduli[f]})", sha(repr(rows)))
    return check


def job_distribution(ctx, key: str) -> Check:
    seq = ctx.keep[("sequence", Form.Z)]
    total, chi, ratio = ctx.call("census.distribution_probe", census.distribution_probe, seq, 0.3)

    def check():
        require(chi == seq.chi and ratio == total / chi, "distribution_probe: ratio != total / chi")
        ctx.digest(f"distribution_probe({key}, alpha=0.3)", sha(repr((total, chi))))
    return check


S3_PAIRS = ((5, 7, Form.X), (3, 13, Form.Y))  # s3_direct takes ~0.5 s at lcm 105 and ~80 s at 1155
SUM_MODULI = (15, 21, 35, 105)


def job_charsums(ctx, twists) -> Check:
    om1, om2 = ctx.inputs["omegas"][:2]
    s3 = [ctx.call("charsums.s3_factorization_check", charsums.s3_factorization_check,
                   q, q2, f, k, l, om1, om2)
          for (q, q2, f), (k, l) in zip(S3_PAIRS, twists)]
    k, l = twists[-1]
    s2 = [ctx.call("charsums.s2", charsums.s2, q, Form.X, om1, om2) for q in SUM_MODULI]
    s5 = [ctx.call("charsums.s5", charsums.s5, q, Form.Y, k, l, om1, om2) for q in SUM_MODULI]
    primes = [p for p in range(3, 98) if all(p % r for r in range(2, p))]
    disjoint = [ctx.call("charsums.disjointness_check", charsums.disjointness_check, p) for p in primes]

    def check():
        require(all(s3), "s3_factorization_check: S3 != S4 S4 S5")
        require(all(abs(s.value) <= 1 for s in s2 + s5), "s2/s5: trivial bound violated")
        require(all(disjoint), "disjointness_check failed")
        ctx.digest(f"charsums({om1.entries()}, {om2.entries()}, {twists})",
                   sha(repr([s.value for s in s2 + s5])))
        cells = sum(math.lcm(q, q2) ** 2 for q, q2, _ in S3_PAIRS)
        cells += 2 * sum(q * q for q in SUM_MODULI) + sum(p * p for p in primes)
        ctx.add("charsums.cells", cells)
    return check


def job_densities(ctx) -> Check:
    cases = [(f, p) for f in Form for p in range(3, 98)
             if all(p % r for r in range(2, p)) and p >= {Form.AREA: 5, Form.PRODUCT: 7}.get(f, 3)]
    reports = [ctx.call("modular.local_density", modular.local_density, f, p) for f, p in cases]
    bad = ctx.call("modular.bad_modulus_probe", modular.bad_modulus_probe, MODULAR, 13)

    def check():
        require(all(r.match for r in reports), "local_density: measured != predicted")
        require(bad == [2], f"bad_modulus_probe: {bad}")
    return check


def job_saturation(ctx) -> Check:
    rows = ctx.call("constants.saturation_table", constants.saturation_table)
    return lambda: ctx.digest("saturation_table()", sha(constants.table_csv(rows)))


WORKLOADS = {
    "modular_census": modular_census,
    "thin_census": thin_census,
    "exact_sieve": exact_sieve,
}


def make_inputs(workload: str, seed: int) -> Tuple[Dict, List[Job]]:
    """Everything a workload's jobs read, drawn from (workload, seed)."""
    rng = random.Random(f"{workload}:{seed}")
    inputs = {
        "seed": seed,
        "omegas": groups.sample_words(MODULAR, 2, rng.randrange(1 << 30)),
    }
    return inputs, WORKLOADS[workload](rng, inputs)


def warm_up() -> None:
    """One tiny call per module, so lazy imports and first-call costs land in
    set-up rather than in the first timed job."""
    ball = groups.enumerate_ball(MODULAR, 4.0)
    groups.enumerate_ball(SCHOTTKY, 60.0)
    census.census(ball, Form.Z, 2)
    census.build_sequence(MODULAR, 2.0, 2.0, Form.Z)
    om = MODULAR.gens[0]
    charsums.s2(3, Form.X, om, om)
    modular.local_density(Form.Z, 5)
    constants.delta0(2, 0.1)
    cli.parse_args(["census", "--T", "4"])
