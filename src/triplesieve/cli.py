"""Command-line front end: reproducible runs with machine-readable output.

Every run resolves a full RunConfig (builtin defaults, then an optional flat
key=value config file, then flags) and serializes it into the output header,
so identical configs give byte-identical output.

Exit codes: 0 pass, 2 identity falsified (including a failed exactness
check), 3 enumeration budget exceeded, 4 bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .census import adq_terms, census, census_csv
from .charsums import (
    _zero_counts,
    disjointness_check,
    rho,
    s1_numerators,
    s4_closed_form_numerators,
    s4_numerators,
)
from .constants import saturation_table, table_csv, table_text
from .gl2 import Form, GeneratorSet, form_values
from .groups import (
    _radius_bound,
    BallBudgetError,
    enumerate_ball,
    estimate_delta,
    load_generator_file,
    modular_generators,
    sample_words,
    schottky_generators,
)
from .modular import (
    FORM_PRIME_FLOOR,
    bad_modulus_probe,
    coset_table,
    eta,
    local_density,
    primes_upto,
    strong_approx_check,
)

EXIT_PASS = 0
EXIT_FALSIFIED = 2
EXIT_BUDGET = 3
EXIT_BAD_INPUT = 4


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    group: str = "modular"
    T: float = 30.0
    X: float = 12.0
    Y: float = 12.0
    q: int = 5
    p_max: int = 97
    R: int = 4
    f: str = "z"
    format: str = "text"
    seed: int = 1

    def header_lines(self) -> List[str]:
        out = []
        for fld in fields(self):
            out.append(f"# {fld.name} = {getattr(self, fld.name)}")
        return out

    def as_dict(self) -> Dict[str, object]:
        return {fld.name: getattr(self, fld.name) for fld in fields(self)}


def resolve_group(name: str) -> GeneratorSet:
    if name == "modular":
        return modular_generators()
    if name == "schottky":
        return schottky_generators()
    return load_generator_file(name)


def _emit_json(config: RunConfig, payload: Dict[str, object]) -> str:
    doc = {"config": config.as_dict()}
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"


def _emit_text(config: RunConfig, body: str) -> str:
    return "\n".join(config.header_lines()) + "\n" + body


# ---------------------------------------------------------------- verify

SuiteResult = Tuple[str, bool, str]


def verify_suites(cfg: RunConfig) -> List[SuiteResult]:
    """The exact identity suites: character sums, cosets, disjointness.

    The local-weight sum is recomputed through rho here, independently of
    the library's internal evaluation, so a corrupted density is caught.
    The character-sum suites make one stacked kernel call per (f, p), over
    all their omegas: the zero counts and S1 numerators of the 20 omegas,
    and the S4 and closed-form tables of the 5 omegas at p <= 31.  A
    failure names the last failing case in (p, f, omega, k, l) order.
    """
    gens = resolve_group(cfg.group)
    omegas = sorted(sample_words(gens, 20, cfg.seed), key=lambda g: g.entries())
    primes = primes_upto(cfg.p_max)[1:]
    results: List[SuiteResult] = []

    closed_primes, closed_omegas = [p for p in primes if p <= 31], omegas[:5]

    ok, detail = True, ""
    for p in primes:
        rho_p = rho(p)
        for f in (Form.X, Form.Y, Form.Z):
            if f is Form.Z and p % 4 == 3:
                continue
            counts = _zero_counts(f, p, omegas).tolist()
            if any(Fraction(n0, p * p) != rho_p for n0 in counts) or s1_numerators(p, f, omegas).any():
                ok, detail = False, f"p={p} f={f.value}"
    results.append(("weighted-zero-count-vanishes", ok, detail or f"odd p <= {cfg.p_max}, 20 omegas, 3 forms"))

    ok, detail = True, ""
    for p in closed_primes:
        k, l = np.indices((p, p))
        for f in (Form.X, Form.Y):
            wrong = s4_numerators(p, f, k, l, closed_omegas) != s4_closed_form_numerators(p, f, k, l, closed_omegas)
            wrong[:, 0, 0] = False
            if wrong.any():
                # the detail names the last wrong twist in (p, f, omega, k, l) order
                _, bad_k, bad_l = np.argwhere(wrong)[-1].tolist()
                ok, detail = False, f"p={p} f={f.value} k={bad_k} l={bad_l}"
    results.append(("twisted-sum-closed-form", ok, detail or "p<=31, all (k,l), 5 omegas"))

    ok, detail = True, ""
    for p in primes:
        if not disjointness_check(p):
            ok, detail = False, f"p={p}"
    results.append(("coordinate-disjointness", ok, detail or f"odd p <= {cfg.p_max}"))

    ok, detail = True, ""
    for p in primes:
        table = coset_table(p)
        if table.index != p + 1 or len(table.reps) != p + 1 or eta(p) != p + 1:
            ok, detail = False, f"p={p}"
    results.append(("coset-index", ok, detail or f"odd p <= {cfg.p_max}"))

    ok, detail = True, ""
    bad = bad_modulus_probe(gens.gens, 13)
    if 2 not in bad:
        ok, detail = False, "probe must report 2"
    for p in [p for p in primes if p <= 13]:
        if strong_approx_check(gens.gens, p) == (p in bad):
            ok, detail = False, f"p={p}"
    results.append(("strong-approximation", ok, detail or f"odd p <= 13 surjective outside {bad}"))
    return results


def cmd_verify(cfg: RunConfig) -> Tuple[str, int]:
    results = verify_suites(cfg)
    failed = [r for r in results if not r[1]]
    code = EXIT_PASS if not failed else EXIT_FALSIFIED
    if cfg.format == "json":
        payload = {
            "provenance": "verify_suites",
            "suites": [
                {"suite": n, "ok": ok, "detail": d} for n, ok, d in results
            ],
            "passed": not failed,
        }
        return _emit_json(cfg, payload), code
    lines = []
    for n, ok, d in results:
        lines.append(f"{'PASS' if ok else 'FAIL'} {n} ({d})")
    lines.append("all suites passed" if not failed else f"{len(failed)} suite(s) FAILED")
    if cfg.format == "csv":
        rows = ["suite,ok,detail"] + [f"{n},{int(ok)},{d}" for n, ok, d in results]
        return _emit_text(cfg, "\n".join(rows) + "\n"), code
    return _emit_text(cfg, "\n".join(lines) + "\n"), code


# ------------------------------------------------------------- constants

def cmd_constants(cfg: RunConfig) -> Tuple[str, int]:
    rows = saturation_table()
    if cfg.format == "json":
        provenance = {
            "z": "greaves_threshold+delta0",
            "area": "alpha_min_for_R+delta0",
            "product": "alpha_min_for_R+delta0",
        }
        payload = {
            "provenance": "saturation_table",
            "rows": [
                {"form": r.form.value, "R": r.R, "alpha": round(r.alpha, 7),
                 "delta0": round(r.delta0, 9), "provenance": provenance[r.form.value]}
                for r in rows
            ],
        }
        return _emit_json(cfg, payload), EXIT_PASS
    if cfg.format == "csv":
        return _emit_text(cfg, table_csv(rows)), EXIT_PASS
    return _emit_text(cfg, table_text(rows)), EXIT_PASS


# ----------------------------------------------------------------- orbit

def cmd_orbit(cfg: RunConfig) -> Tuple[str, int]:
    gens = resolve_group(cfg.group)
    ball = enumerate_ball(gens, cfg.T)
    c, d, _ = ball.distinct_rows()
    if cfg.format == "text":  # counts only: no triple is formed
        body = (
            f"elements = {len(ball)}\ndistinct_rows = {len(c)}\n"
            f"max_sq_norm = {int(ball.sq_norms().max(initial=0))}\n"
        )
        return _emit_text(cfg, body), EXIT_PASS
    x, y, z = (form_values(f, c, d).tolist() for f in (Form.X, Form.Y, Form.Z))
    triples = list(zip(c.tolist(), d.tolist(), x, y, z))
    if cfg.format == "json":
        payload = {
            "provenance": "enumerate_ball",
            "elements": len(ball),
            "distinct_rows": len(triples),
            "rows": [
                {"c": c, "d": d, "x": x, "y": y, "z": z} for c, d, x, y, z in triples
            ],
        }
        return _emit_json(cfg, payload), EXIT_PASS
    lines = ["c,d,x,y,z"] + [f"{c},{d},{x},{y},{z}" for c, d, x, y, z in triples]
    return _emit_text(cfg, "\n".join(lines) + "\n"), EXIT_PASS


# ---------------------------------------------------------------- census

def cmd_census(cfg: RunConfig) -> Tuple[str, int]:
    gens = resolve_group(cfg.group)
    ball = enumerate_ball(gens, cfg.T)
    report = census(ball, Form.parse(cfg.f), cfg.R)
    if cfg.format == "csv":
        return _emit_text(cfg, census_csv(report)), EXIT_PASS
    if cfg.format == "json":
        payload = {"provenance": "census", "summary": report.summary()}
        return _emit_json(cfg, payload), EXIT_PASS
    s = report.summary()
    lines = [f"rows = {s['rows']}", f"zeros = {s['zeros']}", f"units = {s['units']}",
             f"imprimitive = {s['imprimitive']}", f"max_abs_value = {s['max_abs_value']}"]
    for key, value in s["almost_prime_counts"].items():
        lines.append(f"omega_{key} = {value}")
    return _emit_text(cfg, "\n".join(lines) + "\n"), EXIT_PASS


# --------------------------------------------------------------- density

def cmd_density(cfg: RunConfig) -> Tuple[str, int]:
    f = Form.parse(cfg.f)
    floor = FORM_PRIME_FLOOR[f]
    rows = []
    all_match = True
    for p in primes_upto(cfg.p_max):
        if p < floor:
            continue
        rep = local_density(f, p)
        all_match = all_match and rep.match
        rows.append((p, rep.measured, rep.predicted, rep.match))
    code = EXIT_PASS if all_match else EXIT_FALSIFIED
    if cfg.format == "json":
        payload = {
            "provenance": "local_density/predicted_density",
            "rows": [
                {"p": p, "measured": str(m), "predicted": str(pr), "match": ok}
                for p, m, pr, ok in rows
            ],
            "all_match": all_match,
        }
        return _emit_json(cfg, payload), code
    if cfg.format == "csv":
        lines = ["p,measured,predicted,match"] + [
            f"{p},{m},{pr},{int(ok)}" for p, m, pr, ok in rows
        ]
        return _emit_text(cfg, "\n".join(lines) + "\n"), code
    lines = [f"p={p:>3} measured={str(m):>8} predicted={str(pr):>8} {'ok' if ok else 'MISMATCH'}"
             for p, m, pr, ok in rows]
    return _emit_text(cfg, "\n".join(lines) + "\n"), code


# ----------------------------------------------------------------- delta

def cmd_delta(cfg: RunConfig) -> Tuple[str, int]:
    gens = resolve_group(cfg.group)
    _radius_bound(cfg.T)  # a bad radius is refused before np.geomspace reads it
    lo = max(4.0, cfg.T / 16.0)
    grid = [float(t) for t in np.geomspace(lo, cfg.T, 6)]
    est = estimate_delta(gens, grid)
    if cfg.format == "json":
        payload = {
            "provenance": "estimate_delta",
            "delta_hat": est.delta_hat,
            "stderr": est.stderr,
            "samples": [{"T": t, "count": n} for t, n in est.samples],
        }
        return _emit_json(cfg, payload), EXIT_PASS
    if cfg.format == "csv":
        lines = ["T,count"] + [f"{t},{n}" for t, n in est.samples]
        lines.append(f"# delta_hat = {est.delta_hat:.6f}")
        lines.append(f"# stderr = {est.stderr:.6f}")
        return _emit_text(cfg, "\n".join(lines) + "\n"), EXIT_PASS
    body = f"delta_hat = {est.delta_hat:.6f}\nstderr = {est.stderr:.6f}\n" + "\n".join(
        f"T={t:.2f} count={n}" for t, n in est.samples
    )
    return _emit_text(cfg, body + "\n"), EXIT_PASS


# ------------------------------------------------------------------- adq

def cmd_adq(cfg: RunConfig) -> Tuple[str, int]:
    gens = resolve_group(cfg.group)
    chi, (mass, main, r), support = adq_terms(gens, cfg.X, cfg.Y, Form.parse(cfg.f), cfg.q)
    rel = float(abs(r) / chi) if chi else 0.0
    if cfg.format == "json":
        payload = {
            "provenance": "build_sequence+a_q",
            "chi": str(chi),
            "mass": str(mass),
            "main": str(main),
            "remainder": str(r),
            "rel_remainder": rel,
            "support": support,
        }
        return _emit_json(cfg, payload), EXIT_PASS
    if cfg.format == "csv":
        lines = ["quantity,value",
                 f"chi,{chi}", f"mass,{mass}", f"main,{main}",
                 f"remainder,{r}", f"rel_remainder,{rel}"]
        return _emit_text(cfg, "\n".join(lines) + "\n"), EXIT_PASS
    body = (f"chi = {chi} ({float(chi):.4f})\n"
            f"mass = {mass} ({float(mass):.4f})\n"
            f"main = {main} ({float(main):.4f})\n"
            f"remainder = {r} ({float(r):.6f})\n"
            f"rel_remainder = {rel:.8f}\n")
    return _emit_text(cfg, body), EXIT_PASS


DISPATCH: Dict[str, Callable[[RunConfig], Tuple[str, int]]] = {
    "verify": cmd_verify,
    "constants": cmd_constants,
    "orbit": cmd_orbit,
    "census": cmd_census,
    "density": cmd_density,
    "delta": cmd_delta,
    "adq": cmd_adq,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise ValueError(message)


def read_config_file(path: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


# each setting's type is its default's, so a config-file value converts as
# the flag of the same name does
_FIELD_TYPES = {fld.name: type(fld.default) for fld in fields(RunConfig) if fld.name != "subcommand"}
_FORMATS = ("text", "csv", "json")


@functools.lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every call may share it."""
    parser = _Parser(prog="triplesieve", description=__doc__)
    parser.add_argument("subcommand", choices=sorted(DISPATCH))
    parser.add_argument("--config", help="flat key=value defaults file")
    parser.add_argument("--group")
    parser.add_argument("--T", type=float)
    parser.add_argument("--X", type=float)
    parser.add_argument("--Y", type=float)
    parser.add_argument("--q", type=int)
    parser.add_argument("--pmax", dest="p_max", type=int)
    parser.add_argument("--R", type=int)
    parser.add_argument("--f")
    parser.add_argument("--format", choices=_FORMATS)
    parser.add_argument("--seed", type=int)
    return parser


def parse_args(argv: Optional[List[str]] = None) -> RunConfig:
    ns = _parser().parse_args(argv)
    file_values = read_config_file(ns.config) if ns.config else {}
    unknown = sorted(set(file_values) - set(_FIELD_TYPES))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    resolved: Dict[str, object] = {"subcommand": ns.subcommand}
    for name, typ in _FIELD_TYPES.items():
        flag = getattr(ns, name)
        if flag is not None:
            resolved[name] = flag
        elif name in file_values:
            resolved[name] = typ(file_values[name])
    if ns.subcommand == "adq" and "q" not in resolved:
        # the default modulus where the form has local densities there, else the
        # form's least prime that has them (7 for the product)
        form = Form.parse(resolved.get("f", RunConfig.f))
        resolved["q"] = max(RunConfig.q, FORM_PRIME_FLOOR[form])
    cfg = RunConfig(**resolved)
    if cfg.format not in _FORMATS:
        raise ValueError(f"bad format {cfg.format!r}")
    return cfg


def main(argv: Optional[List[str]] = None) -> int:
    try:
        cfg = parse_args(argv)
        out, code = DISPATCH[cfg.subcommand](cfg)
    except BallBudgetError as e:
        sys.stderr.write(f"budget exceeded: {e}\n")
        return EXIT_BUDGET
    except ArithmeticError as e:
        sys.stderr.write(f"exactness check failed: {e}\n")
        return EXIT_FALSIFIED
    except (ValueError, OSError) as e:
        sys.stderr.write(f"bad input: {e}\n")
        return EXIT_BAD_INPUT
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
