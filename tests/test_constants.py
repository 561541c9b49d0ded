"""Critical exponents, DHR saturation numbers, and the exponent system."""

import math

import numpy as np
import pytest

from triplesieve.constants import (
    BETA_KAPPA,
    SieveSpec,
    alpha_min_for_R,
    delta0,
    delta0_quadratic,
    exponent_system_check,
    greaves_threshold,
    m_dhr,
    optimize_m,
    saturation_R,
    saturation_table,
    search_exponent_system,
    table_csv,
    table_text,
)
from triplesieve.gl2 import Form


def test_delta0_pinned_values():
    assert delta0(2, greaves_threshold()) == pytest.approx(0.983994188, abs=5e-6)
    assert delta0(4, 0.1483334) == pytest.approx(0.9954718, abs=1e-5)
    assert delta0(6, 0.09980986) == pytest.approx(0.99626261, abs=1e-5)


def test_delta0_quadratic_residual():
    for D in (2, 4, 6):
        for a in np.linspace(0.01, 0.5, 25):
            d = delta0(D, float(a))
            scale = 8 * D * a + 39
            assert abs(delta0_quadratic(d, D, float(a))) / scale < 1e-12


def test_delta0_monotone():
    grid = np.linspace(0.01, 0.5, 50)
    for D in (2, 4, 6):
        vals = [delta0(D, float(a)) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    for a in (0.05, 0.2, 0.4):
        assert delta0(2, a) < delta0(4, a) < delta0(6, a)


def test_delta0_validation():
    with pytest.raises(ValueError):
        delta0(2, 0.0)
    with pytest.raises(ValueError):
        delta0(3, 0.1)


def test_greaves_threshold():
    t = greaves_threshold()
    assert 0.2566 < t < 0.2567
    assert t < 5 / 16
    assert delta0(2, t) == pytest.approx(0.983994188, abs=5e-6)


def test_m_dhr_value_and_formula_fidelity():
    v = m_dhr(5 / 32, 4, 1.0)
    assert v == pytest.approx(18.5613, abs=1e-3)
    # independent single-expression evaluation, pure math module
    a, k, z, b = 5 / 32, 4, 1.0, BETA_KAPPA[4]
    direct = (1 / a) * (1 + z - z / b) - 1 + (k + z) * math.log(b / z) - k + z * k / b
    assert abs(v - direct) / abs(direct) < 1e-12


def test_m_dhr_domain_errors():
    b = BETA_KAPPA[4]
    with pytest.raises(ValueError):
        m_dhr(0.15, 4, 0.0)
    with pytest.raises(ValueError):
        m_dhr(0.15, 4, b)
    with pytest.raises(ValueError):
        m_dhr(0.15, 3, 1.0)


def test_m_dhr_boundary_log_term_vanishes():
    a, k = 5 / 32, 4
    b = BETA_KAPPA[k]
    z = b * (1 - 1e-12)
    no_log = (1 / a) * (1 + z - z / b) - 1 - k + z * k / b
    assert m_dhr(a, k, z) == pytest.approx(no_log, abs=1e-9)


@pytest.mark.parametrize("a,k", [(5 / 32, 4), (5 / 48, 5)])
def test_m_dhr_unimodal_on_grid(a, k):
    b = BETA_KAPPA[k]
    grid = np.linspace(0, b, 1002)[1:-1]
    vals = m_dhr(a, k, grid)
    rising = np.diff(vals) > 0
    # one sign change: strictly falling, then strictly rising
    assert rising[0] == False and rising[-1] == True
    assert int(np.count_nonzero(np.diff(rising.astype(int)))) == 1


def test_optimize_m_pinned_R_values():
    z1, m1 = optimize_m(5 / 32, 4)
    assert 17.5 < m1 < 18.0
    assert saturation_R(5 / 32, 4) == 18
    z2, m2 = optimize_m(5 / 48, 5)
    assert 25.4 < m2 < 26.0
    assert saturation_R(5 / 48, 5) == 26
    assert saturation_R(7 / 48, 4) == 19
    assert saturation_R(7 / 72, 5) == 27
    # the minimizer 0.00446 lies left of beta/1001, where a grid scan starts
    assert saturation_R(1e-3, 4) == 1030


@pytest.mark.parametrize("k", [4, 5])
@pytest.mark.parametrize("a", [1e-4, 1e-3, 2e-3, 5 / 48, 5 / 32, 1 / 2])
def test_optimize_m_is_the_log_grid_minimum(a, k):
    b = BETA_KAPPA[k]
    grid = np.geomspace(1e-9, b * (1 - 1e-12), 200_001)
    z, m_star = optimize_m(a, k)
    assert 0 < z < k and m_star == m_dhr(a, k, z)
    assert m_star <= float(np.min(m_dhr(a, k, grid))) + 1e-9 * m_star


@pytest.mark.parametrize("k", [4, 5])
def test_optimize_m_above_the_proven_range_returns_the_minimum_or_raises(k):
    b = BETA_KAPPA[k]
    grid = np.geomspace(1e-9, b * (1 - 1e-12), 200_001)
    raised = 0
    for a in np.linspace(1 - 1 / b, 3, 40)[1:]:
        vals = m_dhr(float(a), k, grid)
        try:
            _, m_star = optimize_m(float(a), k)
        except ValueError:
            # m falls towards its infimum at the open end zeta -> beta
            raised += 1
            assert int(np.argmin(vals)) == grid.size - 1
            continue
        assert m_star <= float(np.min(vals)) + 1e-9 * m_star
    assert 0 < raised < 39


def test_optimize_m_rejects_bad_alpha():
    for a in (0, -1.0, float("nan"), 1e-310, float("inf")):
        with pytest.raises(ValueError):
            optimize_m(a, 4)


def test_optimize_m_matches_fine_grid():
    for a, k in ((5 / 32, 4), (7 / 72, 5)):
        b = BETA_KAPPA[k]
        grid = np.linspace(0, b, 2_000_002)[1:-1]
        fine = float(np.min(m_dhr(a, k, grid)))
        _, m_star = optimize_m(a, k)
        assert m_star <= fine + 1e-12
        assert abs(m_star - fine) < 1e-6


def test_optimize_m_decreasing_in_alpha():
    for k in (4, 5):
        vals = [optimize_m(float(a), k)[1] for a in np.linspace(0.08, 0.3, 12)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_alpha_min_pinned_values():
    assert alpha_min_for_R(4, 18) == pytest.approx(0.1483334, abs=1e-4)
    assert alpha_min_for_R(5, 26) == pytest.approx(0.0998099, abs=1e-4)


def test_alpha_min_monotone_and_composition():
    assert alpha_min_for_R(4, 19) < alpha_min_for_R(4, 18)
    for k, R in ((4, 18), (5, 26)):
        a = alpha_min_for_R(k, R)
        _, m_star = optimize_m(a + 1e-6, k)
        assert R - 1e-3 < m_star < R


def test_alpha_min_unattainable():
    with pytest.raises(ValueError):
        alpha_min_for_R(4, 5)


def test_sieve_spec_validation():
    with pytest.raises(ValueError):
        SieveSpec(kappa=3, D=2, alpha=0.1, delta=0.9, x=0.9, alpha0=0.01)
    with pytest.raises(ValueError):
        SieveSpec(kappa=4, D=5, alpha=0.1, delta=0.9, x=0.9, alpha0=0.01)
    s = SieveSpec(kappa=4, D=2, alpha=0.1, delta=0.9, x=0.7, alpha0=0.01)
    assert s.y == pytest.approx(0.3)
    assert s.theta == pytest.approx(5 / 6)


def test_exponent_system_feasibility_boundary():
    assert search_exponent_system(2, 5 / 16 - 1e-4) is not None
    assert search_exponent_system(2, 5 / 16 + 1e-4) is None
    assert search_exponent_system(2, 0.33) is None
    spec = search_exponent_system(2, 5 / 16 - 1e-4)
    assert exponent_system_check(spec).feasible
    assert spec.delta <= 1 and spec.x <= 1


def test_exponent_system_degenerate_gap():
    spec = SieveSpec(kappa=4, D=2, alpha=0.1, delta=5 / 6, x=0.9, alpha0=0.01,
                     theta=5 / 6)
    rep = exponent_system_check(spec)
    assert not rep.feasible
    assert rep.slacks[0] <= 0
    assert rep.slacks[3] <= 0


def test_exponent_system_hypotenuse_point():
    # the near-boundary point delta = 0.984, x = 6 delta - 5 - eps:
    # margin is about 3.23e-4 and each unit of eps costs about 8.97,
    # so eps = 1e-5 passes and 1e-4 does not
    def point(eps):
        d = 0.984
        return SieveSpec(kappa=1, D=2, alpha=0.2566718, delta=d,
                         x=6 * d - 5 - eps, alpha0=0.05)

    assert exponent_system_check(point(1e-5)).feasible
    rep = exponent_system_check(point(1e-4))
    assert not rep.feasible
    assert rep.slacks[4] == pytest.approx(-5.736e-4, abs=2e-6)


def test_exponent_identity_ties_system_to_quadratic():
    # substituting x = 6 delta - 5, y = 1 - x into inequality 5 yields
    # exactly the delta0 quadratic
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = float(rng.uniform(0.8, 1.1))
        D = int(rng.choice([2, 4, 6]))
        a = float(rng.uniform(0.01, 0.5))
        x = 6 * d - 5
        lhs = (3 + 2 * d) * x - 4 * (1 - x) - 8 * D * a
        assert lhs == pytest.approx(delta0_quadratic(d, D, a), abs=1e-9)


def test_saturation_table_values_and_formats():
    rows = saturation_table()
    assert [(r.form, r.R) for r in rows] == [
        (Form.Z, 4), (Form.AREA, 18), (Form.PRODUCT, 26)]
    assert rows[0].delta0 == pytest.approx(0.983994188, abs=5e-6)
    assert rows[1].delta0 == pytest.approx(0.9954718, abs=1e-5)
    assert rows[2].delta0 == pytest.approx(0.99626261, abs=1e-5)
    text = table_text(rows)
    assert text.splitlines()[0].split() == ["form", "R", "alpha", "delta0"]
    assert len(text.splitlines()) == 4
    csv = table_csv(rows)
    assert csv.splitlines()[0] == "form,R,alpha,delta0"
    assert csv.splitlines()[1].startswith("z,4,0.2566718,")
    assert table_csv(saturation_table()) == csv


def test_saturation_table_float_bits_pinned():
    # recorded before optimize_m solved the stationarity equation
    rows = saturation_table()
    assert [r.alpha.hex() for r in rows] == [
        "0x1.06d4f8cf967a7p-2", "0x1.2fc901e353f7dp-3", "0x1.98d241573eab2p-4"]
    assert [r.delta0.hex() for r in rows] == [
        "0x1.f7ce1613ff8e3p-1", "0x1.fdae6ccf4586dp-1", "0x1.fe162291618edp-1"]
