"""Decomposition identity and scaling-study machinery."""

import numpy as np
import pytest

from slenderlap import analysis as an
from slenderlap.spectral import GridFunction


def test_decomposition_identity_circle(circle_grid):
    v = GridFunction(np.cos(2 * np.pi * circle_grid.s_nodes))
    rep = an.decompose_dtn(circle_grid, v)
    assert rep["relative_mismatch"] <= 1e-5
    # two algebraically identical routes: actual agreement is roundoff-level
    assert rep["relative_mismatch"] <= 1e-10


def test_decomposition_identity_perturbed(perturbed_grid):
    v = GridFunction(np.cos(2 * np.pi * perturbed_grid.s_nodes)
                     + 0.2 * np.sin(4 * np.pi * perturbed_grid.s_nodes))
    rep = an.decompose_dtn(perturbed_grid, v)
    assert rep["relative_mismatch"] <= 1e-5


def test_decomposition_zero_input(circle_grid):
    rep = an.decompose_dtn(circle_grid, GridFunction(np.zeros(circle_grid.n_s)))
    for name, norm in rep["term_norms"].items():
        assert norm < 1e-12, name


def test_decomposition_dominance(perturbed_grid):
    # the straight term carries the leading-order behavior
    v = GridFunction(np.cos(2 * np.pi * perturbed_grid.s_nodes))
    rep = an.decompose_dtn(perturbed_grid, v)
    others = [n for k, n in rep["term_norms"].items() if k != "straight_dtn"]
    assert rep["term_norms"]["straight_dtn"] > 3.0 * max(others)


def test_fit_slope():
    eps = [0.1, 0.05, 0.025]
    vals = [7.0 * e ** 1.5 for e in eps]
    slope, resid = an.fit_slope(eps, vals)
    assert abs(slope - 1.5) < 1e-12
    assert resid < 1e-20


def test_make_study_validation():
    with pytest.raises(ValueError):
        an.make_study("no-such-study")
    st = an.make_study("RS2-sup")
    assert st.target_slope == 2.0
    assert st.curve_config == {"preset": "circle"}
    st2 = an.make_study("Heps")
    assert st2.curve_config == {"preset": "perturbed_circle"}
    assert max(st2.epsilons) <= 2.0 ** -5


def test_make_study_checks_every_rung_grid():
    """A study whose rungs cannot be gridded is refused when it is made,
    before run_scaling_study builds a curve and frame."""
    with pytest.raises(ValueError, match=r"powers of two \(>= 4\)$"):
        an.make_study("RS1-sup", n_theta=6)
    with pytest.raises(ValueError, match=r"powers of two \(>= 4\)$"):
        an.make_study("RS2-sup", epsilons=[2.0 ** -4, 2.0 ** -6], n_theta=2)
    assert an.make_study("RS1-sup", n_theta=8).n_theta == 8


def test_grid_policy():
    st = an.make_study("RS1-sup")
    assert st.grid_ns(1.0 / 16) == 128
    assert st.grid_ns(1.0 / 256) == 256


def test_run_scaling_study_short_ladder():
    # two-point ladders keep this cheap; the acceptance suite runs the full
    # four-point versions
    st = an.make_study("RS2-sup", epsilons=[2.0 ** -4, 2.0 ** -6])
    rep = an.run_scaling_study(st)
    assert rep["pass"]
    assert abs(rep["slope"] - 2.0) <= 0.3
    assert len(rep["values"]) == 2


def test_epsilon_constraint_violation():
    st = an.make_study("RS1-sup", epsilons=[0.2, 0.1])
    from slenderlap.geometry import GeometryError
    with pytest.raises(GeometryError):
        an.run_scaling_study(st)


def test_measure_total_remainder_short():
    rep = an.measure_total_remainder({"preset": "circle"},
                                     [2.0 ** -5, 2.0 ** -7], alpha=0.25)
    assert rep["dominated"]
    assert rep["max_over_first"] <= 3.0
    assert rep["pass"]


def test_rs_holder_group_short_ladder():
    st = an.make_study("RS-holder-group", epsilons=[2.0 ** -4, 2.0 ** -6])
    rep = an.run_scaling_study(st)
    assert rep["pass"]
    assert rep["slope"] >= 1.45  # target 2 - alpha with alpha = 0.25


def test_make_study_needs_a_ladder():
    with pytest.raises(ValueError):
        an.make_study("RS2-sup", epsilons=[1.0 / 32.0])
    with pytest.raises(ValueError):
        an.make_study("RS2-sup", epsilons=[1.0 / 32.0, 1.0 / 32.0])
    with pytest.raises(ValueError):
        an.make_study("RS2-sup", epsilons=[0.0, 1.0 / 32.0])


def test_solve_study_over_the_cap_fails_before_its_first_eps():
    from slenderlap.operators import AssemblyError
    with pytest.raises(AssemblyError):
        an.make_study("Rd-eps-group", epsilons=[2.0 ** -5, 2.0 ** -9])
    # apply-only studies are not capped
    st = an.make_study("RS-holder-group", epsilons=[2.0 ** -7, 2.0 ** -10])
    assert not st.solves
    assert an.make_study("Rd-eps-group").solves
