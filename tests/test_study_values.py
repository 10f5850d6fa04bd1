"""Pinned values of every scaling study and of the total-remainder harness.

Each study runs on the first two rungs of its default ladder, on its default
curve; the numbers are what the studies gave before they shared one table
and one ladder generator, kept to a relative 1e-13 so that a change to any
measurement (including the ones criterion 8 does not run) shows here.
"""

import numpy as np
import pytest

from slenderlap import analysis as an

PINNED = {
    "RS1-sup": [0.006534592378319195, 0.0033301570174070964],
    "RS2-sup": [0.00989570695898807, 0.002361745262704342],
    "RS3-sup": [0.010591174713175604, 0.0024662847519985208],
    "basic-int-k2-a05": [7.129208116649977, 5.075005127126799],
    "Heps": [0.06315692547025317, 0.01678767246471285],
    "Hplus": [0.06731845872828042, 0.021046649095018397],
    "RS-holder-group": [0.0026883491818051847, 0.0008014767140371282],
    "Rd-eps-group": [0.08886973142617222, 0.03988734858182354],
    "RD-deriv": [0.2620039774425762, 0.23069777640142794],
}
# measure_total_remainder on the perturbed circle, eps 2^-5 and 2^-6:
# (remainder_norm, straight_norm) per rung
PINNED_TOTAL = [(0.6185079520765275, 11.582370011081547),
                (0.2990928902396917, 8.642856718979418)]
RTOL = 1e-13


def _rel(got, want):
    got, want = np.asarray(got, float), np.asarray(want, float)
    return float(np.max(np.abs(got - want) / np.abs(want)))


def test_study_values_are_pinned():
    errors = {}
    for sid, want in PINNED.items():
        ladder = an.make_study(sid).epsilons[:2]
        got = an.run_scaling_study(an.make_study(sid, epsilons=ladder))["values"]
        errors[sid] = _rel(got, want)
    rep = an.measure_total_remainder({"preset": "perturbed_circle"},
                                     [2.0 ** -5, 2.0 ** -6])
    errors["total"] = _rel([(r["remainder_norm"], r["straight_norm"])
                            for r in rep["rows"]], PINNED_TOTAL)
    assert set(errors) == set(PINNED) | {"total"}
    assert max(errors.values()) <= RTOL, errors
    # a study's verdict comes from its table entry alone
    with pytest.raises(TypeError):
        an.make_study("Rd-eps-group", margin=1.0)
