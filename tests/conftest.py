import numpy as np
import pytest

from slenderlap import geometry as geo
from slenderlap.grid import make_grid


@pytest.fixture(scope="session")
def circle_cl():
    return geo.build_centerline({"preset": "circle"})


@pytest.fixture(scope="session")
def perturbed_cl():
    return geo.build_centerline({"preset": "perturbed_circle"})


@pytest.fixture(scope="session")
def circle_frame(circle_cl):
    return geo.build_frame(circle_cl, 128)


@pytest.fixture(scope="session")
def perturbed_frame(perturbed_cl):
    return geo.build_frame(perturbed_cl, 128)


@pytest.fixture(scope="session")
def circle_spec64(circle_cl, circle_frame):
    return geo.SurfaceSpec(centerline=circle_cl, frame=circle_frame,
                           epsilon=1.0 / 64.0)


@pytest.fixture(scope="session")
def perturbed_spec64(perturbed_cl, perturbed_frame):
    return geo.SurfaceSpec(centerline=perturbed_cl, frame=perturbed_frame,
                           epsilon=1.0 / 64.0)


@pytest.fixture(scope="session")
def circle_grid(circle_spec64):
    return make_grid(circle_spec64, 128, 16)


@pytest.fixture(scope="session")
def circle_grid_small(circle_spec64):
    return make_grid(circle_spec64, 64, 8)


@pytest.fixture(scope="session")
def perturbed_grid(perturbed_spec64):
    return make_grid(perturbed_spec64, 128, 16)


@pytest.fixture(scope="session")
def perturbed_grid_small(perturbed_spec64):
    return make_grid(perturbed_spec64, 64, 8)


@pytest.fixture(scope="session")
def trefoil_grid():
    cl = geo.build_centerline({"preset": "trefoil"})
    fr = geo.build_frame(cl, 128)
    assert abs(fr.kappa3) > 2.0  # the twisted-frame case
    spec = geo.SurfaceSpec(centerline=cl, frame=fr, epsilon=1.0 / 64.0)
    return make_grid(spec, 64, 8)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
