import numpy as np
import pytest

from adscone.isom import IsomPair, psl_of_lorentz3
from adscone.linalg import frame_coordinates, orthonormal_tangent_frame
from adscone.lrmetrics import transport


def _rk4_holonomy_pair(path, closing):
    y = path[0]
    frame = orthonormal_tangent_frame(y)
    sides = []
    for kind in ("left", "right"):
        cols = [frame_coordinates(y, frame, closing @ transport(path, u0, kind)) for u0 in frame]
        sides.append(psl_of_lorentz3(np.column_stack(cols)))
    return IsomPair(*sides)


@pytest.fixture(scope="session")
def rk4_holonomy_pair():
    """Reference for lrmetrics.holonomy_pair: the same frame and closing
    tail, with the left/right transports integrated by RK4 along every
    segment of the path instead of taken in closed form.  Results are kept
    for the session, because several tests integrate the same meridians."""
    done = {}

    def pair(path, closing):
        key = (path.tobytes(), closing.tobytes())
        if key not in done:
            done[key] = _rk4_holonomy_pair(path, closing)
        return done[key]

    return pair
