import numpy as np
import pytest

from adscone import catalog
from adscone.conesurf import law_of_cosines
from adscone.errors import GeometryError, LinkRealizationError
from adscone.isom import IsomPair, psl_of_lorentz3
from adscone.linalg import dot12, frame_coordinates, orthonormal_tangent_frame
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


# ---------------------------------------------------------------------------
# the two-cone disk, one parameter set and one seed at a time
# ---------------------------------------------------------------------------


def _hyp_dist(u, v):
    return float(np.arccosh(max(1.0 + 5e-16, -dot12(u, v))))


def _scalar_two_cone_disk(eta1, d, params):
    """catalog.two_cone_disk_from_params developed point by point: the exact
    disk with cone angle eta1 at the chart centre p1, the second cone point
    p2 at distance d, and the realized second cone angle."""
    s1, s2, s3 = np.exp(params[:3])
    u2, u3 = params[3], params[4]
    w = np.exp([u2, 0.0, u3, 0.0])
    w = w / w.sum()
    a_q2 = eta1 * w[0]
    a_p2 = eta1 * (w[0] + w[1])
    a_q3 = eta1 * (w[0] + w[1] + w[2])

    def from_p1(dist, ang):
        return np.array(
            [np.cosh(dist), np.sinh(dist) * np.cos(ang), np.sinh(dist) * np.sin(ang)]
        )

    p1 = np.array([1.0, 0.0, 0.0])
    q1 = from_p1(s1, 0.0)
    q2 = from_p1(s2, a_q2)
    p2 = from_p1(d, a_p2)
    q3 = from_p1(s3, a_q3)
    leg2 = _hyp_dist(p2, q2)
    leg3 = _hyp_dist(p2, q3)
    sides = np.array(
        [[_hyp_dist(p2, p1), _hyp_dist(p1, q2), leg2], [leg3, _hyp_dist(q3, p1), _hyp_dist(p1, p2)]]
    )
    ang_f1, ang_f3 = np.arccos(np.clip(law_of_cosines(sides)[:, 0], -1.0, 1.0)).tolist()
    beta2 = float(np.exp(params[5]))
    eta2_realized = ang_f1 + ang_f3 + beta2
    r2 = float(
        np.arccosh(
            np.cosh(leg2) * np.cosh(leg3) - np.sinh(leg2) * np.sinh(leg3) * np.cos(beta2)
        )
    )
    q1_cut = from_p1(s1, eta1)
    rim = [_hyp_dist(q1, q2), r2, _hyp_dist(q3, q1_cut)]
    interior = [s1, s2, leg2, d, leg3, s3]
    lengths = np.concatenate([np.asarray(rim, float), np.asarray(interior, float)])
    disk = catalog._disk_template().with_lengths(lengths, {3: eta1, 4: eta2_realized})
    return disk, float(eta2_realized)


def _sequential_disk_fit(rim_lengths, rim_angles, eta1, eta2, theta, tol=1e-11):
    """The two-cone disk fit seed after seed, with one forward-difference
    column and one damping rung at a time."""
    d = catalog.collision_distance(theta, eta1, eta2)
    goal = np.array(
        [rim_lengths[0], rim_lengths[1], rim_lengths[2],
         rim_angles[0], rim_angles[1], eta2]
    )

    def values(p):
        disk, eta2_real = _scalar_two_cone_disk(eta1, d, p)
        rims, betas = catalog._disk_rim_data(disk)
        return np.array(rims + betas[:2] + [eta2_real])

    lo = np.array([-3.5] * 3 + [-5.0, -5.0, -6.0])
    hi = np.array([2.5] * 3 + [5.0, 5.0, 1.8])
    best = None
    for s_seed, b_seed in (
        (0.65 * d, 0.5), (0.4 * d, 0.8), (0.85 * d, 0.3), (0.25 * d, 1.0),
        (0.4, 0.5), (0.7, 0.5), (1.1, 0.3), (1.6, 0.2),
    ):
        p = np.array([np.log(s_seed)] * 3 + [0.0, 0.0, np.log(b_seed * eta2)])
        try:
            r = values(p) - goal
        except GeometryError:
            continue
        lam = 1e-8
        ok = True
        for _ in range(400):
            if np.abs(r).max() < tol:
                break
            jac = np.empty((6, 6))
            h = 1e-7
            for j in range(6):
                pp = p.copy()
                pp[j] += h
                try:
                    jac[:, j] = (values(pp) - (r + goal)) / h
                except GeometryError:
                    try:
                        pp[j] = p[j] - h
                        jac[:, j] = ((r + goal) - values(pp)) / h
                    except GeometryError:
                        jac[:, j] = 0.0
            improved = False
            for _ in range(35):
                a = jac.T @ jac + lam * np.eye(6)
                step = np.linalg.solve(a, -jac.T @ r)
                try:
                    p_new = np.clip(p + step, lo, hi)
                    r_new = values(p_new) - goal
                    if np.linalg.norm(r_new) < np.linalg.norm(r):
                        p = p_new
                        r = r_new
                        lam = max(lam / 4.0, 1e-12)
                        improved = True
                        break
                except GeometryError:
                    pass
                lam = max(lam, 1e-8) * 8.0
            if not improved:
                ok = False
                break
        else:
            ok = False
        if ok and np.abs(r).max() < tol:
            disk, _ = _scalar_two_cone_disk(eta1, d, p)
            rims, betas = catalog._disk_rim_data(disk)
            if abs(betas[2] - rim_angles[2]) > 1e-7:
                raise LinkRealizationError(
                    "collar data inconsistent: the closing angle differs by "
                    f"{abs(betas[2] - rim_angles[2]):.3e}; the removed disk does not "
                    f"carry an elliptic holonomy of angle {theta:.6g}"
                )
            return disk
        best = r if best is None or np.linalg.norm(r) < np.linalg.norm(best) else best
    raise LinkRealizationError(
        "two-cone disk fit did not converge; residual "
        + (f"{np.abs(best).max():.3e}" if best is not None else "n/a")
    )


@pytest.fixture(scope="session")
def scalar_two_cone_disk():
    """Reference for catalog._disk_collar and two_cone_disk_from_params:
    (disk, realized eta2) of one parameter set, raising GeometryError where
    the development leaves the hyperbolic plane."""
    return _scalar_two_cone_disk


@pytest.fixture(scope="session")
def sequential_disk_fit():
    """Reference for catalog.fit_two_cone_disk: the eight seeds run one
    after the other, each Jacobian column and each damping rung from its own
    disk.  Outcomes are kept for the session."""
    done = {}

    def fit(rim_lengths, rim_angles, eta1, eta2, theta):
        key = (tuple(rim_lengths), tuple(rim_angles), eta1, eta2, theta)
        if key not in done:
            try:
                done[key] = _sequential_disk_fit(rim_lengths, rim_angles, eta1, eta2, theta)
            except LinkRealizationError as err:
                done[key] = err
        if isinstance(done[key], LinkRealizationError):
            raise done[key]
        return done[key]

    return fit
