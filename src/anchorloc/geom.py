"""Pinhole camera model and SE(3) pose utilities.

Pose convention is world-to-camera everywhere: ``x_cam = R @ x_world + t``
with the rotation stored as a unit quaternion ``(w, x, y, z)``. Pose
increments are minimal 6-vectors ``(rotation tangent, translation)``
applied by left multiplication, so quaternions never enter the solvers'
parameter blocks.

Projection and its pose Jacobian exist only in stacked form
(``project_many``, ``pose_jacobian_many``), the form every solver calls;
a point's Jacobian block is the translation block times ``R``. The
scalar oracles the tests compare them with live in ``tests/conftest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


# ---------------------------------------------------------------------------
# quaternion helpers


def quat_normalize(q):
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ValueError("zero quaternion")
    q = q / n
    # canonical sign keeps serialization deterministic
    if q[0] < 0.0:
        q = -q
    return q


def quat_mul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_to_mat(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def mat_to_quat(R):
    R = np.asarray(R, dtype=float)
    tr = np.trace(R)
    if tr > 0:
        s = np.sqrt(tr + 1.0) * 2
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] > R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    return quat_normalize(q)


def so3_exp_quat(w):
    """Axis-angle 3-vector -> unit quaternion."""
    w = np.asarray(w, dtype=float)
    theta = np.linalg.norm(w)
    if theta < 1e-12:
        q = np.array([1.0, 0.5 * w[0], 0.5 * w[1], 0.5 * w[2]])
        return quat_normalize(q)
    axis = w / theta
    half = 0.5 * theta
    return np.concatenate([[np.cos(half)], np.sin(half) * axis])


# ---------------------------------------------------------------------------
# domain types


@dataclass
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("sensor size must be positive")

    @property
    def K(self):
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )

    def in_bounds(self, uv):
        uv = np.atleast_2d(uv)
        return (
            (uv[:, 0] >= 0)
            & (uv[:, 0] <= self.width - 1)
            & (uv[:, 1] >= 0)
            & (uv[:, 1] <= self.height - 1)
        )


@dataclass
class Pose:
    """World-to-camera rigid transform."""

    q: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0, 0.0]))
    t: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.q = quat_normalize(self.q)
        self.t = np.asarray(self.t, dtype=float).copy()

    @staticmethod
    def identity():
        return Pose()

    @staticmethod
    def from_rt(R, t):
        return Pose(mat_to_quat(R), np.asarray(t, dtype=float))

    @property
    def R(self):
        return quat_to_mat(self.q)

    def center(self):
        """Camera center in world coordinates."""
        return -self.R.T @ self.t

    def view_direction(self):
        """Optical axis direction in world coordinates."""
        return self.R.T @ np.array([0.0, 0.0, 1.0])

    def retract(self, delta) -> "Pose":
        """Left-multiply by exp of a (rot tangent, translation) 6-vector."""
        delta = np.asarray(delta, dtype=float)
        dq = so3_exp_quat(delta[:3])
        dR = quat_to_mat(dq)
        return Pose(quat_mul(dq, self.q), dR @ self.t + delta[3:])

    def copy(self) -> "Pose":
        return Pose(self.q.copy(), self.t.copy())


# ---------------------------------------------------------------------------
# projection

# The stop of solvers.pnp.levenberg_marquardt, the one loop that runs
# refine_pose, refine_relative_pose and bundle_adjust: an accepted step
# that lowers the cost by at most this share of it ends the run.
CONVERGENCE_TOL = 1e-8


def project_many(R, t, intr, pts):
    """Project (n,3) points; returns ((n,2) pixels, (n,) depths).

    A stack of m poses, R (m,3,3) and t (m,3), projects the points under
    each: ((m,n,2) pixels, (m,n) depths); pts may then also be (m,n,3).
    Pixels for non-positive depths are garbage; callers must gate on z.
    """
    q = pts @ np.swapaxes(R, -1, -2) + t[..., None, :]
    z = q[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = np.stack(
            [intr.fx * q[..., 0] / z + intr.cx, intr.fy * q[..., 1] / z + intr.cy], axis=-1
        )
    return uv, z


def pose_jacobian_many(R, t, intr, pts):
    """Pose blocks of the reprojection residual for (n,3) points, (n,2,6).

    Taken w.r.t. a left-multiplied (rot tangent, translation) increment;
    the point block is the translation block times R. A stack of m poses,
    R (m,3,3) and t (m,3), gives (m,n,2,6) as in project_many; pts may
    then also be (m,n,3). Rows for non-positive depths are garbage; callers
    must gate on depth.
    """
    q = pts @ np.swapaxes(R, -1, -2) + t[..., None, :]
    X, Y, Z = q[..., 0], q[..., 1], q[..., 2]
    fx, fy = intr.fx, intr.fy
    J = np.zeros(q.shape[:-1] + (2, 6))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x, y, iz = X / Z, Y / Z, 1.0 / Z
        # Jproj @ -[q]_x for the rotation tangent, Jproj for the translation
        J[..., 0, 0] = -fx * x * y
        J[..., 0, 1] = fx * (1.0 + x * x)
        J[..., 0, 2] = -fx * y
        J[..., 0, 3] = fx * iz
        J[..., 0, 5] = -fx * x * iz
        J[..., 1, 0] = -fy * (1.0 + y * y)
        J[..., 1, 1] = fy * x * y
        J[..., 1, 2] = fy * x
        J[..., 1, 4] = fy * iz
        J[..., 1, 5] = -fy * y * iz
    return J
