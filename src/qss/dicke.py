"""Shared-plane frames of permutation-symmetric states, worked on their
Dicke vectors.

A symmetric n-qubit state is fixed by its n + 1 amplitudes c_w on the
normalized Dicke states |D_w>, w the number of 1s.  Rotating every party
alike keeps it symmetric, so a frame in which every party measures in one
plane is read on c alone: ``plane_model`` gives the plane sum, with its
gradient and Hessian, as a function of the plane's normal, and
``refine_block`` climbs it from many starting normals at once.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["plane_axes", "plane_model", "refine_block"]

#: Steps a restart may take, and the gain the quadratic model must promise,
#: relative to max(1, value), for it to take another.
_MAX_STEPS = 100
_STOP_GAIN = 1e-14

#: Factors from Re(conj(c') d) to q and its first derivatives, and the
#: derivative pairs (aa, bb, ab) of the Hessian.
_Q_SCALE = np.array([[1.0], [2.0], [2.0]])
_HESS_ROWS, _HESS_COLS = np.array([1, 2, 1]), np.array([1, 2, 2])


def _spin(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S_x, S_y and the diagonal of S_z of spin n/2 on the Dicke basis |D_w>,
    w the number of 1s, with S_z = w - n/2."""
    w = np.arange(n)
    up = np.diag(np.sqrt((w + 1.0) * (n - w)), -1)  # S+ |D_w> = sqrt((w+1)(n-w)) |D_w+1>
    return (up + up.T) / 2, (up - up.T) / 2j, np.arange(n + 1) - n / 2


def plane_axes(th: float, ph: float) -> np.ndarray:
    """e_theta and e_phi, shape (2, 3): the axes of the plane whose normal is
    (sin th cos ph, sin th sin ph, cos th)."""
    ct, st, cp, sp = math.cos(th), math.sin(th), math.cos(ph), math.sin(ph)
    # 0.0 - x, unlike -x, leaves no -0.0 where sin is 0
    return np.array([[ct * cp, ct * sp, 0.0 - st], [0.0 - sp, cp, 0.0]])


def plane_model(dicke: np.ndarray):
    """The shared-plane sum of the pure symmetric state with Dicke vector
    ``dicke``, as a function of its planes' normal angles (th, ph), each of
    shape (b,).

    The function returns the values (b,), and the gradients (b, 2) and the
    Hessians' (aa, bb, ab) entries (b, 3) in the tangent coordinates (a, b)
    that tilt the normal towards e_theta and e_phi.  Rotating every party
    alike turns c into c' = exp(-i th S_y) exp(-i ph S_z) c, read through one
    eigendecomposition of S_y, and the tilts act on c' as exp(-i a S_y) and
    exp(-i b S_x).  By Parseval the value is
    2^n sum_w |c'_w|^2 |c'_{n-w}|^2 / C(n, w).
    """
    n = dicke.size - 1
    sx, sy, sz = _spin(n)
    lam, vecs = np.linalg.eigh(sy)
    to_eig, turn_ph, turn_th = vecs.conj(), -1j * sz, -1j * lam
    ga, gb = -1j * sy, -1j * sx
    gens = np.stack([np.eye(n + 1), ga, gb, ga @ ga, gb @ gb, (ga @ gb + gb @ ga) / 2])
    # from S_y's eigenbasis to c' and its five tilt derivatives, side by side
    out = (gens @ vecs).transpose(2, 0, 1).reshape(n + 1, -1)
    weight = np.array([2.0**n / math.comb(n, w) for w in range(n + 1)])

    def model(th: np.ndarray, ph: np.ndarray):
        # one (1, n+1) product per restart, so no block size changes its roundoff
        eig = (dicke * np.exp(ph[:, None] * turn_ph))[:, None] @ to_eig
        d = ((eig * np.exp(th[:, None, None] * turn_th)) @ out).reshape(th.size, 6, n + 1)
        re = (d[:, :1].conj() * d).real
        # q = |c'|^2 and its derivatives along a and b; y pairs w with n - w
        x = re[:, :3] * _Q_SCALE
        y = x[..., ::-1] * weight
        first = (y[:, :1] * x).sum(-1)
        # q's second derivatives along (a, a), (b, b) and (a, b)
        slopes = d[:, 1:3]
        cross = np.concatenate([slopes.conj() * slopes, slopes[:, :1].conj() * slopes[:, 1:]], 1)
        ddq = 2 * (cross.real + re[:, 3:])
        curvature = (y[:, _HESS_ROWS] * x[:, _HESS_COLS] + y[:, :1] * ddq).sum(-1)
        return first[:, 0], 2 * first[:, 1:], 2 * curvature

    return model


def _trust_step(grad: np.ndarray, hess: np.ndarray, radius: np.ndarray):
    """The tangent step (a, b), at most ``radius`` long, that the quadratic
    model rates higher of two, and the model's gain for it: the Newton step,
    and a step along the eigenvector of the Hessian's larger eigenvalue,
    turned uphill, which leaves a saddle or a ridge that the gradient hardly
    sees."""
    (g1, g2), (h11, h22, h12) = grad.T, hess.T

    def gain(a, b):
        return g1 * a + g2 * b + (h11 * a * a + 2 * h12 * a * b + h22 * b * b) / 2

    # -H^-1 g, none where H is singular, cut to the radius
    det = h11 * h22 - h12**2
    inv = 1.0 / np.where(det == 0, np.inf, det)
    na, nb = (h12 * g2 - h22 * g1) * inv, (h12 * g1 - h11 * g2) * inv
    cut = radius / np.maximum(np.hypot(na, nb), radius)
    na, nb = na * cut, nb * cut
    top = (h11 + h22) / 2 + np.hypot((h11 - h22) / 2, h12)
    ca, cb = np.where((h12 == 0) & (top == h11), 1.0, h12), top - h11
    stretch = np.where(ca * g1 + cb * g2 < 0, -radius, radius) / np.hypot(ca, cb)
    ca, cb = ca * stretch, cb * stretch
    newton_gain, curve_gain = gain(na, nb), gain(ca, cb)
    curve = curve_gain > newton_gain
    return np.where(curve, ca, na), np.where(curve, cb, nb), np.maximum(newton_gain, curve_gain)


def refine_block(model, rng: np.random.Generator, block: range):
    """Values and normal angles (th, ph) of the restarts in ``block``, all
    refined together by trust-region Newton steps on the sphere.  Restart 0's
    normal is z; the others' are drawn from ``rng`` in restart order."""
    v = rng.normal(size=(len(block) - (block.start == 0), 3))
    th = np.arctan2(np.hypot(v[:, 0], v[:, 1]), v[:, 2])
    ph = np.arctan2(v[:, 1], v[:, 0])
    if block.start == 0:
        th, ph = np.insert(th, 0, 0.0), np.insert(ph, 0, 0.0)
    value, grad, hess = model(th, ph)
    radius = np.full(th.size, 0.5)
    done = np.zeros(th.size, dtype=bool)
    for _ in range(_MAX_STEPS):
        a, b, gain = _trust_step(grad, hess, radius)
        done |= gain <= _STOP_GAIN * np.maximum(1.0, value)
        if done.all():
            break
        # the normal cos(l) n + sinc(l) (a e_theta + b e_phi) after a step
        # (a, b) of length l, along a great circle: in the meridian plane of
        # ph it has height z and reach r, and b turns it out of that plane
        length = np.hypot(a, b)
        sinc = np.sinc(length / np.pi)
        a, b = a * sinc, b * sinc
        z = np.cos(length) * np.cos(th) - a * np.sin(th)
        r = np.cos(length) * np.sin(th) + a * np.cos(th)
        new_th, new_ph = np.arctan2(np.hypot(r, b), z), ph + np.arctan2(b, r)
        new_value, new_grad, new_hess = model(new_th, new_ph)
        better = (new_value > value) & ~done
        th, ph = np.where(better, new_th, th), np.where(better, new_ph, ph)
        value = np.where(better, new_value, value)
        grad = np.where(better[:, None], new_grad, grad)
        hess = np.where(better[:, None], new_hess, hess)
        radius = np.where(better, np.maximum(radius, 2 * length), length / 4)
    return value, th, ph
