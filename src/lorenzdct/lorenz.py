"""Key schedule and deterministic integration of the Lorenz system.

The three coupled ODEs

    dx/dt = sigma * (y - x)
    dy/dt = x * (rho - z) - y
    dz/dt = x * y - beta * z

are integrated with a fixed-step classical Runge-Kutta scheme so that the
same key always regenerates the exact same trajectory, bit for bit, on any
IEEE-754 double platform.  Initial conditions come from a 6-character key
whose 48 bits are cyclically rotated three times and mapped affinely into
(0.1, 0.9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IntegrationDivergedError,
    InvalidKeyError,
    NoRealEquilibriaError,
)

_KEY_LEN = 6
_KEY_BITS = 48
_KEY_SPAN = 1 << _KEY_BITS

#: Default per-key rotation counts ("predefined number of shifts").
DEFAULT_ROTATIONS = (5, 11, 17)


@dataclass(frozen=True)
class LorenzParams:
    """System parameters: Rayleigh number rho, Prandtl number sigma, beta."""

    rho: float = 28.0
    sigma: float = 10.0
    beta: float = 8.0 / 3.0

    def __post_init__(self):
        for name in ("rho", "sigma", "beta"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")


@dataclass(frozen=True)
class State3:
    """A point (x, y, z) in state space."""

    x: float
    y: float
    z: float

    def as_tuple(self):
        return (self.x, self.y, self.z)


def check_rotations(rotations) -> tuple[int, int, int]:
    """One key's rotations as a tuple; InvalidKeyError unless three ints in [0, 47]."""
    if len(rotations) != 3:
        raise InvalidKeyError("exactly three rotation counts are required")
    for r in rotations:
        if isinstance(r, bool) or not (isinstance(r, int) and 0 <= r < _KEY_BITS):
            raise InvalidKeyError(f"rotation {r!r} outside [0, {_KEY_BITS - 1}]")
    return tuple(rotations)


@dataclass(frozen=True)
class SecretKey:
    """Six printable characters plus three cyclic rotation counts.

    Each rotation produces one initial condition, so a single key seeds a
    full (x0, y0, z0) triple.
    """

    chars: str
    rotations: tuple[int, int, int] = DEFAULT_ROTATIONS

    def __post_init__(self):
        if len(self.chars) != _KEY_LEN:
            raise InvalidKeyError(
                f"key must have exactly {_KEY_LEN} characters, got {len(self.chars)}"
            )
        for ch in self.chars:
            if not 32 <= ord(ch) <= 126:
                raise InvalidKeyError(
                    f"key character {ch!r} outside printable range 32..126"
                )
        object.__setattr__(self, "rotations", check_rotations(self.rotations))

    def bits(self) -> int:
        """The 48-bit integer: first character is the most significant byte."""
        u = 0
        for ch in self.chars:
            u = (u << 8) | ord(ch)
        return u


class Trajectory:
    """Sampled Lorenz solution: times plus x/y/z sequences of equal length.

    Arrays are frozen after construction; a Trajectory is an immutable value
    that can be shared freely across threads.
    """

    __slots__ = ("t", "x", "y", "z")

    def __init__(self, t, x, y, z):
        t, x, y, z = (np.asarray(a, dtype=np.float64) for a in (t, x, y, z))
        if not (t.shape == x.shape == y.shape == z.shape) or t.ndim != 1:
            raise ValueError("t, x, y, z must be 1-D arrays of equal length")
        for a in (t, x, y, z):
            a.setflags(write=False)
        self.t, self.x, self.y, self.z = t, x, y, z

    def __len__(self):
        return self.t.size


def _rotl48(u: int, r: int) -> int:
    r %= _KEY_BITS
    return ((u << r) | (u >> (_KEY_BITS - r))) & (_KEY_SPAN - 1)


def derive_initial_conditions(key: SecretKey) -> State3:
    """Map a secret key to an initial state inside the attractor basin.

    For each rotation r: rotate the 48 key bits left by r, map the result u
    affinely to 0.1 + 0.8 * u / 2**48, and round to 14 decimal places.  The
    output always lies in [0.1, 0.9], never at the origin fixed point.
    """
    u = key.bits()
    vals = []
    for r in key.rotations:
        ur = _rotl48(u, r)
        v = 0.1 + 0.8 * (ur / _KEY_SPAN)
        vals.append(round(v * 1e14) / 1e14)
    return State3(*vals)


def lorenz_derivative(s: State3, p: LorenzParams) -> State3:
    """Right-hand side of the Lorenz equations at state s."""
    return State3(
        p.sigma * (s.y - s.x),
        s.x * (p.rho - s.z) - s.y,
        s.x * s.y - p.beta * s.z,
    )


def equilibria(p: LorenzParams) -> tuple[State3, State3]:
    """The two nontrivial fixed points (+-sqrt(beta*(rho-1)), same, rho-1)."""
    if p.rho < 1:
        raise NoRealEquilibriaError(f"no real equilibria for rho={p.rho} < 1")
    q = math.sqrt(p.beta * (p.rho - 1.0))
    return (State3(q, q, p.rho - 1.0), State3(-q, -q, p.rho - 1.0))


def is_chaotic_regime(p: LorenzParams) -> bool:
    """Whether rho > 1, sigma > beta + 1 and rho clears the Hopf threshold.

    All three inequalities are strict; sigma = beta + 1 sits on the excluded
    boundary and returns False rather than dividing by zero.
    """
    if p.sigma <= p.beta + 1.0:
        return False
    if p.rho <= 1.0:
        return False
    return p.rho > p.sigma * (p.sigma + p.beta + 3.0) / (p.sigma - p.beta - 1.0)


def integrate(
    p: LorenzParams,
    s0: State3,
    t_end: float = 50.0,
    dt: float = 0.001,
) -> Trajectory:
    """Fixed-step classical RK4 integration from t = 0, sampled at i*dt.

    The update is evaluated in a fixed scalar order (no vectorized
    reductions), which pins the floating-point result across platforms.
    Raises IntegrationDivergedError if a state variable leaves the finite
    range.
    """
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    if not dt > 0:
        raise ValueError("dt must be positive")

    n_steps = int(math.floor(t_end / dt))
    sigma, rho, beta = p.sigma, p.rho, p.beta
    x, y, z = s0.x, s0.y, s0.z

    xs = [0.0] * (n_steps + 1)
    ys = [0.0] * (n_steps + 1)
    zs = [0.0] * (n_steps + 1)
    xs[0], ys[0], zs[0] = x, y, z

    half = dt / 2.0
    sixth = dt / 6.0
    for i in range(1, n_steps + 1):
        k1x = sigma * (y - x)
        k1y = x * (rho - z) - y
        k1z = x * y - beta * z

        ax, ay, az = x + half * k1x, y + half * k1y, z + half * k1z
        k2x = sigma * (ay - ax)
        k2y = ax * (rho - az) - ay
        k2z = ax * ay - beta * az

        bx, by, bz = x + half * k2x, y + half * k2y, z + half * k2z
        k3x = sigma * (by - bx)
        k3y = bx * (rho - bz) - by
        k3z = bx * by - beta * bz

        cx, cy, cz = x + dt * k3x, y + dt * k3y, z + dt * k3z
        k4x = sigma * (cy - cx)
        k4y = cx * (rho - cz) - cy
        k4z = cx * cy - beta * cz

        x = x + sixth * (k1x + 2.0 * (k2x + k3x) + k4x)
        y = y + sixth * (k1y + 2.0 * (k2y + k3y) + k4y)
        z = z + sixth * (k1z + 2.0 * (k2z + k3z) + k4z)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise IntegrationDivergedError(
                f"state became non-finite at step {i} (t={i * dt})"
            )
        xs[i], ys[i], zs[i] = x, y, z

    t = dt * np.arange(n_steps + 1, dtype=np.float64)
    return Trajectory(t, xs, ys, zs)
