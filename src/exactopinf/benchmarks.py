"""The three bundled PDE test systems with their published setups.

Each builder takes its spec and returns ``(fom, signal, x0)``: a
:class:`~exactopinf.fom.PolynomialFOM` with both black-box and structured
(multilinear) access, the input signal as a function ``t -> u`` (``None``
without inputs) and the initial condition.  Each spec also declares the
bounds ``exactopinf experiment`` checks.  Parameters can be overridden
through a plain key-value config file for sensitivity studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fom import PolynomialFOM


@dataclass(frozen=True)
class Threshold:
    """A bound on one per-``n`` metric of a sweep (a key of ``build_report``'s mapping).

    An upper bound holds when ``value < bound``, a lower bound when
    ``value >= bound``; NaN holds neither.
    """

    metric: str
    bound: float
    upper: bool = True

    def holds(self, value: float) -> bool:
        return value < self.bound if self.upper else value >= self.bound


@dataclass(frozen=True)
class BenchmarkSpec:
    """Grid, horizon, sweep settings and pass/fail bounds of one test system."""

    name: str
    N: int
    dt_pod: float
    T: float
    degree_set: tuple[int, ...]
    n_u: int
    n_max: int
    scheme: str = "explicit_euler"
    c1: float | None = None
    c2: float | None = None
    # amplitude of the rank-ensuring states (see ``rank_ensuring_pairs``)
    state_scale: float = 1.0
    thresholds: tuple[Threshold, ...] = ()

    @property
    def K_pod(self) -> int:
        return round(self.T / self.dt_pod)


CHAFEE_INFANTE = BenchmarkSpec(
    name="chafee_infante",
    N=128,
    dt_pod=1e-5,
    T=0.1,
    degree_set=(1, 2, 3),
    n_u=1,
    n_max=14,
    thresholds=(
        Threshold("relative_operator_error", 1e-9),
        # this discretization has no genuine quadratic term
        Threshold("quadratic_block_fraction", 1e-9),
    ),
)

SHALLOW_ICE = BenchmarkSpec(
    name="shallow_ice",
    N=512,
    dt_pod=1e-3,
    T=2.0,
    degree_set=(3, 8),
    n_u=0,
    n_max=7,
    scheme="implicit_euler",
    c1=8.9e-13,
    c2=2.8e7,
    thresholds=(Threshold("relative_operator_error", 1e-6),),
)

BURGERS = BenchmarkSpec(
    name="burgers",
    N=128,
    dt_pod=1e-4,
    T=1.0,
    degree_set=(1, 2),
    n_u=0,
    n_max=10,
    # at unit amplitude the linear term (|A1| ~ 1.4e4) swamps the quadratic
    # one (|A2| ~ 18) in the stepped data, and the rounding of the linear
    # part, about eps * |A1|, lands in the quadratic block; eight lifts the
    # quadratic part of the data eightfold against the linear part, and a
    # power of two keeps the scaled states and features exact
    state_scale=8.0,
    thresholds=(
        Threshold("relative_operator_error", 1e-9),
        Threshold("energy_violation", 1e-11),
        Threshold("symmetry_violation", 1e-12),
        Threshold("diffusion_spectrum_min", -1e-10, upper=False),
    ),
)

SPECS = {spec.name: spec for spec in (CHAFEE_INFANTE, SHALLOW_ICE, BURGERS)}

# config key: the ``BenchmarkSpec`` field it overrides and its type
CONFIG_KEYS = {
    "N": ("N", int),
    "dt": ("dt_pod", float),
    "T": ("T", float),
    "c1": ("c1", float),
    "c2": ("c2", float),
}


def parse_config(path) -> dict:
    """Read ``key = value`` overrides; '#' starts a comment.

    Recognized keys: N (an integer), dt, T, c1, c2 (numbers).  Unknown
    keys, a value that does not parse or is not finite, and a non-positive
    N, dt or T raise a ``ValueError`` naming the line.
    """
    positive = ("N", "dt", "T")
    overrides = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            kind = CONFIG_KEYS[key][1]
            try:
                number = kind(value)
            except ValueError:
                wording = "an integer" if kind is int else "a number"
                raise ValueError(
                    f"{path}:{lineno}: {key} must be {wording}, got {value!r}"
                ) from None
            if not (math.isfinite(number) and (number > 0 or key not in positive)):
                wording = "positive and finite" if key in positive else "finite"
                raise ValueError(f"{path}:{lineno}: {key} must be {wording}, got {value!r}")
            overrides[key] = number
    return overrides


def apply_overrides(spec: BenchmarkSpec, overrides: dict) -> BenchmarkSpec:
    """``spec`` with the :func:`parse_config` overrides applied.

    A key whose field ``spec`` leaves ``None`` (``c1``, ``c2`` of a system
    without those coefficients) raises a ``ValueError`` naming the key:
    the system's builder would not read it.
    """
    for key in overrides:
        if getattr(spec, CONFIG_KEYS[key][0]) is None:
            raise ValueError(f"{spec.name} has no parameter {key!r} to override")
    return replace(spec, **{CONFIG_KEYS[k][0]: v for k, v in overrides.items()})


def build(spec: BenchmarkSpec):
    """``(fom, signal, x0)`` of the system ``spec`` names, from ``build_<name>``."""
    return globals()["build_" + spec.name](spec)


def build_chafee_infante(spec: BenchmarkSpec = CHAFEE_INFANTE):
    """Reaction-diffusion system with cubic decay on (0, 1).

    Unknowns sit at cell centers; the left boundary value ``u`` enters the
    first node's second difference through the Dirichlet ghost ``2u - x_1``,
    the right boundary is homogeneous Neumann.  Degree 2 is carried in the
    degree set with a zero operator.

    Returns ``(fom, signal, x0)``.
    """
    N = spec.N
    dxi = 1.0 / N
    inv2 = 1.0 / dxi**2

    A1 = np.zeros((N, N))
    idx = np.arange(N)
    A1[idx, idx] = -2.0 * inv2
    A1[idx[:-1], idx[:-1] + 1] = inv2
    A1[idx[1:], idx[1:] - 1] = inv2
    A1[0, 0] = -3.0 * inv2  # Dirichlet ghost 2u - x_1 half a cell left of the wall
    A1[N - 1, N - 1] = -inv2  # Neumann ghost mirrors the last node
    A1 += np.eye(N)  # linear growth term

    B = np.zeros((N, 1))
    B[0, 0] = 2.0 * inv2

    def rhs(x, u):
        return A1 @ x - x**3 + B @ u

    multilinear = {
        1: lambda a: A1 @ a,
        2: lambda a, b: np.zeros_like(a),
        3: lambda a, b, c: -(a * b * c),
    }

    fom = PolynomialFOM(
        dimension=N,
        degree_set=spec.degree_set,
        n_u=spec.n_u,
        rhs=rhs,
        multilinear=multilinear,
        input_map=lambda u: B @ u,
    )
    signal = lambda t: np.array([10.0 * (math.sin(math.pi * t) + 1.0)])
    x0 = np.zeros(N)
    return fom, signal, x0


def build_shallow_ice(spec: BenchmarkSpec = SHALLOW_ICE):
    """Ice-thickness transport on [0, 1000] with degree-3 and degree-8 terms.

    Spatial derivatives are central differences at cell centers with
    homogeneous-Neumann ghost values.  The degree-8 multilinear map
    symmetrizes over which three of the eight arguments take the derivative
    role; the degree-3 map over which one of three does.  The state
    Jacobian is tridiagonal and returned as its ``(1, 1)`` band, a ``(3, N)``
    array of its three diagonals in LAPACK band storage.

    Returns ``(fom, None, x0)``.
    """
    N = spec.N
    dxi = 1000.0 / N
    c1 = spec.c1
    c2 = spec.c2

    def dx(v):
        out = np.empty_like(v)
        out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dxi)
        out[0] = (v[1] - v[0]) / (2.0 * dxi)
        out[-1] = (v[-1] - v[-2]) / (2.0 * dxi)
        return out

    # dx as a matrix has off-diagonals -off (below) and +off (above); its
    # diagonal is zero except at the two Neumann ghost rows
    off = 1.0 / (2.0 * dxi)
    dx_diag = np.zeros(N)
    dx_diag[0] = -off
    dx_diag[-1] = off

    def rhs(x, u):
        g = dx(x)
        return c1 * x**2 * g + c2 * x**5 * g**3

    def jacobian(x, u):
        # diag(a) + diag(b) @ dx; ab[1 + i - j, j] is the entry in row i, column j
        g = dx(x)
        a = 2.0 * c1 * x * g + 5.0 * c2 * x**4 * g**3
        b = c1 * x**2 + 3.0 * c2 * x**5 * g**2
        ab = np.zeros((3, N))
        ab[0, 1:] = off * b[:-1]
        ab[1] = a + b * dx_diag
        ab[2, :-1] = -off * b[1:]
        return (1, 1), ab

    def h3(a, b, c):
        return (c1 / 3.0) * (a * b * dx(c) + a * dx(b) * c + dx(a) * b * c)

    def h8(*vs):
        # the sum over three derivative arguments is the t^3 coefficient of
        # prod_k (v_k + t dx(v_k)); e[j] is the running t^j coefficient
        if len(vs) != 8:
            raise ValueError("expected 8 arguments")
        e = [vs[0], dx(vs[0]), 0.0, 0.0]
        for v in vs[1:]:
            d = dx(v)
            e = [e[0] * v, e[1] * v + e[0] * d, e[2] * v + e[1] * d, e[3] * v + e[2] * d]
        return (c2 / math.comb(8, 3)) * e[3]

    fom = PolynomialFOM(
        dimension=N,
        degree_set=spec.degree_set,
        n_u=0,
        rhs=rhs,
        multilinear={3: h3, 8: h8},
        jacobian=jacobian,
    )
    xi = (np.arange(N) + 0.5) * dxi
    s = xi / 2000.0
    x0 = 1e-2 + 630.0 * (s + 0.25) ** 4 * (s - 0.75) ** 4
    return fom, None, x0


def build_burgers(spec: BenchmarkSpec = BURGERS):
    """Viscous Burgers flow on the periodic interval (-1, 1).

    Diffusion is the periodic central second difference (symmetric,
    negative semi-definite).  Convection uses the split form
    ``-(1/3) (D(x*x) + x*(Dx))`` with the skew-symmetric periodic central
    first difference ``D``, which annihilates the state exactly:
    ``x . C(x) = 0`` for every ``x``.

    Returns ``(fom, None, x0)``.
    """
    N = spec.N
    dxi = 2.0 / N
    inv2 = 1.0 / dxi**2

    def d1(v):
        return (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / (2.0 * dxi)

    def d2(v):
        return (np.roll(v, -1, axis=0) - 2.0 * v + np.roll(v, 1, axis=0)) * inv2

    def rhs(x, u):
        return d2(x) - (1.0 / 3.0) * (d1(x * x) + x * d1(x))

    def h2(a, b):
        return -(1.0 / 3.0) * (d1(a * b) + 0.5 * (a * d1(b) + b * d1(a)))

    fom = PolynomialFOM(
        dimension=N,
        degree_set=spec.degree_set,
        n_u=0,
        rhs=rhs,
        multilinear={1: d2, 2: h2},
    )
    xi = -1.0 + dxi * np.arange(N)
    x0 = -np.sin(0.5 * np.pi * xi)
    return fom, None, x0
