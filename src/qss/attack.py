"""Evan's coherent individual attack and the resulting security quantities.

The attack acts only on the two-dimensional span {|xi>|0>, |xibar>|0>} of the
Bob register plus a one-qubit probe; the protocol state never leaves that
span, so the map is implemented as an isometry there and nowhere else.

Register layout of the tripartite state: Alice is qubit 0, the 2M-1 Bobs are
qubits 1..2M-1, Evan's probe is qubit 2M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .qsim import DensityMatrix, PauliString, PureState, expectation, reduce_state
from .states import CARRIERS, branch_weights, branch_y_sign

__all__ = [
    "AttackScenario",
    "TripartiteState",
    "attacked_state",
    "check_phi_grid",
    "rho_ae",
    "coalition_collapse",
    "binary_entropy",
    "mutual_info_ab",
    "mutual_info_ae",
    "exact_mutual_info_ab",
    "qber_x",
]


def check_phi_grid(grid) -> None:
    """Raise ``InvalidArgument`` unless every attack angle of ``grid`` lies in
    the domain [0, pi/2], up to 1e-12 of roundoff; NaN lies outside."""
    if not np.all((0.0 <= grid) & (grid <= math.pi / 2 + 1e-12)):
        raise InvalidArgument("phi grid must lie within [0, pi/2]")


def _check_phi(phi: float) -> None:
    """One attack angle's domain: the grid check's, with the angle named."""
    try:
        check_phi_grid(phi)
    except InvalidArgument:
        raise InvalidArgument(f"phi must be in [0, pi/2], got {phi}") from None


@dataclass(frozen=True)
class AttackScenario:
    """Carrier family, qubit count N = 2m, and attack angle phi (radians)."""

    carrier: str
    m: int
    phi: float

    def __post_init__(self):
        if self.carrier not in CARRIERS:
            raise InvalidArgument(f"carrier must be one of {CARRIERS}, got {self.carrier!r}")
        if self.m < 1:
            raise InvalidArgument(f"m must be >= 1, got {self.m}")
        _check_phi(self.phi)

    @property
    def n_parties(self) -> int:
        return 2 * self.m


def _abe(phi: float, xi: np.ndarray, xibar: np.ndarray) -> np.ndarray:
    """Amplitudes of (|0,xi,0> + cos phi |1,xibar,0> + sin phi |1,xi,1>)/sqrt(2)
    for Alice, the Bob register in branch xi or xibar, and Evan's probe."""
    xi, xibar = np.asarray(xi), np.asarray(xibar)
    # axes (Alice, Bob register, probe)
    abe = np.zeros((2, xi.size, 2), dtype=complex)
    abe[0, :, 0] = xi
    abe[1, :, 0] = math.cos(phi) * xibar
    abe[1, :, 1] = math.sin(phi) * xi
    return abe.reshape(-1) / np.sqrt(2.0)


@dataclass(frozen=True)
class TripartiteState:
    """Alice, the Bobs, and Evan's probe after the attack, as its scenario: the
    orthonormal branches |xi>, |xibar> let every reader treat the Bob register
    as one qubit, so no 2^(2m+1)-amplitude state is built."""

    scenario: AttackScenario


def attacked_state(scenario: AttackScenario) -> TripartiteState:
    """The state after Evan's attack on the carrier, for any m."""
    return TripartiteState(scenario)


def rho_ae(t: TripartiteState) -> DensityMatrix:
    """Alice + Evan's probe (two qubits), with |xi>, |xibar> as |0>, |1>."""
    return reduce_state(PureState(3, _abe(t.scenario.phi, *np.eye(2))), (0, 2))


def coalition_collapse(t: TripartiteState, kept_bob: int) -> DensityMatrix:
    """Two-qubit (Alice, B_k) state after the other Bobs post-select.

    For the G carrier the other 2M-2 Bobs project in the sigma_z basis onto
    the all-|0> pattern; for the GHZ carrier they project in sigma_x onto
    all-plus.  Both branches are permutation symmetric, so every kept Bob
    gives the same state: B_k's amplitude b in the branch on the weights W is,
    up to a factor both branches share, sum_w N(w) [w + b in W].
    """
    m, carrier = t.scenario.m, t.scenario.carrier
    if m < 2:
        raise InvalidArgument("coalition collapse needs m >= 2 (at least two Bobs)")
    if not 1 <= kept_bob <= 2 * m - 1:
        raise InvalidArgument(f"kept_bob must be a Bob qubit in [1, {2 * m - 1}]")
    # N(w) = C(r, w) counts the others' weight-w basis states the pattern
    # overlaps, all equally: only |0...0> (r = 0) for G, every one of them
    # (r = 2M-2) for the all-plus pattern of GHZ
    r = 2 * m - 2 if carrier == "GHZ" else 0
    xi, xibar = (
        [float(sum(math.comb(r, v - b) for v in set(weights) if v >= b)) for b in (0, 1)]
        for weights in branch_weights(carrier, m)
    )
    amps = _abe(t.scenario.phi, xi, xibar)
    return reduce_state(PureState(3, amps / np.linalg.norm(amps)), (0, 1))


def binary_entropy(p: float) -> float:
    """H(p) in bits, with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise InvalidArgument(f"probability must be in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def mutual_info_ab(phi: float) -> float:
    """Closed-form I(A:B) = 1 - H((1 + cos phi)/2) in bits."""
    _check_phi(phi)
    return 1.0 - binary_entropy((1.0 + math.cos(phi)) / 2.0)


def mutual_info_ae(phi: float) -> float:
    """Closed-form I(A:E); equals I(A:B) at the complementary angle, which
    roundoff can take below 0 when phi is pi/2."""
    _check_phi(phi)
    return mutual_info_ab(max(0.0, math.pi / 2 - phi))


def qber_x(phi: float) -> float:
    """Probability that Alice's bit disagrees with the Bobs' product bit."""
    _check_phi(phi)
    return (1.0 - math.cos(phi)) / 2.0


def exact_mutual_info_ab(scenario: AttackScenario) -> float:
    """I(A:B) from the exact outcome distribution of the attacked state.

    Both all-x and all-y measurement rounds are exercised with equal weight,
    matching the sifted-round average of the protocol.  Each round's joint law
    of Alice's outcome and the Bobs' product comes from three expectations on
    the three qubits (Alice, branch, probe), at any m.
    """
    state = PureState(3, _abe(scenario.phi, *np.eye(2)))
    joints = []
    # on the branch span the Bobs' all-x product acts as X, the all-y one as s*Y
    for basis, sign in (("X", 1), ("Y", branch_y_sign(scenario.carrier, scenario.m))):
        ea = expectation(state, PauliString(basis + "II"))
        eb = sign * expectation(state, PauliString("I" + basis + "I"))
        eab = sign * expectation(state, PauliString(basis * 2 + "I"))
        # P(a, b) = (1 + a<A> + b<B> + ab<AB>)/4 for Alice's outcome a and the
        # Bobs' product b; row and column 0 are the outcome +1
        joint = np.array([[1 + ea + eb + eab, 1 + ea - eb - eab],
                          [1 - ea + eb - eab, 1 - ea - eb + eab]]) / 4.0
        # roundoff can leave entries a few ulp outside [0, 1]
        joints.append(np.clip(joint, 0.0, 1.0))
    h_cond = 0.0
    for joint in joints:
        h = 0.0
        for j in range(2):
            pb = joint[:, j].sum()
            if pb > 0.0:
                h += pb * binary_entropy(joint[0, j] / pb)
        h_cond += 0.5 * h
    p_alice = joints[0].sum(axis=1)[0]
    return binary_entropy(p_alice) - h_cond

