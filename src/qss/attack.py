"""Evan's coherent individual attack and the resulting security quantities.

The attack acts only on the two-dimensional span {|xi>|0>, |xibar>|0>} of the
Bob register plus a one-qubit probe; the protocol state never leaves that
span, so the map is implemented as an isometry there and nowhere else.

Register layout of the tripartite state: Alice is qubit 0, the Bob register
(as the branch qubit, |xi> = |0>, |xibar> = |1>) qubit 1, Evan's probe qubit 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .qsim import DensityMatrix, PauliString, PureState, expectation, reduce_state
from .states import branch_y_sign, carrier_weights

__all__ = [
    "AttackScenario",
    "TripartiteState",
    "attacked_state",
    "check_phi_grid",
    "rho_ae",
    "coalition_collapse",
    "entropy",
    "binary_entropy",
    "mutual_info_ab",
    "mutual_info_ae",
    "exact_mutual_info_ab",
    "qber_x",
]


def check_phi_grid(grid) -> None:
    """Raise ``InvalidArgument`` naming the first attack angle of ``grid``, one
    angle or an array of them, outside the domain [0, pi/2], up to 1e-12 of
    roundoff; NaN lies outside."""
    grid = np.asarray(grid, dtype=float)
    outside = ~((0.0 <= grid) & (grid <= math.pi / 2 + 1e-12))
    if outside.any():
        raise InvalidArgument(f"phi must be in [0, pi/2], got {grid[outside][0]}")


@dataclass(frozen=True)
class AttackScenario:
    """Carrier family, qubit count N = 2m, and attack angle phi (radians)."""

    carrier: str
    m: int
    phi: float

    def __post_init__(self):
        if self.m < 1:
            raise InvalidArgument(f"m must be >= 1, got {self.m}")
        carrier_weights(self.carrier, 2 * self.m)  # refuses an unknown carrier
        check_phi_grid(self.phi)

    @property
    def n_parties(self) -> int:
        return 2 * self.m


@dataclass(frozen=True)
class TripartiteState:
    """Alice, the Bobs, and Evan's probe after the attack, on the branch span:
    the orthonormal branches |xi>, |xibar> of the Bob register are |0>, |1> of
    one branch qubit, so ``abe`` is the (Alice, branch, probe) state at any m
    and no 2^(2m+1)-amplitude state is built."""

    scenario: AttackScenario
    abe: PureState


def attacked_state(scenario: AttackScenario) -> TripartiteState:
    """(|0,xi,0> + cos phi |1,xibar,0> + sin phi |1,xi,1>)/sqrt(2), the state
    after Evan's attack on the carrier, for any m."""
    abe = np.zeros((2, 2, 2), dtype=complex)
    abe[0, 0, 0] = 1.0
    abe[1, 1, 0] = math.cos(scenario.phi)
    abe[1, 0, 1] = math.sin(scenario.phi)
    return TripartiteState(scenario, PureState(3, abe.reshape(-1) / np.sqrt(2.0)))


def rho_ae(t: TripartiteState) -> DensityMatrix:
    """Alice + Evan's probe (two qubits)."""
    return reduce_state(t.abe, (0, 2))


def coalition_collapse(t: TripartiteState, kept_bob: int) -> DensityMatrix:
    """Two-qubit (Alice, B_k) state after the other Bobs post-select.

    For the G carrier the other 2M-2 Bobs project in the sigma_z basis onto
    the all-|0> pattern; for the GHZ carrier they project in sigma_x onto
    all-plus.  Both branches are permutation symmetric, so every kept Bob
    gives the same state.
    """
    m = t.scenario.m
    if m < 2:
        raise InvalidArgument("coalition collapse needs m >= 2 (at least two Bobs)")
    if not 1 <= kept_bob <= 2 * m - 1:
        raise InvalidArgument(f"kept_bob must be a Bob qubit in [1, {2 * m - 1}]")
    # B_k's amplitudes in |xi> and |xibar>, up to a factor both share, are unit
    # rows at every M >= 2: for G the others' |0...0> keeps only weight 1 of
    # xi's shells (1, 2M-1), B_k at 1, and weight 0 of xibar's (2M-2, 0), B_k
    # at 0, so B_k is the branch qubit flipped; the GHZ branches are |0...0>
    # and |1...1>, and all-plus overlaps the others' part of both equally
    amps = t.abe.amplitudes.reshape(2, 2, 2)
    if t.scenario.carrier == "G":
        amps = amps[:, ::-1]
    amps = amps.reshape(-1)
    return reduce_state(PureState(3, amps / np.linalg.norm(amps)), (0, 1))


def entropy(probs) -> float:
    """H in bits of a law, with 0 log 0 = 0, its terms summed in the given order."""
    return 0.0 - sum(q * math.log2(q) for q in probs if q > 0.0)


def binary_entropy(p: float) -> float:
    """H(p) in bits, with 0 log 0 = 0."""
    if not 0.0 <= p <= 1.0:
        raise InvalidArgument(f"probability must be in [0, 1], got {p}")
    return entropy((p, 1.0 - p))


def mutual_info_ab(phi: float) -> float:
    """Closed-form I(A:B) = 1 - H((1 + cos phi)/2) in bits."""
    check_phi_grid(phi)
    return 1.0 - binary_entropy((1.0 + math.cos(phi)) / 2.0)


def mutual_info_ae(phi: float) -> float:
    """Closed-form I(A:E); equals I(A:B) at the complementary angle, which
    roundoff can take below 0 when phi is pi/2."""
    check_phi_grid(phi)
    return mutual_info_ab(max(0.0, math.pi / 2 - phi))


def qber_x(phi: float) -> float:
    """Probability that Alice's bit disagrees with the Bobs' product bit."""
    check_phi_grid(phi)
    return (1.0 - math.cos(phi)) / 2.0


def exact_mutual_info_ab(scenario: AttackScenario) -> float:
    """I(A:B) from the exact outcome distribution of the attacked state.

    Both all-x and all-y measurement rounds are exercised with equal weight,
    matching the sifted-round average of the protocol.  Each round's joint law
    of Alice's outcome and the Bobs' product comes from three expectations on
    the three qubits (Alice, branch, probe), at any m.
    """
    state = attacked_state(scenario).abe
    info = 0.0
    # on the branch span the Bobs' all-x product acts as X, the all-y one as s*Y
    for basis, sign in (("X", 1), ("Y", branch_y_sign(scenario.carrier, scenario.m))):
        ea = expectation(state, PauliString(basis + "II"))
        eb = sign * expectation(state, PauliString("I" + basis + "I"))
        eab = sign * expectation(state, PauliString(basis * 2 + "I"))
        # P(a, b) = (1 + a<A> + b<B> + ab<AB>)/4 for Alice's outcome a and the
        # Bobs' product b; row and column 0 are the outcome +1.  Roundoff can
        # leave entries a few ulp outside [0, 1]
        joint = np.clip(np.array([[1 + ea + eb + eab, 1 + ea - eb - eab],
                                  [1 - ea + eb - eab, 1 - ea - eb + eab]]) / 4.0, 0.0, 1.0)
        info += 0.5 * (entropy(joint.sum(1)) + entropy(joint.sum(0)) - entropy(joint.flat))
    return info
