"""Eavesdropping attack: attacked state, reduced states, information curves."""

import math

import numpy as np
import pytest

from qss import attack
from qss.errors import InvalidArgument
from qss.attack import (
    AttackScenario,
    attacked_state,
    binary_entropy,
    coalition_collapse,
    exact_mutual_info_ab,
    mutual_info_ab,
    mutual_info_ae,
    qber_x,
    rho_ae,
)
from qss.bell import horodecki_m
from qss.qsim import _apply_one, reduce_state
from qss.states import branch_weights, branch_y_sign, g_state, make_carrier_branches

import born
from born import dense_attacked_state, outcome_probabilities, project

PHI_GRID = np.linspace(0.0, math.pi / 2, 21)


def outer(v):
    return np.outer(v, v.conj())


def branch_images(phi, m=2):
    """Evan's images of |xi>|0> and |xibar>|0>, read off the attacked state:
    Alice's |0> and |1> halves of psi, times sqrt(2), as (Bobs, probe) arrays."""
    psi = dense_attacked_state(AttackScenario("G", m, phi)).amplitudes
    halves = psi.reshape(2, -1, 2) * np.sqrt(2.0)
    return halves[0], halves[1]


def born_joint(psi, basis):
    """Joint law of (Alice's outcome, the Bobs' product) from the dense Born
    table, Evan's probe summed out: entry [i, j], index 0 for +1."""
    n = psi.n_qubits - 1
    probs = outcome_probabilities(psi, basis * n + "I")
    idx = np.arange(2**n)
    # the product of +-1 outcomes is -1 iff an odd number of them are -1
    prod_bit = ((idx[:, None] >> np.arange(n - 1)) & 1).sum(axis=1) % 2
    return np.bincount(2 * (idx >> (n - 1)) + prod_bit, weights=probs, minlength=4).reshape(2, 2)


class TestUnitaryAction:
    def test_xi_branch_untouched(self):
        xi, _ = make_carrier_branches("G", 2)
        image, _ = branch_images(0.9)
        assert np.abs(image - np.outer(xi.amplitudes, [1.0, 0.0])).max() < 1e-12

    def test_xibar_branch_rotates(self):
        xi, xibar = make_carrier_branches("G", 2)
        _, image = branch_images(math.pi / 2)
        assert abs(np.vdot(np.outer(xibar.amplitudes, [1.0, 0.0]), image)) < 1e-12
        assert abs(np.vdot(np.outer(xi.amplitudes, [0.0, 1.0]), image)) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_isometry(self, phi):
        # the images keep the norms and the overlap (zero) of |xi>|0>, |xibar>|0>
        xi_image, xibar_image = branch_images(phi)
        assert np.linalg.norm(xibar_image) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(xi_image) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(xi_image, xibar_image)) < 1e-12


class TestAttackedState:
    @pytest.mark.parametrize("m", [2, 3])
    def test_no_attack_leaves_carrier_untouched(self, m):
        psi = dense_attacked_state(AttackScenario("G", m, 0.0))
        probe_zero = np.array([1.0, 0.0])
        expected = np.kron(g_state(2 * m).amplitudes, probe_zero)
        assert np.abs(psi.amplitudes - expected).max() < 1e-12

    def test_full_interception_structure(self):
        # phi = pi/2: |psi> = (|0, xi, 0> + |1, xi, 1>)/sqrt(2)
        m = 2
        psi = dense_attacked_state(AttackScenario("G", m, math.pi / 2))
        xi, _ = make_carrier_branches("G", m)
        e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        expected = (
            np.kron(np.kron(e0, xi.amplitudes), e0)
            + np.kron(np.kron(e1, xi.amplitudes), e1)
        ) / np.sqrt(2.0)
        assert np.abs(psi.amplitudes - expected).max() < 1e-12

    @pytest.mark.parametrize(
        "xi, xibar",
        [
            tuple(np.eye(2)),
            tuple(b.amplitudes for b in make_carrier_branches("G", 3)),
            tuple(b.amplitudes for b in make_carrier_branches("GHZ", 2)),
        ],
        ids=["qubit", "G3", "GHZ2"],
    )
    def test_bit_identical_to_kron_sum(self, xi, xibar):
        # the Kronecker-product form the written-in-place amplitudes replaced
        e0, e1 = np.eye(2, dtype=complex)
        for phi in np.linspace(0.0, math.pi / 2, 41):
            expected = (
                np.kron(np.kron(e0, xi), e0)
                + math.cos(phi) * np.kron(np.kron(e1, xibar), e0)
                + math.sin(phi) * np.kron(np.kron(e1, xi), e1)
            ) / np.sqrt(2.0)
            amps = attack._abe(phi, xi, xibar)
            assert np.array_equal(amps, expected)
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(amps)), np.signbit(part(expected)))

    @pytest.mark.parametrize("phi", [0.0, 0.3, 1.1, math.pi / 2])
    def test_normalized(self, phi):
        psi = dense_attacked_state(AttackScenario("GHZ", 3, phi))
        assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_phi_out_of_range(self):
        with pytest.raises(InvalidArgument):
            AttackScenario("G", 2, -0.1)

    @pytest.mark.parametrize("carrier", ["G", "GHZ"])
    def test_register_size_checked_before_branches(self, carrier, monkeypatch):
        def build(*args):
            raise AssertionError("the carrier branches were built")

        monkeypatch.setattr(born, "make_carrier_branches", build)
        # any m makes a state; the dense oracle checks its register size.
        # m = 9 gives 2m + 1 = 19 qubits, m = 10 gives 21, past the 20 of PureState
        with pytest.raises(InvalidArgument):
            dense_attacked_state(AttackScenario(carrier, 10, 0.0))
        with pytest.raises(AssertionError):
            dense_attacked_state(AttackScenario(carrier, 9, 0.0))
        monkeypatch.undo()
        assert dense_attacked_state(AttackScenario(carrier, 9, 0.0)).n_qubits == 19


class TestReducedStates:
    @pytest.mark.parametrize("phi", [0.0, 0.4, math.pi / 4, 1.2])
    def test_rho_ab_closed_form(self, phi):
        # rank-2 form built independently from the branch states:
        # ((1+cos^2)/2)|alpha><alpha| + (sin^2/2)|1 xi><1 xi|
        m = 2
        xi, xibar = make_carrier_branches("G", m)
        c, s = math.cos(phi), math.sin(phi)
        e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        alpha = (np.kron(e0, xi.amplitudes) + c * np.kron(e1, xibar.amplitudes)) / math.sqrt(
            1.0 + c * c
        )
        one_xi = np.kron(e1, xi.amplitudes)
        expected = ((1 + c * c) / 2) * outer(alpha) + (s * s / 2) * outer(one_xi)
        psi = dense_attacked_state(AttackScenario("G", m, phi))
        assert np.abs(reduce_state(psi, range(2 * m)).matrix - expected).max() < 1e-10

    @pytest.mark.parametrize("phi", [0.0, 0.4, math.pi / 4, 1.2])
    def test_rho_ae_closed_form(self, phi):
        # ((1+sin^2)/2)|gamma><gamma| + (cos^2/2)|10><10|,
        # |gamma> = (|00> + sin phi |11>)/sqrt(1+sin^2)
        t = attacked_state(AttackScenario("G", 3, phi))
        c, s = math.cos(phi), math.sin(phi)
        gamma = np.array([1.0, 0.0, 0.0, s]) / math.sqrt(1.0 + s * s)
        ten = np.zeros(4)
        ten[2] = 1.0
        expected = ((1 + s * s) / 2) * outer(gamma) + (c * c / 2) * outer(ten)
        assert np.abs(rho_ae(t).matrix - expected).max() < 1e-10

    def test_rho_ae_no_attack_gives_no_information(self):
        t = attacked_state(AttackScenario("G", 2, 0.0))
        # product of I/2 (Alice) with |0><0| (probe)
        expected = np.kron(np.eye(2) / 2, np.diag([1.0, 0.0]))
        assert np.abs(rho_ae(t).matrix - expected).max() < 1e-12

    def test_rho_ab_weights_at_crossover(self):
        psi = dense_attacked_state(AttackScenario("G", 2, math.pi / 4))
        vals = np.sort(np.linalg.eigvalsh(reduce_state(psi, range(4)).matrix))[::-1]
        assert vals[0] == pytest.approx(0.75, abs=1e-10)
        assert vals[1] == pytest.approx(0.25, abs=1e-10)
        assert abs(vals[2:]).max() < 1e-10

    def test_rho_b_trace_and_size(self):
        rb = reduce_state(dense_attacked_state(AttackScenario("G", 3, 0.7)), range(1, 6))
        assert rb.n_qubits == 5
        assert np.trace(rb.matrix).real == pytest.approx(1.0, abs=1e-10)


class TestCoalitionCollapse:
    @pytest.mark.parametrize("m", [2, 3, 50])
    @pytest.mark.parametrize("phi", [0.0, 0.5, math.pi / 4, 1.3])
    def test_matches_closed_form(self, m, phi):
        # ((1+cos^2)/2)|beta><beta| + (sin^2/2)|v><v|, with
        # |beta> = (|01> + cos phi |10>)/sqrt(1+cos^2), |v> = |11> for G and
        # |beta> = (|00> + cos phi |11>)/sqrt(1+cos^2), |v> = |10> for GHZ
        c, s = math.cos(phi), math.sin(phi)
        for carrier, beta, v in (("G", [0.0, 1.0, c, 0.0], 3), ("GHZ", [1.0, 0.0, 0.0, c], 2)):
            t = attacked_state(AttackScenario(carrier, m, phi))
            beta = np.array(beta) / math.sqrt(1.0 + c * c)
            expected = ((1 + c * c) / 2) * outer(beta) + (s * s / 2) * outer(np.eye(4)[v])
            assert np.abs(coalition_collapse(t, kept_bob=1).matrix - expected).max() < 1e-10

    def test_all_ones_pattern_gives_same_state(self):
        # in both uniform patterns the surviving branch terms are the single
        # excitation (or hole) sitting on the kept qubit, so the collapsed
        # pair state is identical
        t = attacked_state(AttackScenario("G", 3, 0.8))
        plus = coalition_collapse(t, kept_bob=2).matrix
        psi = dense_attacked_state(t.scenario)
        _, collapsed = project(psi, [1, 3, 4, 5], "Z", [-1] * 4)
        minus = reduce_state(collapsed, (0, 2)).matrix
        assert np.abs(minus - plus).max() < 1e-10

    def test_no_attack_gives_bell_pair(self):
        t = attacked_state(AttackScenario("G", 2, 0.0))
        bell = np.zeros(4)
        bell[[1, 2]] = 1.0 / np.sqrt(2.0)
        assert np.abs(coalition_collapse(t, kept_bob=3).matrix - outer(bell)).max() < 1e-10

    def test_kept_bob_bounds(self):
        t = attacked_state(AttackScenario("G", 2, 0.0))
        with pytest.raises(InvalidArgument):
            coalition_collapse(t, kept_bob=4)

    def test_needs_two_bobs(self):
        t = attacked_state(AttackScenario("G", 1, 0.0))
        with pytest.raises(InvalidArgument):
            coalition_collapse(t, kept_bob=1)


class TestBranchSpan:
    """The two-qubit states read off the branch span against the dense
    attacked state, collapsed by the ``project`` oracle."""

    @pytest.mark.parametrize("carrier", ["G", "GHZ"])
    @pytest.mark.parametrize("m", range(2, 10))
    def test_matches_dense_oracle(self, m, carrier):
        # the dense sigma_x collapse of GHZ renormalises a branch of
        # probability 2^-(2m-2), which amplifies its roundoff to ~1e-12 at m = 9
        kept = range(1, 2 * m) if m == 3 else [1]
        for phi in (0.0, 0.3, math.pi / 4, 1.2, math.pi / 2):
            t = attacked_state(AttackScenario(carrier, m, phi))
            psi = dense_attacked_state(t.scenario)
            dense_ae = reduce_state(psi, (0, 2 * m)).matrix
            assert np.abs(rho_ae(t).matrix - dense_ae).max() < 1e-11
            for bob in kept:
                others = [q for q in range(1, 2 * m) if q != bob]
                basis = "Z" if carrier == "G" else "X"
                _, collapsed = project(psi, others, basis, [1] * len(others))
                dense_ab = reduce_state(collapsed, (0, bob)).matrix
                assert np.abs(coalition_collapse(t, bob).matrix - dense_ab).max() < 1e-11

    @pytest.mark.parametrize("carrier", ["G", "GHZ"])
    @pytest.mark.parametrize("m", range(1, 10))
    def test_y_sign_matches_dense_oracle(self, m, carrier):
        # sigma_y on every Bob maps |xi> to s i |xibar> and |xibar> to -s i |xi>,
        # as Y does |0> and |1>; sigma_x swaps the branches
        s = branch_y_sign(carrier, m)
        k = 2 * m - 1
        xi, xibar = (b.amplitudes.reshape((2,) * k) for b in make_carrier_branches(carrier, m))
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])

        def on_every_bob(mat, v):
            for q in range(k):
                v = _apply_one(v, q, mat)
            return v

        assert np.abs(on_every_bob(sy, xi) - s * 1j * xibar).max() < 1e-15
        assert np.abs(on_every_bob(sy, xibar) + s * 1j * xi).max() < 1e-15
        assert np.abs(on_every_bob(sx, xi) - xibar).max() < 1e-15
        assert np.abs(on_every_bob(sx, xibar) - xi).max() < 1e-15

    @pytest.mark.parametrize("carrier", ["G", "GHZ"])
    def test_branch_weights_orthonormal(self, carrier):
        # disjoint shells of equal size: the reduction to one Bob qubit rests
        # on <xi|xibar> = 0 and on both branches sharing one norm
        for m in range(1, 501):
            k = 2 * m - 1
            xi, xibar = (set(w) for w in branch_weights(carrier, m))
            assert not xi & xibar
            assert sum(math.comb(k, w) for w in xi) == sum(math.comb(k, w) for w in xibar)

    @pytest.mark.parametrize("carrier", ["G", "GHZ"])
    @pytest.mark.parametrize("m", [3, 50, 500])
    def test_unified_criterion_concurrence(self, m, carrier):
        # the Horodecki values cross 1 where the information margin changes sign
        for phi in PHI_GRID:
            phi = float(phi)
            if abs(phi - math.pi / 4) <= 1e-3:
                continue
            margin = np.sign(mutual_info_ab(phi) - mutual_info_ae(phi))
            t = attacked_state(AttackScenario(carrier, m, phi))
            assert np.sign(horodecki_m(coalition_collapse(t, kept_bob=1)) - 1.0) == margin
            assert np.sign(horodecki_m(rho_ae(t)) - 1.0) == -margin


class TestEntropies:
    def test_binary_entropy_extremes(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-12)

    def test_binary_entropy_quarter(self):
        expected = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert binary_entropy(0.25) == pytest.approx(expected, abs=1e-12)


class TestInformationCurves:
    def test_endpoints(self):
        assert mutual_info_ab(0.0) == pytest.approx(1.0, abs=1e-12)
        assert mutual_info_ab(math.pi / 2) == pytest.approx(0.0, abs=1e-12)
        assert mutual_info_ae(0.0) == pytest.approx(0.0, abs=1e-12)

    def test_crossover_value(self):
        # both curves meet at 1 - H((1 + 1/sqrt 2)/2)
        expected = 1.0 - binary_entropy((1.0 + math.sqrt(0.5)) / 2.0)
        assert mutual_info_ab(math.pi / 4) == pytest.approx(expected, abs=1e-12)
        assert mutual_info_ae(math.pi / 4) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.39912396330714763, abs=1e-12)

    @pytest.mark.parametrize("phi", PHI_GRID)
    def test_duality(self, phi):
        # exact: the identity that puts the CLI's reported crossing at pi/4
        assert mutual_info_ae(phi) == mutual_info_ab(math.pi / 2 - phi)

    def test_margin_is_exactly_zero_at_quarter_pi(self):
        assert mutual_info_ab(math.pi / 4) - mutual_info_ae(math.pi / 4) == 0.0

    def test_margin_changes_sign_once(self):
        margins = [mutual_info_ab(p) - mutual_info_ae(p) for p in PHI_GRID]
        signs = [np.sign(v) for v in margins if abs(v) > 1e-12]
        changes = sum(a != b for a, b in zip(signs, signs[1:]))
        assert changes == 1

    def test_half_pi_roundoff_admitted(self):
        # pi/2 - phi is -4.4e-16 here; I(A:E) reads it as 0
        phi = 1.570796326794897
        assert phi > math.pi / 2
        assert mutual_info_ae(phi) == 1.0
        assert mutual_info_ab(phi) == pytest.approx(0.0, abs=1e-12)
        assert qber_x(phi) == pytest.approx(0.5, abs=1e-12)
        AttackScenario("G", 2, phi)

    @pytest.mark.parametrize("phi", [-1e-9, math.pi / 2 + 1e-9, math.nan])
    def test_phi_domain_shared(self, phi):
        for check in (mutual_info_ab, mutual_info_ae, qber_x,
                      lambda p: AttackScenario("G", 2, p),
                      lambda p: attack.check_phi_grid(np.array([0.5, p]))):
            with pytest.raises(InvalidArgument):
                check(phi)

    def test_phi_grid_check_admits_roundoff(self):
        attack.check_phi_grid(np.linspace(0.0, math.pi / 2 + 1e-12, 5))
        attack.check_phi_grid(math.pi / 2 + 1e-12)
        with pytest.raises(InvalidArgument):
            attack.check_phi_grid(np.linspace(0.0, math.pi / 2 + 2e-12, 5))

    def test_qber_values(self):
        assert qber_x(0.0) == 0.0
        assert qber_x(math.pi / 4) == pytest.approx(0.14644660940672624, abs=1e-12)
        assert qber_x(math.pi / 2) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 10, 50, 500])
    @pytest.mark.parametrize("carrier", ["G", "GHZ"])
    def test_exact_distribution_matches_analytic(self, m, carrier):
        # read on the branch span, so past the dense sizes too
        for phi in PHI_GRID:
            exact = exact_mutual_info_ab(AttackScenario(carrier, m, float(phi)))
            assert abs(exact - mutual_info_ab(float(phi))) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("carrier", ["G", "GHZ"])
    def test_joint_law_matches_born_oracle(self, m, carrier, monkeypatch):
        # the joint law is read through binary_entropy: P(Alice +1 | product)
        # for the product +1 and -1 in the X rounds, then in the Y rounds,
        # then Alice's marginal
        seen = []

        def recorded(p):
            seen.append(p)
            return binary_entropy(p)

        monkeypatch.setattr(attack, "binary_entropy", recorded)
        for phi in (0.0, 0.3, math.pi / 4, 1.2, math.pi / 2):
            scenario = AttackScenario(carrier, m, phi)
            seen.clear()
            info = exact_mutual_info_ab(scenario)
            joints = [born_joint(dense_attacked_state(scenario), basis) for basis in "XY"]
            cond = [joint[0] / joint.sum(axis=0) for joint in joints]
            p_alice = joints[0].sum(axis=1)[0]
            assert np.abs(np.array(seen) - [*cond[0], *cond[1], p_alice]).max() < 1e-13
            h_cond = sum(
                0.5 * joint[:, j].sum() * binary_entropy(c[j])
                for joint, c in zip(joints, cond)
                for j in range(2)
            )
            assert abs(info - (binary_entropy(p_alice) - h_cond)) < 1e-13
