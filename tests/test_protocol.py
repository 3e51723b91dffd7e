"""Monte Carlo protocol rounds, sifting, keys, and information estimates."""

import dataclasses
import functools
import json
import math
import os
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from qss import protocol
from qss.attack import AttackScenario, TripartiteState, attacked_state, binary_entropy
from qss.errors import BudgetExceeded, EmptySiftedSet, InternalInconsistency, InvalidArgument
from qss.protocol import (
    MAX_M,
    MAX_ROUNDS,
    ProtocolConfig,
    ProtocolTranscript,
    RoundRecord,
    coalition_info,
    reconstruct_key,
    run_protocol,
    transcript_summary,
    transcript_to_jsonl,
)

from born import dense_attacked_state, outcome_probabilities


def make_transcript(carrier="G", m=3, rounds=1000, phi=0.0, seed=2024):
    config = ProtocolConfig(rounds, AttackScenario(carrier, m, phi), seed)
    return run_protocol(config)


@pytest.fixture(scope="module")
def clean_run():
    """phi = 0, M = 3, 10^5 rounds: the reference no-attack transcript."""
    return make_transcript(rounds=100_000)


@pytest.fixture(scope="module")
def crossover_run():
    """phi = pi/4, M = 3, 10^5 rounds."""
    return make_transcript(rounds=100_000, phi=math.pi / 4)


class TestConfigValidation:
    def test_m_too_small(self):
        with pytest.raises(InvalidArgument):
            ProtocolConfig(10, AttackScenario("G", 1, 0.0), 0)

    def test_zero_rounds(self):
        with pytest.raises(InvalidArgument):
            ProtocolConfig(0, AttackScenario("G", 2, 0.0), 0)

    def test_negative_seed(self):
        with pytest.raises(InvalidArgument):
            ProtocolConfig(10, AttackScenario("G", 2, 0.0), -1)

    # random.Random would hash a float or a str into some stream
    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(InvalidArgument, match="^seed must be an integer, got "):
            ProtocolConfig(10, AttackScenario("G", 2, 0.0), seed)

    def test_numpy_integer_seed_accepted(self):
        config = ProtocolConfig(300, AttackScenario("G", 2, 0.3), np.int64(5))
        assert type(config.seed) is int
        t, ref = run_protocol(config), make_transcript(m=2, rounds=300, phi=0.3, seed=5)
        assert np.array_equal(t.combo_idx, ref.combo_idx)
        assert np.array_equal(t.outcome_idx, ref.outcome_idx)

    def test_table_budget_admits_m7(self):
        config = ProtocolConfig(10, AttackScenario("G", 7, 0.0), 0)
        assert config.scenario.m == MAX_M

    @pytest.mark.parametrize("m", [8, 9, 10**9])
    def test_table_budget_rejects_m8_and_up(self, m):
        with pytest.raises(BudgetExceeded):
            ProtocolConfig(10, AttackScenario("GHZ", m, 0.0), 0)

    def test_one_law_held_at_a_time(self):
        # a quarter of the 8 * 16^m bytes that a table of every law would take
        config = ProtocolConfig(1000, AttackScenario("G", 5, 0.3), 0)
        tracemalloc.start()
        try:
            run_protocol(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 16**5 // 4

    # built, never run: a run at these sizes would allocate its round columns;
    # the cap is the same whatever m
    @pytest.mark.parametrize("m", [2, 3, 7])
    def test_round_budget_admits_its_limit(self, m):
        ProtocolConfig(MAX_ROUNDS, AttackScenario("G", m, 0.0), 0)
        with pytest.raises(
            BudgetExceeded, match="^protocol runs are capped at 67108864 rounds, got 67108865$"
        ):
            ProtocolConfig(MAX_ROUNDS + 1, AttackScenario("G", m, 0.0), 0)

    @pytest.mark.parametrize("rounds", [MAX_ROUNDS + 1, 10**14, 10**100])
    def test_round_budget_rejects_more(self, rounds):
        with pytest.raises(BudgetExceeded):
            ProtocolConfig(rounds, AttackScenario("G", 3, 0.0), 0)


def one_shot_stream(seed, rounds, n):
    """Every round's combination and uniform, rebuilt bit by bit from one
    ``getrandbits`` call each: round i's combination is the top n bits of
    the i-th 16 bits, its uniform the top 53 of the i-th 64 times 2^-53."""
    rng = random.Random(seed)
    bits = rng.getrandbits(16 * rounds)
    combos = [(bits >> (16 * i + 16 - n)) & (2**n - 1) for i in range(rounds)]
    bits = rng.getrandbits(64 * rounds)
    uniforms = [((bits >> (64 * i + 11)) & (2**53 - 1)) / 2**53 for i in range(rounds)]
    return np.array(combos), np.array(uniforms)


class TestBlockedBasisDraws:
    """The stream's bytes drawn a block of rounds at a time give the
    combinations and uniforms of one draw of every round's."""

    @pytest.mark.parametrize("m", [2, 3, 6])
    @pytest.mark.parametrize("length", ["under_a_block", "two_blocks", "two_blocks_and_1"])
    def test_matches_one_shot_draw(self, m, length, monkeypatch):
        block = protocol._BASIS_BLOCK_ROUNDS
        rounds = {"under_a_block": 100, "two_blocks": 2 * block,
                  "two_blocks_and_1": 2 * block + 1}[length]
        combos, uniforms = one_shot_stream(31, rounds, 2 * m)
        # the uniforms each combination hands to searchsorted, never its law;
        # with rotations left out the 2^(2m) laws cost little
        handed = []
        searchsorted = np.searchsorted

        def recorded(a, v, side="left", sorter=None):
            if side == "right":
                handed.append(np.array(v))
            return searchsorted(a, v, side=side, sorter=sorter)

        monkeypatch.setattr(np, "searchsorted", recorded)
        monkeypatch.setattr(protocol, "_apply_one", lambda arr, axis, mat: arr)
        # every law in this process, so that each search is recorded here
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 1)
        t = run_protocol(ProtocolConfig(rounds, AttackScenario("G", m, 0.3), 31))
        assert np.array_equal(t.combo_idx, combos)
        # one call per combination, in index order, each with its rounds' uniforms
        assert len(handed) == 4**m
        for combo, u in enumerate(handed):
            assert np.array_equal(u, uniforms[combos == combo])

    def test_no_draw_over_16_kib(self, monkeypatch):
        # 2048-round blocks: however many the rounds, no draw holds more
        # than 16 KiB of bytes and the int they come from
        sizes = []
        randbytes = random.Random.randbytes

        def recorded(self, n):
            sizes.append(n)
            return randbytes(self, n)

        monkeypatch.setattr(random.Random, "randbytes", recorded)
        monkeypatch.setattr(protocol, "_apply_one", lambda arr, axis, mat: arr)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 1)
        run_protocol(ProtocolConfig(10**4, AttackScenario("G", 6, 0.3), 31))
        assert sum(sizes) == 10 * 10**4
        assert max(sizes) <= 16 * 1024


class TestRotationCount:
    """One rotation per party per combination, each Bob's on the 2^(2m-1)
    amplitudes of |xi> alone: the count the benchmark pins."""

    @pytest.mark.parametrize("m", [2, 3])
    def test_bob_calls_rotate_one_branch(self, m, monkeypatch):
        sizes = []
        apply_one = protocol._apply_one

        def counted(arr, axis, mat):
            sizes.append(arr.size)
            return apply_one(arr, axis, mat)

        monkeypatch.setattr(protocol, "_apply_one", counted)
        run_protocol(ProtocolConfig(200, AttackScenario("G", m, 0.3), 0))
        n, combos = 2 * m, 4**m
        # Alice's rotations act on the 8 (Alice, branch, probe) coefficients
        assert len(sizes) == n * combos
        assert Counter(sizes) == Counter({8: combos}) + Counter({2 ** (n - 1): (n - 1) * combos})


def split_laws(monkeypatch, workers):
    """Cut every run's combinations into ``workers`` ranges, whatever m, and
    count the forks: a test-only stand-in for a machine with that many CPUs."""
    monkeypatch.setattr(protocol, "_usable_cpus", lambda: workers)
    monkeypatch.setattr(protocol, "_WORKER_COMBOS", 1)
    forks = []
    fork = os.fork

    def counted():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedLawWorkers:
    """The combinations split over forked workers give the columns that one
    process gives, and no worker outlives the run."""

    @pytest.mark.parametrize("carrier", ["G", "GHZ"])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_columns_do_not_depend_on_the_split(self, carrier, m, monkeypatch):
        config = ProtocolConfig(3000, AttackScenario(carrier, m, 0.3), 11)
        split_laws(monkeypatch, 1)
        ref = run_protocol(config)
        # 4^m combinations never split evenly in three
        for workers in (2, 3):
            forks = split_laws(monkeypatch, workers)
            t = run_protocol(config)
            assert len(forks) == workers - 1
            assert_no_child_left()
            assert np.array_equal(t.combo_idx, ref.combo_idx)
            assert np.array_equal(t.outcome_idx, ref.outcome_idx)
            assert t.outcome_idx.dtype == ref.outcome_idx.dtype

    @pytest.mark.parametrize("workers", [2, 3])
    def test_failed_worker_raises(self, workers, monkeypatch):
        split_laws(monkeypatch, workers)
        parent = os.getpid()
        apply_one = protocol._apply_one

        def fails_in_a_worker(arr, axis, mat):
            if os.getpid() != parent:
                raise RuntimeError("a worker failed")
            return apply_one(arr, axis, mat)

        monkeypatch.setattr(protocol, "_apply_one", fails_in_a_worker)
        with pytest.raises(InternalInconsistency) as failed:
            run_protocol(ProtocolConfig(100, AttackScenario("G", 2, 0.3), 0))
        assert str(failed.value).endswith(f"exited with codes {[1] * (workers - 1)}")
        assert_no_child_left()

    def test_failed_parent_range_waits_for_workers(self, monkeypatch):
        split_laws(monkeypatch, 2)
        parent = os.getpid()
        apply_one = protocol._apply_one

        def fails_here(arr, axis, mat):
            if os.getpid() == parent:
                raise RuntimeError("this process failed")
            return apply_one(arr, axis, mat)

        monkeypatch.setattr(protocol, "_apply_one", fails_here)
        with pytest.raises(RuntimeError, match="this process failed"):
            run_protocol(ProtocolConfig(100, AttackScenario("G", 2, 0.3), 0))
        assert_no_child_left()

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_small_runs_stay_in_one_process(self, m, monkeypatch):
        # fewer than 2 * 512 combinations: no fork, however many CPUs
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 64)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        run_protocol(ProtocolConfig(200, AttackScenario("G", m, 0.3), 0))

    def test_one_process_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert protocol._usable_cpus() == 1


class TestFactoredLaw:
    """The laws are built on the branch span: there is no dense attacked
    state to read."""

    @pytest.mark.parametrize("carrier", ["G", "GHZ"])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_never_reads_the_dense_state(self, carrier, m):
        scenario = AttackScenario(carrier, m, 0.3)
        # a TripartiteState holds its scenario and the 3-qubit branch-span state
        assert tuple(f.name for f in dataclasses.fields(TripartiteState)) == ("scenario", "abe")
        assert attacked_state(scenario).abe.n_qubits == 3
        t = run_protocol(ProtocolConfig(500, scenario, 0))
        assert t.outcome_idx.max() < 2 ** (2 * m)


def _grouping_cases():
    rng = np.random.default_rng(5)
    top = 2 ** (2 * MAX_M)
    cases = {
        "random": (rng.integers(0, 64, size=5000), 64),
        "one_round": (np.array([37]), 64),
        "one_combination": (np.full(1000, 9), 16),
        "top_index_m7": (np.array([top - 1, 0, top - 1, 5, top - 1]), top),
        "random_m7": (rng.integers(0, top, size=50_000), top),
    }
    # the columns run_protocol builds are of _COMBO_DTYPE
    cases.update({f"{name}_uint16": (x.astype(np.uint16), size)
                  for name, (x, size) in list(cases.items())})
    return cases


GROUPING_CASES = _grouping_cases()


class TestSortFreeGrouping:
    """The 16-bit radix sort gives what the int64 argsort gave."""

    @pytest.mark.parametrize("case", sorted(GROUPING_CASES))
    def test_group_matches_int64_argsort(self, case):
        combos, size = GROUPING_CASES[case]
        order, bounds = protocol._group(combos, size)
        ref = np.argsort(combos.astype(np.int64), kind="stable")
        assert np.array_equal(order, ref)
        assert np.array_equal(bounds, np.searchsorted(combos[ref], np.arange(size + 1)))


class TestCompactColumns:
    """The round columns are 2-byte integers, and each fits every value that
    run_protocol writes into it."""

    def test_dtype_holds_unclamped_outcomes(self):
        # every combination and outcome index of 2 MAX_M bits
        assert np.iinfo(protocol._COMBO_DTYPE).max >= 2 ** (2 * MAX_M) - 1
        assert np.dtype(protocol._COMBO_DTYPE).itemsize == 2

    @pytest.mark.parametrize("m", [2, 3])
    def test_clamp_keeps_dtype(self, m, monkeypatch):
        searchsorted = np.searchsorted

        def past_the_end(a, v, side="left", sorter=None):
            if side == "right":
                return np.full(np.shape(v), len(a))
            return searchsorted(a, v, side=side, sorter=sorter)

        monkeypatch.setattr(np, "searchsorted", past_the_end)
        t = run_protocol(ProtocolConfig(500, AttackScenario("G", m, 0.3), 7))
        assert t.combo_idx.dtype == t.outcome_idx.dtype == protocol._COMBO_DTYPE
        assert np.all(t.outcome_idx == 2 ** (2 * m) - 1)

    # at these angles some laws end below 1 by rounding, so a search of the
    # whole law would put u = 1 - 2^-53 past the last outcome
    @pytest.mark.parametrize("carrier", ["G", "GHZ"])
    def test_largest_uniform_stays_in_range(self, carrier, monkeypatch):
        rounds = 2000  # one block: one draw for the combinations, one for the uniforms
        randbytes = random.Random.randbytes
        handed = []
        searchsorted = np.searchsorted

        def largest_uniforms(self, n):
            """The stream's bytes for the combinations, all ones, every
            uniform 1 - 2^-53, for the uniforms."""
            return b"\xff" * n if n == 8 * rounds else randbytes(self, n)

        def recorded(a, v, side="left", sorter=None):
            if side == "right":
                handed.append(np.array(v))
            return searchsorted(a, v, side=side, sorter=sorter)

        monkeypatch.setattr(random.Random, "randbytes", largest_uniforms)
        monkeypatch.setattr(np, "searchsorted", recorded)
        t = run_protocol(ProtocolConfig(rounds, AttackScenario(carrier, 3, 0.3), 7))
        assert np.unique(t.combo_idx).size == 64
        assert np.all(np.concatenate(handed) == np.nextafter(1.0, 0.0))
        assert t.outcome_idx.max() < 2**6


class TestDeterminism:
    def test_same_seed_same_transcript(self):
        t1 = make_transcript(rounds=500, seed=42)
        t2 = make_transcript(rounds=500, seed=42)
        assert t1.records == t2.records
        assert reconstruct_key(t1) == reconstruct_key(t2)

    def test_different_seed_different_rounds(self):
        t1 = make_transcript(rounds=500, seed=1)
        t2 = make_transcript(rounds=500, seed=2)
        assert t1.records != t2.records


class TestSiftingAndParity:
    def test_parity_holds_in_every_sifted_round(self, clean_run):
        m = clean_run.config.scenario.m
        y_sign = (-1) ** (m + 1)
        checked = 0
        for rec in clean_run.records:
            if not rec.sifted:
                continue
            prod = int(np.prod(rec.outcomes))
            expected = 1 if rec.basis_label == "X" else y_sign
            assert prod == expected
            checked += 1
        assert checked == clean_run.sift_count

    def test_sift_rate_matches_expectation(self, clean_run):
        n_parties = clean_run.config.scenario.n_parties
        p = 2.0 ** (1 - n_parties)  # all-x or all-y out of 2^n combinations
        n = clean_run.config.rounds
        se = math.sqrt(p * (1 - p) / n)
        assert abs(clean_run.sift_count / n - p) < 5 * se

    def test_mixed_rounds_not_sifted(self, clean_run):
        for rec in clean_run.records[:2000]:
            assert rec.sifted == (rec.basis_label in ("X", "Y"))
            assert (len(set(rec.bases)) == 1) == rec.sifted

    def test_ghz_carrier_parity(self):
        t = make_transcript(carrier="GHZ", m=2, rounds=20_000)
        y_sign = (-1) ** t.config.scenario.m
        for rec in t.records:
            if rec.sifted:
                expected = 1 if rec.basis_label == "X" else y_sign
                assert int(np.prod(rec.outcomes)) == expected

    def test_m2_parity_sign_flips(self):
        # M = 2: the all-y product is -1, so Bob's key still matches Alice's
        t = make_transcript(m=2, rounds=20_000)
        _, _, err = reconstruct_key(t)
        assert err == 0.0


class TestBornFrequencies:
    def test_outcome_counts_match_born_probabilities(self):
        # every basis combination of an attacked m = 2 run, Evan's probe summed out
        scenario = AttackScenario("G", 2, 0.3)
        t = run_protocol(ProtocolConfig(100_000, scenario, 99))
        psi = dense_attacked_state(scenario)
        for combo in range(16):
            bases = format(combo, "04b").replace("0", "X").replace("1", "Y")
            p = outcome_probabilities(psi, bases + "I")
            outcomes = t.outcome_idx[t.combo_idx == combo]
            freq = np.bincount(outcomes, minlength=16) / outcomes.size
            se = np.sqrt(p * (1 - p) / outcomes.size)
            assert np.all(np.abs(freq - p) < 5 * se + 1e-12)


class TestKeyReconstruction:
    def test_error_free_without_attack(self, clean_run):
        alice, bob, err = reconstruct_key(clean_run)
        assert err == 0.0
        assert alice == bob
        assert len(alice) == clean_run.sift_count

    def test_qber_at_crossover(self, crossover_run):
        _, _, err = reconstruct_key(crossover_run)
        p = (1.0 - math.cos(math.pi / 4)) / 2.0
        se = math.sqrt(p * (1 - p) / crossover_run.sift_count)
        assert abs(err - p) < 5 * se

    def test_full_interception_randomizes(self):
        t = make_transcript(rounds=30_000, phi=math.pi / 2)
        _, _, err = reconstruct_key(t)
        se = math.sqrt(0.25 / t.sift_count)
        assert abs(err - 0.5) < 5 * se

    def test_error_rate_monotone_in_phi(self):
        errs = []
        for phi in (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2):
            t = make_transcript(rounds=30_000, phi=phi, seed=7)
            errs.append(reconstruct_key(t)[2])
        assert all(a < b for a, b in zip(errs, errs[1:]))

    def test_keys_and_error_rate_match_the_properties(self, crossover_run):
        # the keys read off the round records: all-y rounds carry the parity sign
        # (-1)^(m+1) of the G carrier, which at m = 3 is +1
        sifted = [rec for rec in crossover_run.records if rec.sifted]
        alice, bob, err = reconstruct_key(crossover_run)
        assert alice == tuple((1 - rec.outcomes[0]) // 2 for rec in sifted)
        assert bob == tuple(int(math.prod(rec.outcomes[1:]) == -1) for rec in sifted)
        assert err == sum(a != b for a, b in zip(alice, bob)) / crossover_run.sift_count

    def test_columns_are_combination_and_outcome(self):
        # the sifted mask is read off the combinations, not stored
        t = make_transcript(rounds=500, seed=3)
        assert [f.name for f in dataclasses.fields(t)] == ["config", "combo_idx", "outcome_idx"]
        expected = [len(set(r.bases)) == 1 for r in t.records]
        assert t.sifted.tolist() == expected and t.sifted is t.sifted

    def test_empty_sifted_set(self):
        base = make_transcript(rounds=10)
        mixed = int("001001", 2)  # bases "XXYXXY"
        empty = ProtocolTranscript(base.config, np.array([mixed]), np.array([0]))
        assert empty.records == (RoundRecord("XXYXXY", (1,) * 6, False, "mixed"),)
        with pytest.raises(EmptySiftedSet):
            reconstruct_key(empty)


def paired_transcript(pairs, m=3, n_bobs=3):
    """A transcript of all-x sifted rounds in which Alice's bit and the packed
    bits of Bobs 1..n_bobs are the given (a, b) pairs; the other Bobs see +1."""
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    shift = 2 * m - 1 - n_bobs
    outcomes = (pairs[:, 0] << (2 * m - 1)) | (pairs[:, 1] << shift)
    config = ProtocolConfig(len(pairs), AttackScenario("G", m, 0.0), 0)
    all_x = np.zeros(len(pairs), dtype=np.int64)
    return ProtocolTranscript(config, all_x, outcomes)


class TestMutualInfoEstimator:
    """The plug-in estimate of ``coalition_info`` on hand-built columns."""

    def test_perfectly_correlated(self):
        t = paired_transcript([(b, b) for b in (0, 1) * 500], n_bobs=1)
        assert coalition_info(t, [1]) == pytest.approx(1.0, abs=1e-12)

    def test_constant_symbol(self):
        t = paired_transcript([(b, 5) for b in (0, 1) * 500])
        assert coalition_info(t, [1, 2, 3]) == pytest.approx(0.0, abs=1e-12)

    def test_independent_near_zero(self):
        rng = np.random.default_rng(5)
        n = 100_000
        t = paired_transcript(rng.integers(0, 2, (n, 2)), n_bobs=1)
        # plug-in estimator bias for a 2x2 table is about 3/(2 n ln 2)
        assert coalition_info(t, [1]) < 3.0 / (n * math.log(2))

    def test_needs_samples(self):
        t = paired_transcript([(0, 0), (1, 1)])
        # Bob 5 alone measured sigma_y in both rounds
        empty = ProtocolTranscript(t.config, np.ones_like(t.combo_idx), t.outcome_idx)
        assert empty.sift_count == 0
        with pytest.raises(EmptySiftedSet):
            coalition_info(empty, [1])


class TestCoalitionInfo:
    def test_rejects_all_bobs(self, clean_run):
        with pytest.raises(InvalidArgument):
            coalition_info(clean_run, range(1, 6))

    def test_rejects_non_bob_indices(self, clean_run):
        with pytest.raises(InvalidArgument):
            coalition_info(clean_run, [0, 1])

    def test_single_bob_learns_residual_correlation(self, clean_run):
        # a single Bob's sifted outcome is correlated with Alice's bit at
        # strength 1/3 on the 6-qubit carrier, i.e. about 1 - H(2/3) bits
        info = coalition_info(clean_run, [1])
        analytic = 1.0 - binary_entropy(2.0 / 3.0)
        assert abs(info - analytic) < 0.03
        assert info > 0.02

    def test_ghz_single_bob_learns_nothing(self):
        t = make_transcript(carrier="GHZ", m=3, rounds=100_000)
        assert coalition_info(t, [3]) < 0.02

    def test_coalition_info_grows_with_size(self, clean_run):
        sizes = [
            coalition_info(clean_run, list(range(1, 1 + k))) for k in (1, 2, 4)
        ]
        assert sizes[0] < sizes[1] < sizes[2]
        # and stays strictly below the full bit Alice holds
        assert sizes[2] < 1.0

    def test_no_signaling_marginals(self, clean_run):
        # every party's raw outcome is unbiased regardless of phi
        outcomes = np.array([rec.outcomes for rec in clean_run.records])
        n = outcomes.shape[0]
        for q in range(outcomes.shape[1]):
            mean = outcomes[:, q].mean()
            assert abs(mean) < 5.0 / math.sqrt(n)


def coalition_law(scenario, subset):
    """Exact joint law of (Alice's bit, the announced basis and the subset's
    bits) in a sifted round: all-x and all-y rounds are sifted equally often,
    so each basis has half the mass.  Shape (2, 2 * 2^|subset|), columns the
    all-x then the all-y outcomes, bits in qubit order."""
    psi = dense_attacked_state(scenario)
    laws = []
    for basis in "XY":
        bases = "".join(basis if q == 0 or q in subset else "I" for q in range(psi.n_qubits))
        laws.append(0.5 * outcome_probabilities(psi, bases).reshape(2, -1))
    return np.concatenate(laws, axis=1)


def support(p):
    return int(np.count_nonzero(p > 1e-15))


def exact_coalition_info(law):
    """I(A:S) in bits and the variance of its pointwise terms, sum p log2^2 - I^2."""
    outer = law.sum(axis=1, keepdims=True) * law.sum(axis=0, keepdims=True)
    p = law[law > 0]
    terms = np.log2(p / outer[law > 0])
    info = float((p * terms).sum())
    return info, float((p * terms**2).sum()) - info**2


class TestCoalitionInfoExactReference:
    """Plug-in coalition information against the exact I(A:S) of the sifted law."""

    @pytest.mark.parametrize("carrier, phi", [("G", 0.0), ("G", 0.3), ("GHZ", 0.0)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("subset", [(1,), (1, 2), (1, 2, 3, 4)])
    def test_within_sampling_error(self, carrier, phi, seed, subset):
        t = make_transcript(carrier=carrier, m=3, rounds=100_000, phi=phi, seed=seed)
        estimate = coalition_info(t, subset)
        law = coalition_law(AttackScenario(carrier, 3, phi), subset)
        info, var = exact_coalition_info(law)
        n = t.sift_count
        if info > 1e-12:
            # Miller-Madow bias of the plug-in estimate, then a 5-sigma band
            cells = support(law) - support(law.sum(axis=1)) - support(law.sum(axis=0)) + 1
            bias = cells / (2 * n * math.log(2))
            assert abs(estimate - info - bias) <= 5 * math.sqrt(var / n)
        else:
            # 2 N ln2 times the estimate is chi-squared with d degrees of
            # freedom, one fewer than the 2 * 2^|subset| (basis, outcome) cells
            d = 2 ** (len(subset) + 1) - 1
            assert estimate <= (d + 5 * math.sqrt(2 * d)) / (2 * n * math.log(2))

    def test_m2_bob_reads_the_all_x_bit(self):
        # at m = 2 and phi = 0 Bob 1 holds Alice's bit in every all-x round
        # and nothing of it in all-y rounds: I(A:S | basis) = (1 + 0) / 2,
        # where the law pooled over both bases gives about 0.19 bits
        scenario = AttackScenario("G", 2, 0.0)
        law = coalition_law(scenario, (1,))
        info, var = exact_coalition_info(law)
        assert info == pytest.approx(0.5, abs=1e-12)
        t = make_transcript(carrier="G", m=2, rounds=400_000, phi=0.0, seed=7)
        n = t.sift_count
        cells = support(law) - support(law.sum(axis=1)) - support(law.sum(axis=0)) + 1
        bias = cells / (2 * n * math.log(2))
        estimate = coalition_info(t, [1])
        assert abs(estimate - info - bias) <= 5 * math.sqrt(var / n)
        assert estimate > 0.45

    def test_exact_g_values(self):
        # 1 - H(2/3) for one Bob, and more for larger coalitions
        values = [
            exact_coalition_info(coalition_law(AttackScenario("G", 3, 0.0), s))[0]
            for s in [(1,), (1, 2), (1, 2, 3, 4)]
        ]
        assert values[0] == pytest.approx(1.0 - binary_entropy(2.0 / 3.0), abs=1e-12)
        assert values == pytest.approx([0.0817, 0.1258, 0.2213], abs=5e-5)


def counter_mutual_info(samples):
    """Plug-in mutual information summed over Counter tables, as a reference."""
    n = len(samples)

    def h(counts):
        return -sum((c / n) * math.log2(c / n) for c in counts.values())

    return h(Counter(x for x, _ in samples)) + h(Counter(y for _, y in samples)) - h(
        Counter(samples)
    )


def counter_coalition_info(t, subset):
    """(Alice's bit, the basis and the subset's +-1 outcomes) of each sifted
    record, through ``counter_mutual_info``."""
    samples = [
        ((1 - rec.outcomes[0]) // 2,
         (rec.basis_label, tuple(rec.outcomes[q] for q in sorted(subset))))
        for rec in t.records
        if rec.sifted
    ]
    return counter_mutual_info(samples)


@functools.lru_cache(maxsize=None)
def cached_transcript(carrier, m, phi):
    return make_transcript(carrier=carrier, m=m, rounds=10 * 4**m, phi=phi, seed=31 + m)


class TestColumnarMutualInfo:
    """The code-based estimates equal the Counter sums bit for bit."""

    @settings(deadline=None, max_examples=30)
    @given(
        st.sampled_from(["G", "GHZ"]),
        st.sampled_from([2, 3, 4]),
        st.sampled_from([0.0, 0.3]),
        st.data(),
    )
    def test_coalition_info_equals_counter_sums(self, carrier, m, phi, data):
        t = cached_transcript(carrier, m, phi)
        bobs = list(range(1, 2 * m))
        subset = data.draw(
            st.lists(st.sampled_from(bobs), min_size=1, max_size=len(bobs) - 1, unique=True)
        )
        assert coalition_info(t, subset) == counter_coalition_info(t, subset)

    @settings(deadline=None, max_examples=50)
    @given(
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 7)), min_size=1, max_size=60)
    )
    def test_estimate_equals_counter_sums(self, samples):
        t = paired_transcript(samples)
        assert coalition_info(t, [1, 2, 3]) == counter_mutual_info(samples)

    # the all-y product of the outcomes at m = 7 when no error occurs:
    # (-1)^(m+1) for G, (-1)^m for GHZ
    @pytest.mark.parametrize("carrier, y_product", [("G", 1), ("GHZ", -1)])
    @pytest.mark.parametrize("dtype", [np.int64, np.uint16])
    def test_keys_and_coalitions_at_max_m(self, carrier, y_product, dtype):
        # a hand-built transcript at the largest m, so no law is built: Alice
        # is outcome bit 2^13 and Bob 13 bit 0, the widest masks; outcomes come
        # from a small pool, so coalition codes repeat
        n, rounds = 2 * MAX_M, 3_000
        rng = np.random.default_rng(13)
        combos = np.array([0, 2**n - 1, int("01" * MAX_M, 2), 1, 2**(n - 1)])
        pool = np.concatenate([[0, 2**n - 1], rng.integers(0, 2**n, 40)])
        combo = rng.choice(combos, size=rounds).astype(dtype)
        outcome = rng.choice(pool, size=rounds).astype(dtype)
        config = ProtocolConfig(rounds, AttackScenario(carrier, MAX_M, 0.0), 0)
        t = ProtocolTranscript(config, combo, outcome)
        sifted = [rec for rec in t.records if rec.sifted]
        assert {rec.basis_label for rec in sifted} == {"X", "Y"}
        alice, bob, err = reconstruct_key(t)
        assert alice == tuple((1 - rec.outcomes[0]) // 2 for rec in sifted)
        assert bob == tuple(
            int(math.prod(rec.outcomes[1:]) * (y_product if rec.basis_label == "Y" else 1) == -1)
            for rec in sifted
        )
        assert err == sum(a != b for a, b in zip(alice, bob)) / t.sift_count
        subsets = [[1], [13], [12, 13], [1, 2, 3], [1, 5, 13], [2, 7, 9, 11],
                   list(range(1, 13)), list(range(2, 14))]
        for subset in subsets:
            assert coalition_info(t, subset) == counter_coalition_info(t, subset)

    def test_one_sifted_round_gives_zero(self):
        base = make_transcript(m=2, rounds=10)
        one = ProtocolTranscript(base.config, np.array([0, 5]), np.array([0, 3]))
        for subset in ([1], [2], [1, 2]):
            info = coalition_info(one, subset)
            assert info == 0.0 and math.copysign(1.0, info) == 1.0


def oracle_jsonl(t):
    """One ``json.dumps`` line per round record."""
    return "".join(
        json.dumps(
            {"round": i, "bases": rec.bases, "outcomes": list(rec.outcomes), "sifted": rec.sifted},
            separators=(",", ":"),
        )
        + "\n"
        for i, rec in enumerate(t.records)
    )


def first_rounds(t, k):
    return ProtocolTranscript(t.config, t.combo_idx[:k], t.outcome_idx[:k])


def assert_blocks_match_oracle(t):
    """The writer's blocks are the rounds of each thousand, and joined they
    are the oracle's lines."""
    blocks = list(transcript_to_jsonl(t))
    rounds = t.combo_idx.size
    assert [b.count("\n") for b in blocks] == [
        min(1000, rounds - a) for a in range(0, rounds, 1000)
    ]
    assert all(b.endswith("\n") for b in blocks)
    # compared as lines: pytest's diff of two long strings takes minutes
    assert "".join(blocks).splitlines(True) == oracle_jsonl(t).splitlines(True)


class TestColumnarJsonl:
    """Blocks of whole lines, joined equal to one json.dumps line per round."""

    # the rounds past the last whole block of one thousand
    @pytest.mark.parametrize("tail", [1, 2, 3, 7])
    # no shrink phase: shrinking re-compares 1,000-line outputs and makes a
    # wrong writer take about 100 s to fail
    @settings(deadline=None, max_examples=10,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(
        st.sampled_from(["G", "GHZ"]),
        st.sampled_from([2, 3, 4]),
        st.sampled_from([0.0, 0.3]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_per_round_oracle(self, tail, carrier, m, phi, seed):
        t = make_transcript(carrier=carrier, m=m, rounds=1000 + tail, phi=phi, seed=seed)
        for k in (1, tail, 999, 1000, 1000 + tail):
            assert_blocks_match_oracle(first_rounds(t, k))

    @pytest.mark.parametrize("m, rounds", [(2, 3 * 2048 + 5), (6, 5 * 2048 + 1)])
    def test_writers_ignore_column_dtype(self, m, rounds):
        t = make_transcript(m=m, rounds=rounds, phi=0.3, seed=8)
        wide = ProtocolTranscript(t.config, t.combo_idx.astype(np.int64),
                                  t.outcome_idx.astype(np.int64))
        assert t.combo_idx.dtype == t.outcome_idx.dtype == protocol._COMBO_DTYPE
        assert t.sift_count > 0
        assert "".join(transcript_to_jsonl(wide)) == "".join(transcript_to_jsonl(t))
        subsets = [(1,), tuple(range(1, 2 * m - 1))]
        assert json.dumps(transcript_summary(wide, subsets)) == json.dumps(
            transcript_summary(t, subsets)
        )

    def test_whole_range_tables_at_max_m(self):
        # a hand-built transcript at the largest m, so no law is built: its
        # columns hit the first and last combination and outcome and a mixed
        # one, on both sides of the block boundaries at rounds 1000 and 2000
        n = 2 * MAX_M
        top = 2**n - 1
        mixed = int("01" * MAX_M, 2)
        rng = np.random.default_rng(5)
        combo = rng.choice(np.array([0, top, mixed], dtype=np.uint16), size=2_003)
        outcome = rng.choice(np.array([0, top, mixed], dtype=np.uint16), size=2_003)
        combo[[999, 1000, 1999, 2000, 2002]] = [top, 0, mixed, top, top]
        outcome[[999, 1000, 1999, 2000, 2002]] = [0, top, top, mixed, top]
        t = ProtocolTranscript(
            ProtocolConfig(2_003, AttackScenario("G", MAX_M, 0.0), 0), combo, outcome
        )
        expected = []
        for c, o in zip(combo.tolist(), outcome.tolist()):
            bases = "".join("XY"[(c >> (n - 1 - q)) & 1] for q in range(n))
            signs = tuple(1 - 2 * ((o >> (n - 1 - q)) & 1) for q in range(n))
            sifted = c in (0, top)
            expected.append(RoundRecord(bases, signs, sifted, bases[0] if sifted else "mixed"))
        assert t.records == tuple(expected)
        assert_blocks_match_oracle(t)

    def test_default_block_boundaries(self):
        t = make_transcript(m=2, rounds=2003, phi=0.3, seed=5)
        assert_blocks_match_oracle(t)

    def test_round_numbers_across_powers_of_ten(self):
        # constant columns, written by the default blocks, checked at the rounds
        # where the number grows a digit: 1000, 10^4, 10^5 and 10^6
        rounds, block = 1_000_005, 1000
        config = ProtocolConfig(rounds, AttackScenario("G", 2, 0.0), 0)
        zeros = np.zeros(rounds, dtype=np.uint16)
        t = ProtocolTranscript(config, zeros, zeros)
        edges = (1000, 10**4, 10**5, 10**6)
        last = (rounds - 1) // block * block
        checked = {i // block * block for e in edges for i in (e - 1, e)} | {0, last - block, last}
        lines = 0
        for a, text in zip(range(0, rounds, block), transcript_to_jsonl(t)):
            lines += text.count("\n")
            if a in checked:
                assert text.splitlines(True) == [
                    json.dumps({"round": i, "bases": "XXXX", "outcomes": [1, 1, 1, 1],
                                "sifted": True}, separators=(",", ":")) + "\n"
                    for i in range(a, min(a + block, rounds))
                ]
                checked.remove(a)
        assert lines == rounds and not checked


class TestTranscriptExport:
    def test_jsonl_round_shape(self):
        t = make_transcript(rounds=20)
        lines = "".join(transcript_to_jsonl(t)).splitlines()
        assert len(lines) == 20
        doc = json.loads(lines[3])
        assert doc["round"] == 3
        assert set(doc) == {"round", "bases", "outcomes", "sifted"}
        assert len(doc["bases"]) == 6
        assert all(o in (-1, 1) for o in doc["outcomes"])

    def test_summary_fields(self):
        t = make_transcript(rounds=5000, seed=11)
        summary = transcript_summary(t, [(1,), (1, 2)])
        assert summary["rounds"] == 5000
        assert summary["sift_count"] == t.sift_count
        assert summary["error_rate"] == 0.0
        assert set(summary["coalition_info"]) == {"1", "1,2"}
