"""Mutation check of the fast paths: each mutant changes one snippet of
``src/qss`` and names the tests that must fail on it.

Run by hand from anywhere, optionally naming some mutants:

    python tests/mutants.py [NAME ...]

It copies ``src`` to one temporary directory per usable CPU, requires every
named test to pass on the unmutated copies, then applies each mutant to a
copy of its own, as many at once as there are copies, and requires each of
its tests to fail.  It exits 1 when a test fails on the copies or a mutant
survives.  pytest does not collect this file; ``tests/test_mutants.py``
checks that every snippet still occurs exactly once in its file.  A change to
a fast path updates its mutant here.
"""

from __future__ import annotations

import functools
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/qss
    snippet: str
    replacement: str
    killers: tuple[str, ...]  # pytest node IDs, relative to the repository root


MUTANTS = (
    Mutant(
        "sin-phi-row", "attack.py",
        "abe[1, 0, 1] = math.sin(scenario.phi)", "abe[1, 1, 1] = math.sin(scenario.phi)",
        ("tests/test_attack.py::TestAttackedState::test_bit_identical_to_kron_sum[qubit]",),
    ),
    Mutant(
        "collapse-reversal-on-ghz", "attack.py",
        'if t.scenario.carrier == "G":', 'if t.scenario.carrier == "GHZ":',
        ("tests/test_attack.py::TestCoalitionCollapse::test_matches_closed_form",),
    ),
    # one bad angle of many fails the whole grid before any point runs
    Mutant(
        "phi-check-all", "attack.py",
        "outside.any()", "outside.all()",
        ("tests/test_cli.py::TestSweepAttack::test_one_angle_past_half_pi_named_before_any_point_runs",),
    ),
    Mutant(
        "rho-ae-keeps-branch", "attack.py",
        "return reduce_state(t.abe, (0, 2))", "return reduce_state(t.abe, (0, 1))",
        ("tests/test_attack.py::TestReducedStates::test_rho_ae_closed_form",),
    ),
    Mutant(
        "padded-digits-at-h0", "protocol.py",
        "parts[1::5] = digits[h > 0][: b - a]", "parts[1::5] = padded[: b - a]",
        ("tests/test_protocol.py::TestColumnarJsonl::test_matches_per_round_oracle[1]",),
    ),
    Mutant(
        "thousands-prefix-past-5000", "protocol.py",
        """'{"round":' + str(h) if h""", """'{"round":' + str(min(h, 5)) if h""",
        ("tests/test_protocol.py::TestColumnarJsonl::test_round_numbers_across_powers_of_ten",),
    ),
    Mutant(
        "key-without-y-flip", "protocol.py",
        "(popcounts(k)[outcomes & (2**k - 1)] + all_y * y_flip) % 2",
        "popcounts(k)[outcomes & (2**k - 1)] % 2",
        # m = 3 has no y-flip, so the m = 3 key tests cannot see it
        ("tests/test_protocol.py::TestSiftingAndParity::test_m2_parity_sign_flips",),
    ),
    # the temp file takes the mode open gives it, as a 0600 mkstemp file did not
    Mutant(
        "no-chmod", "cli.py",
        'open(tmp, "x")', 'os.fdopen(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600), "w")',
        ("tests/test_cli.py::TestOutputMode::test_mode_follows_umask[umask022]",),
    ),
    # main's rollback of a command's written files, on any failure
    Mutant(
        "no-transcript-unlink", "cli.py",
        "os.unlink(path)", "pass",
        ("tests/test_cli.py::TestRunProtocolCommand::test_unwritable_summary_leaves_no_transcript",),
    ),
    Mutant(
        "rollback-only-on-oserror", "cli.py",
        "except BaseException:\n            # a command's files are written all or none",
        "except OSError:\n            # a command's files are written all or none",
        ("tests/test_cli.py::TestRunProtocolCommand::test_any_failure_on_the_summary_leaves_no_transcript",),
    ),
    # the one number encoding of CSV and JSON outputs
    Mutant(
        "encoder-admits-nan", "cli.py",
        "allow_nan=False", "allow_nan=True",
        ("tests/test_cli.py::TestNonFiniteOutput::test_csv_value_exits_3",
         "tests/test_cli.py::TestNonFiniteOutput::test_json_value_exits_3"),
    ),
    Mutant(
        "sift-mask-without-all-ones", "protocol.py",
        "(self.combo_idx == 0) | (self.combo_idx == 2**self.config.scenario.n_parties - 1)",
        "self.combo_idx == 0",
        ("tests/test_protocol.py::TestSiftingAndParity::test_mixed_rounds_not_sifted",
         "tests/test_protocol.py::TestKeyReconstruction::test_columns_are_combination_and_outcome"),
    ),
    Mutant(
        "law-without-clamp", "protocol.py",
        "law[:-1], uniforms[rows]", "law, uniforms[rows]",
        ("tests/test_protocol.py::TestCompactColumns::test_largest_uniform_stays_in_range",),
    ),
    Mutant(
        "round-cap-inclusive", "protocol.py",
        "if self.rounds > MAX_ROUNDS:", "if self.rounds >= MAX_ROUNDS:",
        ("tests/test_protocol.py::TestConfigValidation::test_round_budget_admits_its_limit[2]",),
    ),
    # the random bytes drawn in blocks of at most 16 KiB, and read as the
    # stream that the tests rebuild
    Mutant(
        "basis-block-8192", "protocol.py",
        "_BASIS_BLOCK_ROUNDS = 2048", "_BASIS_BLOCK_ROUNDS = 8192",
        ("tests/test_protocol.py::TestBlockedBasisDraws::test_no_draw_over_16_kib",),
    ),
    Mutant(
        "combination-shift", "protocol.py",
        '"<u2") >> (16 - n_parties)', '"<u2") >> (15 - n_parties)',
        ("tests/test_protocol.py::TestBlockedBasisDraws::test_matches_one_shot_draw[under_a_block-3]",),
    ),
    Mutant(
        "uniform-shift", "protocol.py",
        '"<u8") >> 11)', '"<u8") >> 10)',
        ("tests/test_protocol.py::TestBlockedBasisDraws::test_matches_one_shot_draw[under_a_block-3]",),
    ),
    Mutant(
        "zero-sift-guard-removed", "protocol.py",
        "reconstruct_key(t)[2] if any_sifted else None", "reconstruct_key(t)[2]",
        ("tests/test_cli.py::TestRunProtocolCommand::test_no_sifted_round_writes_both_files",),
    ),
    # the rotated |xibar> as a signed gather of the rotated |xi>
    Mutant(
        "gather-without-parity-sign", "protocol.py",
        "[:, None] * (1 - 2 * (ones & 1))", "[:, None] * np.ones_like(ones)",
        ("tests/test_qsim.py::TestApplyOneKernel::test_protocol_matches_moveaxis_kernel",),
    ),
    Mutant(
        # equivalent for GHZ alone: its rotated |xi> is constant, so any
        # gather leaves it unchanged
        "gather-at-xmask", "protocol.py",
        "bobs[0][index ^ ymask]", "bobs[0][index ^ ymask ^ (2**k - 1)]",
        ("tests/test_qsim.py::TestApplyOneKernel::test_protocol_matches_moveaxis_kernel",),
    ),
    Mutant(
        "gather-without-y-phase", "protocol.py",
        "phased[ones[ymask] % 4]", "phased[0]",
        ("tests/test_qsim.py::TestApplyOneKernel::test_protocol_matches_moveaxis_kernel",),
    ),
    Mutant(
        "xi-xibar-swap", "protocol.py",
        ".reshape(4, 2) @ bobs", ".reshape(4, 2) @ bobs[::-1]",
        ("tests/test_qsim.py::TestApplyOneKernel::test_protocol_matches_moveaxis_kernel",
         "tests/test_protocol.py::TestSiftingAndParity::test_parity_holds_in_every_sifted_round"),
    ),
    Mutant(
        "rotations-swapped", "protocol.py",
        'for ax in "XY")', 'for ax in "YX")',
        ("tests/test_qsim.py::TestApplyOneKernel::test_protocol_matches_moveaxis_kernel",),
    ),
    # the frame search's bound and value
    Mutant(
        "upper-bound-top-eigenvalue-only", "bell.py",
        "(w[:, -1] + w[:, -2]).min()", "w[:, -1].min()",
        ("tests/test_bell.py::TestUpperBound::test_carrier_values",),
    ),
    Mutant(
        "search-flags-only-when-searching", "cli.py",
        "bell._check_search_flags(args.restarts, args.seed)", "None",
        ("tests/test_cli.py::TestBellCommand::test_bad_search_flags_exit_2[negative-seed-default]",
         "tests/test_cli.py::TestBellCommand::test_bad_search_flags_exit_2[zero-restarts-default]"),
    ),
    Mutant(
        "parseval-weight-without-binomial", "dicke.py",
        "2.0**n / math.comb(n, w) for w", "2.0**n for w",
        ("tests/test_bell.py::TestSharedPlaneSearch::test_matches_dense_oracle",),
    ),
    # one collapse branch: |xibar> = X^k|xi>
    Mutant(
        "rdm-v1-at-v0-weight", "rdm.py",
        "for w in (weight, k - weight)", "for w in (weight, weight)",
        ("tests/test_rdm.py::TestGramUniqueness::test_matches_dense_oracle",),
    ),
    Mutant(
        "branch-on-alice-one-shells", "states.py",
        "return _shell_state(2 * m - 1, branch_weights(carrier, 2 * m))",
        "return _shell_state(2 * m - 1, tuple(w - 1 for w in carrier_weights(carrier, 2 * m) if w))",
        ("tests/test_states.py::TestBranchStates::test_xibar_is_index_reversal_of_xi",
         "tests/test_states.py::TestBitIdentity::test_branches"),
    ),
    # the all-y sign on the branch span, and the axis of Alice's rotation
    Mutant(
        "y-sign-off-by-one", "states.py",
        "(-1) ** (m - 1 + branch_weights", "(-1) ** (m + branch_weights",
        # every m fails; pytest takes seconds to report a failing m of 8 or 9
        ("tests/test_attack.py::TestBranchSpan::test_y_sign_matches_dense_oracle[5-G]",
         "tests/test_attack.py::TestBranchSpan::test_y_sign_matches_dense_oracle[5-GHZ]",
         "tests/test_attack.py::TestInformationCurves::test_joint_law_matches_born_oracle"),
    ),
    Mutant(
        "alice-rotation-on-branch-axis", "protocol.py",
        "_apply_one(coef, 0, rotations[combo >> k])", "_apply_one(coef, 1, rotations[combo >> k])",
        ("tests/test_qsim.py::TestApplyOneKernel::test_protocol_matches_moveaxis_kernel",
         "tests/test_cli.py::TestRunProtocolCommand::test_golden_output_hashes"),
    ),
    # the writer's whole-range flag table, and the one entropy; -sum in place
    # of its 0.0 - sum is equivalent, as the signed zero reaches no output
    Mutant(
        "flag-true-at-zero-only", "protocol.py",
        "flags[[0, -1]] = ", "flags[[0]] = ",
        ("tests/test_protocol.py::TestColumnarJsonl::test_whole_range_tables_at_max_m",
         "tests/test_cli.py::TestRunProtocolCommand::test_golden_output_hashes"),
    ),
    Mutant(
        "exact-info-without-half", "attack.py",
        "info += 0.5 * (entropy(", "info += (entropy(",
        ("tests/test_attack.py::TestInformationCurves::test_exact_distribution_matches_analytic",
         "tests/test_acceptance.py::test_criterion_3_security_crossing"),
    ),
    # keys and coalition codes read as bit masks of the outcome index
    Mutant(
        "parity-reads-alice", "protocol.py",
        "popcounts(k)[outcomes & (2**k - 1)]", "popcounts(k + 1)[outcomes]",
        ("tests/test_protocol.py::TestKeyReconstruction::test_keys_and_error_rate_match_the_properties",),
    ),
    Mutant(
        "coalition-bits-reversed", "protocol.py",
        "sum(top >> q for q in sub)", "sum(1 << (q - 1) for q in sub)",
        ("tests/test_protocol.py::TestColumnarMutualInfo::test_coalition_info_equals_counter_sums",
         "tests/test_cli.py::TestRunProtocolCommand::test_golden_output_hashes"),
    ),
    Mutant(
        "coalition-pools-bases", "protocol.py",
        "mask = 1 << n | sum(", "mask = sum(",
        ("tests/test_protocol.py::TestCoalitionInfoExactReference::test_m2_bob_reads_the_all_x_bit",
         "tests/test_protocol.py::TestColumnarMutualInfo::test_coalition_info_equals_counter_sums"),
    ),
    Mutant(
        "joint-code-drops-alice", "protocol.py",
        "- _entropy(o & (top | mask))", "- _entropy(o & mask)",
        ("tests/test_protocol.py::TestMutualInfoEstimator::test_constant_symbol",),
    ),
    # the laws split over forked workers: every range sampled whole, every
    # worker waited for and its exit status read
    Mutant(
        "worker-range-cut-short", "protocol.py",
        "sample(cuts[w], cuts[w + 1])", "sample(cuts[w], cuts[w + 1] - 1)",
        ("tests/test_protocol.py::TestForkedLawWorkers::test_columns_do_not_depend_on_the_split[2-G]",),
    ),
    Mutant(
        "worker-status-ignored", "protocol.py",
        "if any(codes):", "if False:",
        ("tests/test_protocol.py::TestForkedLawWorkers::test_failed_worker_raises[2]",
         "tests/test_cli.py::TestRunProtocolCommand::test_failed_law_worker_exits_3"),
    ),
    Mutant(
        "workers-not-reaped", "protocol.py",
        "codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]",
        "codes = []",
        ("tests/test_protocol.py::TestForkedLawWorkers::test_columns_do_not_depend_on_the_split[2-G]",
         "tests/test_protocol.py::TestForkedLawWorkers::test_failed_parent_range_waits_for_workers"),
    ),
)


def failed_tests(src: Path, node_ids: list[str]) -> tuple[int, set[str]]:
    """Run the tests against the package under ``src``, from its parent
    directory and with a base temp directory there: pytest's exit code and
    the node IDs it reports as failed or in error."""
    cwd = src.parent
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--rootdir", str(ROOT), "--basetemp", str(cwd / "basetemp"),
         *(str(ROOT / n) for n in node_ids)],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    failed = set()
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            # pytest names the file relative to the working directory
            file, sep, rest = line.split(" ", 2)[1].partition("::")
            failed.add(f"{(cwd / file).resolve().relative_to(ROOT)}{sep}{rest}")
    return proc.returncode, failed


def killed_by(killer: str, failed: set[str]) -> bool:
    # a node ID without parameters names every one of its parametrized cases
    return any(f == killer or f.startswith(killer + "[") for f in failed)


def usable_cpus() -> int:
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else os.cpu_count() or 1


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    for m in mutants:
        count = (ROOT / "src" / "qss" / m.file).read_text().count(m.snippet)
        if count != 1:
            print(f"{m.name}: snippet occurs {count} times in {m.file}")
            return 1
    start = time.perf_counter()
    workers = min(usable_cpus(), len(mutants))
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(workers) as pool:
        # one copy of src for each worker, handed from run to run
        copies = queue.SimpleQueue()
        for w in range(workers):
            src = Path(tmp) / str(w) / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            copies.put(src)

        def on_a_copy(run, arg):
            src = copies.get()
            try:
                return run(src, arg)
            finally:
                copies.put(src)

        def mutated(src: Path, m: Mutant) -> tuple[list[str], float]:
            """The killers that pass on ``src`` with ``m`` applied, and the time taken."""
            path = src / "qss" / m.file
            original = path.read_text()
            path.write_text(original.replace(m.snippet, m.replacement))
            t0 = time.perf_counter()
            try:
                _, failed = failed_tests(src, list(m.killers))
            finally:
                path.write_text(original)
            return [k for k in m.killers if not killed_by(k, failed)], time.perf_counter() - t0

        # the killers, split over the unmutated copies
        killers = sorted({k for m in mutants for k in m.killers})
        chunks = [killers[w::workers] for w in range(min(workers, len(killers)))]
        results = list(pool.map(functools.partial(on_a_copy, failed_tests), chunks))
        if any(code != 0 for code, _ in results):
            codes = [code for code, _ in results]
            failed = sorted(set().union(*(failed for _, failed in results)))
            print(f"the unmutated copy fails (pytest exits {codes}): {failed}")
            return 1
        survived = []
        runs = pool.map(functools.partial(on_a_copy, mutated), mutants)
        for m, (passed, seconds) in zip(mutants, runs):
            verdict = f"SURVIVED, passing: {passed}" if passed else "killed"
            print(f"{m.name:32s} {verdict} ({seconds:.1f} s)", flush=True)
            if passed:
                survived.append(m.name)
    print(f"{len(mutants) - len(survived)} of {len(mutants)} mutants killed "
          f"in {time.perf_counter() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
