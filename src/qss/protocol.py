"""Monte Carlo simulation of the secret-sharing rounds.

Each round distributes one attacked carrier state, every party (Alice plus
the 2m-1 Bobs) independently measures sigma_x or sigma_y with probability
1/2, and sifting keeps only the rounds in which all parties used the same
basis.  Outcome +1 maps to bit 0, outcome -1 to bit 1.

Transcripts are bit-reproducible: the whole run is a deterministic function
of (config, seed).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .attack import AttackScenario, attacked_state, entropy
from .errors import BudgetExceeded, EmptySiftedSet, InternalInconsistency, InvalidArgument
from .qsim import EIGENBASIS, Outcome, _apply_one, popcounts
from .states import branch_y_sign, carrier_branch

__all__ = [
    "ProtocolConfig",
    "RoundRecord",
    "ProtocolTranscript",
    "run_protocol",
    "reconstruct_key",
    "coalition_info",
    "transcript_to_jsonl",
    "transcript_summary",
]


#: Largest m a run admits.  The work, for each of the 2^(2m) basis combinations
#: 2m - 1 rotations of the 2^(2m-1) amplitudes of |xi>, one signed gather for
#: |xibar> and one 4 x 2 x 2^(2m-1) product, grows about 19-fold per step in m:
#: on a shared 2-core VM the m = 6 command with 2e4 rounds takes about 0.8 s
#: with its 4,096 laws built in one process, and about 0.49 s split over both
#: CPUs.
MAX_M = 7

#: Round column type: combinations and outcome indices of 2m <= 14 bits.
_COMBO_DTYPE = np.min_scalar_type(2 ** (2 * MAX_M) - 1)

#: Rounds one run may have: 2 GiB at 32 bytes a round, whatever m.  An upper
#: bound: the basis draws are made a block at a time, the uniforms and the
#: grouping order take 8 bytes a round, the columns kept 2 and 2, and a whole
#: command's traced peak is 20-22 bytes a round at m <= 3.
MAX_ROUNDS = 2**26

#: Rounds whose basis bits ``run_protocol`` draws at once; the rounds x 2m
#: matrix of all of them is never built.
_BASIS_BLOCK_ROUNDS = 8192


@dataclass(frozen=True)
class ProtocolConfig:
    rounds: int
    scenario: AttackScenario
    seed: int

    def __post_init__(self):
        m = self.scenario.m
        if m < 2:
            raise InvalidArgument(f"protocol needs m >= 2, got {m}")
        if self.rounds < 1:
            raise InvalidArgument(f"rounds must be >= 1, got {self.rounds}")
        if self.seed < 0:
            raise InvalidArgument(f"seed must be >= 0, got {self.seed}")
        if m > MAX_M:
            raise BudgetExceeded(f"protocol runs are capped at m <= {MAX_M}, got {m}")
        if self.rounds > MAX_ROUNDS:
            raise BudgetExceeded(
                f"protocol runs are capped at {MAX_ROUNDS} rounds, got {self.rounds}"
            )


@dataclass(frozen=True)
class RoundRecord:
    bases: str  # one of "XY" per party, e.g. "XXYXXY"
    outcomes: Outcome  # +-1 per party
    sifted: bool
    basis_label: str  # "X", "Y", or "mixed"


def _bases(combo: int, n_parties: int) -> str:
    """Basis letters of a combination whose bit q (MSB first) is 1 for sigma_y."""
    return format(combo, f"0{n_parties}b").replace("0", "X").replace("1", "Y")


@dataclass(frozen=True, eq=False)
class ProtocolTranscript:
    """A run as columns, one entry per round: the basis combination (bit q,
    MSB first, is 1 when party q measured sigma_y) and the outcome index (bit
    q is 1 when party q saw -1).  A round is sifted when all its bases agree."""

    config: ProtocolConfig
    combo_idx: np.ndarray
    outcome_idx: np.ndarray

    @functools.cached_property
    def sifted(self) -> np.ndarray:
        return (self.combo_idx == 0) | (self.combo_idx == 2**self.config.scenario.n_parties - 1)

    @property
    def sift_count(self) -> int:
        return int(np.count_nonzero(self.sifted))

    @property
    def records(self) -> tuple[RoundRecord, ...]:
        n = self.config.scenario.n_parties
        bases = [_bases(c, n) for c in range(2**n)]
        outcomes = [tuple(1 - 2 * int(b) for b in format(o, f"0{n}b")) for o in range(2**n)]
        rows = zip(self.combo_idx.tolist(), self.outcome_idx.tolist(), self.sifted.tolist())
        return tuple(
            RoundRecord(bases[c], outcomes[o], s, bases[c][0] if s else "mixed")
            for c, o, s in rows
        )


def _group(combos: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Rounds grouped by combination: ``order[bounds[c]:bounds[c + 1]]`` are,
    in round order, the rounds that use combination c, for every c < size.
    A stable sort of 16-bit keys is a radix sort."""
    bounds = np.concatenate([[0], np.cumsum(np.bincount(combos, minlength=size))])
    order = np.argsort(combos, kind="stable")
    return order, bounds


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the OS does not say."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else 1


#: Fewest combinations a forked law worker takes: below 512 (m <= 4) a fork
#: costs more than the laws it would build.
_WORKER_COMBOS = 512


def run_protocol(config: ProtocolConfig) -> ProtocolTranscript:
    """Simulate all rounds.  Each basis combination's outcome law is built,
    sampled by its rounds and dropped in turn.  The combinations are cut into
    contiguous ranges, one per usable CPU and at least ``_WORKER_COMBOS``
    each; forked workers sample all ranges but the last, which this process
    does, straight into the shared outcome column, so every range builds the
    same laws in the same order and the transcript does not depend on the
    split."""
    n_parties = config.scenario.n_parties
    rng = np.random.default_rng(config.seed)
    # the basis bits, drawn a block of rows at a time (the same stream as one
    # draw of all rounds) and packed into each round's combination, MSB first
    weights = 1 << np.arange(n_parties - 1, -1, -1)
    combos = np.empty(config.rounds, dtype=_COMBO_DTYPE)
    for a in range(0, config.rounds, _BASIS_BLOCK_ROUNDS):
        b = min(a + _BASIS_BLOCK_ROUNDS, config.rounds)
        combos[a:b] = rng.integers(0, 2, size=(b - a, n_parties)) @ weights
    uniforms = rng.random(config.rounds)

    order, bounds = _group(combos, 2**n_parties)
    # the outcome column, shared with the forked workers; mmap is loaded
    # here, so that commands without a run do not map its library
    import mmap

    outcome_idx = np.frombuffer(
        mmap.mmap(-1, combos.nbytes), dtype=_COMBO_DTYPE, count=config.rounds
    )
    # the attacked state is sum_b coef[a, b, e] |a>|branch b>|e>: its (Alice,
    # branch, probe) coefficients, and the branch xi with the Bobs on axes
    # 0 .. k-1, k = 2m-1, as in the dense register
    scenario = config.scenario
    coef = attacked_state(scenario).abe.amplitudes.reshape(2, 2, 2)
    k = n_parties - 1
    xi = carrier_branch(scenario.carrier, scenario.m).amplitudes.reshape((2,) * k)
    # indexed by a combination's bit for the party: 0 for sigma_x, 1 for sigma_y
    rotations = tuple(EIGENBASIS[ax].conj().T for ax in "XY")
    # |xibar> = X^k|xi>, and R_X X = Z R_X, R_Y X = Y R_Y, so R|xibar>[o] =
    # (-i)^#Y (-1)^|o| R|xi>[o ^ ymask], ymask the Y-Bobs' bits: exact factors
    ones = popcounts(k)
    phased = np.array([1, -1j, -1, 1j])[:, None] * (1 - 2 * (ones & 1))
    index = np.arange(2**k)
    bobs = np.empty((2, 2**k), dtype=complex)  # rows R|xi>, R|xibar>

    def sample(lo: int, hi: int) -> None:
        # every combination is built, used or not, so the work depends on m
        # alone; its law is cumulative over the party outcomes, marginalized
        # over Evan's probe
        for combo in range(lo, hi):
            alice = _apply_one(coef, 0, rotations[combo >> k])
            rotated = xi
            for q in range(k):
                rotated = _apply_one(rotated, q, rotations[(combo >> (k - 1 - q)) & 1])
            np.copyto(bobs[0].reshape(rotated.shape), rotated)
            ymask = combo & (2**k - 1)
            np.multiply(bobs[0][index ^ ymask], phased[ones[ymask] % 4], out=bobs[1])
            # rows (Alice, probe), columns the Bob outcomes
            amps = alice.transpose(0, 2, 1).reshape(4, 2) @ bobs
            sq = (np.abs(amps) ** 2).reshape(2, 2, -1)
            probs = (sq[:, 0] + sq[:, 1]).reshape(-1)
            law = np.cumsum(probs / probs.sum())
            rows = order[bounds[combo] : bounds[combo + 1]]
            # law[-1] is 1 up to rounding, so the last outcome takes every u past law[-2]
            outcome_idx[rows] = np.searchsorted(law[:-1], uniforms[rows], side="right")

    size = 2**n_parties
    workers = max(1, min(_usable_cpus(), size // _WORKER_COMBOS))
    cuts = [size * w // workers for w in range(workers + 1)]
    pids = []
    try:
        for w in range(workers - 1):
            pid = os.fork()
            if pid == 0:
                # a worker never returns into its parent's code
                try:
                    sample(cuts[w], cuts[w + 1])
                    os._exit(0)
                finally:
                    os._exit(1)
            pids.append(pid)
        sample(cuts[-2], cuts[-1])
    finally:
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    if any(codes):
        raise InternalInconsistency(f"law workers exited with codes {codes}")
    return ProtocolTranscript(config, combos, outcome_idx)


def reconstruct_key(
    t: ProtocolTranscript,
) -> tuple[tuple[int, ...], tuple[int, ...], float]:
    """Alice's bits, the Bobs' cooperative reconstruction, and their error rate."""
    if t.sift_count == 0:
        raise EmptySiftedSet("transcript has no sifted rounds")
    outcomes = t.outcome_idx[t.sifted]
    # Alice holds bit k = 2m - 1; the Bobs' +-1 product is -1 iff an odd number
    # of the k bits below it are set, and all-y rounds carry a carrier-dependent
    # parity sign: the full-y correlation is -s, so the bit flips when s = +1
    scenario = t.config.scenario
    k = scenario.n_parties - 1
    y_flip = (1 + branch_y_sign(scenario.carrier, scenario.m)) // 2
    all_y = t.combo_idx[t.sifted] != 0
    alice = outcomes >> k
    bob = (popcounts(k)[outcomes & (2**k - 1)] + all_y * y_flip) % 2
    errors = int(np.count_nonzero(alice != bob))
    return tuple(alice.tolist()), tuple(bob.tolist()), errors / t.sift_count


def _entropy(codes: np.ndarray) -> float:
    """Plug-in entropy (bits) of integer codes, its terms summed in the order
    in which the codes first appear."""
    n = codes.size
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    return entropy(c / n for c in counts[np.argsort(first)].tolist())


def coalition_info(t: ProtocolTranscript, subset: Iterable[int]) -> float:
    """Plug-in estimate of I(Alice's sifted bit : subset outcome tuple, basis).

    Sifting announces the basis, so the coalition holds it too; as Alice's
    bit is uniform in both bases, the exact value is I(A:S | basis), the mean
    of the all-x and the all-y information.  ``subset`` holds Bob qubit
    indices (1 .. 2m-1) and must leave out at least one Bob; the all-Bobs
    case is key reconstruction, not a coalition.  A single sifted round gives
    exactly 0.
    """
    n = t.config.scenario.n_parties
    bobs = set(range(1, n))
    sub = sorted(set(subset))
    if not sub or not set(sub) <= bobs:
        raise InvalidArgument(f"subset must be a nonempty set of Bob indices {sorted(bobs)}")
    if set(sub) == bobs:
        raise InvalidArgument("subset must be proper; use reconstruct_key for all Bobs")
    if t.sift_count == 0:
        raise EmptySiftedSet("transcript has no sifted rounds")
    # the outcome index with the basis above it, bit n set in all-y rounds,
    # added in place to the copy the mask makes.  The codes keep the column's
    # dtype (2 bytes hold bit n up to MAX_M): np.unique on int64 codes raised
    # the m = 6 command's peak RSS by about 0.15 MB.  Each mask codes the bits
    # it keeps one to one: Alice's bit top, Bob q's bit top >> q and the
    # basis bit
    o = t.outcome_idx[t.sifted]
    o[t.combo_idx[t.sifted] != 0] += 1 << n
    top = 1 << (n - 1)
    mask = 1 << n | sum(top >> q for q in sub)
    return _entropy(o & top) + _entropy(o & mask) - _entropy(o & (top | mask))


_SIGN_TEXT = str.maketrans({"0": "1,", "1": "-1,"})


def transcript_to_jsonl(t: ProtocolTranscript) -> Iterable[str]:
    """One JSON document per round, one line each, yielded as text blocks
    that each hold the whole newline-terminated lines of the rounds of one
    thousand, 1000 h to 1000 h + 999.  Round numbers are read from digit
    tables, the other pieces from tables over every combination and outcome."""
    n = t.config.scenario.n_parties
    # a line is 5 pieces: prefix, round number, bases, outcomes, sifted flag
    bases = np.array([f',"bases":"{_bases(c, n)}","outcomes":' for c in range(2**n)],
                     dtype=object)
    # outcome bit 0 is +1 and bit 1 is -1: "011" -> "[1,-1,-1]"
    signs = np.array(
        [f"[{format(o, f'0{n}b').translate(_SIGN_TEXT)[:-1]}]" for o in range(2**n)],
        dtype=object,
    )
    # one str object repeated, not np.full's copy per entry; true where sifted
    flags = np.array([',"sifted":false}\n'] * 2**n, dtype=object)
    flags[[0, -1]] = ',"sifted":true}\n'
    # round i is the prefix for h = i // 1000, then i % 1000 padded to three
    # digits, or unpadded while h = 0
    padded = [f"{j:03d}" for j in range(1000)]
    digits = ([s.lstrip("0") or "0" for s in padded], padded)
    rounds = t.combo_idx.size
    for a in range(0, rounds, 1000):
        b, h = min(a + 1000, rounds), a // 1000
        parts = [None] * (5 * (b - a))
        parts[0::5] = ['{"round":' + str(h) if h else '{"round":'] * (b - a)
        parts[1::5] = digits[h > 0][: b - a]
        parts[2::5] = bases[t.combo_idx[a:b]].tolist()
        parts[3::5] = signs[t.outcome_idx[a:b]].tolist()
        parts[4::5] = flags[t.combo_idx[a:b]].tolist()
        yield "".join(parts)


def transcript_summary(
    t: ProtocolTranscript, coalition_subsets: Sequence[Sequence[int]] = ()
) -> dict:
    """Sift count, error rate and coalition-information table; None without sifted rounds."""
    any_sifted = t.sift_count > 0
    error_rate = reconstruct_key(t)[2] if any_sifted else None
    table = {
        ",".join(str(q) for q in sub): coalition_info(t, sub) if any_sifted else None
        for sub in coalition_subsets
    }
    return {
        "rounds": t.config.rounds,
        "sift_count": t.sift_count,
        "sift_rate": t.sift_count / t.config.rounds,
        "error_rate": error_rate,
        "coalition_info": table,
    }
