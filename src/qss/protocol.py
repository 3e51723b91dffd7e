"""Monte Carlo simulation of the secret-sharing rounds.

Each round distributes one attacked carrier state, every party (Alice plus
the 2m-1 Bobs) independently measures sigma_x or sigma_y with probability
1/2, and sifting keeps only the rounds in which all parties used the same
basis.  Outcome +1 maps to bit 0, outcome -1 to bit 1.

Transcripts are bit-reproducible: the whole run is a deterministic function
of (config, seed).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .attack import AttackScenario, attacked_state
from .errors import BudgetExceeded, EmptySiftedSet, InvalidArgument
from .qsim import EIGENBASIS, Outcome, _apply_one

__all__ = [
    "ProtocolConfig",
    "RoundRecord",
    "ProtocolTranscript",
    "run_protocol",
    "reconstruct_key",
    "coalition_info",
    "estimate_mutual_info",
    "transcript_to_jsonl",
    "transcript_summary",
]


#: Bytes the outcome tables of one run may take.  They hold 2^(2m) combinations
#: by 2^(2m) outcomes of 8 bytes, 8 * 16^m in all, so the budget admits m <= 7.
TABLE_BUDGET_BYTES = 2**31

#: Bytes the per-round columns of one run may take.  ``run_protocol`` holds
#: 8 bytes per party for the basis draws and about six more 8-byte columns
#: (uniforms, combinations, grouping order, outcomes), 8 * (2m + 6) a round.
ROUND_BUDGET_BYTES = 2**31


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
        # compared in log2 so that a huge m never builds a huge integer
        if 4 * m + 3 > math.log2(TABLE_BUDGET_BYTES):
            raise BudgetExceeded(f"m = {m} needs 8 * 16^{m} bytes of outcome tables")
        per_round = 8 * (2 * m + 6)
        if per_round * self.rounds > ROUND_BUDGET_BYTES:
            raise BudgetExceeded(
                f"{self.rounds} rounds of {per_round} bytes exceed {ROUND_BUDGET_BYTES} bytes"
            )

    @property
    def n_parties(self) -> int:
        return self.scenario.n_parties


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
    MSB first, is 1 when party q measured sigma_y), the outcome index (bit q
    is 1 when party q saw -1), and whether the round was sifted."""

    config: ProtocolConfig
    combo_idx: np.ndarray
    outcome_idx: np.ndarray
    sifted: np.ndarray

    @property
    def sift_count(self) -> int:
        return int(np.count_nonzero(self.sifted))

    def _sifted_bits(self) -> np.ndarray:
        """Outcome bits of the sifted rounds, shape (sift_count, n_parties)."""
        shifts = np.arange(self.config.n_parties - 1, -1, -1)
        return (self.outcome_idx[self.sifted, None] >> shifts) & 1

    @property
    def alice_key(self) -> tuple[int, ...]:
        return tuple(self._sifted_bits()[:, 0].tolist())

    @property
    def bob_product_key(self) -> tuple[int, ...]:
        # all-y rounds carry a carrier-dependent parity sign: the full-y
        # correlation is (-1)^(m+1) for the G carrier and (-1)^m for GHZ
        scenario = self.config.scenario
        y_flip = (scenario.m + (scenario.carrier == "G")) % 2
        all_y = self.combo_idx[self.sifted] != 0
        # the product of +-1 outcomes is -1 iff an odd number of them are -1
        parity = self._sifted_bits()[:, 1:].sum(axis=1) + all_y * y_flip
        return tuple((parity % 2).tolist())

    def _decode(self) -> tuple[Iterable, dict[int, str], dict[int, Outcome]]:
        """The (combo, outcome index, sifted) rows, the bases of each combination
        present and the +-1 outcomes of each outcome index present."""
        n = self.config.n_parties
        rows = zip(self.combo_idx.tolist(), self.outcome_idx.tolist(), self.sifted.tolist())
        bases = {c: _bases(c, n) for c in np.unique(self.combo_idx).tolist()}
        bits = {o: format(o, f"0{n}b") for o in np.unique(self.outcome_idx).tolist()}
        return rows, bases, {o: tuple(1 - 2 * int(b) for b in s) for o, s in bits.items()}

    @property
    def records(self) -> tuple[RoundRecord, ...]:
        rows, bases, outcomes = self._decode()
        return tuple(
            RoundRecord(bases[c], outcomes[o], s, bases[c][0] if s else "mixed")
            for c, o, s in rows
        )


def _outcome_distributions(config: ProtocolConfig) -> np.ndarray:
    """Row c: cumulative probabilities over the 2^(2m) party-outcome indices in
    basis combination ``_bases(c)``, marginalized over Evan's probe."""
    n_parties = config.n_parties
    psi = attacked_state(config.scenario).psi
    base = psi.amplitudes.reshape((2,) * psi.n_qubits)
    tables = np.empty((2**n_parties, 2**n_parties))
    for combo in range(2**n_parties):
        arr = base
        for q, ax in enumerate(_bases(combo, n_parties)):
            arr = _apply_one(arr, q, EIGENBASIS[ax].conj().T)
        probs = (np.abs(arr) ** 2).reshape(2**n_parties, 2).sum(axis=1)
        tables[combo] = np.cumsum(probs / probs.sum())
    return tables


def run_protocol(config: ProtocolConfig) -> ProtocolTranscript:
    """Simulate all rounds and sift them."""
    n_parties = config.n_parties
    rng = np.random.default_rng(config.seed)
    basis_bits = rng.integers(0, 2, size=(config.rounds, n_parties))
    uniforms = rng.random(config.rounds)

    tables = _outcome_distributions(config)
    combos = basis_bits @ (1 << np.arange(n_parties - 1, -1, -1))
    outcome_idx = np.empty(config.rounds, dtype=np.int64)
    # rounds grouped by combination: order[bounds[c]:bounds[c + 1]] use combination c
    order = np.argsort(combos, kind="stable")
    bounds = np.searchsorted(combos[order], np.arange(2**n_parties + 1))
    for combo in np.flatnonzero(np.diff(bounds)):
        rows = order[bounds[combo] : bounds[combo + 1]]
        outcome_idx[rows] = np.searchsorted(tables[combo], uniforms[rows], side="right")
    outcome_idx = np.minimum(outcome_idx, 2**n_parties - 1)
    sifted = (combos == 0) | (combos == 2**n_parties - 1)
    return ProtocolTranscript(config, combos, outcome_idx, sifted)


def reconstruct_key(
    t: ProtocolTranscript,
) -> tuple[tuple[int, ...], tuple[int, ...], float]:
    """Alice's bits, the Bobs' cooperative reconstruction, and their error rate."""
    if t.sift_count == 0:
        raise EmptySiftedSet("transcript has no sifted rounds")
    errors = sum(a != b for a, b in zip(t.alice_key, t.bob_product_key))
    return t.alice_key, t.bob_product_key, errors / t.sift_count


def estimate_mutual_info(samples: Sequence[tuple[object, object]]) -> float:
    """Plug-in mutual information (bits) between paired labels and symbols."""
    if len(samples) < 2:
        raise InvalidArgument("need at least 2 samples")
    n = len(samples)
    joint = Counter(samples)
    left = Counter(x for x, _ in samples)
    right = Counter(y for _, y in samples)

    def _h(counts: Counter) -> float:
        return -sum((c / n) * math.log2(c / n) for c in counts.values())

    return _h(left) + _h(right) - _h(joint)


def coalition_info(t: ProtocolTranscript, subset: Iterable[int]) -> float:
    """Plug-in estimate of I(Alice's sifted bit : subset outcome tuple).

    ``subset`` holds Bob qubit indices (1 .. 2m-1) and must leave out at
    least one Bob; the all-Bobs case is key reconstruction, not a coalition.
    """
    bobs = set(range(1, t.config.n_parties))
    sub = sorted(set(subset))
    if not sub or not set(sub) <= bobs:
        raise InvalidArgument(f"subset must be a nonempty set of Bob indices {sorted(bobs)}")
    if set(sub) == bobs:
        raise InvalidArgument("subset must be proper; use reconstruct_key for all Bobs")
    if t.sift_count == 0:
        raise EmptySiftedSet("transcript has no sifted rounds")
    bits = t._sifted_bits()
    outcomes = map(tuple, (1 - 2 * bits[:, sub]).tolist())
    return estimate_mutual_info(list(zip(bits[:, 0].tolist(), outcomes)))


def transcript_to_jsonl(t: ProtocolTranscript) -> Iterable[str]:
    """One JSON document per round."""
    rows, bases, outcomes = t._decode()
    texts = {o: json.dumps(list(v), separators=(",", ":")) for o, v in outcomes.items()}
    flags = ("false", "true")
    for i, (c, o, s) in enumerate(rows):
        yield f'{{"round":{i},"bases":"{bases[c]}","outcomes":{texts[o]},"sifted":{flags[s]}}}'


def transcript_summary(
    t: ProtocolTranscript, coalition_subsets: Sequence[Sequence[int]] = ()
) -> dict:
    """Summary dictionary: sift count, error rate, coalition-information table."""
    _, _, error_rate = reconstruct_key(t)
    table = {
        ",".join(str(q) for q in sub): coalition_info(t, sub)
        for sub in coalition_subsets
    }
    return {
        "rounds": t.config.rounds,
        "sift_count": t.sift_count,
        "sift_rate": t.sift_count / t.config.rounds,
        "error_rate": error_rate,
        "coalition_info": table,
    }
