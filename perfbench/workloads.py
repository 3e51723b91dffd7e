"""The benchmark's workloads: lists of ``qss`` CLI jobs made from a seed.

Each workload is chosen so that a different layer of the package does the
work (see README.md for the layer each one stresses and the one it leaves
idle).  Job sizes are fixed; the workload seed only picks the ``--seed``
values handed to the jobs that sample, so every seed does the same amount
of work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

#: Output suffix that ``--out`` takes for each command.  ``run-protocol``
#: treats ``--out`` as a prefix and appends its own two suffixes.
OUT_SUFFIX = {
    "run-protocol": "",
    "bell": ".json",
    "tensor": ".json",
    "rdm": ".json",
    "sweep-attack": ".csv",
    "thresholds": ".csv",
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the parameters its output is checked against."""

    command: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)

    def out_path(self, out_dir: str, index: int) -> str:
        return f"{out_dir}/{index:02d}-{self.command}{OUT_SUFFIX[self.command]}"

    def full_argv(self, out_dir: str, index: int) -> list[str]:
        return [self.command, *self.argv, "--out", self.out_path(out_dir, index)]


def run_protocol_job(m: int, rounds: int, carrier: str, phi: float, seed: int) -> Job:
    argv = ("--m", str(m), "--rounds", str(rounds), "--phi", repr(phi),
            "--carrier", carrier, "--seed", str(seed))
    return Job("run-protocol", argv,
               {"m": m, "rounds": rounds, "carrier": carrier, "phi": phi, "seed": seed})


def bell_job(state: str, n: int, noise: float, full_sum: float, search_seed: int | None = None,
             restarts: int = 64) -> Job:
    argv = ["--state", state, "--n", str(n), "--noise", repr(noise)]
    if search_seed is not None:
        argv += ["--frame", "search", "--restarts", str(restarts), "--seed", str(search_seed)]
    return Job("bell", tuple(argv),
               {"state": state, "n": n, "noise": noise, "full_sum": full_sum,
                "search": search_seed is not None})


def _protocol_long(rng: random.Random) -> list[Job]:
    return [
        run_protocol_job(3, 100_000, "G", 0.3, rng.randrange(2**31)),
        run_protocol_job(3, 100_000, "GHZ", 0.0, rng.randrange(2**31)),
    ]


def _protocol_wide(rng: random.Random) -> list[Job]:
    return [run_protocol_job(6, 20_000, "G", 0.3, rng.randrange(2**31))]


def _analysis(rng: random.Random) -> list[Job]:
    grid = f"0:{math.pi / 2!r}:41"
    return [
        # the noisy 6-qubit G carrier has squared-tensor sum p^2 * 23
        bell_job("g", 6, 0.5, 0.5**2 * 23, search_seed=rng.randrange(2**31)),
        # odd-n GHZ: 2^(n-1) unit-magnitude correlations without identities
        bell_job("ghz", 7, 0.5, 0.5**2 * 2**6),
        Job("tensor", ("--state", "g", "--n", "8"), {"state": "g", "n": 8}),
        Job("sweep-attack", ("--m", "3", "--phi-grid", grid), {"m": 3, "points": 41}),
        Job("rdm", ("--n", "9"), {"n": 9}),
        Job("thresholds", ("--n-min", "4", "--n-max", "16"),
            {"n_min": 4, "n_max": 16, "flip_n": 13}),
    ]


WORKLOADS = {
    "protocol-long": _protocol_long,
    "protocol-wide": _protocol_wide,
    "analysis": _analysis,
}


def build(name: str, seed: int) -> list[Job]:
    """The job list of workload ``name`` for workload seed ``seed``."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
