"""Command-line front end: every analysis as a seed-deterministic batch job.

All angles are radians unless ``--deg`` is given.  Outputs are written
atomically (temp file + rename), so a failed command never leaves a partial
file.  Floats are emitted with round-trip precision; reruns with identical
flags and seed produce byte-identical files.

Exit codes: 0 success, 2 usage error, 3 numerical-invariant failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import Iterable

import numpy as np

from . import bell, rdm
from .attack import (
    AttackScenario,
    attacked_state,
    check_phi_grid,
    coalition_collapse,
    mutual_info_ab,
    mutual_info_ae,
    qber_x,
    rho_ae,
)
from .bell import correlation_tensor, horodecki_m
from .errors import (
    BudgetExceeded,
    InternalInconsistency,
    InvalidState,
    QssError,
)
from .protocol import (
    ProtocolConfig,
    run_protocol,
    transcript_summary,
    transcript_to_jsonl,
)
from .states import add_white_noise, carrier_state, dicke_vector

SCHEMA_VERSION = "qss-1"


def _atomic_write(path: str, chunks: Iterable[str]) -> None:
    """Write the text chunks to ``path`` as they come, through a temp file
    renamed into place, so a failure partway leaves no file behind."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qss-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # NaN or +-inf, which JSON cannot hold
        raise InternalInconsistency(f"non-finite value in the output: {exc}") from exc


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if not math.isfinite(x):
            raise InternalInconsistency(f"non-finite value {x!r} in the output")
        return repr(x)
    return str(x)


def _csv_text(header: list[str], rows: list[list], comments: list[str] = ()) -> str:
    lines = [f"# schema: {SCHEMA_VERSION}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    lines.extend(f"# {c}" for c in comments)
    return "\n".join(lines) + "\n"


#: Points a ``--phi-grid`` may ask for, in either form.  At about 0.8 ms a
#: point (any m) a million take about 15 minutes and 140 MB of CSV rows.
MAX_GRID_POINTS = 10**6


def _parse_grid(spec: str) -> np.ndarray:
    """argparse type of ``--phi-grid``: start:stop:count or a comma list,
    either one's size checked before a point is parsed or allocated."""
    try:
        if ":" not in spec:
            if spec.count(",") >= MAX_GRID_POINTS:
                raise argparse.ArgumentTypeError(f"grid count must be at most {MAX_GRID_POINTS}")
            return np.array([float(v) for v in spec.split(",")])
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid grid {spec!r}") from exc
    if not 2 <= count <= MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"grid count must be in [2, {MAX_GRID_POINTS}]")
    return np.linspace(start, stop, count)


def _cmd_run_protocol(args) -> int:
    phi = math.radians(args.phi) if args.deg else args.phi
    scenario = AttackScenario(args.carrier, args.m, phi)
    config = ProtocolConfig(args.rounds, scenario, args.seed)
    transcript = run_protocol(config)
    singles = [(q,) for q in range(1, 2 * args.m)]
    extras = [tuple(range(1, 2 * args.m - 1))]  # all Bobs but the last one
    summary = transcript_summary(transcript, singles + extras)
    summary.update(
        {
            "schema_version": SCHEMA_VERSION,
            "m": args.m,
            "carrier": args.carrier,
            "phi": phi,
            "seed": args.seed,
        }
    )
    # formatted first, so that a summary that cannot be written leaves no transcript
    summary_text = _json_text(summary)
    _atomic_write(args.out + ".transcript.jsonl", transcript_to_jsonl(transcript))
    _atomic_write(args.out + ".summary.json", (summary_text,))
    return 0


def _cmd_sweep_attack(args) -> int:
    grid = args.phi_grid
    if args.deg:
        grid = np.radians(grid)
    check_phi_grid(grid)
    rows = []
    for phi in grid.tolist():
        t = attacked_state(AttackScenario(args.carrier, args.m, phi))
        m_ab = horodecki_m(coalition_collapse(t, kept_bob=1))
        m_ae = horodecki_m(rho_ae(t))
        i_ab, i_ae = mutual_info_ab(phi), mutual_info_ae(phi)
        rows.append([phi, i_ab, i_ae, i_ab - i_ae, qber_x(phi), m_ab, m_ae])
    # I(A:E)(phi) is I(A:B)(pi/2 - phi), so the margin vanishes exactly at pi/4
    crossing = math.pi / 4
    text = _csv_text(
        ["phi", "i_ab", "i_ae", "margin", "qber_x", "horodecki_ab", "horodecki_ae"],
        rows,
        comments=[f"crossing_phi: {_fmt(crossing)}"],
    )
    _atomic_write(args.out, (text,))
    return 0


def _cmd_bell(args) -> int:
    if args.n > bell.MAX_TENSOR_QUBITS:
        # before add_white_noise builds a 2^n x 2^n matrix the tensor would refuse
        raise BudgetExceeded(f"correlation tensor capped at n <= {bell.MAX_TENSOR_QUBITS}")
    carrier = "G" if args.state == "g" else "GHZ"
    state = carrier_state(carrier, args.n)
    if args.noise == 1.0:
        tensor = correlation_tensor(state)
    else:
        tensor = correlation_tensor(add_white_noise(state, args.noise).realized)
    plane = bell.plane_sum(tensor)
    result = {
        "schema_version": SCHEMA_VERSION,
        "state": args.state,
        "n": args.n,
        "noise": args.noise,
        "plane_sum": plane,
        "full_sum": bell.full_sum(tensor),
        "lr_sufficient_default_frame": plane <= 1.0,
    }
    if args.n >= 4:
        result["p_crit_g"] = bell.crit_noise_g(args.n)
        result["q_crit_ghz"] = bell.crit_noise_ghz(args.n)
    if args.frame == "search":
        value, frame = bell.maximize_plane_sum(
            dicke_vector(carrier, args.n), args.noise, restarts=args.restarts, seed=args.seed
        )
        result["search"] = {
            "best_plane_sum": value,
            "restarts": args.restarts,
            "frame": [[list(map(float, v)) for v in party] for party in frame.axes],
            "two_setting_criterion_exceeded": value > 1.0,
            "upper_bound": bell.plane_sum_upper_bound(tensor),
        }
    _atomic_write(args.out, (_json_text(result),))
    return 0


def _cmd_thresholds(args) -> int:
    reports = bell.crossover_scan(args.n_min, args.n_max)
    rows = [[r.n, r.p_crit_g, r.q_crit_ghz, r.g_more_robust] for r in reports]
    text = _csv_text(["n", "p_crit_g", "q_crit_ghz", "g_more_robust"], rows)
    _atomic_write(args.out, (text,))
    return 0


def _cmd_rdm(args) -> int:
    solution = rdm.g_uniqueness_check(args.n)
    result = {
        "schema_version": SCHEMA_VERSION,
        "n": args.n,
        "forced_product": solution.forced_product,
        "nullspace_dim": solution.nullspace_dim,
        "residual": solution.residual,
        "gram": [[[v.real, v.imag] for v in row] for row in solution.gram],
        "ghz_counterexample": rdm.ghz_counterexample_check(args.n),
    }
    _atomic_write(args.out, (_json_text(result),))
    return 0


def _cmd_tensor(args) -> int:
    state = carrier_state("G" if args.state == "g" else "GHZ", args.n)
    tensor = correlation_tensor(state)
    result = {
        "schema_version": SCHEMA_VERSION,
        "state": args.state,
        "n": args.n,
        "ordering": "xyz-row-major",
        "entries": [float(v) for v in tensor.entries.reshape(-1)],
    }
    _atomic_write(args.out, (_json_text(result),))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qss",
        description="Quantum secret sharing: protocol simulation and security analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-protocol", help="Monte Carlo protocol run")
    p.add_argument("--m", type=int, required=True, help="half the party count (N = 2m)")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--phi", type=float, default=0.0, help="attack angle")
    p.add_argument("--carrier", choices=["G", "GHZ"], default="G")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deg", action="store_true", help="interpret angles in degrees")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=_cmd_run_protocol)

    p = sub.add_parser("sweep-attack", help="security sweep over attack angles")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--carrier", choices=["G", "GHZ"], default="G")
    p.add_argument("--phi-grid", type=_parse_grid, required=True,
                   help="start:stop:count or comma list")
    p.add_argument("--deg", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep_attack)

    p = sub.add_parser("bell", help="correlation-strength sums and thresholds")
    p.add_argument("--state", choices=["g", "ghz"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--noise", type=float, default=1.0, help="visibility p")
    p.add_argument("--frame", choices=["default", "search"], default="default")
    p.add_argument("--restarts", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bell)

    p = sub.add_parser("thresholds", help="critical-noise crossover scan")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("rdm", help="marginal-determination check")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rdm)

    p = sub.add_parser("tensor", help="full correlation tensor export")
    p.add_argument("--state", choices=["g", "ghz"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tensor)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidState, InternalInconsistency) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (QssError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
