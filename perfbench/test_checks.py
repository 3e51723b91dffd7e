"""The output checks accept real CLI outputs and reject corrupted ones.

Run with ``PYTHONPATH=src python3 -m pytest perfbench`` from the repo root.
"""

import itertools
import json
import math
import shutil

import numpy as np
import pytest

import checks
import workloads
from qss.cli import main


def _run(job, out_dir):
    out = job.out_path(str(out_dir), 0)
    assert main(job.full_argv(str(out_dir), 0)) == 0
    return out


SMALL_JOBS = {
    "protocol-g": workloads.run_protocol_job(2, 4000, "G", 0.3, 7),
    "protocol-ghz": workloads.run_protocol_job(2, 4000, "GHZ", 0.0, 8),
    "bell-search": workloads.bell_job("g", 6, 0.5, 0.5**2 * 23, search_seed=3, restarts=4),
    "bell-ghz": workloads.bell_job("ghz", 5, 0.5, 0.5**2 * 2**4),
    "tensor": workloads.Job("tensor", ("--state", "g", "--n", "4"), {"state": "g", "n": 4}),
    "sweep": workloads.Job("sweep-attack", ("--m", "2", "--phi-grid", f"0:{math.pi / 2!r}:41"),
                           {"m": 2, "points": 41}),
    "rdm": workloads.Job("rdm", ("--n", "5"), {"n": 5}),
    "thresholds": workloads.Job("thresholds", ("--n-min", "4", "--n-max", "16"),
                                {"n_min": 4, "n_max": 16, "flip_n": 13}),
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """Each small job's output directory, written once by the real CLI."""
    dirs = {}
    for name, job in SMALL_JOBS.items():
        out_dir = tmp_path_factory.mktemp(name)
        _run(job, out_dir)
        dirs[name] = out_dir
    return dirs


@pytest.fixture
def output(pristine, tmp_path):
    """A private copy of one job's output: (job, output path)."""

    def copy(name):
        shutil.copytree(pristine[name], tmp_path / name)
        return SMALL_JOBS[name], SMALL_JOBS[name].out_path(str(tmp_path / name), 0)

    return copy


def _edit_json(path, edit):
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _edit_transcript(prefix, edit):
    """Apply ``edit`` to every transcript record, then make the summary's
    sift count and error rate agree with the edited transcript."""
    with open(prefix + ".transcript.jsonl") as fh:
        records = [json.loads(line) for line in fh]
    for rec in records:
        edit(rec)
    with open(prefix + ".transcript.jsonl", "w") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in records)
    return records


def _resummarize(prefix, records, y_sign):
    sifted = [r for r in records if r["sifted"]]
    errors = sum(
        r["outcomes"][0] != math.prod(r["outcomes"][1:]) * (y_sign if r["bases"][0] == "Y" else 1)
        for r in sifted
    )

    def edit(summary):
        summary["sift_count"] = len(sifted)
        summary["error_rate"] = errors / len(sifted)

    _edit_json(prefix + ".summary.json", edit)


@pytest.mark.parametrize("name", sorted(SMALL_JOBS))
def test_real_outputs_pass(pristine, name):
    job = SMALL_JOBS[name]
    assert checks.check(job, job.out_path(str(pristine[name]), 0)) == []


def _first_sifted(prefix):
    with open(prefix + ".transcript.jsonl") as fh:
        return next(json.loads(line)["round"] for line in fh if json.loads(line)["sifted"])


@pytest.mark.parametrize("name", ["protocol-g", "protocol-ghz"])
def test_flipped_outcome_rejected(output, name):
    job, prefix = output(name)
    target = _first_sifted(prefix)

    def flip(rec):
        if rec["round"] == target:
            rec["outcomes"][0] *= -1

    _edit_transcript(prefix, flip)
    assert checks.check(job, prefix)


def test_flipped_outcome_without_attack_rejected_by_physics(output):
    # with the summary made consistent, only "no errors without an attack" can object
    job, prefix = output("protocol-ghz")
    target = _first_sifted(prefix)

    def flip(rec):
        if rec["round"] == target:
            rec["outcomes"][0] *= -1

    _resummarize(prefix, _edit_transcript(prefix, flip), y_sign=(-1) ** 2)
    problems = checks.check(job, prefix)
    assert any("without an attack" in p for p in problems)


def test_sifted_flag_mismatch_rejected(output):
    job, prefix = output("protocol-g")
    target = _first_sifted(prefix)

    def unflag(rec):
        if rec["round"] == target:
            rec["sifted"] = False

    _edit_transcript(prefix, unflag)
    assert any("sifted flag" in p for p in checks.check(job, prefix))


def test_truncated_transcript_rejected(output):
    job, prefix = output("protocol-g")
    with open(prefix + ".transcript.jsonl") as fh:
        lines = fh.readlines()
    with open(prefix + ".transcript.jsonl", "w") as fh:
        fh.writelines(lines[:-1])
    assert any("lines" in p for p in checks.check(job, prefix))


def test_wrong_width_rejected(output):
    job, prefix = output("protocol-g")
    _edit_transcript(prefix, lambda rec: rec.update(bases=rec["bases"] + "X"))
    assert checks.check(job, prefix)


def test_sift_count_outside_binomial_bound_rejected(output):
    # every round sifted and error-free: consistent, but far too many sifted rounds
    job, prefix = output("protocol-g")

    def all_x(rec):
        rec.update(bases="XXXX", outcomes=[1, 1, 1, 1], sifted=True)

    _resummarize(prefix, _edit_transcript(prefix, all_x), y_sign=(-1) ** 3)
    assert any("sift count" in p for p in checks.check(job, prefix))


def test_error_count_outside_binomial_bound_rejected(output):
    # flip Alice in every sifted round: the error rate becomes 1 - qber
    job, prefix = output("protocol-g")

    def flip_alice(rec):
        if rec["sifted"]:
            rec["outcomes"][0] *= -1

    _resummarize(prefix, _edit_transcript(prefix, flip_alice), y_sign=(-1) ** 3)
    assert any("error count" in p for p in checks.check(job, prefix))


def test_unparseable_output_rejected(output):
    job, path = output("rdm")
    with open(path, "w") as fh:
        fh.write("{")
    assert any("unreadable" in p for p in checks.check(job, path))


@pytest.mark.parametrize(
    "name, edit, expect",
    [
        ("bell-search", lambda d: d.update(full_sum=d["full_sum"] + 1e-6), "full_sum"),
        ("bell-ghz", lambda d: d.update(full_sum=d["full_sum"] * 2), "full_sum"),
        ("bell-search", lambda d: d["search"].update(best_plane_sum=d["plane_sum"] - 1e-3),
         "< plane_sum"),
        ("bell-search", lambda d: d["search"].update(best_plane_sum=d["full_sum"] + 1e-3),
         "exceeds full_sum"),
        ("bell-search", lambda d: d.pop("search"), "missing"),
        ("tensor", lambda d: d["entries"].__setitem__(40, d["entries"][40] + 1e-6),
         "dense reference"),
        ("tensor", lambda d: d["entries"].pop(), "entries"),
        ("rdm", lambda d: d.update(nullspace_dim=1), "nullspace_dim"),
        ("rdm", lambda d: d.update(nullspace_dim=False), "nullspace_dim"),
        ("rdm", lambda d: d.update(forced_product=False), "forced_product"),
        ("rdm", lambda d: d.update(ghz_counterexample=False), "ghz_counterexample"),
        ("rdm", lambda d: d.update(n=6), "n is"),
    ],
)
def test_corrupted_json_rejected(output, name, edit, expect):
    job, path = output(name)
    _edit_json(path, edit)
    problems = checks.check(job, path)
    assert any(expect in p for p in problems), problems


def _edit_text(path, old, new):
    with open(path) as fh:
        text = fh.read()
    assert old in text
    with open(path, "w") as fh:
        fh.write(text.replace(old, new, 1))


def test_wrong_crossing_rejected(output):
    job, path = output("sweep")
    _edit_text(path, f"crossing_phi: {math.pi / 4!r}", f"crossing_phi: {math.pi / 4 + 1e-6!r}")
    assert any("crossing_phi" in p for p in checks.check(job, path))


def test_wrong_threshold_flip_rejected(output):
    job, path = output("thresholds")
    with open(path) as fh:
        lines = fh.read().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("12,"))
    lines[row] = lines[row].replace("false", "true")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert any("flip" in p for p in checks.check(job, path))


def test_binomial_tail_matches_direct_sum():
    n, p = 30, 0.3
    pmf = [math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(n + 1)]
    for k in range(n + 1):
        side = sum(pmf[: k + 1]) if k <= n * p else sum(pmf[k:])
        assert checks.binomial_tail(k, n, p) == pytest.approx(side, rel=1e-9, abs=1e-300)
    assert checks.binomial_tail(0, 10, 0.0) == 1.0
    assert checks.binomial_tail(1, 10, 0.0) == 0.0


@pytest.mark.parametrize("state", ["g", "ghz"])
def test_reference_tensor_matches_kronecker_products(state):
    n = 3
    amps = checks.carrier_amplitudes(state, n)
    tensor = checks.reference_tensor(amps)
    for idx in itertools.product(range(3), repeat=n):
        op = np.eye(1)
        for a in idx:
            op = np.kron(op, checks._PAULI[a])
        assert tensor[idx] == pytest.approx(np.vdot(amps, op @ amps).real, abs=1e-12)
