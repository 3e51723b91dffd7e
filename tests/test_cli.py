"""Command-line interface: file outputs, determinism, exit codes."""

import hashlib
import json
import math
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qss import cli, protocol, states
from qss.cli import main


def run_cli(args):
    try:
        return main(args)
    except SystemExit as exc:  # argparse errors
        return exc.code


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema: qss-1"
    header = lines[1].split(",")
    rows = []
    comments = {}
    for line in lines[2:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            comments[key] = value
        else:
            rows.append(dict(zip(header, line.split(","))))
    return rows, comments


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    assert run_cli(
        ["sweep-attack", "--m", "2", "--phi-grid", "0:1.5707963267948966:9",
         "--out", str(out)]
    ) == 0
    return read_csv(out)


class TestSweepAttack:
    def test_grid_size_and_columns(self, sweep):
        rows, _ = sweep
        assert len(rows) == 9
        assert set(rows[0]) == {
            "phi", "i_ab", "i_ae", "margin", "qber_x", "horodecki_ab", "horodecki_ae"
        }

    def test_crossing_comment(self, sweep):
        _, comments = sweep
        assert float(comments["crossing_phi"]) == pytest.approx(
            math.pi / 4, abs=1e-6
        )

    def test_margin_sign_matches_horodecki(self, sweep):
        rows, _ = sweep
        for row in rows:
            phi = float(row["phi"])
            if abs(phi - math.pi / 4) < 1e-3:
                continue
            assert (float(row["margin"]) > 0) == (float(row["horodecki_ab"]) > 1)
            assert (float(row["margin"]) > 0) == (float(row["horodecki_ae"]) < 1)

    def test_endpoint_values(self, sweep):
        rows, _ = sweep
        assert float(rows[0]["i_ab"]) == pytest.approx(1.0, abs=1e-12)
        assert float(rows[0]["horodecki_ab"]) == pytest.approx(2.0, abs=1e-9)
        assert float(rows[-1]["i_ae"]) == pytest.approx(1.0, abs=1e-12)

    # sha256 of the CSV, taken from the expectation values computed by
    # rotating the density once per Pauli factor, before the signed gather;
    # m = 3 gives the file of m = 2, since both read the states off the
    # branch span, where the Bob register is one qubit at every m; the GHZ
    # rows, taken before the collapse amplitudes were written as unit rows,
    # give it too, since the collapsed pair has the same M
    @pytest.mark.parametrize(
        "m, sha, carrier",
        [
            ("2", "dc768665e9d96ffa1c7c33b059aceab9ddf22f4bf4bbf921b7593848fc09bc89", "G"),
            ("3", "dc768665e9d96ffa1c7c33b059aceab9ddf22f4bf4bbf921b7593848fc09bc89", "G"),
            ("2", "dc768665e9d96ffa1c7c33b059aceab9ddf22f4bf4bbf921b7593848fc09bc89", "GHZ"),
            ("5", "dc768665e9d96ffa1c7c33b059aceab9ddf22f4bf4bbf921b7593848fc09bc89", "GHZ"),
        ],
    )
    def test_golden_output_hashes(self, tmp_path, m, sha, carrier):
        out = tmp_path / "sweep.csv"
        assert run_cli(
            ["sweep-attack", "--m", m, "--carrier", carrier,
             "--phi-grid", "0:1.5707963267948966:41", "--out", str(out)]
        ) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha

    def test_bad_grid_rejected(self, tmp_path):
        out = tmp_path / "x.csv"
        for grid in ("0:3.2:5", "0:1", "0:1:1", "abc"):
            assert run_cli(
                ["sweep-attack", "--m", "2", "--phi-grid", grid, "--out", str(out)]
            ) == 2, grid
            assert not out.exists()

    def test_oversized_grid_rejected_before_allocating(self, tmp_path, monkeypatch):
        # a comma list of MAX_GRID_POINTS points parses; neither form takes more
        assert cli._parse_grid(",".join(["0.5"] * cli.MAX_GRID_POINTS)).size == cli.MAX_GRID_POINTS

        def allocate(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(np, "linspace", allocate)
        monkeypatch.setattr(np, "array", allocate)
        out = tmp_path / "x.csv"
        for grid in (f"0:1:{cli.MAX_GRID_POINTS + 1}", f"0:1:{10**11}",
                     ",".join(["0.5"] * (cli.MAX_GRID_POINTS + 1))):
            assert run_cli(
                ["sweep-attack", "--m", "2", "--phi-grid", grid, "--out", str(out)]
            ) == 2, grid[:20]
            assert not out.exists()

    def test_phi_just_past_half_pi_by_roundoff(self, tmp_path):
        # 1.570796326794897 - pi/2 = 4.4e-16, inside the grid's 1e-12 slack
        out = tmp_path / "x.csv"
        assert run_cli(
            ["sweep-attack", "--m", "2", "--phi-grid", "0,1.570796326794897", "--out", str(out)]
        ) == 0
        rows, _ = read_csv(out)
        assert float(rows[-1]["i_ae"]) == 1.0

    def test_grid_end_within_roundoff_slack(self, tmp_path, monkeypatch):
        out = tmp_path / "x.csv"
        grid = f"0:{math.pi / 2 + 1e-12!r}:3"
        assert run_cli(["sweep-attack", "--m", "2", "--phi-grid", grid, "--out", str(out)]) == 0
        assert len(read_csv(out)[0]) == 3

        def attack(*args):
            raise AssertionError("a grid point ran")

        monkeypatch.setattr(cli, "attacked_state", attack)
        for grid in (f"0:{math.pi / 2 + 2e-12!r}:3", f"0,{math.pi / 2 + 2e-12!r}", "0,nan"):
            assert run_cli(
                ["sweep-attack", "--m", "2", "--phi-grid", grid, "--out", str(out)]
            ) == 2, grid
        assert len(read_csv(out)[0]) == 3

    @pytest.mark.parametrize("carrier", ["G", "GHZ"])
    @pytest.mark.parametrize("m", [2, 3, 8, 9, 10, 50, 500])
    def test_horodecki_columns_exact(self, tmp_path, m, carrier):
        # M of the collapsed Alice-Bob pair is 2cos^2(phi), of Alice-Evan 2sin^2(phi)
        out = tmp_path / "sweep.csv"
        args = ["sweep-attack", "--m", str(m), "--carrier", carrier,
                "--phi-grid", "0:1.5707963267948966:5", "--out", str(out)]
        tracemalloc.start()
        try:
            code = run_cli(args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        if m == 8:
            # within 16 copies of the 2^(2m+1) amplitudes of the attacked state
            assert peak < 16 * 16 * 2 ** (2 * m + 1)
        if m >= 10:
            # past the dense register the states are read off the branch span
            assert peak < 2**20
        rows, _ = read_csv(out)
        assert len(rows) == 5
        for row in rows:
            phi = float(row["phi"])
            assert abs(float(row["horodecki_ab"]) - 2 * math.cos(phi) ** 2) < 2e-15
            assert abs(float(row["horodecki_ae"]) - 2 * math.sin(phi) ** 2) < 2e-15

    def test_large_register_never_builds_branches(self, tmp_path, monkeypatch):
        def build(*args):
            raise AssertionError("the carrier branches were built")

        # every carrier and branch state is a rendering of _shell_state
        monkeypatch.setattr(states, "_shell_state", build)
        out = tmp_path / "x.csv"
        for carrier in ("G", "GHZ"):
            for m in ("10", "500"):
                assert run_cli(
                    ["sweep-attack", "--m", m, "--carrier", carrier, "--phi-grid", "0,0.5",
                     "--out", str(out)]
                ) == 0
                assert out.exists()
                out.unlink()

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "x.csv"
        assert run_cli(
            ["sweep-attack", "--m", "2", "--phi-grid", "0,0.5", "--out", str(out)]
        ) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestBellCommand:
    def test_g6_values(self, tmp_path):
        out = tmp_path / "bell.json"
        assert run_cli(["bell", "--state", "g", "--n", "6", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["plane_sum"] == pytest.approx(16.0 / 3.0, abs=1e-9)
        assert doc["full_sum"] == pytest.approx(23.0, abs=1e-9)
        assert not doc["lr_sufficient_default_frame"]
        assert doc["p_crit_g"] == pytest.approx(6.0 / (6.0 + (math.sqrt(2) - 1) * 16), abs=1e-12)

    def test_noisy_ghz_exceeds_just_above_threshold(self, tmp_path):
        out = tmp_path / "bell.json"
        assert run_cli(
            ["bell", "--state", "ghz", "--n", "6", "--noise", "0.18", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["plane_sum"] == pytest.approx(32 * 0.18**2, abs=1e-9)
        assert not doc["lr_sufficient_default_frame"]

    def test_noisy_ghz_sufficient_below_threshold(self, tmp_path):
        out = tmp_path / "bell.json"
        assert run_cli(
            ["bell", "--state", "ghz", "--n", "6", "--noise", "0.17", "--out", str(out)]
        ) == 0
        assert json.loads(out.read_text())["lr_sufficient_default_frame"]

    def test_frame_search_block(self, tmp_path):
        out = tmp_path / "bell.json"
        assert run_cli(
            ["bell", "--state", "ghz", "--n", "4", "--frame", "search",
             "--restarts", "2", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["search"]["best_plane_sum"] >= doc["plane_sum"] - 1e-9
        assert doc["search"]["two_setting_criterion_exceeded"]
        assert len(doc["search"]["frame"]) == 4

    # sha256 of the default-frame bell JSON, taken before the plane sum was
    # computed once per run
    @pytest.mark.parametrize(
        "state, n, noise, sha",
        [
            ("g", "6", "1.0", "c58e4ed0baf6b3fb95b4796c71fb2df5614add8a13975406496e8708813e455a"),
            ("ghz", "7", "0.5", "e1e5679dca455c9372ce65fc3a5b7775167fedb8ce4ce5bea8d419891b72ca57"),
            ("g", "4", "0.7", "3236067639bf793db91fb44d916b8af158bd2abbfad24a406b7c4a782eb522b5"),
            ("ghz", "6", "0.18", "0b0d0e531f2d0c9c8b4f0cb27169dbf95e5798f70791a6d5632ac42cfe1d7908"),
        ],
    )
    def test_golden_default_frame_hashes(self, tmp_path, state, n, noise, sha):
        out = tmp_path / "bell.json"
        args = ["bell", "--state", state, "--n", n, "--noise", noise, "--out", str(out)]
        assert run_cli(args) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha

    # sha256 of the frame-search bell JSON, taken while maximize_plane_sum
    # still wrapped its axes in a validated frame object
    @pytest.mark.parametrize(
        "args, sha",
        [
            (["--state", "g", "--n", "6", "--noise", "0.5", "--restarts", "8", "--seed", "3"],
             "d9ef2cac98e7832242554e84e992149b110c5352b37f1333f42cf4de9f1abc87"),
            (["--state", "ghz", "--n", "4", "--restarts", "2"],
             "02ed00c591c94629e80e4dedee2ab1ce5ced58e44a1f68bb1f1f519f73d891cd"),
        ],
    )
    def test_golden_frame_search_hashes(self, tmp_path, args, sha):
        out = tmp_path / "bell.json"
        assert run_cli(["bell", "--frame", "search", *args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha

    def test_plane_sum_computed_once(self, tmp_path, monkeypatch):
        calls = []
        plane_sum = cli.bell.plane_sum

        def counted(*args):
            calls.append(args)
            return plane_sum(*args)

        monkeypatch.setattr(cli.bell, "plane_sum", counted)
        out = tmp_path / "bell.json"
        assert run_cli(["bell", "--state", "g", "--n", "4", "--out", str(out)]) == 0
        assert len(calls) == 1

    def test_search_reports_one_plane_and_upper_bound(self, tmp_path):
        out = tmp_path / "bell.json"
        assert run_cli(
            ["bell", "--state", "g", "--n", "6", "--noise", "0.5", "--frame", "search",
             "--restarts", "8", "--out", str(out)]
        ) == 0
        search = json.loads(out.read_text())["search"]
        assert search["upper_bound"] == pytest.approx(0.25 * 46 / 3, abs=1e-9)
        assert search["best_plane_sum"] == pytest.approx(0.25 * 7.308641975308651, abs=1e-9)
        assert search["best_plane_sum"] <= search["upper_bound"]
        assert all(party == search["frame"][0] for party in search["frame"])

    def test_search_rerun_byte_identical(self, tmp_path):
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert run_cli(
                ["bell", "--state", "g", "--n", "4", "--noise", "0.7", "--frame", "search",
                 "--seed", "3", "--out", str(out)]
            ) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_negative_search_seed_exits_2(self, tmp_path):
        out = tmp_path / "bell.json"
        args = ["bell", "--state", "g", "--n", "4", "--frame", "search", "--seed", "-1"]
        assert run_cli(args + ["--out", str(out)]) == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("restarts", [cli.bell.MAX_RESTARTS + 1, 10**13])
    def test_oversized_restarts_exit_2_before_searching(self, tmp_path, monkeypatch, restarts):
        def search(*args):
            raise AssertionError("a restart block ran")

        monkeypatch.setattr(cli.bell, "refine_block", search)
        out = tmp_path / "bell.json"
        args = ["bell", "--state", "g", "--n", "4", "--frame", "search",
                "--restarts", str(restarts), "--out", str(out)]
        assert run_cli(args) == 2
        assert not list(tmp_path.iterdir())

    def test_oversized_tensor_exits_2(self, tmp_path):
        out = tmp_path / "bell.json"
        assert run_cli(["bell", "--state", "g", "--n", "9", "--out", str(out)]) == 2
        assert not out.exists()

    def test_oversized_noisy_tensor_exits_2_before_noise(self, tmp_path, monkeypatch):
        def allocate(*args):
            raise AssertionError("the noisy 2^n x 2^n matrix was built")

        monkeypatch.setattr(cli, "add_white_noise", allocate)
        out = tmp_path / "bell.json"
        args = ["bell", "--state", "g", "--n", "11", "--noise", "0.5", "--out", str(out)]
        assert run_cli(args) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bell", "tensor"])
    @pytest.mark.parametrize("n", ["20", "21"])
    def test_oversized_tensor_refused_before_the_carrier(
        self, tmp_path, monkeypatch, capsys, command, n
    ):
        def build(*args):
            raise AssertionError("the carrier state was built")

        monkeypatch.setattr(cli, "carrier_state", build)
        out = tmp_path / "out.json"
        assert run_cli([command, "--state", "g", "--n", n, "--out", str(out)]) == 2
        assert "correlation tensor capped at n <= 8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["bell", "tensor"])
    @pytest.mark.parametrize("state", ["g", "ghz"])
    def test_unallocatable_state_exits_2(self, tmp_path, command, state):
        out = tmp_path / "out.json"
        assert run_cli([command, "--state", state, "--n", "64", "--out", str(out)]) == 2
        assert not out.exists()


class TestThresholdsCommand:
    def test_flip_between_12_and_13(self, tmp_path):
        out = tmp_path / "thresholds.csv"
        assert run_cli(
            ["thresholds", "--n-min", "4", "--n-max", "14", "--out", str(out)]
        ) == 0
        rows, _ = read_csv(out)
        by_n = {row["n"]: row for row in rows}
        assert by_n["12"]["g_more_robust"] == "false"
        assert by_n["13"]["g_more_robust"] == "true"
        assert float(by_n["6"]["q_crit_ghz"]) == pytest.approx(
            1.0 / math.sqrt(32.0), abs=1e-12
        )


    def test_n_max_limit(self, tmp_path):
        # 2^(n-1) stops fitting a double above n = 1024
        out = tmp_path / "thresholds.csv"
        args = ["thresholds", "--n-min", "4", "--out", str(out)]
        assert run_cli(args + ["--n-max", "1025"]) == 2
        assert not out.exists()
        assert run_cli(args + ["--n-max", "1024"]) == 0
        assert len(read_csv(out)[0]) == 1021


class TestRdmCommand:
    def test_forced_at_five(self, tmp_path):
        out = tmp_path / "rdm.json"
        assert run_cli(["rdm", "--n", "5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["forced_product"]
        assert doc["nullspace_dim"] == 0
        assert doc["residual"] < 1e-9
        assert doc["ghz_counterexample"]
        gram = np.array([[complex(re, im) for re, im in row] for row in doc["gram"]])
        assert gram[0, 0] == 1.0 and gram[3, 3] == 1.0

    def test_not_forced_at_four(self, tmp_path):
        out = tmp_path / "rdm.json"
        assert run_cli(["rdm", "--n", "4", "--out", str(out)]) == 0
        assert not json.loads(out.read_text())["forced_product"]

    # sha256 of the rdm JSON, taken from the all-pairs system that the
    # support-restricted one replaced
    @pytest.mark.parametrize(
        "n, sha",
        [
            ("3", "165cc540c6fc5cc79fe11f4219af5461b48f96ca173a42ba9ab4e70293f69808"),
            ("4", "0faa9d3e8a1acebf165139193d99027ef35a3176fb34fabe0359d2d829f6209e"),
            ("5", "0b83210bada1e57c58fb67fc65e284fa47d54c12cf23cdc2be04c2dc08caaa06"),
            ("6", "3c35fcc5e581bbeb030bb74cf1cec609170ec08ae80ffb1c7a66a3f68e4b7700"),
            ("7", "cad1f67e786f87f44aeee5b80c48557a57bd544dc27bf612cb9906be9edbb365"),
            ("8", "9127238a723d779e3570b1c1ba2b656598207709477e320a7ce5dd72cdc204b3"),
            ("9", "6276ef72b451e4e33d06b6fbf26b31c6ab37fd1ff81922e986eb86585d5f9658"),
            # taken from the full-matrix eigen-solves that the live-block ones replaced
            ("10", "4f68364fc3e3d86eb76e712ded95f01f39f0a61ddd763b891a14d5dd4ebaea50"),
            ("11", "e43cbb2e7d6cde1090d8d8099eb6933869a5bb837e2089987e46b5105cdaded4"),
            # taken from the dense v0/v1 build that the shell-built one replaced
            ("12", "f53c0467c72794ffc41d09d5bf083dd538828dd84237db8bb816f93ecc42b48c"),
        ],
    )
    def test_golden_output_hashes(self, tmp_path, n, sha):
        out = tmp_path / "rdm.json"
        assert run_cli(["rdm", "--n", n, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha

    @pytest.mark.parametrize("n", ["13", "64"])
    def test_past_the_dense_sizes(self, tmp_path, n):
        out = tmp_path / "rdm.json"
        assert run_cli(["rdm", "--n", n, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["forced_product"] is True
        assert doc["nullspace_dim"] == 0
        assert doc["ghz_counterexample"] is True

    def test_oversized_exits_2(self, tmp_path, monkeypatch):
        # 65 qubits overflow the uint64 basis indices
        def build(*args):
            raise AssertionError("rdm started building")

        monkeypatch.setattr(cli.rdm, "_constraint_system", build)
        monkeypatch.setattr(cli.rdm, "marginal_set", build)
        out = tmp_path / "rdm.json"
        assert run_cli(["rdm", "--n", "65", "--out", str(out)]) == 2
        assert not out.exists()


class TestTensorCommand:
    def test_g6_export(self, tmp_path):
        out = tmp_path / "tensor.json"
        assert run_cli(["tensor", "--state", "g", "--n", "6", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        entries = doc["entries"]
        assert len(entries) == 3**6
        assert doc["ordering"] == "xyz-row-major"
        assert entries[0] == pytest.approx(1.0, abs=1e-10)  # xxxxxx
        assert entries[-1] == pytest.approx(-1.0, abs=1e-10)  # zzzzzz
        values = {round(v, 9) for v in entries}
        assert values <= {-1.0, round(-1 / 3, 9), 0.0, round(1 / 3, 9), 1.0}
        assert "-0.0" not in out.read_text()


class TestRunProtocolCommand:
    def test_outputs_and_rerun_identical(self, tmp_path):
        args = ["run-protocol", "--m", "2", "--rounds", "4000", "--seed", "5"]
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        for suffix in (".transcript.jsonl", ".summary.json"):
            pa = tmp_path / ("a" + suffix)
            pb = tmp_path / ("b" + suffix)
            assert pa.read_bytes() == pb.read_bytes()
        summary = json.loads((tmp_path / "a.summary.json").read_text())
        assert summary["error_rate"] == 0.0
        assert summary["rounds"] == 4000
        assert set(summary["coalition_info"]) == {"1", "2", "3", "1,2"}

    # sha256 of the transcript and summary, taken from the per-round
    # implementation that the columnar transcript replaced; the summaries
    # re-taken when the coalition codes took in the announced basis
    @pytest.mark.parametrize(
        "m, rounds, carrier, phi, seed, transcript_sha, summary_sha",
        [
            ("3", "20000", "G", "0.3", "1",
             "0d756cd8bef37b8e5dad703137617c0603b2e025174e3f294ae42bd82a5364d0",
             "90755d49199ed72c7e112cadb4350670c8fae6fbc99e6936465da6a72fc7a1c8"),
            ("3", "20000", "GHZ", "0.0", "2",
             "a647da52f5d6fe492de10dfaf02398a58deac5db9f91108b33ab9187ed85a922",
             "c60aa7b064b068f125ccee4f4134b68b865178aa753fb352451c601633cee135"),
            ("2", "5000", "G", "0.7853981633974483", "3",
             "17396bfe997f986404647a034009465eb5c19baa5667f7972bed3c226f8c172c",
             "91d2723814d3384431522818af1850eef9cc052a693bcc6577695f47e910297f"),
            ("4", "5000", "GHZ", "0.3", "4",
             "f42aa84536a53f5ff1e7d7402a7c5f98501bb7b6025fb747d5bf5419a1e89841",
             "6724db876bcbfa5f1d5baa464dbdf3390cc7b8db038ac6c14e58d6f870912bc2"),
            # taken from the 2^(2m) x 2^(2m) outcome table that the laws
            # built one combination at a time replaced
            ("5", "20000", "G", "0.3", "7",
             "f1f0644a74cd544a853b2805394756f6af036c7f85076d4f2f031d0f342a82c6",
             "af177bf55e0e15406cfcb402fe2fb8005884b966b47a7b281e3bed83c86eb1ec"),
            # the benchmark's protocol-wide job, taken from the moveaxis
            # rotation kernel that the swapaxes one replaced
            ("6", "20000", "G", "0.3", "901",
             "1c6443e88595ea4826be2b8dcea773e13352073177ce88be71186c2dba80f181",
             "9f2a36c48fd58f0038a0e40c5e81d29dec8f6258b9d7cc3238535f1ae066b935"),
        ],
    )
    def test_golden_output_hashes(
        self, tmp_path, m, rounds, carrier, phi, seed, transcript_sha, summary_sha
    ):
        out = tmp_path / "run"
        assert run_cli(
            ["run-protocol", "--m", m, "--rounds", rounds, "--carrier", carrier,
             "--phi", phi, "--seed", seed, "--out", str(out)]
        ) == 0
        for suffix, expected in ((".transcript.jsonl", transcript_sha),
                                 (".summary.json", summary_sha)):
            data = (tmp_path / ("run" + suffix)).read_bytes()
            assert hashlib.sha256(data).hexdigest() == expected

    def test_one_sifted_round_writes_both_files(self, tmp_path):
        out = tmp_path / "one"
        assert run_cli(
            ["run-protocol", "--m", "3", "--rounds", "20", "--phi", "0.3", "--seed", "1",
             "--out", str(out)]
        ) == 0
        transcript = (tmp_path / "one.transcript.jsonl").read_text().splitlines()
        assert sum(json.loads(line)["sifted"] for line in transcript) == 1
        summary = json.loads((tmp_path / "one.summary.json").read_text())
        assert summary["sift_count"] == 1
        assert set(summary["coalition_info"].values()) == {0.0}
        assert "-0.0" not in (tmp_path / "one.summary.json").read_text()

    def test_no_sifted_round_writes_both_files(self, tmp_path):
        # at m = 6 a round is sifted with probability 2^-11: seed 1 sifts none
        out = tmp_path / "none"
        assert run_cli(
            ["run-protocol", "--m", "6", "--rounds", "1000", "--seed", "1", "--out", str(out)]
        ) == 0
        transcript = (tmp_path / "none.transcript.jsonl").read_text().splitlines()
        assert len(transcript) == 1000
        assert not any(json.loads(line)["sifted"] for line in transcript)
        summary = json.loads((tmp_path / "none.summary.json").read_text())
        assert summary["sift_count"] == 0 and summary["error_rate"] is None
        assert len(summary["coalition_info"]) == 12
        assert set(summary["coalition_info"].values()) == {None}

    def test_degrees_flag(self, tmp_path):
        out = tmp_path / "deg"
        assert run_cli(
            ["run-protocol", "--m", "2", "--rounds", "2000", "--phi", "0",
             "--deg", "--seed", "3", "--out", str(out)]
        ) == 0

    def test_unaffordable_rounds_exit_2_before_running(self, tmp_path, monkeypatch):
        def run(*args):
            raise AssertionError("the rounds were simulated")

        monkeypatch.setattr(cli, "run_protocol", run)
        out = tmp_path / "big"
        assert run_cli(
            ["run-protocol", "--m", "3", "--rounds", str(10**14), "--out", str(out)]
        ) == 2
        assert not list(tmp_path.iterdir())

    def test_negative_seed_exits_2(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(
            ["run-protocol", "--m", "2", "--rounds", "10", "--seed", "-1", "--out", str(out)]
        ) == 2
        assert not list(tmp_path.iterdir())

    def test_failed_law_worker_exits_3(self, tmp_path, monkeypatch, capsys):
        # two workers however many CPUs, and a worker that raises
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(protocol, "_WORKER_COMBOS", 1)
        parent = os.getpid()
        apply_one = protocol._apply_one

        def fails_in_a_worker(arr, axis, mat):
            if os.getpid() != parent:
                raise RuntimeError("a worker failed")
            return apply_one(arr, axis, mat)

        monkeypatch.setattr(protocol, "_apply_one", fails_in_a_worker)
        out = tmp_path / "run"
        assert run_cli(["run-protocol", "--m", "2", "--rounds", "200", "--out", str(out)]) == 3
        assert "law workers exited with codes [1]" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_long_job_never_forks(self, tmp_path, monkeypatch):
        # the benchmark's protocol-long job: 64 combinations, below the
        # 2 * 512 that a split needs, whatever the CPU count
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 64)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("run-protocol forked"))
        out = tmp_path / "run"
        assert run_cli(["run-protocol", "--m", "3", "--rounds", "100000", "--carrier", "G",
                        "--phi", "0.3", "--seed", "1", "--out", str(out)]) == 0

    @staticmethod
    def _traced_peak(tmp_path, m, rounds):
        """Traced peak bytes of one run-protocol command, after a small run
        has made every lazy import, so that only the run's own data counts."""
        warm_up = ["run-protocol", "--m", "2", "--rounds", "200", "--out", str(tmp_path / "warm")]
        assert run_cli(warm_up) == 0
        tracemalloc.start()
        try:
            code = run_cli(["run-protocol", "--m", str(m), "--rounds", str(rounds),
                            "--out", str(tmp_path / "run")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    def test_transcript_streamed_within_round_budget(self, tmp_path):
        # 2-byte combination and outcome columns, 8-byte uniforms and grouping
        # order, and JSONL blocks of one thousand lines: about 21 bytes a
        # round, where int64 columns took 52; the 32 bytes a round behind
        # protocol.MAX_ROUNDS
        for m in (2, 3):
            assert self._traced_peak(tmp_path, m, 200_000) <= 32 * 200_000

    def test_wide_transcript_within_budget(self, tmp_path):
        # at m = 6 one law and one 1000-line JSONL block bound the peak: about
        # 1.24 MB with text tables over all 4,096 combinations and outcomes,
        # where tables of the distinct values took 1.32 MB, 2048-line blocks
        # 1.60 MB and 8192-line blocks with int64 columns 4.0 MB
        assert self._traced_peak(tmp_path, 6, 20_000) <= 1.3e6

    def test_unwritable_summary_leaves_no_transcript(self, tmp_path):
        (tmp_path / "run.summary.json").mkdir()
        out = tmp_path / "run"
        assert run_cli(
            ["run-protocol", "--m", "2", "--rounds", "200", "--out", str(out)]
        ) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["run.summary.json"]
        assert not list((tmp_path / "run.summary.json").iterdir())

    def test_failed_write_leaves_no_file(self, tmp_path):
        def chunks():
            yield "partial line\n"
            raise RuntimeError("the writer failed partway")

        target = tmp_path / "out.jsonl"
        with pytest.raises(RuntimeError):
            cli._atomic_write(str(target), chunks())
        assert not list(tmp_path.iterdir())

    def test_m_too_small_exits_2(self, tmp_path):
        out = tmp_path / "bad"
        assert run_cli(
            ["run-protocol", "--m", "1", "--rounds", "10", "--out", str(out)]
        ) == 2

    def test_unknown_command_exits_2(self):
        assert run_cli(["frobnicate"]) == 2


class TestOutputMode:
    """Outputs get the mode the umask gives a new file, not the temp file's."""

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            assert run_cli(["rdm", "--n", "3", "--out", str(tmp_path / "rdm.json")]) == 0
            assert run_cli(["run-protocol", "--m", "2", "--rounds", "200",
                            "--out", str(tmp_path / "run")]) == 0
        finally:
            os.umask(old)
        outputs = sorted(tmp_path.iterdir())
        assert [p.name for p in outputs] == [
            "rdm.json", "run.summary.json", "run.transcript.jsonl"
        ]
        for p in outputs:
            assert stat.S_IMODE(p.stat().st_mode) == mode


class TestNonFiniteOutput:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_json_value_exits_3(self, tmp_path, monkeypatch, value):
        monkeypatch.setattr(cli.bell, "full_sum", lambda t: value)
        out = tmp_path / "bell.json"
        assert run_cli(["bell", "--state", "g", "--n", "4", "--out", str(out)]) == 3
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_csv_value_exits_3(self, tmp_path, monkeypatch, value):
        monkeypatch.setattr(cli, "mutual_info_ab", lambda phi: value)
        out = tmp_path / "sweep.csv"
        assert run_cli(
            ["sweep-attack", "--m", "2", "--phi-grid", "0,0.5", "--out", str(out)]
        ) == 3
        assert not list(tmp_path.iterdir())

    def test_summary_value_leaves_no_transcript(self, tmp_path, monkeypatch):
        summary = cli.transcript_summary

        def with_nan(*args):
            return {**summary(*args), "error_rate": math.nan}

        monkeypatch.setattr(cli, "transcript_summary", with_nan)
        out = tmp_path / "run"
        assert run_cli(
            ["run-protocol", "--m", "2", "--rounds", "200", "--out", str(out)]
        ) == 3
        assert not list(tmp_path.iterdir())


def _option(flag, valid, malformed, required=True):
    """(valid, malformed) strategies of argv tokens for one option.  A
    required option left out is malformed; an optional one is valid."""

    def tokens(values):
        if not isinstance(values, st.SearchStrategy):
            values = st.sampled_from(values)
        return values.map(lambda v: [flag, v])

    if required:
        return tokens(valid), st.one_of(tokens(malformed), st.just([]))
    return st.one_of(tokens(valid), st.just([])), tokens(malformed)


def _argv(command, *options):
    """Argument lists whose options are all valid, or all but one, which is
    malformed, out of range, oversized or left out."""

    @st.composite
    def draw(draw):
        broken = draw(st.one_of(st.none(), st.integers(0, len(options) - 1)))
        parts = [draw(malformed if i == broken else valid)
                 for i, (valid, malformed) in enumerate(options)]
        return [command] + [token for part in parts for token in part]

    return draw()


# Admitted sizes stay small (n <= 6, m <= 3, rounds <= 2000, at most 5 grid
# points; rdm's system has O(n^2) rows, so its n = 64 is cheap too); the
# larger values are ones the commands refuse before allocating.
_BAD_N = ["-3", "0", "13", "64", str(10**9), "nan", "inf", "1.5", ""]
_STATE = (["g", "ghz"], ["w", "G"])
_CARRIER = (["G", "GHZ"], ["W", "g"])
_SEED = (["0", "7"], ["-1", "nan", "1.5"])
_ANGLE = (["0", "0.3", "1.5707963267948966"], ["nan", "inf", "-inf", "-0.1", "1.6"])
_GRID = (
    st.one_of(
        st.lists(st.sampled_from(_ANGLE[0]), min_size=1, max_size=5).map(",".join),
        # start:stop:count, reversed when start > stop
        st.tuples(*[st.sampled_from(v) for v in (_ANGLE[0], _ANGLE[0], ["2", "5"])]).map(
            ":".join
        ),
    ),
    st.one_of(
        st.sampled_from(["", ",", "abc", "0:1", "0:1:2:3"]),
        st.lists(st.sampled_from(_ANGLE[1]), min_size=1, max_size=5).map(",".join),
        st.sampled_from(
            ["-3", "0", "1", "nan", str(cli.MAX_GRID_POINTS + 1), str(10**11)]
        ).map(lambda count: f"0:1:{count}"),
    ),
)
_DEG = (st.sampled_from([[], ["--deg"]]),) * 2
_BAD_M = ["-1", "0", "1", str(10**9), "nan"]
_SCAN_N = ["-4", "3", "1025", str(10**9), "nan"]

FUZZ_COMMANDS = {
    "rdm": _argv(
        "rdm",
        _option("--n", ["3", "4", "5", "6", "13", "64"],
                ["-3", "0", "2", "65", str(10**9), "nan", "inf", "1.5", ""]),
    ),
    "tensor": _argv(
        "tensor",
        _option("--state", *_STATE),
        _option("--n", ["2", "3", "6"], _BAD_N + ["1"]),
    ),
    "bell": _argv(
        "bell",
        _option("--state", *_STATE),
        _option("--n", ["2", "3", "6"], _BAD_N + ["1"]),
        _option("--noise", ["0", "-0.0", "0.3", "1"], ["nan", "inf", "-inf", "-0.5", "1.5"],
                required=False),
        _option("--frame", ["default", "search"], ["best"], required=False),
        _option("--restarts", ["1", "2"],
                ["-1", "0", "nan", str(cli.bell.MAX_RESTARTS + 1), str(10**13)],
                required=False),
        _option("--seed", *_SEED, required=False),
    ),
    "thresholds": _argv(
        "thresholds",
        _option("--n-min", ["4", "5", "13"], _SCAN_N),
        # "4" is reversed when --n-min is 5 or 13
        _option("--n-max", ["4", "13", "1024"], _SCAN_N),
    ),
    "sweep-attack": _argv(
        "sweep-attack",
        _option("--m", ["2", "3"], _BAD_M + ["10"]),
        _option("--carrier", *_CARRIER, required=False),
        _option("--phi-grid", *_GRID),
        _DEG,
    ),
    "run-protocol": _argv(
        "run-protocol",
        _option("--m", ["2", "3"], _BAD_M + ["8"]),
        _option("--rounds", ["1", "300", "2000"], ["-5", "0", str(10**14), "nan"]),
        _option("--phi", *_ANGLE, required=False),
        _option("--carrier", *_CARRIER, required=False),
        _option("--seed", *_SEED, required=False),
        _DEG,
    ),
}


class TestExitCodeContract:
    @pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_exit_code_and_leftovers(self, tmp_path_factory, command, data):
        argv = data.draw(FUZZ_COMMANDS[command])
        directory = tmp_path_factory.mktemp("fuzz")
        code = run_cli(argv + ["--out", str(directory / "out")])
        left = sorted(p.name for p in directory.iterdir())
        assert code in (0, 2, 3), argv
        if code == 0:
            assert left and not any(name.startswith(".qss-tmp-") for name in left), argv
        else:
            assert left == [], argv
