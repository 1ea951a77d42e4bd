import json

import numpy as np
import pytest
from click.testing import CliRunner

from kdframes import io
from kdframes.cli import main
from kdframes.frames import DensityMatrix, orthonormal_frame, purity, sic_qubit

S3 = 1.0 / np.sqrt(3.0)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def sic_file(tmp_path):
    path = tmp_path / "sic.json"
    io.dump_frame(sic_qubit(), path)
    return str(path)


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


class TestFrameFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        frame = sic_qubit()
        path = tmp_path / "frame.json"
        io.dump_frame(frame, path)
        loaded = io.load_frame(path)
        assert np.array_equal(loaded.vectors, frame.vectors)
        # a second write is byte-identical
        second = tmp_path / "frame2.json"
        io.dump_frame(loaded, second)
        assert path.read_text() == second.read_text()

    def test_schema_errors(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\"d\": 2, \"n\": 4}")
        with pytest.raises(io.FrameFileError):
            io.load_frame(path)
        path.write_text("not json")
        with pytest.raises(io.FrameFileError):
            io.load_frame(path)

    def test_size_mismatch_detected(self, tmp_path):
        document = io.frame_to_dict(sic_qubit())
        document["n"] = 5
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(document))
        with pytest.raises(io.FrameFileError):
            io.load_frame(path)

    def test_non_unit_vectors_fail_frame_invariant(self, tmp_path):
        document = io.frame_to_dict(sic_qubit())
        document["vectors"][1][0][0] += 1e-3
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError) as err:
            io.load_frame(path)
        assert not isinstance(err.value, io.FrameFileError)


class TestStateSpecs:
    def test_maximally_mixed(self):
        rho = io.resolve_state("maximally-mixed", sic_qubit())
        assert rho.matrix == pytest.approx(np.eye(2) / 2)

    def test_frame_state(self):
        frame = sic_qubit()
        rho = io.resolve_state("frame-state:2", frame)
        ket = frame.vectors[2]
        assert rho.matrix == pytest.approx(np.outer(ket, ket.conj()))

    def test_mixture(self):
        frame = sic_qubit()
        rho = io.resolve_state("mixture:0.25,0.25,0.25,0.25", frame)
        assert rho.matrix == pytest.approx(np.eye(2) / 2, abs=1e-12)

    def test_matrix_file(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(io.complex_to_pairs(np.diag([0.75, 0.25]))))
        rho = io.resolve_state(f"matrix:{path}", sic_qubit())
        assert purity(rho) == pytest.approx(5.0 / 8.0)

    @pytest.mark.parametrize(
        "spec",
        ["bogus", "frame-state:9", "frame-state:x", "mixture:0.5,0.6", "mixture:a,b"],
    )
    def test_bad_specs(self, spec):
        with pytest.raises(io.FrameFileError):
            io.resolve_state(spec, sic_qubit())


class TestFrameCheckCommand:
    def test_sic_file_certified(self, runner, sic_file):
        result = invoke(runner, ["frame", "check", sic_file, "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["tight"] is True
        assert report["equiangular"] is True
        assert report["measured_c"] == pytest.approx(1.0 / 3.0)
        assert report["frame_operator_spectrum"] == pytest.approx([2.0, 2.0])

    def test_orthonormal_basis(self, runner, tmp_path):
        path = tmp_path / "basis.json"
        io.dump_frame(orthonormal_frame(3), path)
        result = invoke(runner, ["frame", "check", str(path), "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["measured_c"] == pytest.approx(0.0, abs=1e-12)

    def test_perturbed_sic_fails_invariant_but_reports(self, runner, tmp_path):
        document = io.frame_to_dict(sic_qubit())
        document["vectors"][1][0][0] += 1e-3
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(document))
        result = invoke(runner, ["frame", "check", str(path), "--format", "json"])
        assert result.exit_code == 1
        report = json.loads(result.stdout)
        assert report["invariants"]["unit_norms"]["pass"] is False
        assert report["tight"] is False
        assert result.stderr == "invariant failure: unit_norms\n"

    def test_parse_failure_exit_two(self, runner, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("run, don't parse")
        result = invoke(runner, ["frame", "check", str(path)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("case", ["large-norm-vectors", "negative-numeric-tolerance"])
    def test_frame_operator_asymmetry_does_not_abort_report(self, runner, tmp_path, case):
        # The frame operator is Hermitian by construction; its rounding
        # asymmetry (about 4e-6 here for norms near 1e5) is not a failure.
        if case == "large-norm-vectors":
            rng = np.random.default_rng(0)
            vectors = 1e5 * (rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3)))
            document = {"d": 3, "n": 9, "vectors": io.complex_to_pairs(vectors)}
            flags = []
        else:
            document = io.frame_to_dict(sic_qubit())
            flags = ["--tol-numeric", "-1"]
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(document))
        result = invoke(runner, ["frame", "check", str(path), "--format", "json"] + flags)
        assert result.exit_code == 1
        report = json.loads(result.stdout)
        assert report["invariants"]["unit_norms"]["pass"] is False
        assert len(report["frame_operator_spectrum"]) == document["d"]
        assert result.stderr == "invariant failure: unit_norms\n"


class TestFrameGenCommands:
    def test_gen_sic2_round_trips_through_check(self, runner, tmp_path):
        out = tmp_path / "sic.json"
        result = invoke(runner, ["frame", "gen", "sic2", "-o", str(out)])
        assert result.exit_code == 0
        result = invoke(runner, ["frame", "check", str(out), "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["tight"] is True

    def test_gen_complement(self, runner, sic_file):
        result = invoke(runner, ["frame", "gen", "complement", sic_file])
        assert result.exit_code == 0
        document = json.loads(result.stdout)
        assert (document["n"], document["d"]) == (4, 2)
        loaded = io.frame_from_dict(document)
        assert loaded.n == 4

    @pytest.mark.parametrize("command", [["sic2"], ["complement", "SIC"]])
    def test_unwritable_output_exit_two(self, runner, sic_file, tmp_path, command):
        out = tmp_path / "missing" / "frame.json"
        args = ["frame", "gen"] + [sic_file if a == "SIC" else a for a in command]
        result = invoke(runner, args + ["-o", str(out)])
        assert result.exit_code == 2
        assert f"cannot write {out}" in result.stderr

    def test_gen_complement_rejects_orthonormal(self, runner, tmp_path):
        path = tmp_path / "basis.json"
        io.dump_frame(orthonormal_frame(2), path)
        result = runner.invoke(main, ["frame", "gen", "complement", str(path)])
        assert result.exit_code == 1


class TestKdCommand:
    def test_maximally_mixed_gram(self, runner, sic_file):
        result = invoke(runner, ["kd", sic_file, "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        gram = io.pairs_to_complex(report["gram"])
        expected = (np.eye(4) * (2 / 3) + np.full((4, 4), 1 / 3)) / 4
        assert gram == pytest.approx(expected, abs=1e-12)
        assert report["kd_vs_scaled_gram_residual"] <= 1e-12

    def test_pure_frame_state_spectrum(self, runner, sic_file):
        result = invoke(
            runner, ["kd", sic_file, "--state", "frame-state:0", "--format", "json"]
        )
        report = json.loads(result.stdout)
        assert report["gram_spectrum"] == pytest.approx([2 / 3, 1 / 3, 0, 0], abs=1e-10)
        gram = io.pairs_to_complex(report["gram"])
        assert gram[1, 2] == pytest.approx(1j / (6 * np.sqrt(3)), abs=1e-12)

    def test_non_tight_frame_exit_one(self, runner, tmp_path):
        from kdframes.frames import Frame

        vectors = np.array([[1, 0], [1, 0], [0, 1]], dtype=complex)
        path = tmp_path / "loose.json"
        io.dump_frame(Frame(vectors), path)
        result = runner.invoke(main, ["kd", str(path)])
        assert result.exit_code == 1

    def test_residual_failure_named_on_stderr(self, runner, sic_file):
        result = invoke(runner, ["kd", sic_file, "--tol-structural", "-1", "--format", "json"])
        assert result.exit_code == 1
        assert json.loads(result.stdout)["passed"] is False
        assert result.stderr == "check failed: kd_vs_scaled_gram_residual\n"

    def test_tolerance_flags_reach_report(self, runner, sic_file):
        result = invoke(runner, ["kd", sic_file, "--tol-numeric", "1e-9", "--format", "json"])
        assert result.exit_code == 0
        tolerances = json.loads(result.stdout)["tolerances"]
        assert list(tolerances.items()) == [
            ("structural", 1e-12),
            ("numeric", 1e-9),
            ("saturation", 1e-8),
        ]

    def test_broken_norm_invariant_exit_one(self, runner, tmp_path):
        document = io.frame_to_dict(sic_qubit())
        document["vectors"][0][0][0] = 1.001
        path = tmp_path / "denormalized.json"
        path.write_text(json.dumps(document))
        result = runner.invoke(main, ["kd", str(path)])
        assert result.exit_code == 1
        assert "invariant failure" in result.stderr


class TestBoundsCommand:
    def test_pure_frame_state_comparison(self, runner, sic_file):
        result = invoke(
            runner,
            ["bounds", sic_file, "--state", "frame-state:0", "--format", "json"],
        )
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["passed"] is True
        assert report["eigen_interval"]["upper"] == pytest.approx(0.7287135538781, abs=1e-10)
        assert report["eigen_interval"]["relative_error_vs_max"] == pytest.approx(
            0.093, abs=1e-3
        )
        assert report["gershgorin"]["union_upper"] == pytest.approx(1.0, abs=1e-10)
        assert report["gershgorin"]["relative_error_vs_max"] == pytest.approx(0.5, abs=1e-10)
        assert all(row["pass"] for row in report["renyi"] + report["tsallis"])

    def test_maximally_mixed_interval_coincidence(self, runner, sic_file):
        result = invoke(runner, ["bounds", sic_file, "--format", "json"])
        report = json.loads(result.stdout)
        interval_radius = 0.5 * (
            report["eigen_interval"]["upper"] - report["eigen_interval"]["lower"]
        )
        disk_radius = report["gershgorin"]["disks"][0]["radius"]
        assert interval_radius == pytest.approx(0.25, abs=1e-10)
        assert disk_radius == pytest.approx(0.25, abs=1e-10)

    def test_bad_alpha_list_exit_two(self, runner, sic_file):
        result = runner.invoke(main, ["bounds", sic_file, "--alphas", "2,-1"])
        assert result.exit_code == 2

    def test_one_vector_frame_exit_one(self, runner, tmp_path):
        path = tmp_path / "single.json"
        path.write_text(json.dumps({"d": 1, "n": 1, "vectors": [[[1, 0]]]}))
        result = invoke(runner, ["bounds", str(path)])
        assert result.exit_code == 1
        assert result.stderr == "check failed: closed-form bounds need an equiangular tight frame\n"


class TestVerifyExtremalityCommand:
    def test_monte_carlo_slacks(self, runner, sic_file):
        result = invoke(
            runner,
            [
                "verify-extremality",
                sic_file,
                "--state",
                "frame-state:0",
                "--samples",
                "200",
                "--seed",
                "11",
                "--format",
                "json",
            ],
        )
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["passed"] is True
        for family in ("renyi", "tsallis"):
            for entry in report[family].values():
                assert entry["min_slack"] >= -1e-10

    def test_identity_sample_slack_is_principal_gap(self, runner, sic_file):
        result = invoke(
            runner,
            [
                "verify-extremality",
                sic_file,
                "--state",
                "frame-state:0",
                "--samples",
                "1",
                "--identity",
                "--alphas",
                "1",
                "--format",
                "json",
            ],
        )
        report = json.loads(result.stdout)
        from kdframes.channels import extremal_unraveling, principal_kraus, unraveling_probabilities
        from kdframes.entropy import renyi_entropy

        frame = sic_qubit()
        ket = frame.vectors[0]
        rho = DensityMatrix(np.outer(ket, ket.conj()))
        u = principal_kraus(frame)
        _, extremal_probs = extremal_unraveling(u, rho)
        expected = renyi_entropy(unraveling_probabilities(u, rho), 1.0) - renyi_entropy(
            extremal_probs, 1.0
        )
        assert report["renyi"]["1"]["min_slack"] == pytest.approx(expected, abs=1e-12)
        assert expected >= 0.0

    def test_non_tight_frame_exit_one(self, runner, tmp_path):
        from kdframes.frames import Frame

        vectors = np.array([[1, 0], [1, 0], [0, 1]], dtype=complex)
        path = tmp_path / "loose.json"
        io.dump_frame(Frame(vectors), path)
        result = invoke(runner, ["verify-extremality", str(path)])
        assert result.exit_code == 1
        assert result.stderr == "check failed: frame is not tight, it induces no POVM\n"

    def test_seed_determinism_bit_identical(self, runner, sic_file):
        args = [
            "verify-extremality",
            sic_file,
            "--samples",
            "25",
            "--seed",
            "3",
            "--format",
            "json",
        ]
        first = invoke(runner, args)
        second = invoke(runner, args)
        assert first.stdout == second.stdout

    def test_env_seed_fallback_and_flag_override(self, runner, sic_file):
        args = ["verify-extremality", sic_file, "--samples", "5", "--format", "json"]
        via_env = invoke(runner, args, env={"KDF_SEED": "77"})
        via_flag = invoke(runner, args + ["--seed", "77"])
        assert json.loads(via_env.stdout)["seed"] == 77
        assert via_env.stdout == via_flag.stdout
        overridden = invoke(runner, args + ["--seed", "5"], env={"KDF_SEED": "77"})
        assert json.loads(overridden.output)["seed"] == 5


class TestReproduceCommand:
    def test_all_checks_pass(self, runner):
        result = invoke(runner, ["reproduce", "qubit-sic", "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["passed"] is True
        by_name = {entry["name"]: entry for entry in report["checks"]}
        spectrum_entry = by_name["pure-frame-state spectrum (2/3, 1/3, 0, 0)"]
        assert spectrum_entry["eigenvalues"] == pytest.approx([2 / 3, 1 / 3, 0, 0], abs=1e-10)
        bound_entry = by_name["largest-eigenvalue bound (1 + sqrt(11/3))/4 below 0.729"]
        assert bound_entry["bound"] == pytest.approx((1 + np.sqrt(11 / 3)) / 4, abs=1e-12)
        assert bound_entry["bound"] < 0.729

    def test_deterministic_output(self, runner):
        first = invoke(runner, ["reproduce", "qubit-sic", "--format", "json"])
        second = invoke(runner, ["reproduce", "qubit-sic", "--format", "json"])
        assert first.stdout == second.stdout

    def test_failed_checks_named_on_stderr(self, runner):
        result = invoke(runner, ["reproduce", "qubit-sic", "--tol-structural", "-1"])
        assert result.exit_code == 1
        names = [
            "mixed-state gram matrix",
            "mixed-state gershgorin radius 1/4",
            "pure-frame-state gram matrix",
        ]
        assert result.stderr == f"check failed: {', '.join(names)}\n"

    def test_table_format(self, runner):
        result = invoke(runner, ["reproduce", "qubit-sic", "--format", "table"])
        assert result.exit_code == 0
        assert "passed" in result.output
