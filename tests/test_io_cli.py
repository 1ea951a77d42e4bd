import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from helpers import assert_check_rows, cli_commands, failure_line, paley_frame
from kdframes import cli, io
from kdframes._jsontext import _json_default
from kdframes.bounds import Interval
from kdframes.cli import build_qubit_sic_report, main
from kdframes.frames import Frame, coherence_constant, orthonormal_frame, purity, sic_qubit
from kdframes.linalg import Tolerances

ROOT = Path(__file__).resolve().parent.parent
S3 = 1.0 / np.sqrt(3.0)
S2 = 1.0 / np.sqrt(2.0)
# two orthonormal bases of C^2: tight, with squared overlaps 0 and 1/2
TWO_BASES = np.array([[1, 0], [0, 1], [S2, S2], [S2, -S2]], dtype=complex)


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


def rows_of(report: dict) -> dict:
    """Check name -> check row of a report."""
    return {row["name"]: row for row in report["checks"]}


def failed_names(report: dict) -> list[str]:
    return [row["name"] for row in report["checks"] if not row["pass"]]


def reject_constant(name: str):
    """``parse_constant`` hook of a strict parser: NaN and Infinity are not JSON."""
    raise ValueError(f"non-standard JSON constant {name}")


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
        path.write_text(json.dumps(document, default=_json_default))
        with pytest.raises(io.FrameFileError):
            io.load_frame(path)

    def test_non_unit_vectors_fail_frame_invariant(self, tmp_path):
        document = io.frame_to_dict(sic_qubit())
        document["vectors"][1][0][0] += 1e-3
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(document, default=_json_default))
        with pytest.raises(ValueError) as err:
            io.load_frame(path)
        assert not isinstance(err.value, io.FrameFileError)

    @pytest.mark.parametrize(
        "command",
        [["kd"], ["bounds"], ["verify-extremality"], ["frame", "gen", "complement"]],
        ids=" ".join,
    )
    def test_overflowing_entries_fail_the_unit_norm_invariant(self, runner, tmp_path, command):
        # 1e200 squares to inf: one line on stderr and no numpy overflow warning,
        # which this suite's warning filter would raise
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"d": 2, "n": 3, "vectors": [[[1e200, 0.0], [0.0, 0.0]]] * 3}))
        result = invoke(runner, command + [str(path)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (
            "invariant failure: frame vectors must be unit kets: max | ||v|| - 1 | = inf\n"
        )


BAD_SIZES = {"null": None, "list": [2], "string": "x", "float": 4.7, "bool": True}


class TestFrameFileSizeFields:
    """A size field that is not a JSON integer is unusable input, named on one line."""

    @pytest.mark.parametrize("value", list(BAD_SIZES.values()), ids=list(BAD_SIZES))
    @pytest.mark.parametrize("field", ["n", "d"])
    @pytest.mark.parametrize("command", [["frame", "check"], ["kd"]], ids=["frame-check", "kd"])
    def test_exit_two_naming_the_field(self, runner, tmp_path, command, field, value):
        document = io.frame_to_dict(sic_qubit())
        document[field] = value
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(document, default=_json_default))
        result = invoke(runner, command + [str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"Error: frame file field '{field}' must be an integer, got {json.dumps(value)}\n"
        )


REPORT_COMMANDS = [["kd"], ["bounds"], ["verify-extremality", "--samples", "5"]]


def _stringify(data):
    return [_stringify(x) for x in data] if isinstance(data, list) else repr(data)


def _first_entry(value, data):
    """The nested [re, im] array with its first real part replaced by value."""
    return [[[value, *data[0][0][1:]], *data[0][1:]], *data[1:]]


NUMBERS_ONLY = "must hold JSON numbers, not strings or booleans"

# Edit of a nested [re, im] array -> what the error says after the array's
# name. JSON strings and booleans that float() would read as numbers: all
# strings, all booleans, and one boolean among numbers, which numpy promotes
# silently; and a JSON integer too large for a float, which raises OverflowError.
NOT_NUMBERS = {
    "strings": (_stringify, NUMBERS_ONLY),
    "booleans": (
        lambda data: [[[x != 0 for x in pair] for pair in row] for row in data],
        NUMBERS_ONLY,
    ),
    "one-boolean": (lambda data: _first_entry(True, data), NUMBERS_ONLY),
    "huge-integer": (
        lambda data: _first_entry(10**400, data),
        "holds an integer too large for a float",
    ),
}


class TestEntriesMustBeNumbers:
    """A frame or state file whose entries are JSON strings or booleans, or
    integers too large for a float, is unusable input, named on one line."""

    @pytest.mark.parametrize("edit", list(NOT_NUMBERS.values()), ids=list(NOT_NUMBERS))
    @pytest.mark.parametrize(
        "command",
        [
            ["frame", "check"],
            ["kd"],
            ["bounds"],
            ["verify-extremality", "--samples", "2"],
            ["frame", "gen", "complement"],
        ],
        ids=" ".join,
    )
    def test_frame_file(self, runner, tmp_path, command, edit):
        change, message = edit
        document = io.frame_to_dict(sic_qubit())
        document["vectors"] = change(document["vectors"].tolist())
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(document))
        result = invoke(runner, command + [str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"Error: vectors {message}\n"

    @pytest.mark.parametrize("edit", list(NOT_NUMBERS.values()), ids=list(NOT_NUMBERS))
    @pytest.mark.parametrize("command", REPORT_COMMANDS, ids=lambda c: c[0])
    def test_state_file(self, runner, sic_file, tmp_path, command, edit):
        change, message = edit
        pure = np.diag([1.0, 0.0]).astype(complex)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(change(io.complex_to_pairs(pure).tolist())))
        args = [command[0], sic_file, *command[1:], "--state", f"matrix:{path}"]
        result = invoke(runner, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"Error: state matrix {message}\n"


# Files no JSON parser can read: bytes that are not UTF-8, nesting deeper
# than the decoder's recursion limit, and an integer longer than the 4300
# digits Python converts from a string by default.
UNREADABLE_JSON = {
    "not-utf8": b'{"d": 2, "n": 4, "vectors": [\xff]}',
    "too-deep": b"[" * 100_000,
    "too-many-digits": b'{"d": 2, "n": 4, "vectors": [1' + b"0" * 5000 + b"]}",
}


class TestUnreadableJson:
    """An unreadable frame or state file is unusable input, named on one line."""

    @pytest.mark.parametrize("content", list(UNREADABLE_JSON.values()), ids=list(UNREADABLE_JSON))
    @pytest.mark.parametrize(
        "command",
        [
            ["frame", "check", "{bad}"],
            ["kd", "{bad}"],
            ["bounds", "{bad}"],
            ["verify-extremality", "{bad}", "--samples", "2"],
            ["frame", "gen", "complement", "{bad}"],
            ["kd", "{sic}", "--state", "matrix:{bad}"],
        ],
        ids=" ".join,
    )
    def test_exit_two_naming_the_file(self, runner, sic_file, tmp_path, command, content):
        bad = tmp_path / "unreadable.json"
        bad.write_bytes(content)
        args = [arg.format(bad=bad, sic=sic_file) for arg in command]
        result = invoke(runner, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"Error: {bad} is not valid JSON: ")
        assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
@pytest.mark.parametrize(
    "command",
    [
        ["kd", "{sic}"],
        ["bounds", "{sic}"],
        ["frame", "check", "{sic}"],
        ["frame", "gen", "sic2"],
        ["reproduce", "qubit-sic"],
        ["verify-extremality", "{sic}", "--samples", "2"],
    ],
    ids=" ".join,
)
def test_unwritable_stdout_exit_two(sic_file, command):
    """A report that cannot be written is one Error line and exit 2, not a traceback."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # Buffered stdout keeps the unwritten report until the flush at exit.
    env.pop("PYTHONUNBUFFERED", None)
    args = [arg.format(sic=sic_file) for arg in command]
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "kdframes.cli", *args],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    assert result.returncode == 2
    assert result.stderr == "Error: cannot write stdout: [Errno 28] No space left on device\n"


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
        path.write_text(json.dumps(io.complex_to_pairs(np.diag([0.75, 0.25])).tolist()))
        rho = io.resolve_state(f"matrix:{path}", sic_qubit())
        assert purity(rho) == pytest.approx(5.0 / 8.0)

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus",
            "frame-state:9",
            "frame-state:x",
            "mixture:0.5,0.6",
            "mixture:a,b",
            "mixture:nan,0,0,1",
            "mixture:1e308,1e308,0,0",
        ],
    )
    def test_bad_specs(self, spec):
        with pytest.raises(io.FrameFileError) as raised:
            io.resolve_state(spec, sic_qubit())
        if spec in ("mixture:nan,0,0,1", "mixture:1e308,1e308,0,0"):
            # named as bad weights, not as a non-finite density matrix or an overflowed sum
            message = "bad mixture weights: weights must be non-negative and sum to 1"
            assert str(raised.value) == message


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
        path.write_text(json.dumps(document, default=_json_default))
        result = invoke(runner, ["frame", "check", str(path), "--format", "json"])
        assert result.exit_code == 1
        report = json.loads(result.stdout)
        assert failed_names(report) == ["unit_norms", "tight"]
        assert report["tight"] is False
        assert result.stderr == failure_line(report, "invariant failure")

    def test_non_tight_frame_fails_invariant_but_reports(self, runner, tmp_path):
        path = tmp_path / "loose.json"
        io.dump_frame(Frame(np.array([[1, 0], [1, 0], [0, 1]], dtype=complex)), path)
        result = invoke(runner, ["frame", "check", str(path), "--format", "json"])
        assert result.exit_code == 1
        report = json.loads(result.stdout)
        assert report["tight"] is False
        assert report["passed"] is False
        assert failed_names(report) == ["tight"]
        assert result.stderr == failure_line(report, "invariant failure")

    @pytest.mark.parametrize(
        "frame, value, equiangular",
        [(paley_frame(7), "0", True), (Frame(TWO_BASES), "inf", False)],
        ids=["paley7-at-0", "two-bases-at-inf"],
    )
    def test_equiangularity_ignores_the_flag(self, runner, tmp_path, frame, value, equiangular):
        # decided at NUMERIC_TOL, as bounds and complement_etf decide it
        path = tmp_path / "frame.json"
        io.dump_frame(frame, path)
        args = ["frame", "check", str(path), "--format", "json"]
        default = json.loads(invoke(runner, args).stdout)
        report = json.loads(invoke(runner, args + ["--tol-numeric", value]).stdout)
        assert report["equiangular"] is default["equiangular"] is equiangular
        assert report["measured_c"] == default["measured_c"]
        if equiangular:
            assert report["measured_c"] == pytest.approx(coherence_constant(7, 3), abs=1e-12)
        else:
            assert report["measured_c"] is None

    def test_parse_failure_exit_two(self, runner, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("run, don't parse")
        result = invoke(runner, ["frame", "check", str(path)])
        assert result.exit_code == 2

    def test_frame_operator_asymmetry_does_not_abort_report(self, runner, tmp_path):
        # The frame operator is Hermitian by construction; its rounding
        # asymmetry (about 4e-6 here for norms near 1e5) is not a failure.
        rng = np.random.default_rng(0)
        vectors = 1e5 * (rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3)))
        document = {"d": 3, "n": 9, "vectors": io.complex_to_pairs(vectors)}
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(document, default=_json_default))
        result = invoke(runner, ["frame", "check", str(path), "--format", "json"])
        assert result.exit_code == 1
        report = json.loads(result.stdout)
        assert failed_names(report) == ["unit_norms", "tight"]
        assert len(report["frame_operator_spectrum"]) == document["d"]
        assert result.stderr == failure_line(report, "invariant failure")

    def test_overflowing_overlaps_are_not_equiangular(self, tmp_path):
        # Entries of 1e200 overflow every squared overlap to inf, so their
        # spread is NaN. A subprocess, because numpy's overflow warnings
        # would be errors under this suite's warning filter.
        document = {"d": 2, "n": 3, "vectors": [[[1e200, 0.0], [0.0, 0.0]]] * 3}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(document))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-m", "kdframes.cli", "frame", "check", str(path), "--format", "json"],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 1
        # no numpy warnings, and strict JSON: the overflowed fields print as null
        report = json.loads(result.stdout, parse_constant=reject_constant)
        assert failed_names(report) == ["unit_norms", "tight"]
        assert result.stderr == failure_line(report, "invariant failure")
        assert report["passed"] is False
        assert report["equiangular"] is False
        assert report["measured_c"] is None
        assert rows_of(report)["unit_norms"]["slack"] is None
        assert report["frame_operator_spectrum"] is None


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
        result = invoke(runner, ["frame", "gen", "complement", str(path)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "check failed: an orthonormal basis has an empty complement\n"


class TestKdCommand:
    def test_maximally_mixed_gram(self, runner, sic_file):
        result = invoke(runner, ["kd", sic_file, "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        gram = io.pairs_to_complex(report["gram"])
        expected = (np.eye(4) * (2 / 3) + np.full((4, 4), 1 / 3)) / 4
        assert gram == pytest.approx(expected, abs=1e-12)
        assert -rows_of(report)["kd_vs_scaled_gram_residual"]["slack"] <= 1e-12

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

    @pytest.mark.parametrize("site", ["frame_gram", "unraveling_gram"])
    def test_planted_gram_error_fails_the_residual(self, monkeypatch, runner, sic_file, site):
        # an error of 1e-9 in one Hermitian off-diagonal pair of either computation
        import kdframes.cli

        computed = getattr(kdframes.cli, site)

        def planted(*args):
            gram = computed(*args).copy()
            gram[0, 1] += 1e-9
            gram[1, 0] += 1e-9
            return gram

        monkeypatch.setattr(kdframes.cli, site, planted)
        result = invoke(runner, ["kd", sic_file, "--format", "json"])
        assert result.exit_code == 1
        report = json.loads(result.stdout)
        assert report["passed"] is False
        assert failed_names(report) == ["kd_vs_scaled_gram_residual"]
        assert result.stderr == failure_line(report)

    def test_tolerance_flags_reach_report(self, runner, sic_file):
        result = invoke(runner, ["kd", sic_file, "--tol-structural", "1e-9", "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert list(report["tolerances"].items()) == [("structural", 1e-9)]
        assert rows_of(report)["kd_vs_scaled_gram_residual"]["tolerance"] == 1e-9

    def test_broken_norm_invariant_exit_one(self, runner, tmp_path):
        document = io.frame_to_dict(sic_qubit())
        document["vectors"][0][0][0] = 1.001
        path = tmp_path / "denormalized.json"
        path.write_text(json.dumps(document, default=_json_default))
        result = invoke(runner, ["kd", str(path)])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (
            "invariant failure: frame vectors must be unit kets: max | ||v|| - 1 | = 1.000e-03\n"
        )


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
        assert all(row["pass"] for row in report["checks"])

    def test_maximally_mixed_interval_coincidence(self, runner, sic_file):
        result = invoke(runner, ["bounds", sic_file, "--format", "json"])
        report = json.loads(result.stdout)
        interval_radius = 0.5 * (
            report["eigen_interval"]["upper"] - report["eigen_interval"]["lower"]
        )
        disk_radius = report["gershgorin"]["disks"][0]["radius"]
        assert interval_radius == pytest.approx(0.25, abs=1e-10)
        assert disk_radius == pytest.approx(0.25, abs=1e-10)

    @pytest.mark.parametrize("state", ["maximally-mixed", "frame-state:0"])
    @pytest.mark.parametrize("frame", [sic_qubit(), paley_frame(7)], ids=["sic2", "paley7"])
    def test_tolerance_flags_govern_saturated_and_pass(self, runner, tmp_path, frame, state):
        path = tmp_path / "frame.json"
        io.dump_frame(frame, path)
        args = ["bounds", str(path), "--state", state, "--alphas", "0.5,1,2,5,inf"]
        # saturated is |slack| <= the row's tolerance, --tol-numeric: every row
        # at inf, slack == 0 exactly at 0; a saturated row passes
        for flags, numeric in (
            ([], 1e-10),
            (["--tol-numeric", "inf"], np.inf),
            (["--tol-numeric", "0"], 0.0),
        ):
            result = invoke(runner, args + flags + ["--format", "json"])
            report = json.loads(result.stdout)
            assert result.exit_code == (0 if report["passed"] else 1)
            checks = rows_of(report)
            ic, ic_check = report["index_of_coincidence"], checks["ic_bound"]
            # an upper bound: slack is bound - achieved
            assert ic_check["slack"] == ic["bound"] - ic["achieved"]
            assert ic_check["saturated"] is (abs(ic_check["slack"]) <= numeric)
            assert ic_check["pass"] is (ic_check["slack"] >= -numeric)
            assert ic_check["tolerance"] == numeric
            rows = report["tsallis"] + report["renyi"]
            orders = ["0.5", "1", "2", "5"]
            assert [row["alpha"] for row in rows] == orders + orders + ["inf"]
            names = [f"tsallis:{a}" for a in orders] + [f"renyi:{a}" for a in orders + ["inf"]]
            assert [row["name"] for row in report["checks"][4:]] == names
            for name, row in zip(names, rows):
                # lower bounds: slack is the smaller achieved entropy - bound
                check = checks[name]
                achieved = min(row["achieved"], row["achieved_extremal"])
                assert check["slack"] == achieved - row["bound"]
                assert check["saturated"] is (abs(check["slack"]) <= numeric)
                assert check["pass"] is (check["slack"] >= -numeric)

    def test_bad_alpha_list_exit_two(self, runner, sic_file):
        """An empty list names the missing order; a non-positive order its sign."""
        for alphas, message in (
            ("2,-1", "entropy orders must be positive, got"),
            ("nan", "entropy orders must be positive, got"),
            ("-0", "entropy orders must be positive, got"),
            ("", "no entropy order given in"),
            (",", "no entropy order given in"),
            (" ", "no entropy order given in"),
        ):
            for command in ("bounds", "verify-extremality"):
                result = runner.invoke(main, [command, sic_file, "--alphas", alphas])
                assert result.exit_code == 2, (command, alphas)
                assert result.stdout == ""
                assert result.stderr == f"Error: {message} {alphas!r}\n"

    @pytest.mark.parametrize("alphas", [None, "1.5,3", "inf", "0.05,0.5,0.5000001,50"])
    def test_same_orders_as_verify_extremality(self, runner, sic_file, alphas):
        """One order rule and one --alphas default: Tsallis at every finite
        order, Renyi at every order plus inf, and every row passes."""
        flags = ["--format", "json"] + ([] if alphas is None else ["--alphas", alphas])
        bounds = json.loads(invoke(runner, ["bounds", sic_file, *flags]).stdout)
        args = ["verify-extremality", sic_file, "--samples", "2", *flags]
        extremality = json.loads(invoke(runner, args).stdout)
        for family in ("tsallis", "renyi"):
            assert [row["alpha"] for row in bounds[family]] == list(extremality[family])
        names = [row["name"] for row in extremality["checks"]]
        assert [row["name"] for row in bounds["checks"][4:]] == names
        assert bounds["passed"] is True
        if alphas is None:
            assert list(extremality["renyi"]) == ["0.5", "1", "2", "5", "inf"]
            assert list(extremality["tsallis"]) == ["0.5", "1", "2", "5"]

    def test_close_and_repeated_orders_get_one_row_each(self, runner, sic_file):
        for alphas, expected in (
            ("0.5,0.5000001", ["0.5", "0.5000001"]),
            ("0.5,0.5000001,1,1", ["0.5", "0.5000001", "1"]),
        ):
            result = invoke(runner, ["bounds", sic_file, "--alphas", alphas, "--format", "json"])
            rows = json.loads(result.stdout)["tsallis"]
            assert [row["alpha"] for row in rows] == expected
            assert rows[0]["achieved"] != rows[1]["achieved"]

    @pytest.mark.parametrize("state", ["maximally-mixed", "frame-state:0"])
    def test_no_orders_no_entropy_rows(self, state):
        # what reproduce qubit-sic and scripts/bound_comparison.py ask for
        frame = sic_qubit()
        report = cli.build_bounds_report(frame, io.resolve_state(state, frame), state, [])
        assert report["tsallis"] == [] and report["renyi"] == []
        names = [row["name"] for row in report["checks"]]
        assert names == ["ic_bound", "eigen_interval", "gershgorin", "closed_form_interval"]
        assert report["passed"] is True

    def test_one_vector_frame_exit_one(self, runner, tmp_path):
        path = tmp_path / "single.json"
        path.write_text(json.dumps({"d": 1, "n": 1, "vectors": [[[1, 0]]]}))
        result = invoke(runner, ["bounds", str(path)])
        assert result.exit_code == 1
        assert result.stderr == "check failed: closed-form bounds need an equiangular tight frame\n"

    def test_non_psd_gram_is_a_named_check_failure(self, runner, sic_file, monkeypatch):
        # Unit trace, Hermitian, non-negative diagonal, eigenvalue -1e-9: no
        # validated state gives this, as G is a Schur product of PSD matrices.
        h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
        planted = (h @ np.diag([0.5 + 1e-9, 0.5, 0.0, -1e-9]) @ h.T).astype(complex)
        monkeypatch.setattr("kdframes.cli.frame_gram", lambda frame, rho: planted)
        result = invoke(runner, ["bounds", sic_file])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "check failed: negative probability -1.000e-09\n"


class TestVerifyExtremalityCommand:
    def test_close_and_repeated_orders_get_one_row_each(self, runner, sic_file):
        for alphas, tsallis in (
            ("0.5,0.5000001", ["0.5", "0.5000001"]),
            ("0.5,0.5000001,1,1", ["0.5", "0.5000001", "1"]),
        ):
            args = ["verify-extremality", sic_file, "--alphas", alphas, "--samples", "20"]
            report = json.loads(invoke(runner, args + ["--format", "json"]).stdout)
            assert list(report["tsallis"]) == tsallis
            assert list(report["renyi"]) == tsallis + ["inf"]
            assert report["tsallis"]["0.5"] != report["tsallis"]["0.5000001"]

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
        names = [f"{family}:{a}" for family in ("tsallis", "renyi") for a in report[family]]
        assert [row["name"] for row in report["checks"]] == names
        for row in report["checks"]:
            assert row["slack"] >= -1e-10

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

    @pytest.mark.parametrize(
        "args,option",
        [(["--seed", "-1"], "--seed"), (["--samples", "0"], "--samples")],
        ids=["seed-flag", "samples"],
    )
    def test_out_of_range_option_exit_two(self, runner, sic_file, args, option):
        result = invoke(runner, ["verify-extremality", sic_file] + args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"Invalid value for '{option}'" in result.stderr

    def test_seed_comes_only_from_the_flag(self, runner, sic_file):
        args = ["verify-extremality", sic_file, "--samples", "5", "--format", "json"]
        via_env = invoke(runner, args, env={"KDF_SEED": "77"})
        assert via_env.exit_code == 0
        assert via_env.stdout == invoke(runner, args + ["--seed", "0"]).stdout

    def test_identity_mode_is_no_option(self, runner, sic_file):
        result = invoke(runner, ["verify-extremality", sic_file, "--identity"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "No such option" in result.stderr and "--identity" in result.stderr


@pytest.mark.parametrize("command", ["kd", "bounds", "verify-extremality"])
def test_state_help_lists_the_four_forms(runner, command):
    result = invoke(runner, [command, "--help"])
    help_text = " ".join(result.stdout.split())
    assert "maximally-mixed | frame-state:<j> | mixture:<w,...> | matrix:<path>" in help_text


# Command -> its parameters in the order its --help lists them: the order
# in which its decorators are stacked.
PARAMETER_ORDER = {
    "frame check": ["frame_file", "--tol-numeric", "--format"],
    "frame gen sic2": ["-o"],
    "frame gen complement": ["frame_file", "-o"],
    "kd": ["frame_file", "--state", "--tol-structural", "--format"],
    "bounds": ["frame_file", "--state", "--alphas", "--tol-numeric", "--format"],
    "verify-extremality": [
        "frame_file", "--state", "--samples", "--seed", "--alphas", "--tol-numeric", "--format",
    ],
    "reproduce qubit-sic": ["--tol-numeric", "--tol-structural", "--format"],
}


def test_each_command_keeps_its_parameter_order(runner):
    commands = dict(cli_commands(main))
    assert {name: [p.opts[0] for p in c.params] for name, c in commands.items()} == PARAMETER_ORDER
    for name, params in PARAMETER_ORDER.items():
        lines = invoke(runner, [*name.split(), "--help"]).stdout.splitlines()
        listed = [line.split()[0].rstrip(",") for line in lines if line.startswith("  -")]
        assert listed == [p for p in params if p.startswith("-")] + ["--help"]


QUBIT_SIC_CHECKS = [
    "mixed-state gram matrix",
    "mixed-state gershgorin radius 1/4",
    "mixed-state squared Frobenius norm",
    "mixed-state squared Frobenius norm, two closed forms agree",
    "pure-frame-state gram matrix",
    "pure-frame-state spectrum (2/3, 1/3, 0, 0)",
    "largest-eigenvalue bound (1 + sqrt(11/3))/4",
    "largest-eigenvalue bound below 0.729",
    "purity-based interval radius sqrt(11/3)/4",
    "gershgorin union [0, 1]",
    "relative errors 3(1 + sqrt(11/3))/8 - 1 and 1/2",
]


def _planted(build, leaf: tuple[str, ...]):
    """``build`` with the report leaf at that key path shifted by 1e-9 at frame-state:0."""

    def wrapper(frame, rho, state_spec, *args):
        report = build(frame, rho, state_spec, *args)
        if state_spec == "frame-state:0":
            *parents, key = leaf
            node = report
            for parent in parents:
                node = node[parent]
            node[key] = node[key] + 1e-9
        return report

    return wrapper


class TestReproduceCommand:
    def test_all_checks_pass(self, runner):
        result = invoke(runner, ["reproduce", "qubit-sic", "--format", "json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["passed"] is True
        assert [entry["name"] for entry in report["checks"]] == QUBIT_SIC_CHECKS
        for entry in report["checks"]:
            assert list(entry) == ["name", "actual", "expected", "slack", "tolerance", "pass"]
        by_name = rows_of(report)
        spectrum_entry = by_name["pure-frame-state spectrum (2/3, 1/3, 0, 0)"]
        assert spectrum_entry["actual"] == pytest.approx([2 / 3, 1 / 3, 0, 0], abs=1e-10)
        bound_entry = by_name["largest-eigenvalue bound (1 + sqrt(11/3))/4"]
        assert bound_entry["actual"] == pytest.approx((1 + np.sqrt(11 / 3)) / 4, abs=1e-12)
        below_entry = by_name["largest-eigenvalue bound below 0.729"]
        assert below_entry["actual"] == bound_entry["actual"] < below_entry["expected"] == 0.729
        assert below_entry["slack"] == 0.729 - below_entry["actual"]
        assert below_entry["tolerance"] == 0.0

    @pytest.mark.parametrize(
        "builder, leaf, failed",
        [
            (
                "build_bounds_report",
                ("eigen_interval", "upper"),
                "largest-eigenvalue bound (1 + sqrt(11/3))/4",
            ),
            ("build_kd_report", ("gram",), "pure-frame-state gram matrix"),
            (
                "build_bounds_report",
                ("eigen_interval", "relative_error_vs_max"),
                "relative errors 3(1 + sqrt(11/3))/8 - 1 and 1/2",
            ),
        ],
        ids=["bounds", "kd", "relative-error"],
    )
    def test_planted_leaf_error_fails_its_check(self, monkeypatch, builder, leaf, failed):
        # the checks read the reports users get: an error in one leaf fails one check
        monkeypatch.setattr(f"kdframes.cli.{builder}", _planted(getattr(cli, builder), leaf))
        assert failed_names(build_qubit_sic_report()) == [failed]

    def test_deterministic_output(self, runner):
        first = invoke(runner, ["reproduce", "qubit-sic", "--format", "json"])
        second = invoke(runner, ["reproduce", "qubit-sic", "--format", "json"])
        assert first.stdout == second.stdout

    def test_structural_tolerance_governs_six_checks(self):
        # a negative tolerance fails every comparison that reads tol.structural
        assert failed_names(build_qubit_sic_report(Tolerances(structural=-1.0))) == [
            "mixed-state gram matrix",
            "mixed-state gershgorin radius 1/4",
            "mixed-state squared Frobenius norm, two closed forms agree",
            "pure-frame-state gram matrix",
            "largest-eigenvalue bound (1 + sqrt(11/3))/4",
            "purity-based interval radius sqrt(11/3)/4",
        ]

    def test_numeric_tolerance_governs_four_checks(self):
        # a negative tolerance fails every comparison that reads tol.numeric
        assert failed_names(build_qubit_sic_report(Tolerances(numeric=-1.0))) == [
            "mixed-state squared Frobenius norm",
            "pure-frame-state spectrum (2/3, 1/3, 0, 0)",
            "gershgorin union [0, 1]",
            "relative errors 3(1 + sqrt(11/3))/8 - 1 and 1/2",
        ]

    def test_the_bound_below_0729_is_one_sided(self):
        # its tolerance is 0 whatever the flags: no tolerance lets a bound above 0.729 pass
        report = build_qubit_sic_report(Tolerances(structural=-1.0, numeric=-1.0))
        assert rows_of(report)["largest-eigenvalue bound below 0.729"]["pass"] is True

    def test_failed_checks_named_on_stderr(self, runner):
        # at tolerance 0 the four comparisons that are off by rounding fail;
        # the two closed forms of the Frobenius norm and the purity radius agree exactly
        result = invoke(runner, ["reproduce", "qubit-sic", "--tol-structural", "0"])
        assert result.exit_code == 1
        report = json.loads(result.stdout)
        assert failed_names(report) == [
            "mixed-state gram matrix",
            "mixed-state gershgorin radius 1/4",
            "pure-frame-state gram matrix",
            "largest-eigenvalue bound (1 + sqrt(11/3))/4",
        ]
        assert result.stderr == failure_line(report)

    def test_structural_flag_reaches_closed_form_comparisons(self):
        # the computed bound is 3.3e-16 from its closed form
        report = build_qubit_sic_report(Tolerances(structural=1e-17))
        assert "largest-eigenvalue bound (1 + sqrt(11/3))/4" in failed_names(report)

    def test_table_format(self, runner):
        result = invoke(runner, ["reproduce", "qubit-sic", "--format", "table"])
        assert result.exit_code == 0
        assert "passed" in result.output


def _nudged_sic() -> Frame:
    """The qubit SIC with vector 1 moved by 1e-8 and renormalized: its
    sum A^dag A is off the identity by about 4e-9, above NUMERIC_TOL and
    below 1e-6."""
    vectors = sic_qubit().vectors.copy()
    vectors[1, 0] += 1e-8
    vectors[1] /= np.linalg.norm(vectors[1])
    return Frame(vectors)


SWEEP_FRAMES = {
    "sic": sic_qubit,
    # e0, e1 and (e0 + e1)/sqrt(2): unit vectors, not tight
    "non-tight": lambda: Frame(np.array([[1, 0], [0, 1], [S2, S2]], dtype=complex)),
    "nudged-sic": _nudged_sic,
}


@pytest.fixture(scope="module")
def sweep_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("sweep")
    paths = {}
    for name, build in SWEEP_FRAMES.items():
        paths[name] = str(directory / f"{name}.json")
        io.dump_frame(build(), paths[name])
    return paths


EXTREMALITY = "verify-extremality --samples 2"
# Every --tol-* flag a command has offered; no command offers --tol-saturation.
TOLERANCE_FLAGS = ["--tol-structural", "--tol-numeric", "--tol-saturation"]
# Command -> the --tol-* flags it offers: those of the tolerances its check rows read.
OFFERED_FLAGS = {
    "kd": ["--tol-structural"],
    "bounds": ["--tol-numeric"],
    EXTREMALITY: ["--tol-numeric"],
    "reproduce qubit-sic": ["--tol-structural", "--tol-numeric"],
    "frame check": ["--tol-numeric"],
}
# Tolerances at which a library guard, not a report check, rejects the input:
# tightness is decided at NUMERIC_TOL, whatever the flag.
GUARD_CASES = [
    (command, frame_name, flag, value)
    for command in ["kd", "bounds", EXTREMALITY]
    for flag in OFFERED_FLAGS[command]
    for frame_name, value in [("non-tight", "inf"), ("nudged-sic", "1e-6"), ("nudged-sic", "inf")]
]
OFFERED = [(command, flag) for command, flags in OFFERED_FLAGS.items() for flag in flags]
NOT_OFFERED = [
    (command, flag)
    for command, flags in OFFERED_FLAGS.items()
    for flag in TOLERANCE_FLAGS
    if flag not in flags
]


SWEEP_VALUES = ["0", "-1", "inf", "nan", "1e-6"]


def _case_id(case: tuple[str, str]) -> str:
    command, flag = case
    return f"{command.partition(' --')[0].replace(' ', '-')}{flag}"


def _frame_args(command: str, sweep_files) -> list[str]:
    return [] if command.startswith("reproduce") else [sweep_files["sic"]]


class TestToleranceSweep:
    """Any value of any --tol-* flag on any command ends in exit 0, 1 or 2,
    never a traceback; a flag the command does not offer is no option."""

    @pytest.mark.parametrize("value", SWEEP_VALUES)
    @pytest.mark.parametrize(
        "case, frame_name",
        [
            (case, frame_name)
            for case in OFFERED + NOT_OFFERED
            for frame_name in ([None] if case[0].startswith("reproduce") else SWEEP_FRAMES)
        ],
        ids=lambda x: _case_id(x) if isinstance(x, tuple) else x or "built-in",
    )
    def test_exit_code_without_traceback(self, runner, sweep_files, case, frame_name, value):
        # invoke lets any exception other than SystemExit propagate and fail the test
        command, flag = case
        frame = [sweep_files[frame_name]] if frame_name else []
        result = invoke(runner, command.split() + frame + [flag, value, "--format", "json"])
        assert result.exit_code in (0, 1, 2)
        assert "Traceback" not in result.stderr
        if case in NOT_OFFERED:
            # rejected before the frame file is read, whichever frame it names
            assert result.exit_code == 2
            assert result.stdout == ""
            assert f"No such option '{flag}'" in result.stderr
        if result.stdout:
            # a printed report keeps the row contract, and exit 1 names its failed rows
            report = json.loads(result.stdout)
            assert_check_rows(report)
            assert result.exit_code == (0 if report["passed"] else 1)
            if result.exit_code:
                label = "invariant failure" if command == "frame check" else "check failed"
                assert result.stderr == failure_line(report, label)

    @pytest.mark.parametrize("value", ["-1", "nan"])
    @pytest.mark.parametrize("case", OFFERED, ids=_case_id)
    def test_negative_or_nan_tolerance_is_unusable_input(self, runner, sweep_files, case, value):
        command, flag = case
        result = invoke(runner, command.split() + _frame_args(command, sweep_files) + [flag, value])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"Invalid value for '{flag}'" in result.stderr

    @pytest.mark.parametrize("value", SWEEP_VALUES)
    @pytest.mark.parametrize("case", NOT_OFFERED, ids=_case_id)
    def test_a_tolerance_the_report_does_not_read_is_no_option(
        self, runner, sweep_files, case, value
    ):
        # whatever its value, a flag the command does not offer is rejected before any work
        command, flag = case
        result = invoke(runner, command.split() + _frame_args(command, sweep_files) + [flag, value])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"No such option '{flag}'" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", list(OFFERED_FLAGS), ids=lambda c: c.split(" --")[0])
    def test_the_report_prints_the_tolerances_offered(self, runner, sweep_files, command):
        args = command.split() + _frame_args(command, sweep_files) + ["--format", "json"]
        tolerances = json.loads(invoke(runner, args).stdout)["tolerances"]
        assert [f"--tol-{name}" for name in tolerances] == OFFERED_FLAGS[command]

    @pytest.mark.parametrize("case", OFFERED, ids=_case_id)
    def test_each_offered_flag_is_the_tolerance_of_a_printed_row(self, runner, sweep_files, case):
        # at a value no default has, some row compares with it: the flag sets a row
        command, flag = case
        args = command.split() + _frame_args(command, sweep_files) + [flag, "2.5e-7"]
        report = json.loads(invoke(runner, args + ["--format", "json"]).stdout)
        assert 2.5e-7 in [row["tolerance"] for row in report["checks"]]

    @pytest.mark.parametrize("case", GUARD_CASES, ids=" ".join)
    def test_library_guard_is_a_named_check_failure(self, runner, sweep_files, case):
        command, frame_name, flag, value = case
        args = command.split() + [sweep_files[frame_name], flag, value]
        result = invoke(runner, args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "check failed: frame is not tight, it induces no POVM\n"


def _rotated_sic() -> Frame:
    """The qubit SIC with vector 1 rotated by 1e-6 rad: unit vectors, and a
    frame operator about 5e-7 (relative) from that of a tight frame."""
    vectors = sic_qubit().vectors.copy()
    c, s = np.cos(1e-6), np.sin(1e-6)
    vectors[1] = np.array([[c, -s], [s, c]]) @ vectors[1]
    return Frame(vectors)


class TestPreconditionsIgnoreTheFlags:
    """Tightness, and for bounds equiangularity, are guards at NUMERIC_TOL:
    the command's --tol-* flag moves report rows, never whether a frame qualifies."""

    # Report command -> the one --tol-* flag it offers.
    FLAG = {
        "kd": "--tol-structural",
        "bounds": "--tol-numeric",
        "verify-extremality": "--tol-numeric",
    }

    @pytest.mark.parametrize("value", ["0", "1e-16"])
    @pytest.mark.parametrize("state", ["maximally-mixed", "frame-state:0"])
    @pytest.mark.parametrize("command", REPORT_COMMANDS, ids=lambda c: c[0])
    def test_tight_frame_prints_a_report_at_any_tolerance(
        self, runner, tmp_path, command, state, value
    ):
        path = tmp_path / "paley7.json"
        io.dump_frame(paley_frame(7), path)
        args = [command[0], str(path), *command[1:], "--state", state]
        result = invoke(runner, args + [self.FLAG[command[0]], value, "--format", "json"])
        report = json.loads(result.stdout)
        assert_check_rows(report)
        assert result.exit_code == (0 if report["passed"] else 1)
        assert result.stderr == ("" if report["passed"] else failure_line(report))

    @pytest.mark.parametrize("command", REPORT_COMMANDS, ids=lambda c: c[0])
    def test_nearly_tight_frame_gets_one_message_at_any_tolerance(
        self, runner, tmp_path, command
    ):
        path = tmp_path / "rotated.json"
        io.dump_frame(_rotated_sic(), path)
        for value in ["1e-10", "1e-3", "inf"]:
            args = [command[0], str(path), *command[1:], self.FLAG[command[0]], value]
            result = invoke(runner, args)
            assert result.exit_code == 1
            assert result.stdout == ""
            assert result.stderr == "check failed: frame is not tight, it induces no POVM\n"

    @pytest.mark.parametrize("value", ["1e-10", "inf"])
    def test_bounds_needs_an_etf_at_any_tolerance(self, runner, tmp_path, value):
        path = tmp_path / "bases.json"
        io.dump_frame(Frame(TWO_BASES), path)
        result = invoke(runner, ["bounds", str(path), "--tol-numeric", value])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "check failed: closed-form bounds need an equiangular tight frame\n"


def _report_at(command: str, tol: Tolerances) -> dict:
    """The report of a command on the qubit SIC at frame state 0, at these tolerances."""
    frame = sic_qubit()
    rho = io.resolve_state("frame-state:0", frame)
    if command == "frame check":
        return cli.build_frame_check_report(frame.vectors, tol)
    if command == "kd":
        return cli.build_kd_report(frame, rho, "frame-state:0", tol)
    if command == "bounds":
        alphas = [0.5, 1.0, 2.0, 5.0, np.inf]
        return cli.build_bounds_report(frame, rho, "frame-state:0", alphas, tol)
    if command == "verify-extremality":
        alphas = [0.5, 1.0, 2.0, 5.0]
        return cli.build_extremality_report(frame, rho, "frame-state:0", 20, 0, alphas, tol)
    return cli.build_qubit_sic_report(tol)


@pytest.mark.parametrize("value", [0.0, np.inf])
@pytest.mark.parametrize(
    "command, unread",
    [
        ("frame check", "structural"),
        ("kd", "numeric"),
        ("bounds", "structural"),
        ("verify-extremality", "structural"),
    ],
)
def test_a_tolerance_the_report_does_not_read_changes_nothing(command, unread, value):
    report = _report_at(command, Tolerances(**{unread: value}))
    assert report["tolerances"] == _report_at(command, Tolerances())["tolerances"]
    dump = json.dumps(report, default=_json_default)
    assert dump == json.dumps(_report_at(command, Tolerances()), default=_json_default)


def test_failure_line_names_each_failed_row_with_its_slack_and_tolerance(
    runner, monkeypatch, tmp_path
):
    # Disks of radius 0 and a closed-form interval shrunk to its center fail
    # two rows by far more than the tolerance; the other rows still pass.
    path = tmp_path / "paley7.json"
    io.dump_frame(paley_frame(7), path)
    disks, closed = cli.gershgorin_disks, cli.etf_eigen_interval

    def centers_only(gram):
        centers, radii = disks(gram)
        return centers, 0.0 * radii

    def center_point(*args):
        center = 0.5 * (closed(*args).lower + closed(*args).upper)
        return Interval(center, center)

    monkeypatch.setattr(cli, "gershgorin_disks", centers_only)
    monkeypatch.setattr(cli, "etf_eigen_interval", center_point)
    args = ["bounds", str(path), "--state", "frame-state:0", "--format", "json"]
    result = invoke(runner, args)
    assert result.exit_code == 1
    report = json.loads(result.stdout)
    assert failed_names(report) == ["gershgorin", "closed_form_interval"]
    assert result.stderr == failure_line(report)
    for row in report["checks"]:
        listed = f"{row['name']} (slack {row['slack']!r} < -{row['tolerance']!r})"
        assert (listed in result.stderr) is not row["pass"]
