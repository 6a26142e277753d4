"""Command-line surface: every verb, output formats, reproducibility."""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import assqd
import assqd.bench as bench_mod
import assqd.cli as cli_mod
from assqd.bench import CSV_COLUMNS, DEFAULT_ETA, default_shots, prepare_instance
from assqd.cli import main
from assqd.driver import RunError
from assqd.models import ModelSpec, build_model
from assqd.oracle import exact_lowest, residual_bound
from assqd.pauli import parse_hamiltonian
from assqd.sampling import counts_to_json, parse_counts
from conftest import counts_of, run_below_floor


@pytest.fixture()
def runner():
    return CliRunner()


def _invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def _strict_json(text: str):
    """json.loads that refuses the NaN and Infinity literals, as strict parsers do."""
    def refuse(name: str):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _mask_wall(csv_text: str) -> str:
    """Replace the wall-clock column; timings vary between invocations."""
    wall_idx = CSV_COLUMNS.index("wall_ms")
    lines = csv_text.strip().split("\n")
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[wall_idx] = "_"
        out.append(",".join(cells))
    return "\n".join(out)


class TestModelVerb:
    def test_text_output_parses_to_the_same_hamiltonian(self, runner):
        result = _invoke(runner, ["--seed", "3", "model", "heisenberg", "4"])
        ham = parse_hamiltonian(result.output)
        expected, _ = build_model(ModelSpec(kind="heisenberg", n=4, seed=3))
        assert ham == expected

    def test_out_file_plus_metadata_sidecar(self, runner, tmp_path):
        out = tmp_path / "ham.txt"
        _invoke(runner, ["--seed", "1", "--out", str(out),
                         "model", "tfim", "3"])
        ham = parse_hamiltonian(out.read_text())
        assert ham.n == 3
        meta = json.loads((tmp_path / "ham.txt.meta.json").read_text())
        assert meta["kind"] == "tfim" and meta["seed"] == 1
        assert len(meta["fields"]) == 3

    def test_json_format_bundles_metadata(self, runner):
        result = _invoke(runner, ["--format", "json", "model", "heisenberg", "3"])
        doc = json.loads(result.output)
        assert parse_hamiltonian(doc["hamiltonian"]).n == 3
        assert doc["metadata"]["n"] == 3

    def test_unknown_kind_rejected(self, runner):
        result = runner.invoke(main, ["model", "xy", "4"])
        assert result.exit_code != 0


class TestOracleVerb:
    def test_energies_match_direct_solve(self, runner):
        result = _invoke(runner, ["--seed", "2", "oracle", "heisenberg", "4"])
        doc = json.loads(result.output)
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=4, seed=2))
        eig = exact_lowest(ham)
        assert doc["e0"] == pytest.approx(eig.e0, abs=1e-12)
        assert doc["e1"] == pytest.approx(eig.e1, abs=1e-12)
        assert doc["degenerate_ground"] == eig.degenerate_ground

    def test_pairs_file_written(self, runner, tmp_path):
        pairs = tmp_path / "pairs.npz"
        result = _invoke(runner,
                         ["oracle", "heisenberg", "4", "--pairs", str(pairs)])
        with np.load(pairs) as data:
            assert data["vectors"].shape == (16, 2)
            assert data["energies"].tolist() == json.loads(result.output)["energies"]

    def test_pairs_file_is_the_path_given(self, runner, tmp_path):
        # numpy appends ".npz" to a file name that lacks it.
        pairs = tmp_path / "vecs.bin"
        _invoke(runner, ["oracle", "heisenberg", "4", "--pairs", str(pairs)])
        assert [path.name for path in tmp_path.iterdir()] == ["vecs.bin"]
        with np.load(pairs) as data:
            assert data["vectors"].shape == (16, 2)


class TestSampleVerb:
    def test_counts_parse_and_sum(self, runner):
        result = _invoke(
            runner, ["--seed", "5", "sample", "heisenberg", "4",
                     "--shots", "700"])
        counts = parse_counts(json.loads(result.output))
        assert counts.n == 4
        assert counts.counts.sum() == 700

    def test_deterministic_per_seed(self, runner):
        args = ["--seed", "5", "sample", "heisenberg", "4", "--shots", "300"]
        assert _invoke(runner, args).output == _invoke(runner, args).output

    def test_bit_order_flag_changes_keys_not_content(self, runner):
        base = ["--seed", "5", "sample", "heisenberg", "4", "--shots", "300"]
        first = json.loads(_invoke(runner, base + ["--bit-order", "qubit0_first"]).output)
        last = json.loads(_invoke(runner, base + ["--bit-order", "qubit0_last"]).output)
        assert first["bit_order"] == "qubit0_first"
        assert last["bit_order"] == "qubit0_last"
        flipped = {key[::-1]: v for key, v in last["counts"].items()}
        assert flipped == first["counts"]

    @pytest.mark.parametrize("bit_order", ["qubit0_first", "qubit0_last"])
    def test_counts_are_the_sweep_instance_counts(self, runner, bit_order):
        result = _invoke(runner, ["--seed", "3", "sample", "tfim", "6",
                                  "--bit-order", bit_order])
        bundle = prepare_instance("tfim", 6, 3, default_shots(6), DEFAULT_ETA)
        assert result.output == counts_to_json(bundle.counts, bit_order) + "\n"


@pytest.fixture()
def artifacts(runner, tmp_path):
    ham_path = tmp_path / "ham.txt"
    counts_path = tmp_path / "counts.json"
    _invoke(runner, ["--seed", "0", "--out", str(ham_path),
                     "model", "heisenberg", "4"])
    _invoke(runner, ["--seed", "0", "--out", str(counts_path),
                     "sample", "heisenberg", "4", "--shots", "500"])
    return ham_path, counts_path


class TestRunVerb:
    def test_expansion_trace_reaches_reference(self, runner, artifacts):
        ham_path, counts_path = artifacts
        result = _invoke(runner, ["--seed", "0", "run", str(ham_path),
                                  str(counts_path), "--method", "en"])
        doc = json.loads(result.output)
        assert doc["method"] == "as-en"
        assert doc["err"] <= 1e-9
        assert doc["reference"]["e0"] is not None
        assert [r["iteration"] for r in doc["records"]] == list(
            range(len(doc["records"]))
        )

    def test_no_exact_skips_reference(self, runner, artifacts):
        ham_path, counts_path = artifacts
        result = _invoke(runner, ["run", str(ham_path), str(counts_path),
                                  "--method", "standard", "--no-exact"])
        doc = json.loads(result.output)
        assert doc["err"] is None
        assert doc["reference"]["e0"] is None

    def test_mismatched_counts_rejected(self, runner, artifacts, tmp_path):
        ham_path, _ = artifacts
        wrong = tmp_path / "wrong.json"
        wrong.write_text(counts_to_json(
            counts_of({0: 5}, n=6)))
        result = runner.invoke(main, ["run", str(ham_path), str(wrong)])
        assert result.exit_code != 0
        assert "n=6" in result.output

    def test_flags_reach_the_driver(self, runner, artifacts):
        ham_path, counts_path = artifacts
        result = _invoke(runner, ["run", str(ham_path), str(counts_path),
                                  "-K", "5", "-B", "2", "-T", "3",
                                  "--no-exact"])
        doc = json.loads(result.output)
        assert doc["config"]["K"] == 5
        assert doc["config"]["B"] == 2
        assert doc["records"][0]["subspace_size"] == 5

    def test_beyond_oracle_limit_skips_reference(self, runner, tmp_path):
        ham_path = tmp_path / "h22.txt"
        _invoke(runner, ["--out", str(ham_path), "model", "heisenberg", "22"])
        counts_path = tmp_path / "c22.json"
        counts_path.write_text(counts_to_json(counts_of({0b0101 << 18: 7, 0b1010: 5, 0b0110 << 9: 2}, n=22)))
        result = _invoke(runner, ["run", str(ham_path), str(counts_path), "-T", "1"])
        doc = json.loads(result.output)
        assert doc["err"] is None
        assert doc["reference"] == {"e0": None, "e1": None, "degenerate_ground": None}
        assert [r["iteration"] for r in doc["records"]] == [0, 1]


@pytest.mark.parametrize("flag", ["-K", "-B", "-T"])
def test_budget_below_one_is_a_usage_error(runner, artifacts, flag):
    ham_path, counts_path = artifacts
    result = runner.invoke(main, ["run", str(ham_path), str(counts_path), flag, "0"])
    assert result.exit_code == 2
    assert "Usage:" in result.output
    assert f"Invalid value for '{flag}'" in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("sizes", ["22", "1", "4,21", ","])
def test_sizes_outside_oracle_range_are_a_usage_error(runner, sizes):
    result = runner.invoke(main, ["bench", "--sizes", sizes, "--seeds", "0"])
    assert result.exit_code == 2
    assert "Usage:" in result.output
    assert "Invalid value for '--sizes'" in result.output
    assert isinstance(result.exception, SystemExit)


_SWEEP = ["--sizes", "4", "--seeds", "0"]


@pytest.mark.parametrize("args", [
    pytest.param(["--seed", "-1", "sample", "heisenberg", "4"], id="seed"),
    pytest.param(["bench", "--sizes", "4", "--seeds", "0,-1"], id="seeds"),
    pytest.param(["hops", "--sizes", "4", "--seeds", "0,0"], id="seeds-repeated"),
    pytest.param(["bench", "--sizes", "4,4", "--seeds", "0"], id="sizes-repeated"),
    pytest.param(["sample", "heisenberg", "4", "--shots", "0"], id="sample-shots"),
    pytest.param(["bench", *_SWEEP, "--shots", "0"], id="bench-shots"),
    pytest.param(["sample", "heisenberg", "4", "--eta", "2"], id="sample-eta"),
    pytest.param(["hops", *_SWEEP, "--eta", "-0.1"], id="hops-eta"),
    pytest.param(["bench", *_SWEEP, "--tau", "1"], id="tau"),
    pytest.param(["ablate", *_SWEEP, "--eps", "0"], id="eps"),
    pytest.param(["bench", *_SWEEP, "--eps", "nan"], id="eps-nan"),
    pytest.param(["hops", *_SWEEP, "--eps", "inf"], id="eps-inf"),
    pytest.param(["bench", *_SWEEP, "--tau", "nan"], id="tau-nan"),
    pytest.param(["bench", *_SWEEP, "--eta", "nan"], id="bench-eta-nan"),
    pytest.param(["sample", "heisenberg", "4", "--eta", "nan"], id="sample-eta-nan"),
    pytest.param(["oracle", "heisenberg", "4", "--count", "9"], id="count-9"),
    pytest.param(["oracle", "heisenberg", "4", "--count", "1"], id="count-1"),
    pytest.param(["oracle", "heisenberg", "22"], id="oracle-n"),
    pytest.param(["oracle", "heisenberg", "2", "--count", "5"],
                 id="oracle-count-above-dim"),
    pytest.param(["sample", "heisenberg", "21"], id="sample-n"),
    pytest.param(["model", "heisenberg", "0"], id="model-n-0"),
    pytest.param(["model", "tfim", "64"], id="model-n-64"),
])
def test_out_of_range_value_is_a_usage_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "Usage:" in result.output
    assert "Invalid value for" in result.output
    assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("verb, name, text", [
    ("ingest", "counts_file", '{"n": 3, "counts": {"00": 5}}'),
    ("ingest", "counts_file", '{"n": 2, "counts": {"2X": 5}}'),
    ("ingest", "counts_file", '{"n": 2, "counts": {"01": 0}}'),
    ("ingest", "counts_file", '{"n": 2, "counts": {"01": 9223372036854775808}}'),
    ("ingest", "counts_file", "{not json"),
    ("run", "counts_file", "null"),
    ("run", "counts_file", '{"n": 2, "counts": {"01": 5, "01": 7}}'),
    ("run", "hamiltonian", "1.0 XQ\n"),
    # Each coefficient is finite; the diagonal at 000 sums two of them.
    ("run", "hamiltonian", "1e308 ZZI\n1e308 ZIZ\n1.0 XXI\n"),
], ids=["key-length", "non-binary", "non-positive", "past-int64", "json", "not-object",
        "repeated-key", "hamiltonian", "hamiltonian-past-float64"])
def test_malformed_input_file_is_a_usage_error(runner, artifacts, tmp_path,
                                              verb, name, text):
    ham_path, counts_path = artifacts
    bad = tmp_path / "bad"
    bad.write_text(text)
    if name == "hamiltonian":
        ham_path = bad
    else:
        counts_path = bad
    args = [counts_path] if verb == "ingest" else [ham_path, counts_path]
    result = runner.invoke(main, [verb, *map(str, args)])
    assert result.exit_code == 2, result.output
    assert "Usage:" in result.output
    assert f"Invalid value for '{name.upper()}'" in result.output
    assert isinstance(result.exception, SystemExit)


_LABELS = {
    "standard": "standard", "en": "as-en", "coupling_only": "as-coupling_only",
    "denom_only": "as-denom_only", "diag_only": "as-diag_only", "random": "random",
}


@pytest.mark.parametrize("verb", ["run", "ingest"])
@pytest.mark.parametrize("method", sorted(_LABELS))
def test_config_kind_is_the_method_run(runner, artifacts, verb, method):
    ham_path, counts_path = artifacts
    files = [str(ham_path), str(counts_path)] if verb == "run" else [str(counts_path)]
    result = _invoke(runner, ["--seed", "0", verb, *files, "--method", method,
                              "-T", "2"])
    doc = json.loads(result.output)
    assert doc["method"] == _LABELS[method]
    assert doc["config"]["kind"] == method


def _scaled_model(runner, tmp_path, n: int, scale: float, seed: int = 0):
    """`model heisenberg n` at the seed with every coefficient times scale, as a file."""
    text = _invoke(runner, ["--seed", str(seed), "model", "heisenberg", str(n)]).output
    scaled = tmp_path / f"h{n}x.txt"
    scaled.write_text("".join(
        f"{float(coeff) * scale!r} {pauli}\n"
        for coeff, pauli in (line.split() for line in text.splitlines())))
    return scaled


def _scaled_heisenberg_8(runner, tmp_path, scale: float, seed: int = 0) -> list[str]:
    """The scaled n = 8 model's file and a 500-shot counts file, as `run` paths."""
    counts = tmp_path / "c8.json"
    _invoke(runner, ["--seed", "0", "--out", str(counts), "sample", "heisenberg",
                     "8", "--shots", "500"])
    return [str(_scaled_model(runner, tmp_path, 8, scale, seed)), str(counts)]


class TestSolverFailure:
    """A solver failure ends the command as "Error: ..." with exit code 1."""

    @pytest.mark.parametrize("extra", [[], ["--no-exact"]], ids=["oracle", "restricted"])
    def test_oracle_convergence_error_is_a_one_line_error(self, runner, tmp_path, extra):
        # Scaled by 1e200, the n = 8 chain's coefficients are finite, but the
        # norm of the residual overflows to inf: in the reference solve, or
        # with --no-exact in the first restricted solve.  No numpy warning
        # joins the one line.
        result = runner.invoke(main, ["--seed", "0", "run",
                                      *_scaled_heisenberg_8(runner, tmp_path, 1e200),
                                      "-T", "2", *extra])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert len(result.output.splitlines()) == 1
        assert result.output.startswith("Error: ") and "residual" in result.output

    def test_run_error_is_a_one_line_error(self, runner, artifacts, monkeypatch):
        def fail(ham, counts, config):
            raise RunError("initial solve failed: boom", ())

        monkeypatch.setattr(cli_mod, "run_as_sqd", fail)
        ham_path, counts_path = artifacts
        result = runner.invoke(main, ["run", str(ham_path), str(counts_path), "--no-exact"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output == "Error: initial solve failed: boom\n"

    @pytest.mark.parametrize("verb", ["run", "ingest"])
    def test_floor_violation_is_a_one_line_error(self, runner, artifacts, monkeypatch, verb):
        monkeypatch.setattr(cli_mod, "run_as_sqd", run_below_floor)
        ham_path, counts_path = artifacts
        files = [str(ham_path), str(counts_path)] if verb == "run" else [str(counts_path)]
        result = runner.invoke(main, ["--seed", "0", verb, *files, "-T", "2"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert len(result.output.splitlines()) == 1
        assert result.output.startswith("Error: variational floor violated: E_est=-1000000.0 < E0=")


def test_rounding_floor_run_ends_cleanly(runner, tmp_path):
    # Scaled by 1e5, the n = 8 chain's row sums pass 7.0e4, where the
    # residual bound becomes the rounding floor 64 eps r: the reference
    # solve's 1.03e-9 passes it.
    result = _invoke(runner, ["--seed", "0", "run",
                              *_scaled_heisenberg_8(runner, tmp_path, 1e5), "-T", "2"])
    doc = json.loads(result.output)
    ham, _ = build_model(ModelSpec(kind="heisenberg", n=8, seed=0))
    assert doc["reference"]["e0"] == pytest.approx(1e5 * exact_lowest(ham).e0, rel=1e-12)
    assert doc["final_energy"] >= doc["reference"]["e0"]


def test_rounding_below_e0_is_within_the_floor(runner, tmp_path):
    # Scaled by 1e8, the n = 8 chain at seed 3 reaches the whole space and
    # ends 5e-7 below E0 = -1.47e9 in rounding: within the floor's
    # residual_bound(|E0|) = 64 eps |E0|, 2.1e-5, and past a fixed 1e-9.
    result = _invoke(runner, ["--seed", "0", "run",
                              *_scaled_heisenberg_8(runner, tmp_path, 1e8, seed=3),
                              "-B", "300", "-T", "3"])
    doc = json.loads(result.output)
    e0 = doc["reference"]["e0"]
    assert e0 - residual_bound(abs(e0)) <= doc["final_energy"] < e0 - 1e-9
    assert doc["err"] == e0 - doc["final_energy"]


def test_large_energy_run_ends_cleanly(runner, tmp_path):
    # Scaled by 1e3, the n = 10 chain's energies near -18580 rise by
    # 2.9e-11 in rounding at one step, which the trace's bound allows.
    scaled = _scaled_model(runner, tmp_path, 10, 1e3)
    counts = tmp_path / "c10.json"
    _invoke(runner, ["--seed", "0", "--out", str(counts), "sample", "heisenberg", "10"])
    result = _invoke(runner, ["--seed", "0", "run", str(scaled), str(counts),
                              "-B", "100", "-T", "8"])
    energies = [r["energy"] for r in json.loads(result.output)["records"]]
    assert any(later > earlier for earlier, later in zip(energies, energies[1:]))


class TestIngestVerb:
    def test_beyond_oracle_limit_skips_reference(self, runner, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(counts_to_json(counts_of({0b0101 << 18: 7, 0b1010: 5, 0b0110 << 9: 2}, n=22)))
        result = _invoke(runner, ["ingest", str(path), "-T", "1"])
        doc = json.loads(result.output)
        assert doc["model"]["n"] == 22
        assert doc["err"] is None
        assert doc["reference"] == {"e0": None, "e1": None, "degenerate_ground": None}
        assert [r["iteration"] for r in doc["records"]] == [0, 1]

    def test_noisy_counts_recover_reference(self, runner, tmp_path):
        ham, _ = build_model(ModelSpec(kind="heisenberg", n=6, seed=0))
        eig = exact_lowest(ham)
        rng = np.random.default_rng(11)
        half = 400
        good = rng.choice(64, size=half, p=np.abs(eig.psi0) ** 2)
        junk = rng.integers(0, 64, size=half)
        tally: dict[int, int] = {}
        for s in np.concatenate([good, junk]):
            tally[int(s)] = tally.get(int(s), 0) + 1
        path = tmp_path / "hw.json"
        path.write_text(counts_to_json(
            counts_of(tally, n=6)))

        result = _invoke(runner, ["--seed", "0", "ingest", str(path),
                                  "--kind", "heisenberg"])
        doc = json.loads(result.output)
        assert doc["model"]["kind"] == "heisenberg"
        assert doc["err"] <= 1e-8

    def test_one_qubit_counts_are_a_usage_error(self, runner, tmp_path):
        # The models start at two qubits; run takes any H, so n = 1 runs there.
        counts = tmp_path / "c1.json"
        counts.write_text('{"n": 1, "counts": {"0": 5, "1": 3}}')
        result = runner.invoke(main, ["ingest", str(counts)])
        assert result.exit_code == 2, result.output
        assert "Invalid value for 'COUNTS_FILE'" in result.output
        assert "at least 2 qubits" in result.output
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)
        ham = tmp_path / "h1.txt"
        ham.write_text("1.0 Z\n0.5 X\n")
        doc = json.loads(_invoke(runner, ["run", str(ham), str(counts)]).output)
        assert doc["err"] <= 1e-8


class TestSweepVerbs:
    def test_bench_csv_with_medians_sidecar(self, runner, tmp_path):
        out = tmp_path / "table.csv"
        _invoke(runner, ["--out", str(out), "bench", "--sizes", "4",
                         "--seeds", "0,1", "--shots", "300"])
        reader = csv.DictReader(io.StringIO(out.read_text()))
        assert tuple(reader.fieldnames) == CSV_COLUMNS
        assert len(list(reader)) == 2 * 3
        medians = json.loads((tmp_path / "table.csv.medians.json").read_text())
        assert {m["method"] for m in medians} == {"standard", "random", "as-en"}

    def test_bench_json_single_document(self, runner):
        result = _invoke(runner, ["--format", "json", "bench", "--sizes", "4",
                                  "--seeds", "0", "--shots", "300"])
        doc = json.loads(result.output)
        assert set(doc) == {"rows", "medians"}
        assert len(doc["rows"]) == 3

    def test_repeat_invocation_identical_modulo_timing(self, runner, tmp_path):
        args = ["bench", "--sizes", "4,6", "--seeds", "0,1", "--shots", "300"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        _invoke(runner, ["--out", str(a)] + args)
        _invoke(runner, ["--out", str(b)] + args)
        assert _mask_wall(a.read_text()) == _mask_wall(b.read_text())

    def test_ablate_defaults_to_variant_set(self, runner):
        result = _invoke(runner, ["--format", "json", "ablate", "--sizes", "4",
                                  "--seeds", "0", "--shots", "300"])
        doc = json.loads(result.output)
        assert {r["method"] for r in doc["rows"]} == {
            "as-en", "as-coupling_only", "as-denom_only", "as-diag_only"}

    def test_hops_emits_stats(self, runner):
        result = _invoke(runner, ["--format", "json", "hops", "--sizes", "4",
                                  "--seeds", "0", "--shots", "300"])
        doc = json.loads(result.output)
        assert set(doc) == {"rows", "stats"}
        assert {r["hops"] for r in doc["rows"]} == {1, 2}
        assert doc["stats"][0]["threshold"] == 1e-6

    def test_unreached_hops_arm_is_strict_json(self, runner, tmp_path):
        # At T = 2 no 1-hop run of these seeds comes within the threshold.
        args = ["hops", "--sizes", "8", "--seeds", "0,1,2", "-T", "2"]
        doc = _strict_json(_invoke(runner, ["--format", "json", *args]).output)
        (entry,) = doc["stats"]
        assert entry["iters_1hop"] == ["unreached"] * 3
        assert entry["median_iters_1hop"] == "unreached"
        out = tmp_path / "hops.csv"
        _invoke(runner, ["--out", str(out), *args])
        assert _strict_json((tmp_path / "hops.csv.stats.json").read_text()) == doc["stats"]

    def test_failed_cell_is_strict_json(self, runner, monkeypatch):
        solve = bench_mod.run_as_sqd

        def fail_random(ham, counts, config):
            if config.kind == "random":
                raise RunError("solver blew up", records=[])
            return solve(ham, counts, config)

        monkeypatch.setattr(bench_mod, "run_as_sqd", fail_random)
        result = _invoke(runner, ["--format", "json", "bench", "--sizes", "4",
                                  "--seeds", "0", "--shots", "300"])
        rows = {r["method"]: r for r in _strict_json(result.output)["rows"]}
        assert rows["random"]["E_est"] is None and rows["random"]["err"] is None
        assert rows["random"]["terminated"].startswith("error:")
        assert isinstance(rows["as-en"]["E_est"], float)

    def test_bad_sizes_list_rejected(self, runner):
        result = runner.invoke(main, ["bench", "--sizes", "4;6"])
        assert result.exit_code != 0

    def test_help_lists_all_verbs(self, runner):
        result = _invoke(runner, ["--help"])
        for verb in ("model", "oracle", "sample", "run",
                     "bench", "ablate", "hops", "ingest"):
            assert verb in result.output


class TestBlasThreadPin:
    VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    @classmethod
    def _child(cls, args, **variables):
        """Run python on args with none of the thread variables but those given."""
        env = {k: v for k, v in os.environ.items() if k not in cls.VARIABLES}
        src = str(Path(assqd.__file__).parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.update(variables)
        done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_output_bits_do_not_follow_the_host_thread_count(self):
        # 850-state Lanczos solves, whose last bits move with OpenBLAS's
        # thread count when the host has more than one core.
        args = ["-m", "assqd.cli", "bench", "--sizes", "10", "--seeds", "0,1",
                "-B", "100", "-T", "8"]
        unset = self._child(args)
        pinned = self._child(args, **dict.fromkeys(self.VARIABLES, "1"))
        assert _mask_wall(unset) == _mask_wall(pinned)

    def test_a_users_own_setting_wins(self):
        args = ["-c", "import os, assqd; print(os.environ['OPENBLAS_NUM_THREADS'])"]
        assert self._child(args, OPENBLAS_NUM_THREADS="2").strip() == "2"
        assert self._child(args).strip() == "1"
