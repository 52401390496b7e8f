import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import csdpp
from csdpp import cli
from csdpp.cli import main
from csdpp.stream import planted_subspace_stream, serialize_sparse_labels

_RUN_REPEAT = cli._run_repeat


def _crash_o_rand_cell(payload):
    """Stand-in for the cell runner: the o-rand cell kills its worker once the o-br CSV exists."""
    spec = payload["spec"]
    if spec["algo"] != "o-rand":
        return _RUN_REPEAT(payload)
    finished = spec["csv_path"].replace("o-rand", "o-br")
    deadline = time.monotonic() + 60
    while not os.path.exists(finished) and time.monotonic() < deadline:
        time.sleep(0.01)
    os._exit(1)

ARFF_TEXT = """\
@relation tiny
@attribute f1 numeric
@attribute f2 numeric
@attribute L1 numeric
@attribute L2 numeric
@attribute L3 numeric
@attribute L4 numeric
@data
0.5,0.25,1,0,0,1
{0 1.0, 3 1}
0.1,0.9,0,1,1,0
"""


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    insts = planted_subspace_stream(6, 8, 80, seed=0, n_prototypes=3)
    path = root / "train.txt"
    path.write_text(serialize_sparse_labels(insts, 6, 8), encoding="utf-8")
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def read_all(directory):
    return {
        name: open(os.path.join(directory, name), "rb").read()
        for name in sorted(os.listdir(directory))
    }


class TestRunCommand:
    def test_repeat_group_artifacts(self, dataset, tmp_path):
        out = str(tmp_path / "res")
        code = run_cli(
            "run", "--dataset", dataset, "--algo", "dpp-pbt", "--cost", "hamming",
            "--m-frac", "0.25", "--repeats", "3", "--seed", "7", "--output", out,
        )
        assert code == 0
        names = sorted(os.listdir(out))
        stem = "dpp-pbt_hamming_mf0.25_p0"
        assert names == [f"{stem}_r0.csv", f"{stem}_r1.csv", f"{stem}_r2.csv", f"{stem}_summary.json"]
        summary = json.load(open(os.path.join(out, f"{stem}_summary.json")))
        assert summary["runs"] == 3
        assert summary["cell"] == stem
        assert summary["seed_base"] == 7
        assert 0.0 <= summary["mean_final_avg_cost"] <= 1.0
        text = open(os.path.join(out, f"{stem}_r0.csv"), encoding="utf-8").read()
        assert "# algorithm = dpp-pbt\n" in text
        assert "# seed = 7\n" in text
        assert "t,avg_cost\n1," in text
        assert text.count("\n") == text.count("# ") + 1 + 80  # header + column row + steps

    def test_rerun_is_byte_identical(self, dataset, tmp_path):
        args = ["run", "--dataset", dataset, "--algo", "cs-dpp-pbc", "--cost", "f1",
                "--repeats", "2", "--seed", "11"]
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert run_cli(*args, "--output", out_a) == 0
        assert run_cli(*args, "--output", out_b) == 0
        assert read_all(out_a) == read_all(out_b)

    def test_random_label_order_cell_is_reproducible(self, dataset, tmp_path):
        args = ["run", "--dataset", dataset, "--algo", "cs-dpp-pbt", "--cost", "f1",
                "--label-order", "random", "--order-seed", "5", "--seed", "3"]
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert run_cli(*args, "--output", out_a) == 0
        assert run_cli(*args, "--output", out_b) == 0
        assert read_all(out_a) == read_all(out_b)
        csv_name = "cs-dpp-pbt_f1_mf0.25_p0_r0.csv"
        text = open(os.path.join(out_a, csv_name), encoding="utf-8").read()
        assert "# label_order = random\n" in text
        assert "# order_seed = 5\n" in text

    def test_seed_changes_traces(self, dataset, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        run_cli("run", "--dataset", dataset, "--seed", "0", "--output", out_a)
        run_cli("run", "--dataset", dataset, "--seed", "1", "--output", out_b)
        a = read_all(out_a)
        b = read_all(out_b)
        assert set(a) == set(b) and a != b

    def test_full_grid_enumeration(self, dataset, tmp_path):
        out = str(tmp_path / "grid")
        code = run_cli(
            "run", "--dataset", dataset, "--algo", "dpp-pbc", "--algo", "o-br",
            "--noise-p", "0", "--noise-p", "0.25", "--output", out,
        )
        assert code == 0
        names = set(os.listdir(out))
        for algo in ("dpp-pbc", "o-br"):
            for p in ("p0", "p0.25"):
                assert f"{algo}_hamming_mf0.25_{p}_r0.csv" in names
                assert f"{algo}_hamming_mf0.25_{p}_summary.json" in names
        assert len(names) == 8

    def test_config_file_with_flag_override(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"repeats": 2, "cost": ["f1"], "lambda": 0.5, "m-frac": [0.5]}),
            encoding="utf-8",
        )
        out = str(tmp_path / "res")
        code = run_cli(
            "run", "--dataset", dataset, "--config", str(cfg),
            "--cost", "hamming", "--output", out,  # flag beats the config's f1
        )
        assert code == 0
        names = sorted(os.listdir(out))
        stem = "cs-dpp-pbc_hamming_mf0.5_p0"
        assert names == [f"{stem}_r0.csv", f"{stem}_r1.csv", f"{stem}_summary.json"]
        text = open(os.path.join(out, f"{stem}_r0.csv"), encoding="utf-8").read()
        assert "# lambda = 0.5\n" in text

    def test_stream_shaping_flags_reach_the_header(self, dataset, tmp_path):
        out = str(tmp_path / "res")
        code = run_cli(
            "run", "--dataset", dataset, "--limit", "30", "--no-normalize", "--output", out,
        )
        assert code == 0
        csv_path = os.path.join(out, "cs-dpp-pbc_hamming_mf0.25_p0_r0.csv")
        text = open(csv_path, encoding="utf-8").read()
        assert "# steps = 30\n" in text
        assert "# normalize = False\n" in text

    def test_arff_dataset(self, tmp_path):
        data = tmp_path / "tiny.arff"
        data.write_text(ARFF_TEXT, encoding="utf-8")
        labels = tmp_path / "labels.txt"
        labels.write_text("L1\nL2\nL3\nL4\n", encoding="utf-8")
        out = str(tmp_path / "res")
        code = run_cli(
            "run", "--dataset", str(data), "--format", "arff",
            "--label-names", str(labels), "--output", out,
        )
        assert code == 0
        assert "cs-dpp-pbc_hamming_mf0.25_p0_r0.csv" in os.listdir(out)

    def test_arff_needs_label_names(self, tmp_path):
        data = tmp_path / "tiny.arff"
        data.write_text(ARFF_TEXT, encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--dataset", str(data), "--format", "arff")
        assert exc.value.code == 2

    def test_worker_pool_matches_serial(self, dataset, tmp_path):
        args = ["run", "--dataset", dataset, "--algo", "dpp-naive", "--repeats", "2", "--seed", "3"]
        serial = str(tmp_path / "serial")
        pooled = str(tmp_path / "pooled")
        assert run_cli(*args, "--output", serial) == 0
        assert run_cli(*args, "--output", pooled, "--workers", "2") == 0
        assert read_all(serial) == read_all(pooled)

    def test_worker_env_variable(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("CSDPP_WORKERS", "2")
        out = str(tmp_path / "res")
        assert run_cli("run", "--dataset", dataset, "--output", out) == 0
        assert len(os.listdir(out)) == 2

    def test_artifacts_identical_across_blas_thread_counts(self, tmp_path):
        # the criterion-10 cell, each run in a fresh process with its own BLAS thread count
        insts = planted_subspace_stream(6, 8, 120, seed=10, n_prototypes=3)
        data = tmp_path / "data.txt"
        data.write_text(serialize_sparse_labels(insts, 6, 8), encoding="utf-8")
        src = os.path.dirname(os.path.dirname(os.path.abspath(csdpp.__file__)))
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            }
            proc = subprocess.run(
                [sys.executable, "-m", "csdpp.cli", "run", "--dataset", str(data), "--algo", "cs-dpp-pbt",
                 "--cost", "rank", "--repeats", "2", "--seed", "5", "--output", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(read_all(out))
        assert len(runs[0]) == 3
        assert runs[0] == runs[1]


class TestRunErrors:
    def test_unknown_cost_is_usage_error(self, dataset):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--dataset", dataset, "--cost", "squared-exotic")
        assert exc.value.code == 2

    def test_unknown_algo_flag_is_usage_error(self, dataset):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--dataset", dataset, "--algo", "dpp-psychic")
        assert exc.value.code == 2

    def test_bad_m_frac_is_usage_error(self, dataset):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--dataset", dataset, "--m-frac", "1.5")
        assert exc.value.code == 2

    def test_zero_repeats_is_usage_error(self, dataset):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--dataset", dataset, "--repeats", "0")
        assert exc.value.code == 2

    def test_unknown_config_key_is_usage_error(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workersz": 2}), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--dataset", dataset, "--config", str(cfg))
        assert exc.value.code == 2

    def test_unreadable_config_is_usage_error(self, dataset, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--dataset", dataset, "--config", str(tmp_path / "missing.json"))
        assert exc.value.code == 2

    def test_missing_dataset_is_runtime_error(self, tmp_path, capsys):
        code = run_cli("run", "--dataset", str(tmp_path / "nope.txt"))
        assert code == 1
        assert "cannot read dataset" in capsys.readouterr().err

    def test_malformed_dataset_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a header\n", encoding="utf-8")
        code = run_cli("run", "--dataset", str(bad))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_non_integer_worker_env_is_runtime_error(self, dataset, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CSDPP_WORKERS", "two")
        assert run_cli("run", "--dataset", dataset, "--output", str(tmp_path / "res")) == 1
        assert "error: CSDPP_WORKERS must be an integer, got 'two'" in capsys.readouterr().err

    def test_crashed_worker_names_its_cell_and_keeps_finished_csvs(self, dataset, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_run_repeat", _crash_o_rand_cell)
        out = tmp_path / "res"
        code = run_cli("run", "--dataset", dataset, "--algo", "o-br", "--algo", "o-rand",
                       "--output", str(out), "--workers", "2")
        assert code == 1
        err = capsys.readouterr().err
        assert "error: cell o-rand_hamming_mf0.25_p0 repeat 0:" in err
        assert (out / "o-br_hamming_mf0.25_p0_r0.csv").exists()
        assert not (out / "o-rand_hamming_mf0.25_p0_r0.csv").exists()

    def test_bad_algo_in_config_is_usage_error(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algo": ["dpp-psychic"]}), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--dataset", dataset, "--config", str(cfg))
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        assert run_cli("verify", "projection", "--trials", "25") == 0
        payload = json.loads(capsys.readouterr().out)
        assert [p["suite"] for p in payload] == ["projection"]
        assert payload[0]["passed"] is True

    def test_cost_restriction_and_trial_override(self, capsys):
        assert run_cli("verify", "lemma3", "--cost", "rank", "--trials", "400") == 0
        payload = json.loads(capsys.readouterr().out)
        names = [c["name"] for c in payload[0]["checks"]]
        assert names == ["decomposition-rank", "condition-rank"]

    def test_mutant_fails_with_exit_1(self, capsys):
        assert run_cli("verify", "bounds", "--trials", "400", "--mutant", "drop-residual") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["passed"] is False

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "lemma99")
        assert exc.value.code == 2

    @pytest.mark.skipif(shutil.which("csdpp") is None, reason="console script not installed")
    def test_console_script_entry_point(self):
        proc = subprocess.run(
            ["csdpp", "verify", "projection", "--trials", "10"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert '"suite": "projection"' in proc.stdout
