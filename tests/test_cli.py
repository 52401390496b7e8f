import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import csdpp
from csdpp import cli
from csdpp.cli import main
from csdpp.costs import available_costs
from csdpp.learners import ALGORITHMS
from csdpp.stream import Instance, planted_subspace_stream, serialize_sparse_labels

_RUN_REPEAT = cli._run_repeat


def _crash_o_rand_cell(payload):
    """Stand-in for the job runner: the o-rand play kills its worker once the o-br CSV exists."""
    if payload["config"].algorithm != "o-rand":
        return _RUN_REPEAT(payload)
    finished = payload["cells"][0]["csv"].replace("o-rand", "o-br")
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
        for normalize in ([], ["--no-normalize"]):
            args = ["run", "--dataset", dataset, "--algo", "dpp-naive", "--repeats", "2", "--seed", "3",
                    "--limit", "50", "--noise-p", "0", "--noise-p", "0.25", *normalize]
            serial = str(tmp_path / f"serial{len(normalize)}")
            pooled = str(tmp_path / f"pooled{len(normalize)}")
            assert run_cli(*args, "--output", serial) == 0
            assert run_cli(*args, "--output", pooled, "--workers", "2") == 0
            assert read_all(serial) == read_all(pooled)
            assert len(read_all(serial)) == 6

    @pytest.mark.parametrize("engine", ["ridge", "sgd"])
    def test_shared_plays_match_cells_run_one_at_a_time(self, dataset, tmp_path, engine):
        common = ["run", "--dataset", dataset, "--repeats", "2", "--seed", "4", "--engine", engine]
        single = tmp_path / "single"
        for algo in ALGORITHMS:
            for cost in available_costs():
                assert run_cli(*common, "--algo", algo, "--cost", cost, "--output", str(single)) == 0
        expected = read_all(single)
        assert len(expected) == len(ALGORITHMS) * len(available_costs()) * 3
        axes = [arg for algo in ALGORITHMS for arg in ("--algo", algo)]
        axes += [arg for cost in available_costs() for arg in ("--cost", cost)]
        for workers in ("1", "2"):
            grid = tmp_path / f"grid{workers}"
            assert run_cli(*common, *axes, "--workers", workers, "--output", str(grid)) == 0
            assert read_all(grid) == expected

    def test_cost_blind_cells_share_one_play(self, dataset, tmp_path, monkeypatch, capsys):
        built = []
        make_learner = cli.make_learner

        def counting(config, d, k):
            built.append((config.algorithm, config.cost))
            return make_learner(config, d, k)

        monkeypatch.setattr(cli, "make_learner", counting)
        monkeypatch.delenv("CSDPP_WORKERS", raising=False)
        out = tmp_path / "res"
        axes = [arg for algo in ALGORITHMS for arg in ("--algo", algo)]
        assert run_cli("run", "--dataset", dataset, *axes, "--cost", "hamming", "--cost", "f1",
                       "--output", str(out)) == 0
        # five cost-blind plays (cs-dpp-* under hamming joins dpp-*), two cost-weighted f1 plays
        assert len(built) == 7
        assert sorted(built) == sorted(
            [(algo, "hamming") for algo in ("dpp-pbc", "dpp-pbt", "dpp-naive", "o-br", "o-rand")]
            + [("cs-dpp-pbc", "f1"), ("cs-dpp-pbt", "f1")]
        )
        assert len(os.listdir(out)) == 28
        assert capsys.readouterr().out == f"wrote 14 cost traces and 14 summaries to {out}\n"

    def test_plays_are_keyed_on_the_resolved_m(self, dataset, tmp_path, monkeypatch):
        built = []
        make_learner = cli.make_learner

        def counting(config, d, k):
            built.append(config.algorithm)
            return make_learner(config, d, k)

        monkeypatch.setattr(cli, "make_learner", counting)
        monkeypatch.delenv("CSDPP_WORKERS", raising=False)
        common = ["run", "--dataset", dataset, "--seed", "2", "--limit", "40"]
        grid = tmp_path / "grid"
        assert run_cli(*common, "--algo", "o-br", "--algo", "dpp-pbc", "--m-frac", "0.25", "--m-frac", "0.3",
                       "--output", str(grid)) == 0
        # K = 8: o-br ignores M, and 0.25 * 8 and 0.3 * 8 both round to M = 2
        assert sorted(built) == ["dpp-pbc", "o-br"]
        single = tmp_path / "single"
        for algo in ("o-br", "dpp-pbc"):
            for m_frac in ("0.25", "0.3"):
                assert run_cli(*common, "--algo", algo, "--m-frac", m_frac, "--output", str(single)) == 0
        assert len(built) == 6
        expected = read_all(single)
        assert len(expected) == 8
        assert read_all(grid) == expected
        assert b"# m_frac = 0.3\n" in expected["o-br_hamming_mf0.3_p0_r0.csv"]

    def test_config_file_matches_flags_byte_for_byte(self, dataset, tmp_path):
        values = {"algo": ["cs-dpp-pbt", "o-br"], "cost": ["f1", "hamming"], "m_frac": [0.25, 0.5],
                  "noise_p": [0.0, 0.1], "repeats": 2, "seed": 3, "limit": 40, "eta": 1.5, "engine": "ridge",
                  "sgd_step": 0.5, "label_order": "random", "order_seed": 9, "workers": 1}
        flags = [arg for key, value in values.items() for one in (value if isinstance(value, list) else [value])
                 for arg in (f"--{key.replace('_', '-')}", str(one))]
        out = tmp_path / "flags"
        assert run_cli("run", "--dataset", dataset, *flags, "--lambda", "0.5", "--no-normalize",
                       "--output", str(out)) == 0
        expected = read_all(out)
        assert len(expected) == 16 * 3
        assert b"# normalize = False\n# order_seed = 9\n" in expected["o-br_f1_mf0.5_p0.1_r1.csv"]
        # underscored keys with "lam", then dashed keys with "lambda"
        for spelling, config in (("lam", values), ("lambda", {k.replace("_", "-"): v for k, v in values.items()})):
            out = tmp_path / spelling
            cfg = tmp_path / f"{spelling}.json"
            cfg.write_text(json.dumps({**config, spelling: 0.5, "normalize": False, "output": str(out)}),
                           encoding="utf-8")
            assert run_cli("run", "--dataset", dataset, "--config", str(cfg)) == 0
            assert read_all(out) == expected

    def test_dataset_is_normalized_once(self, dataset, tmp_path, monkeypatch):
        calls = []
        normalize = csdpp.stream.normalize_features

        def counting(instances):
            calls.append(len(instances))
            return normalize(instances)

        monkeypatch.setattr(csdpp.stream, "normalize_features", counting)
        monkeypatch.delenv("CSDPP_WORKERS", raising=False)
        out = tmp_path / "res"
        assert run_cli("run", "--dataset", dataset, "--algo", "o-br", "--algo", "dpp-pbc",
                       "--repeats", "2", "--output", str(out)) == 0
        assert calls == [80]
        assert len(os.listdir(out)) == 6

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

    def test_wide_ridge_cell_identical_across_blas_thread_counts(self, tmp_path):
        # d=500 is wide enough for OpenBLAS to split the panel flushes across threads;
        # 150 steps flush four 32-row panels and leave 22 rows pending in the snapshot
        rng = np.random.default_rng(30)
        d, k, rows = 500, 8, 150
        insts = []
        for _ in range(rows):
            x = np.zeros(d)
            nz = rng.choice(d, size=d // 20, replace=False)
            x[nz] = rng.random(nz.size)
            insts.append(Instance(x, rng.choice(np.array([-1, 1], dtype=np.int8), size=k)))
        data = tmp_path / "wide.txt"
        data.write_text(serialize_sparse_labels(insts, d, k), encoding="utf-8")
        src = os.path.dirname(os.path.dirname(os.path.abspath(csdpp.__file__)))
        script = (
            "import json, sys\n"
            "from csdpp import cli, learners, stream\n"
            "data, out, snap = sys.argv[1:]\n"
            "assert cli.main(['run', '--dataset', data, '--algo', 'o-br', '--algo', 'cs-dpp-pbc',\n"
            "                 '--cost', 'f1', '--seed', '5', '--output', out]) == 0\n"
            "insts, d, k = stream.parse_dataset(open(data, encoding='utf-8').read())\n"
            "learner = learners.make_learner(learners.LearnerConfig(algorithm='cs-dpp-pbc', cost='f1', seed=5), d, k)\n"
            "learners.play(learner, insts)\n"
            "open(snap, 'w', encoding='utf-8').write(json.dumps(learners.to_snapshot(learner)))\n"
        )
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            snap = tmp_path / f"snapshot{threads}.json"
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
                "CSDPP_WORKERS": "1",
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            }
            proc = subprocess.run(
                [sys.executable, "-c", script, str(data), str(out), str(snap)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            runs.append((read_all(out), snap.read_bytes()))
        assert len(runs[0][0]) == 4
        assert json.loads(runs[0][1])["head"]["acc"]["pending"] == rows % 32
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("algo, cost, k", [("dpp-pbc", "hamming", 400), ("cs-dpp-pbt", "f1", 200)])
    def test_wide_tracked_cell_identical_across_blas_thread_counts(self, tmp_path, algo, cost, k):
        # M = K/4: the widest tracked cells the README's thread-count promise names; the frame
        # rotation ((M+2) x (M+2) x K) and the rotated head's M x K x M product are large enough
        # here for OpenBLAS to split them across threads, and the bits must not move
        rng = np.random.default_rng(40)
        d, rows = 10, 40
        insts = [Instance(rng.standard_normal(d), np.where(rng.random(k) < 0.05, 1, -1).astype(np.int8))
                 for _ in range(rows)]
        data = tmp_path / "tracked.txt"
        data.write_text(serialize_sparse_labels(insts, d, k), encoding="utf-8")
        src = os.path.dirname(os.path.dirname(os.path.abspath(csdpp.__file__)))
        script = (
            "import json, sys\n"
            "from csdpp import cli, learners, stream\n"
            "data, out, snap, algo, cost = sys.argv[1:]\n"
            "assert cli.main(['run', '--dataset', data, '--algo', algo, '--cost', cost, '--seed', '5',\n"
            "                 '--output', out]) == 0\n"
            "insts, d, k = stream.parse_dataset(open(data, encoding='utf-8').read())\n"
            "config = learners.LearnerConfig(algorithm=algo, cost=cost, seed=5)\n"
            "learner = learners.make_learner(config, d, k)\n"
            "learners.play(learner, insts)\n"
            "open(snap, 'w', encoding='utf-8').write(json.dumps(learners.to_snapshot(learner)))\n"
        )
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            snap = tmp_path / f"snapshot{threads}.json"
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
                "CSDPP_WORKERS": "1",
                "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            }
            proc = subprocess.run(
                [sys.executable, "-c", script, str(data), str(out), str(snap), algo, cost],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            runs.append((read_all(out), snap.read_bytes()))
        assert len(runs[0][0]) == 2
        assert len(json.loads(runs[0][1])["basis"]) == k // 4
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

    @pytest.mark.parametrize("argv, message", [
        (["--limit", "0"], "--limit must be >= 1, got 0"),
        (["--limit", "-1"], "--limit must be >= 1, got -1"),
        (["--noise-p", "0", "--noise-p", "1.5"], "--noise-p must lie in [0, 1], got 1.5"),
    ])
    def test_bad_stream_shaping_is_usage_error(self, dataset, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--dataset", dataset, *argv, "--output", str(tmp_path / "res"))
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    def test_empty_dataset_is_one_runtime_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("8 6 0\n", encoding="utf-8")
        code = run_cli("run", "--dataset", str(empty), "--algo", "o-br", "--algo", "dpp-pbc",
                       "--repeats", "2", "--output", str(tmp_path / "res"))
        assert code == 1
        assert capsys.readouterr().err == "error: the dataset has no instances\n"
        assert not (tmp_path / "res").exists()

    def test_unwritable_csv_fails_only_its_cell(self, dataset, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("CSDPP_WORKERS", raising=False)
        out = tmp_path / "res"
        (out / "o-br_hamming_mf0.25_p0_r0.csv").mkdir(parents=True)
        code = run_cli("run", "--dataset", dataset, "--algo", "o-br", "--repeats", "2", "--output", str(out))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: cell o-br_hamming_mf0.25_p0 repeat 0:")
        assert err[1:] == ["error: 1 of 2 cell repeats failed"]
        assert (out / "o-br_hamming_mf0.25_p0_r1.csv").is_file()
        assert sorted(os.listdir(out)) == ["o-br_hamming_mf0.25_p0_r0.csv", "o-br_hamming_mf0.25_p0_r1.csv"]

    def test_unwritable_csv_fails_only_its_cell_in_a_shared_play(self, dataset, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("CSDPP_WORKERS", raising=False)
        out = tmp_path / "res"
        (out / "o-br_hamming_mf0.25_p0_r0.csv").mkdir(parents=True)
        code = run_cli("run", "--dataset", dataset, "--algo", "o-br", "--cost", "hamming", "--cost", "f1",
                       "--output", str(out))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("error: cell o-br_hamming_mf0.25_p0 repeat 0:")
        assert err[1:] == ["error: 1 of 2 cell repeats failed"]
        assert sorted(os.listdir(out)) == ["o-br_f1_mf0.25_p0_r0.csv", "o-br_hamming_mf0.25_p0_r0.csv"]
        assert (out / "o-br_f1_mf0.25_p0_r0.csv").is_file()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failed_play_names_every_cell_it_served(self, dataset, tmp_path, capsys, workers):
        # M = K is legal for o-br but not for a tracked learner; cs-dpp-pbc/hamming plays as dpp-pbc
        code = run_cli("run", "--dataset", dataset, "--algo", "dpp-pbc", "--algo", "cs-dpp-pbc",
                       "--algo", "o-br", "--cost", "hamming", "--cost", "f1", "--m-frac", "1",
                       "--workers", workers, "--output", str(tmp_path / "res"))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        message = ": code dimension must satisfy 1 <= M < K, got M=8 K=8"
        assert err == [f"error: cell {algo}_{cost}_mf1_p0 repeat 0{message}"
                       for algo in ("dpp-pbc", "cs-dpp-pbc") for cost in ("hamming", "f1")] + [
            "error: 4 of 6 cell repeats failed"]
        assert sorted(os.listdir(tmp_path / "res")) == ["o-br_f1_mf1_p0_r0.csv", "o-br_hamming_mf1_p0_r0.csv"]

    def test_unwritable_summary_is_runtime_error(self, dataset, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("CSDPP_WORKERS", raising=False)
        out = tmp_path / "res"
        blocker = out / "o-br_hamming_mf0.25_p0_summary.json"
        blocker.mkdir(parents=True)
        code = run_cli("run", "--dataset", dataset, "--algo", "o-br", "--output", str(out))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write summary {blocker}: ")
        assert (out / "o-br_hamming_mf0.25_p0_r0.csv").is_file()

    def test_uncreatable_output_directory_is_runtime_error(self, dataset, tmp_path, capsys):
        blocker = tmp_path / "afile"
        blocker.write_text("", encoding="utf-8")
        code = run_cli("run", "--dataset", dataset, "--output", str(blocker / "sub"))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: cannot create output directory: ")

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

    def test_crashed_worker_names_every_cell_its_play_served(self, dataset, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_run_repeat", _crash_o_rand_cell)
        out = tmp_path / "res"
        code = run_cli("run", "--dataset", dataset, "--algo", "o-br", "--algo", "o-rand",
                       "--cost", "hamming", "--cost", "f1", "--output", str(out), "--workers", "2")
        assert code == 1
        err = capsys.readouterr().err
        assert "error: cell o-rand_hamming_mf0.25_p0 repeat 0:" in err
        assert "error: cell o-rand_f1_mf0.25_p0 repeat 0:" in err
        assert (out / "o-br_hamming_mf0.25_p0_r0.csv").exists()
        assert not any(name.startswith("o-rand") for name in os.listdir(out))

    @pytest.mark.parametrize("argv, message", [
        (["--algo", "o-br", "--algo", "o-br"], "--algo values 'o-br' and 'o-br' name the same cells (o-br)"),
        (["--cost", "f1", "--cost", "hamming", "--cost", "f1"],
         "--cost values 'f1' and 'f1' name the same cells (f1)"),
        (["--m-frac", "0.25", "--m-frac", "0.250000001"],
         "--m-frac values 0.25 and 0.250000001 name the same cells (0.25)"),
        (["--noise-p", "0.1", "--noise-p", "0.1"], "--noise-p values 0.1 and 0.1 name the same cells (0.1)"),
    ])
    def test_repeated_grid_value_is_usage_error(self, dataset, tmp_path, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--dataset", dataset, *argv, "--limit", "50", "--output", str(tmp_path / "res"))
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    def test_grid_values_repeated_in_config_are_usage_error(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"noise_p": [0, 0.0]}), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--dataset", dataset, "--config", str(cfg), "--output", str(tmp_path / "res"))
        assert exc.value.code == 2
        assert "--noise-p values 0 and 0.0 name the same cells (0)" in capsys.readouterr().err

    def test_bad_algo_in_config_is_usage_error(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algo": ["dpp-psychic"]}), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--dataset", dataset, "--config", str(cfg))
        assert exc.value.code == 2

    @pytest.mark.parametrize("key, value", [
        ("workers", "2"), ("repeats", "2"), ("seed", 1.5), ("limit", True), ("order_seed", "7"),
        ("eta", "2.0"), ("lambda", None), ("sgd_step", [1.0]),
    ])
    def test_mistyped_config_value_is_usage_error(self, dataset, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--dataset", dataset, "--config", str(cfg), "--output", str(tmp_path / "res"))
        assert exc.value.code == 2
        assert ("lam" if key == "lambda" else key) in capsys.readouterr().err

    def test_scalar_grid_axes_in_config(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algo": "dpp-pbc", "cost": "f1", "m_frac": 0.5, "noise_p": 0.0}),
                       encoding="utf-8")
        out = tmp_path / "res"
        assert run_cli("run", "--dataset", dataset, "--config", str(cfg), "--output", str(out)) == 0
        assert sorted(os.listdir(out)) == ["dpp-pbc_f1_mf0.5_p0_r0.csv", "dpp-pbc_f1_mf0.5_p0_summary.json"]

    def test_mistyped_grid_value_is_usage_error(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m_frac": ["0.5"]}), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--dataset", dataset, "--config", str(cfg))
        assert exc.value.code == 2
        assert "m_frac" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_non_positive_workers_is_usage_error(self, dataset, tmp_path, capsys, source):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": 0}), encoding="utf-8")
        argv = ["--workers", "-3"] if source == "flag" else ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--dataset", dataset, *argv, "--output", str(tmp_path / "res"))
        assert exc.value.code == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("argv, config, message", [
        (["--seed", "-1"], None, "--seed must be >= 0, got -1"),
        (None, {"seed": -1}, "config key seed must be >= 0, got -1"),
        (["--order-seed", "-3"], None, "--order-seed must be >= 0, got -3"),
        (None, {"order-seed": -3}, "config key order-seed must be >= 0, got -3"),
        (None, {"output": 5}, "config key output must be a string, got 5"),
        (None, [1, 2], "config file must hold a JSON object, got [1, 2]"),
        (None, {"engine": "bogus"}, "config key engine must be one of ['ridge', 'sgd', 'auto'], got 'bogus'"),
        (None, {"label_order": "bogus"}, "config key label_order must be one of ['native', 'random'], got 'bogus'"),
        (None, {"normalize": "no"}, "config key normalize must be true or false, got 'no'"),
        (["--lambda", "0"], None, "--lambda must be > 0, got 0.0"),
        (None, {"lambda": 0}, "config key lambda must be > 0, got 0"),
        (None, {"lam": 0}, "config key lam must be > 0, got 0"),
        (["--eta", "-1"], None, "--eta must be >= 0, got -1.0"),
        (None, {"eta": -1}, "config key eta must be >= 0, got -1"),
        (["--eta", "nan"], None, "--eta must be a finite number, got nan"),
        (None, {"eta": float("nan")}, "config key eta must be a finite number, got nan"),
        (["--lambda", "inf"], None, "--lambda must be a finite number, got inf"),
        (None, {"lambda": float("inf")}, "config key lambda must be a finite number, got inf"),
        (["--sgd-step", "-1"], None, "--sgd-step must be >= 0, got -1.0"),
        (None, {"sgd_step": float("-inf")}, "config key sgd_step must be a finite number, got -inf"),
        (None, {"algo": []}, "config key algo needs at least one value"),
    ])
    def test_bad_setting_is_usage_error_before_any_output(self, dataset, tmp_path, capsys, argv, config, message):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config), encoding="utf-8")
            argv = ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--dataset", dataset, *argv, "--output", str(tmp_path / "res"))
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    def test_non_positive_worker_env_is_runtime_error(self, dataset, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CSDPP_WORKERS", "0")
        assert run_cli("run", "--dataset", dataset, "--output", str(tmp_path / "res")) == 1
        assert "error: CSDPP_WORKERS must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()


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
        assert names == ["decomposition-rank", "walk-agreement-rank", "condition-rank"]

    def test_mutant_fails_with_exit_1(self, capsys):
        assert run_cli("verify", "bounds", "--trials", "400", "--mutant", "drop-residual") == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["passed"] is False

    def test_unknown_cost_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "lemma3", "--cost", "nope")
        assert exc.value.code == 2
        assert "unknown cost 'nope'; available: ['accuracy', 'f1', 'hamming', 'rank']" in capsys.readouterr().err

    def test_unknown_mutant_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "projection", "--mutant", "nearest-brekpoint")
        assert exc.value.code == 2
        assert "unknown mutant 'nearest-brekpoint'" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_non_positive_trials_is_usage_error(self, capsys, trials):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "lemma1", "--trials", trials)
        assert exc.value.code == 2
        assert f"--trials must be >= 1, got {trials}" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "projection", "--seed", "-1")
        assert exc.value.code == 2
        assert "--seed must be >= 0, got -1" in capsys.readouterr().err

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
