import hashlib
import importlib
import json
import os
import pkgutil
import shutil
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

import csdpp
from csdpp import cli
from csdpp.cli import main
from csdpp.costs import available_costs
from csdpp.learners import ALGORITHMS, Learner, Lockstep
from csdpp.online_pca import CappedMsgState
from csdpp.regressor import RidgeAccumulator
from csdpp.stream import Instance, planted_subspace_stream, serialize_sparse_labels

_RUN_REPEAT = cli._run_repeat


def _crash_o_rand_cell(payload):
    """Stand-in for the job runner: a job with the o-rand play kills its worker once the o-br CSV exists."""
    o_rand = [spec for spec in payload["plays"] if spec["config"].algorithm == "o-rand"]
    if not o_rand:
        return _RUN_REPEAT(payload)
    finished = o_rand[0]["cells"][0]["csv"].replace("o-rand", "o-br")
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

    def test_arff_without_label_names_is_refused_before_the_dataset_is_read(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--dataset", str(tmp_path / "nonexistent.arff"), "--format", "arff")
        assert exc.value.code == 2
        assert "--format arff requires --label-names" in capsys.readouterr().err

    def test_label_names_without_arff_is_usage_error(self, dataset, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_text("L1\nL2\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--dataset", dataset, "--label-names", str(labels), "--output", str(tmp_path / "res"))
        assert exc.value.code == 2
        assert "--label-names applies only to --format arff, not sparse-labels" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

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
        add = Lockstep.add

        def counting(bundle, config, d, k):
            built.append((config.algorithm, config.cost))
            return add(bundle, config, d, k)

        monkeypatch.setattr(Lockstep, "add", counting)
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
        add = Lockstep.add

        def counting(bundle, config, d, k):
            built.append(config.algorithm)
            return add(bundle, config, d, k)

        monkeypatch.setattr(Lockstep, "add", counting)
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

    def test_a_run_builds_only_the_rows_its_streams_play(self, tmp_path, monkeypatch):
        insts = planted_subspace_stream(12, 8, 300, seed=2, n_prototypes=3)
        data = tmp_path / "data.txt"
        data.write_text(serialize_sparse_labels(insts, 12, 8), encoding="utf-8")
        built = []
        build = csdpp.stream.RowStore._build

        def counting(store, i):
            built.append(i)
            return build(store, i)

        monkeypatch.setattr(csdpp.stream.RowStore, "_build", counting)
        monkeypatch.delenv("CSDPP_WORKERS", raising=False)
        out = tmp_path / "res"
        assert run_cli("run", "--dataset", str(data), "--algo", "o-br", "--algo", "cs-dpp-pbc",
                       "--limit", "20", "--repeats", "2", "--output", str(out)) == 0
        assert len(os.listdir(out)) == 6
        assert 0 < len(built) <= 2 * 20
        assert len(set(built)) == len(built)  # no row is built twice

    def test_a_run_without_a_limit_keeps_one_dense_copy(self, tmp_path, monkeypatch):
        # every stream plays every row; they share one built row each, as they shared the parsed list's
        rng = np.random.default_rng(4)
        n, d, nnz = 1000, 1000, 20
        lines = [f"5 {d} {n}"]
        for _ in range(n):
            columns = np.sort(rng.choice(d, nnz, replace=False))
            feats = " ".join(f"{i}:{v:.4f}" for i, v in zip(columns, rng.random(nnz)))
            lines.append(f"{rng.integers(5)} | {feats}")
        data = tmp_path / "data.txt"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        dense_copy = n * d * 8
        held = []

        def measured(jobs, workers):  # every stream is built when the jobs start
            held.append(tracemalloc.get_traced_memory()[0])
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_execute", measured)
        tracemalloc.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                run_cli("run", "--dataset", str(data), "--algo", "o-br", "--repeats", "3",
                        "--noise-p", "0", "--noise-p", "0.25", "--output", str(tmp_path / "res"))
        finally:
            tracemalloc.stop()
        # the half copy covers the file's text, its entries and each stream's instances and labels
        assert dense_copy < held[0] <= 1.5 * dense_copy

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


ALL_ALGOS = [arg for algo in ALGORITHMS for arg in ("--algo", algo)]


class TestLockstepJobs:
    @pytest.mark.parametrize("repeats", ["1", "2"])
    def test_bytes_do_not_depend_on_workers(self, dataset, tmp_path, repeats):
        # K = 8: m-frac 0.25 and 0.5 give M = 2 and M = 4, so each stream has two shared trackers
        common = ["run", "--dataset", dataset, *ALL_ALGOS, "--cost", "hamming", "--cost", "f1",
                  "--m-frac", "0.25", "--m-frac", "0.5", "--repeats", repeats, "--seed", "6", "--limit", "40"]
        single = tmp_path / "single"
        for algo in ALGORITHMS:
            for m_frac in ("0.25", "0.5"):
                assert run_cli("run", "--dataset", dataset, "--algo", algo, "--cost", "hamming", "--cost", "f1",
                               "--m-frac", m_frac, "--repeats", repeats, "--seed", "6", "--limit", "40",
                               "--workers", "1", "--output", str(single)) == 0
        expected = read_all(single)
        assert len(expected) == 28 * (int(repeats) + 1)
        for workers in ("1", "2", "3"):
            out = tmp_path / f"workers{workers}"
            assert run_cli(*common, "--workers", workers, "--output", str(out)) == 0
            assert read_all(out) == expected

    @pytest.mark.parametrize("m_fracs, trackers", [(["0.25"], 3), (["0.25", "0.5"], 6)])
    def test_shared_work_runs_once_per_step(self, dataset, tmp_path, monkeypatch, m_fracs, trackers):
        calls = Counter()
        for cls, name in ((RidgeAccumulator, "peek"), (CappedMsgState, "update"),
                          (CappedMsgState, "sample_projection")):
            def counting(*args, _original=getattr(cls, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cls, name, counting)
        out = tmp_path / "res"
        axes = [arg for m_frac in m_fracs for arg in ("--m-frac", m_frac)]
        assert run_cli("run", "--dataset", dataset, *ALL_ALGOS, "--cost", "hamming", "--cost", "f1", *axes,
                       "--limit", "40", "--workers", "1", "--output", str(out)) == 0
        assert len(os.listdir(out)) == 28 * len(m_fracs)
        # one accumulator for all 7 (or 11) plays; per M one tracker for dpp-pbc, dpp-pbt, dpp-naive and
        # the cs-dpp-* cells under hamming, and one each for cs-dpp-pbc/f1 and cs-dpp-pbt/f1
        assert calls["peek"] == 40
        assert calls["update"] == trackers * 40
        # each tracker draws its first basis when it is built, once for all its readers
        assert calls["sample_projection"] == trackers + trackers * 40

    def test_failing_learner_fails_only_the_cells_of_its_play(self, dataset, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("CSDPP_WORKERS", raising=False)
        common = ["run", "--dataset", dataset, "--cost", "hamming", "--cost", "f1", "--repeats", "2"]
        others = [arg for algo in ALGORITHMS if algo != "dpp-pbc" for arg in ("--algo", algo)]
        alone = tmp_path / "alone"
        assert run_cli(*common, *others, "--output", str(alone)) == 0
        expected = {name: data for name, data in read_all(alone).items() if name.endswith(".csv")}
        weigh = Learner._weigh

        def failing(self, x, y):  # dpp-pbc leads the shared tracker and accumulator
            if self.config.algorithm == "dpp-pbc" and self.t == 49:
                raise RuntimeError("step 50 failed")
            return weigh(self, x, y)

        monkeypatch.setattr(Learner, "_weigh", failing)
        out = tmp_path / "res"
        assert run_cli(*common, *ALL_ALGOS, "--output", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        # cs-dpp-pbc under hamming plays as dpp-pbc
        assert err == [f"error: cell {stem}_mf0.25_p0 repeat {r}: step 50 failed"
                       for stem in ("dpp-pbc_hamming", "dpp-pbc_f1", "cs-dpp-pbc_hamming") for r in (0, 1)] + [
            "error: 6 of 28 cell repeats failed"]
        got = read_all(out)
        assert got == {name: data for name, data in expected.items() if not name.startswith("cs-dpp-pbc_hamming")}

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_unbuildable_learner_fails_only_its_cells(self, dataset, tmp_path, capsys, workers):
        # M = K: legal for o-br and o-rand, not for a tracked learner
        out = tmp_path / "res"
        code = run_cli("run", "--dataset", dataset, "--algo", "dpp-pbc", "--algo", "o-br", "--algo", "o-rand",
                       "--m-frac", "1", "--workers", workers, "--output", str(out))
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: cell dpp-pbc_hamming_mf1_p0 repeat 0: code dimension must satisfy 1 <= M < K, got M=8 K=8",
            "error: 1 of 3 cell repeats failed"]
        assert sorted(os.listdir(out)) == ["o-br_hamming_mf1_p0_r0.csv", "o-rand_hamming_mf1_p0_r0.csv"]

    @pytest.mark.parametrize("workers, repeats, jobs", [(1, 2, 2), (2, 2, 2), (2, 1, 2), (3, 1, 3), (8, 1, 5)])
    def test_one_job_per_stream_cut_for_idle_workers(self, dataset, tmp_path, monkeypatch, workers, repeats, jobs):
        seen = []
        execute = cli._execute

        def recording(job_list, pool_size):
            seen.extend([spec["config"].algorithm for spec in job["plays"]] for job in job_list)
            return execute(job_list, 1)

        monkeypatch.setattr(cli, "_execute", recording)
        assert run_cli("run", "--dataset", dataset, *ALL_ALGOS, "--cost", "hamming", "--cost", "f1",
                       "--repeats", str(repeats), "--limit", "20", "--workers", str(workers),
                       "--output", str(tmp_path / "res")) == 0
        assert len(seen) == jobs
        assert sorted(algo for job in seen for algo in job) == sorted(
            ["dpp-pbc", "dpp-pbt", "dpp-naive", "cs-dpp-pbc", "cs-dpp-pbt", "o-br", "o-rand"] * repeats)
        # the plays of one shared tracker never land in different jobs
        shared = [job for job in seen if "dpp-pbc" in job]
        assert all({"dpp-pbt", "dpp-naive"} <= set(job) for job in shared)
        if workers <= repeats:
            assert all(len(job) == 7 for job in seen)


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

    def test_overflowing_feature_range_is_one_runtime_error(self, tmp_path, capsys):
        # finite values whose max - min overflows float64 used to normalize to nan
        data = tmp_path / "wide.txt"
        data.write_text("2 2 3\n0 | 0:1e308 1:1.0\n1 | 0:-1e308 1:2.0\n0,1 | 0:0.5\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("run", "--dataset", str(data), "--algo", "o-br", "--algo", "dpp-pbc",
                           "--m-frac", "0.5", "--output", str(tmp_path / "res"))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: feature 0 cannot be normalized: its max - min is not finite in float64\n")
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

    @pytest.mark.parametrize("config, message", [
        ({"m_frac": 0.5, "m-frac": 0.25, "lam": 2.0, "lambda": 3.0},
         "config keys 'm_frac' and 'm-frac' both set --m-frac; give it once"),
        ({"lam": 2.0, "lambda": 3.0}, "config keys 'lam' and 'lambda' both set --lambda; give it once"),
        ({"order-seed": 1, "seed": 2, "order_seed": 1},
         "config keys 'order-seed' and 'order_seed' both set --order-seed; give it once"),
    ])
    def test_setting_named_twice_in_config_is_usage_error(self, dataset, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--dataset", dataset, "--config", str(cfg), "--output", str(tmp_path / "res"))
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

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


    @pytest.mark.parametrize("argv, workers, message", [
        (["--dataset", "{tmp}/nope.txt"], "1", "cannot read dataset: "),
        (["--dataset", "{tmp}/latin1.txt"], "1", "cannot read dataset: 'utf-8' codec can't decode byte 0xe9"),
        (["--dataset", "{tmp}/tiny.arff", "--format", "arff", "--label-names", "{tmp}/nope.txt"], "1",
         "cannot read label names: "),
        (["--dataset", "{data}"], "two", "CSDPP_WORKERS must be an integer, got 'two'"),
        (["--dataset", "{data}"], "0", "CSDPP_WORKERS must be >= 1, got 0"),
        (["--dataset", "{tmp}/bad.txt"], "1", "line 1: header fields must be integers, got 'not a header'"),
        (["--dataset", "{tmp}/empty.txt"], "1", "the dataset has no instances"),
        (["--dataset", "{tmp}/wide.txt", "--m-frac", "0.5"], "1",
         "feature 0 cannot be normalized: its max - min is not finite in float64"),
        (["--dataset", "{data}", "--output", "{tmp}/afile/sub"], "1", "cannot create output directory: "),
        (["--dataset", "{data}", "--algo", "o-br"], "1",
         "cannot write summary {tmp}/res/o-br_hamming_mf0.25_p0_summary.json: "),
    ], ids=["dataset", "undecodable", "label-names", "worker-env", "worker-env-range", "malformed", "empty", "normalize",
            "output-dir", "summary"])
    def test_a_stop_prints_one_error_line(self, dataset, tmp_path, monkeypatch, capsys, argv, workers, message):
        files = {"tiny.arff": ARFF_TEXT, "bad.txt": "not a header\n", "empty.txt": "8 6 0\n", "afile": "",
                 "wide.txt": "2 2 3\n0 | 0:1e308 1:1.0\n1 | 0:-1e308 1:2.0\n0,1 | 0:0.5\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        (tmp_path / "latin1.txt").write_text("2 2 1\n0 | 0:\u00e9\n", encoding="latin-1")
        summary = "cannot write summary" in message
        if summary:
            (tmp_path / "res" / "o-br_hamming_mf0.25_p0_summary.json").mkdir(parents=True)
        monkeypatch.setenv("CSDPP_WORKERS", workers)
        argv = [arg.format(tmp=tmp_path, data=dataset) for arg in ["--output", "{tmp}/res", *argv]]
        assert run_cli("run", *argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {message.format(tmp=tmp_path)}")
        assert sorted(path.name for path in tmp_path.rglob("*.csv")) == (
            ["o-br_hamming_mf0.25_p0_r0.csv"] if summary else [])


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

    def test_fast_path_mutant_fails_with_exit_1(self, capsys):
        assert run_cli("verify", "projection", "--trials", "20", "--mutant", "reversed-sum") == 1
        payload = json.loads(capsys.readouterr().out)
        assert [c["name"] for c in payload[0]["checks"] if not c["passed"]] == ["sweep-agreement"]

    @pytest.mark.parametrize(
        "mutant, costs",
        [("static-context", ["rank"]), ("native-walk", ["hamming", "rank"]), ("swapped-walk-free", ["hamming"])],
    )
    def test_a_mutant_no_selected_cost_can_show_is_usage_error(self, capsys, mutant, costs):
        # a walk-free cost's weights do not depend on the walk, and hamming's two entries are equal
        args = [arg for cost in costs for arg in ("--cost", cost)]
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "lemma3", *args, "--trials", "200", "--mutant", mutant)
        assert exc.value.code == 2
        assert f"mutant {mutant!r} cannot change the weights of {', '.join(costs)}; add a --cost" in capsys.readouterr().err

    def test_a_walk_free_cost_beside_one_the_mutant_shows_still_runs(self, capsys):
        for mutant in ("static-context", "native-walk", "swapped-walk-free"):
            assert run_cli("verify", "lemma3", "--cost", "hamming", "--cost", "f1", "--trials", "50", "--mutant", mutant) == 1
            payload = json.loads(capsys.readouterr().out)
            failed = {c["name"] for c in payload[0]["checks"] if not c["passed"]}
            assert "walk-agreement-f1" in failed and not {"decomposition-hamming", "walk-agreement-hamming"} & failed

    @pytest.mark.parametrize(
        "args, mutant, suite",
        [(["projection"], "skip-residual", "tracker"), (["lemma1", "--trials", "3"], "reversed-sum", "projection")],
    )
    def test_a_mutant_of_an_unselected_suite_is_usage_error(self, capsys, args, mutant, suite):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", *args, "--mutant", mutant)
        assert exc.value.code == 2
        assert f"mutant {mutant!r} belongs to suite {suite!r}, which is not selected" in capsys.readouterr().err

    def test_a_mutant_beside_other_suites_still_runs(self, capsys):
        assert run_cli("verify", "tracker", "projection", "--mutant", "skip-residual", "--trials", "5") == 1
        payload = json.loads(capsys.readouterr().out)
        assert {p["suite"]: p["passed"] for p in payload} == {"tracker": False, "projection": True}

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


class TestVerifyRequest:
    @pytest.mark.parametrize("suite, count", [("projection", "instances"), ("sherman", "projections")])
    def test_trials_reach_every_suite_with_a_count(self, capsys, suite, count):
        assert run_cli("verify", suite, "--trials", "3") == 0
        (payload,) = json.loads(capsys.readouterr().out)
        assert payload["params"][count] == 3

    @pytest.mark.parametrize(
        "args, message",
        [
            (["projection", "projection"], "suite 'projection' is given twice; give each once"),
            (["lemma3", "--cost", "rank", "--cost", "rank"], "cost 'rank' is given twice; give each once"),
            (["bounds", "--cost", "rank"], "--cost restricts suite lemma3, which is not selected"),
        ],
    )
    def test_a_request_that_runs_twice_or_drops_a_value_is_usage_error(self, capsys, args, message):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", *args)
        assert exc.value.code == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_a_lemma3_report_names_its_seed_and_k_max(self, capsys):
        assert run_cli("verify", "lemma3", "--seed", "4", "--trials", "5") == 0
        (payload,) = json.loads(capsys.readouterr().out)
        assert payload["params"]["seed"] == 4 and payload["params"]["k_max"] == 12


def _blas_version() -> str | None:
    return np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {}).get("version")


GATE_DIGEST = "b891cd830a9144ffb054f5cba162426c61a93ab4c6ac06e0752a734955e4f77e"


class TestPackage:
    def test_every_exported_name_resolves(self):
        modules = [csdpp] + [
            importlib.import_module(f"csdpp.{info.name}") for info in pkgutil.iter_modules(csdpp.__path__)
        ]
        for module in modules:
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"

    @pytest.mark.skipif(
        np.__version__ != "2.4.6" or _blas_version() != "0.3.31.188.0",
        reason="the gate digest pins the bytes of NumPy 2.4.6 over OpenBLAS 0.3.31.188.0; "
        "other builds may round differently",
    )
    def test_gate_grid_digest(self, tmp_path):
        data = tmp_path / "gate.txt"
        data.write_text(
            serialize_sparse_labels(planted_subspace_stream(20, 10, 400, seed=11, n_prototypes=4), 20, 10),
            encoding="utf-8",
        )
        digest = hashlib.sha256()
        for engine in ("ridge", "sgd"):
            out = tmp_path / engine
            argv = ["run", "--dataset", str(data), "--output", str(out), "--engine", engine]
            argv += [f"--algo={algo}" for algo in ALGORITHMS] + [f"--cost={cost}" for cost in available_costs()]
            assert run_cli(*argv, "--repeats", "2", "--seed", "3", "--m-frac", "0.3") == 0
            for name, content in read_all(out).items():
                digest.update(f"{engine}/{name}".encode())
                digest.update(content)
        assert digest.hexdigest() == GATE_DIGEST
