import hashlib
import json
import os

import pytest

from oneshot_kgc.cli import main


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, dump_path):
    """One full CLI pipeline run shared by the module's assertions."""
    root = tmp_path_factory.mktemp("cli")
    ds = str(root / "dataset")
    assert main(["build-dataset", "--input", dump_path, "--out", ds,
                 "--counts", "6,2,2", "--seed", "3"]) == 0
    table = str(root / "table")
    assert main(["train-embeddings", "--dataset", ds, "--model", "TransE",
                 "--out", table, "--set", "dim=16",
                 "--set", "embedding_epochs=20", "--set", "embedding_lr=0.02",
                 "--set", "seed=1"]) == 0
    run = str(root / "run")
    assert main(["train-matcher", "--dataset", ds, "--table", table,
                 "--out", run, "--set", "dim=16", "--set", "hidden=32",
                 "--set", "batch_size=8", "--set", "eval_interval=20",
                 "--set", "max_episodes=40", "--set", "seed=2"]) == 0
    return {"root": root, "ds": ds, "table": table, "run": run}


class TestPipeline:
    def test_generate_synthetic(self, tmp_path):
        out = str(tmp_path / "dump.tsv")
        assert main(["generate-synthetic", "--out", out, "--seed", "7"]) == 0
        with open(out) as fh:
            assert len(fh.readlines()) == 12540

    def test_generate_is_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        main(["generate-synthetic", "--out", a, "--seed", "7"])
        main(["generate-synthetic", "--out", b, "--seed", "7"])
        assert sha(a) == sha(b)

    def test_dataset_artifacts_exist(self, workdir):
        for name in ("entities.txt", "relations.txt", "background.txt",
                     "manifest.json"):
            assert os.path.exists(os.path.join(workdir["ds"], name))

    def test_run_directory_artifacts(self, workdir):
        run = workdir["run"]
        assert os.path.exists(os.path.join(run, "run-config.txt"))
        assert os.path.exists(os.path.join(run, "matcher.bin"))
        with open(os.path.join(run, "run-config.txt")) as fh:
            text = fh.read()
        assert "dim = 16" in text
        assert "max_episodes = 40" in text

    def test_training_log_is_json_lines(self, workdir):
        with open(os.path.join(workdir["run"], "training-log.jsonl")) as fh:
            records = [json.loads(line) for line in fh]
        losses = [r for r in records if "loss" in r]
        evals = [r for r in records if "hits10" in r]
        assert len(losses) == 40
        assert len(evals) == 2
        assert all(r["lr"] == 0.001 for r in losses)

    def test_evaluate_matcher_writes_report(self, workdir, capsys):
        out = str(workdir["root"] / "report.json")
        code = main(["evaluate", "--dataset", workdir["ds"], "--checkpoint",
                     os.path.join(workdir["run"], "matcher"), "--split", "valid",
                     "--filter-known", "--out", out])
        assert code == 0
        assert "overall (micro)" in capsys.readouterr().out
        with open(out) as fh:
            payload = json.load(fh)
        assert 0.0 <= payload["overall"]["mrr"] <= 1.0

    def test_evaluate_baseline_table(self, workdir, capsys):
        table = str(workdir["root"] / "baseline")
        assert main(["train-embeddings", "--dataset", workdir["ds"],
                     "--model", "DistMult", "--regime", "baseline",
                     "--out", table, "--set", "dim=16",
                     "--set", "embedding_epochs=5"]) == 0
        assert main(["evaluate", "--dataset", workdir["ds"], "--table", table,
                     "--split", "test"]) == 0
        assert "overall (micro)" in capsys.readouterr().out

    def test_evaluate_kshot(self, workdir):
        out = str(workdir["root"] / "report-3shot.json")
        code = main(["evaluate", "--dataset", workdir["ds"], "--checkpoint",
                     os.path.join(workdir["run"], "matcher"), "--split", "test",
                     "--shots", "3", "--out", out])
        assert code == 0
        with open(out) as fh:
            payload = json.load(fh)
        assert 0.0 <= payload["overall"]["mrr"] <= 1.0

    def test_evaluate_workers_flag_is_accepted_and_ignored(self, workdir, capsys):
        reports = []
        for extra in ([], ["--workers", "2"]):
            out = str(workdir["root"] / ("report-workers%d.json" % len(extra)))
            assert main(["evaluate", "--dataset", workdir["ds"], "--checkpoint",
                         os.path.join(workdir["run"], "matcher"), "--split", "test",
                         "--shots", "3", "--out", out] + extra) == 0
            with open(out) as fh:
                reports.append(fh.read())
        assert reports[0] == reports[1]
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["evaluate", "--help"])
        assert "--workers" not in capsys.readouterr().out

    def test_config_file_plus_override(self, workdir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dim = 16\nseed = 4\n")
        table = str(tmp_path / "t")
        assert main(["train-embeddings", "--dataset", workdir["ds"],
                     "--model", "random", "--out", table,
                     "--config", str(cfg), "--set", "seed=9"]) == 0
        from oneshot_kgc.embeddings import load_table
        assert load_table(table).metadata["seed"] == 9


class TestExitCodes:
    def test_unknown_flag_is_config_error(self, capsys):
        assert main(["generate-synthetic", "--nope", "x"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_set_value_is_config_error(self, workdir, capsys):
        assert main(["train-embeddings", "--dataset", workdir["ds"],
                     "--model", "TransE", "--out", "/tmp/x",
                     "--set", "dim=-3"]) == 1
        capsys.readouterr()

    def test_evaluate_without_model_is_config_error(self, workdir):
        assert main(["evaluate", "--dataset", workdir["ds"]]) == 1

    def test_malformed_input_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only\ttwo\n")
        assert main(["build-dataset", "--input", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        assert "data error" in capsys.readouterr().err
