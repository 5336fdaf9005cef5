import hashlib
import json
import os
import shutil

import pytest

from oneshot_kgc import autodiff as ad
from oneshot_kgc.cli import main
from oneshot_kgc.config import RunConfig
from oneshot_kgc.dataset import load_dataset
from oneshot_kgc.embeddings import export_vectors, load_table, save_table
from oneshot_kgc.errors import ConfigError


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
        assert "hidden = 32" in text
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
        # tables are saved native, so each model scores in its own form
        for model in ("TransE", "DistMult", "ComplEx", "RESCAL", "random"):
            table = str(workdir["root"] / ("baseline-" + model))
            assert main(["train-embeddings", "--dataset", workdir["ds"],
                         "--model", model, "--regime", "baseline",
                         "--out", table, "--set", "dim=16",
                         "--set", "embedding_epochs=5"]) == 0, model
            assert main(["evaluate", "--dataset", workdir["ds"], "--table", table,
                         "--split", "test"]) == 0, model
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

    def test_kshot_filter_drops_the_promoted_references_tails(self, workdir):
        # every known tail of a query's head in the whole task, the promoted
        # references' included, leaves its candidates
        out = str(workdir["root"] / "report-5shot-filtered.json")
        assert main(["evaluate", "--dataset", workdir["ds"], "--checkpoint",
                     os.path.join(workdir["run"], "matcher"), "--split", "test",
                     "--shots", "5", "--filter-known", "--out", out]) == 0
        with open(out) as fh:
            got = {(q["relation"], q["head"], q["truth"]): q["n_candidates"]
                   for q in json.load(fh)["queries"]}
        ds = load_dataset(workdir["ds"])
        name = ds.vocab.id2ent
        want, without_promoted = {}, {}
        for task in ds.tasks_for("test"):
            rel = ds.vocab.id2rel[task.relation]
            kept = [q for q in task.queries if (rel, name[q[0]], name[q[1]]) in got]
            assert len(kept) == len(task.queries) - 4
            ref = (task.reference.head, task.reference.tail)
            for target, pairs in ((want, [ref] + [q[:2] for q in task.queries]),
                                  (without_promoted, [ref] + [q[:2] for q in kept])):
                known = {}
                for h, t in pairs:
                    known.setdefault(h, set()).add(t)
                for h, t, cands in kept:
                    drop = known[h] - {t}
                    target[rel, name[h], name[t]] = len([c for c in cands if c not in drop])
        assert got == want
        # some remaining query ranks a promoted reference's tail unless it is dropped
        assert want != without_promoted

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
        assert load_table(table).metadata["seed"] == 9


class TestConfigSurface:
    def test_hidden_other_than_twice_dim_is_config_error(self, workdir, tmp_path, capsys):
        argv = train_argv(workdir, str(tmp_path / "run"), 5) + ["--set", "hidden=8"]
        assert main(argv) == 1
        assert "hidden must equal 2*dim = 32, got 8" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", [1, 7, 16, 100])
    def test_hidden_left_out_is_valid_for_any_dim(self, dim):
        assert RunConfig().set_option("dim", str(dim)).validate().hidden == 2 * dim

    @pytest.mark.parametrize("text, value", [("True", True), ("false", False), ("1", True),
                                             ("0", False), ("YES", True), ("no", False),
                                             ("On", True), ("off", False)])
    def test_boolean_option_reads_its_spellings(self, text, value):
        assert RunConfig().set_option("use_neighbor_encoder", text).use_neighbor_encoder is value

    def test_run_config_round_trips(self, workdir, tmp_path):
        cfg = RunConfig(dim=16, use_neighbor_encoder=False, train_embeddings=False).validate()
        path = str(tmp_path / "run-config.txt")
        cfg.to_file(path)
        assert RunConfig.from_file(path) == cfg
        written = os.path.join(workdir["run"], "run-config.txt")
        RunConfig.from_file(written).to_file(path)
        assert sha(path) == sha(written)

    @pytest.mark.parametrize("key", ["embedding_batch_size", "lr_half_every"])
    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_nonpositive_count_is_config_error(self, key, value):
        with pytest.raises(ConfigError, match="%s must be positive, got %s" % (key, value)):
            RunConfig().set_option(key, value).validate()

    @pytest.mark.parametrize("text", ["ture", "2", "", "y"])
    def test_unrecognised_boolean_is_config_error(self, workdir, tmp_path, capsys, text):
        argv = train_argv(workdir, str(tmp_path / "run"), 5) + \
            ["--set", "use_neighbor_encoder=" + text]
        assert main(argv) == 1
        assert "config option use_neighbor_encoder: cannot parse %r" % text \
            in capsys.readouterr().err

    def test_dim_other_than_the_table_is_config_error(self, workdir, tmp_path, capsys):
        argv = train_argv(workdir, str(tmp_path / "run"), 5) + ["--set", "dim=24"]
        assert main(argv) == 1
        assert "dim 24 differs from the table's dimension 16" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["embedding_model", "band_lo", "band_hi",
                                     "candidate_floor", "inverse_threshold"])
    def test_option_no_command_reads_is_unknown(self, workdir, tmp_path, capsys, key):
        argv = train_argv(workdir, str(tmp_path / "run"), 5) + ["--set", "%s=10" % key]
        assert main(argv) == 1
        assert "unknown config option %r" % key in capsys.readouterr().err

    def test_evaluate_seed_leaves_the_trained_graph(self, workdir, tmp_path):
        # a cap of 3 downsamples most synthetic neighbor lists
        run = str(tmp_path / "run")
        assert main(train_argv(workdir, run, 10) + ["--set", "max_neighbors=3"]) == 0
        reports = []
        for seed in (2, 9):
            out = str(tmp_path / ("report-%d.json" % seed))
            assert main(["evaluate", "--dataset", workdir["ds"], "--checkpoint",
                         os.path.join(run, "matcher"), "--split", "test",
                         "--set", "seed=%d" % seed, "--out", out]) == 0
            with open(out) as fh:
                reports.append(json.load(fh)["queries"])
        assert reports[0] == reports[1]

    def test_only_native_tables_load(self, workdir, tmp_path, capsys):
        native = str(tmp_path / "rescal")
        assert main(["train-embeddings", "--dataset", workdir["ds"], "--model", "RESCAL",
                     "--out", native, "--set", "dim=16", "--set", "embedding_epochs=2"]) == 0
        argv = train_argv(workdir, str(tmp_path / "run"), 5)
        argv[argv.index("--table") + 1] = native
        assert main(argv) == 0
        exported = str(tmp_path / "exported")
        save_table(exported, export_vectors(load_table(native)))
        argv[argv.index("--table") + 1] = exported
        capsys.readouterr()
        for command in (argv, ["evaluate", "--dataset", workdir["ds"], "--table", exported]):
            assert main(command) == 2
            assert "do not fit a native RESCAL table" in capsys.readouterr().err


def train_argv(workdir, out, episodes):
    return ["train-matcher", "--dataset", workdir["ds"], "--table", workdir["table"],
            "--out", out, "--set", "dim=16", "--set", "batch_size=8",
            "--set", "eval_interval=5", "--set", "max_episodes=%d" % episodes,
            "--set", "seed=2"]


class TestResume:
    def test_interrupted_run_plus_resume_logs_like_one_run(self, workdir, tmp_path):
        # the interrupted run saves its state at step 10 and logs up to step 12;
        # the resume replays steps 11 and 12, which must not be logged twice
        whole, part = str(tmp_path / "whole"), str(tmp_path / "part")
        assert main(train_argv(workdir, whole, 15)) == 0
        assert main(train_argv(workdir, part, 12)) == 0
        assert main(train_argv(workdir, part, 15) + ["--resume"]) == 0
        with open(os.path.join(whole, "training-log.jsonl")) as fh:
            want = fh.read()
        with open(os.path.join(part, "training-log.jsonl")) as fh:
            got = fh.read()
        assert got == want
        assert [json.loads(line)["step"] for line in got.splitlines()][-2:] == [15, 15]
        assert sha(os.path.join(part, "matcher.bin")) == sha(os.path.join(whole, "matcher.bin"))

    def test_resume_with_another_lr_is_data_error(self, workdir, tmp_path, capsys):
        run = str(tmp_path / "run")
        assert main(train_argv(workdir, run, 12)) == 0
        with open(os.path.join(run, "training-log.jsonl")) as fh:
            log = fh.read()
        assert main(train_argv(workdir, run, 15) + ["--set", "lr=0.002", "--resume"]) == 2
        assert "different config: lr 0.001 != 0.002" in capsys.readouterr().err
        with open(os.path.join(run, "training-log.jsonl")) as fh:
            assert fh.read() == log

    def test_resume_from_state_without_config_is_data_error(self, workdir, tmp_path, capsys):
        run = str(tmp_path / "run")
        assert main(train_argv(workdir, run, 10)) == 0
        state = os.path.join(run, "matcher.state")
        with open(state + ".json") as fh:
            header = json.load(fh)
        del header["metadata"]["config"]
        with open(state + ".json", "w") as fh:
            json.dump(header, fh)
        assert main(train_argv(workdir, run, 15) + ["--resume"]) == 2
        assert "records no run config" in capsys.readouterr().err


def copy_run(workdir, tmp_path):
    run = str(tmp_path / "run")
    shutil.copytree(workdir["run"], run)
    return run


def set_format_version(path, version):
    with open(path + ".json") as fh:
        header = json.load(fh)
    if version is None:
        del header["metadata"]["format_version"]
    else:
        header["metadata"]["format_version"] = version
    with open(path + ".json", "w") as fh:
        json.dump(header, fh)


def truncate_blob(path):
    with open(path + ".bin", "r+b") as fh:
        fh.truncate(os.path.getsize(path + ".bin") - 200)


def move_entry(path, move):
    """Give the checkpoint entries, in offset order, the offsets ``move`` maps
    their list of offsets to."""
    with open(path + ".json") as fh:
        header = json.load(fh)
    entries = sorted(header["params"].values(), key=lambda e: e["offset"])
    for entry, offset in zip(entries, move([e["offset"] for e in entries])):
        entry["offset"] = offset
    with open(path + ".json", "w") as fh:
        json.dump(header, fh)


class TestCheckpointValidation:
    def evaluate(self, workdir, checkpoint):
        return main(["evaluate", "--dataset", workdir["ds"], "--checkpoint", checkpoint,
                     "--split", "test"])

    def test_truncated_checkpoint_is_data_error(self, workdir, tmp_path, capsys):
        checkpoint = os.path.join(copy_run(workdir, tmp_path), "matcher")
        truncate_blob(checkpoint)
        assert self.evaluate(workdir, checkpoint) == 2
        assert "runs past the end" in capsys.readouterr().err

    def test_old_format_version_is_data_error(self, workdir, tmp_path, capsys):
        checkpoint = os.path.join(copy_run(workdir, tmp_path), "matcher")
        set_format_version(checkpoint, 1)
        assert self.evaluate(workdir, checkpoint) == 2
        assert "format version 1" in capsys.readouterr().err

    def test_missing_format_version_is_data_error(self, workdir, tmp_path, capsys):
        checkpoint = os.path.join(copy_run(workdir, tmp_path), "matcher")
        set_format_version(checkpoint, None)
        assert self.evaluate(workdir, checkpoint) == 2
        assert "format version None" in capsys.readouterr().err

    @pytest.mark.parametrize("move, message", [
        (lambda offsets: [offsets[0], offsets[0]] + offsets[2:], "starts at byte 0, not at byte"),
        (lambda offsets: offsets[:-1] + [-16], "must be non-negative integers"),
        (lambda offsets: offsets[:-1] + [offsets[-1] + 8], "where the entry before it ends"),
        (lambda offsets: offsets[:-1] + [offsets[-1] + 0.5], "must be non-negative integers"),
    ], ids=["overlapping", "negative", "gapped", "fractional"])
    def test_index_that_does_not_tile_the_blob_is_data_error(self, workdir, tmp_path, capsys,
                                                             move, message):
        checkpoint = os.path.join(copy_run(workdir, tmp_path), "matcher")
        move_entry(checkpoint, move)
        assert self.evaluate(workdir, checkpoint) == 2
        err = capsys.readouterr().err
        assert "data error: checkpoint %s" % checkpoint in err and message in err
        assert "Traceback" not in err

    def test_resume_from_truncated_state_is_data_error(self, workdir, tmp_path, capsys):
        run = copy_run(workdir, tmp_path)
        truncate_blob(os.path.join(run, "matcher.state"))
        assert main(train_argv(workdir, run, 45) + ["--resume"]) == 2
        assert "runs past the end" in capsys.readouterr().err

    @pytest.mark.parametrize("dropped", [["rel_emb"], ["ent_emb"], ["ent_emb", "rel_emb"]])
    def test_checkpoint_without_a_whole_table_is_data_error(self, workdir, tmp_path, capsys,
                                                            dropped):
        checkpoint = os.path.join(copy_run(workdir, tmp_path), "matcher")
        arrays, meta = ad.load_checkpoint(checkpoint)
        for name in dropped:
            del arrays[name]
        ad.save_checkpoint(checkpoint, arrays, metadata=meta)
        assert self.evaluate(workdir, checkpoint) == 2
        err = capsys.readouterr().err
        assert "data error: checkpoint %s: no embedding table (ent_emb and rel_emb)" \
            % checkpoint in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("version", [1, None])
    def test_resume_from_old_state_is_data_error(self, workdir, tmp_path, capsys, version):
        run = copy_run(workdir, tmp_path)
        set_format_version(os.path.join(run, "matcher.state"), version)
        assert main(train_argv(workdir, run, 45) + ["--resume"]) == 2
        assert "format version %s" % version in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_flag_is_config_error(self, capsys):
        assert main(["generate-synthetic", "--nope", "x"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_set_value_is_config_error(self, workdir, tmp_path, capsys):
        for value in ("-3", "abc"):
            assert main(["train-embeddings", "--dataset", workdir["ds"],
                         "--model", "TransE", "--out", str(tmp_path / "table"),
                         "--set", "dim=" + value]) == 1
        capsys.readouterr()

    def test_evaluate_without_model_is_config_error(self, workdir):
        assert main(["evaluate", "--dataset", workdir["ds"]]) == 1

    @pytest.mark.parametrize("shots", ["0", "-2"])
    def test_evaluate_with_no_shots_is_config_error(self, workdir, capsys, shots):
        assert main(["evaluate", "--dataset", workdir["ds"], "--checkpoint",
                     os.path.join(workdir["run"], "matcher"), "--shots", shots]) == 1
        assert "--shots must be at least 1, got %s" % shots in capsys.readouterr().err

    @pytest.mark.parametrize("counts", ["6,2,x", "8,-1,3"])
    def test_build_with_bad_counts_is_config_error(self, dump_path, tmp_path, capsys, counts):
        assert main(["build-dataset", "--input", dump_path, "--out", str(tmp_path / "out"),
                     "--counts", counts]) == 1
        assert "--counts expects three comma-separated non-negative integers, got %r" \
            % counts in capsys.readouterr().err

    def test_missing_dataset_directory_is_data_error(self, workdir, tmp_path, capsys):
        assert main(["evaluate", "--dataset", str(tmp_path / "nowhere"), "--checkpoint",
                     os.path.join(workdir["run"], "matcher")]) == 2
        assert "not a dataset directory" in capsys.readouterr().err

    def test_malformed_input_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only\ttwo\n")
        assert main(["build-dataset", "--input", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
        assert "data error" in capsys.readouterr().err


def rewrite(path, edit):
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(edit(text))


def replace_line(number, new):
    def edit(text):
        lines = text.splitlines(keepends=True)
        lines[number - 1] = new
        return "".join(lines)
    return edit


def repeat_line(source, number):
    def edit(text):
        lines = text.splitlines(keepends=True)
        lines[number - 1] = lines[source - 1]
        return "".join(lines)
    return edit


def put_bad_byte(path):
    """Put the byte 0xff, which UTF-8 never uses, at the start of line 2."""
    with open(path, "rb") as fh:
        data = fh.read()
    cut = data.index(b"\n") + 1
    with open(path, "wb") as fh:
        fh.write(data[:cut] + b"\xff" + data[cut:])


def first_task_file(ds_dir):
    return os.path.join(ds_dir, "tasks", sorted(os.listdir(os.path.join(ds_dir, "tasks")))[0])


def drop_key(key):
    def edit(text):
        payload = json.loads(text)
        del payload[key]
        return json.dumps(payload)
    return edit


class TestBadDatasetFiles:
    """A damaged dataset directory is a data error naming the file, never a traceback."""

    @pytest.mark.parametrize("damage, message", [
        (lambda d: rewrite(os.path.join(d, "background.txt"), replace_line(2, "a\tb\n")),
         "background.txt: line 2: expected 3 tab-separated fields"),
        (lambda d: rewrite(os.path.join(d, "background.txt"),
                           replace_line(3, "concept:nobody:x\tbrel_00\tconcept:nobody:y\n")),
         "background.txt: line 3: unknown name 'concept:nobody:x'"),
        (lambda d: os.remove(first_task_file(d)), "cannot read task file"),
        (lambda d: rewrite(first_task_file(d), lambda text: text[:-20]), "not valid JSON"),
        (lambda d: rewrite(first_task_file(d), drop_key("reference")),
         "missing field or unknown name 'reference'"),
        (lambda d: rewrite(first_task_file(d), drop_key("queries")),
         "missing field or unknown name 'queries'"),
        (lambda d: rewrite(first_task_file(d), lambda text: "[]"), "unexpected layout"),
        (lambda d: put_bad_byte(os.path.join(d, "entities.txt")),
         "entities.txt: not UTF-8 text"),
        (lambda d: put_bad_byte(os.path.join(d, "background.txt")),
         "background.txt: not UTF-8 text"),
        (lambda d: rewrite(os.path.join(d, "background.txt"), replace_line(4, "a\tb\tc\td\n")),
         "background.txt: line 4: expected 3 tab-separated fields"),
        (lambda d: rewrite(os.path.join(d, "background.txt"), replace_line(5, "\n")),
         "background.txt: line 5: expected 3 tab-separated fields"),
        (lambda d: rewrite(os.path.join(d, "entities.txt"), repeat_line(2, 3)),
         "entities.txt: line 3: repeats the name on line 2"),
        (lambda d: rewrite(os.path.join(d, "relations.txt"), repeat_line(1, 4)),
         "relations.txt: line 4: repeats the name on line 1"),
    ], ids=["short-background-line", "unknown-background-name", "missing-task-file",
            "task-not-json", "task-without-reference", "task-without-queries",
            "task-not-object", "entities-not-utf8", "background-not-utf8",
            "four-field-background-line", "blank-background-line", "repeated-entity",
            "repeated-relation"])
    def test_damaged_dataset_is_data_error(self, workdir, tmp_path, capsys, damage, message):
        ds = str(tmp_path / "ds")
        shutil.copytree(workdir["ds"], ds)
        damage(ds)
        assert main(["train-embeddings", "--dataset", ds, "--model", "random",
                     "--out", str(tmp_path / "table")]) == 2
        assert message in capsys.readouterr().err


class TestBadBuildInputs:
    def build(self, dump_path, tmp_path, *extra):
        return main(["build-dataset", "--input", dump_path, "--out", str(tmp_path / "out"),
                     "--counts", "6,2,2"] + list(extra))

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        assert self.build(str(tmp_path / "nowhere.tsv"), tmp_path) == 2
        assert "cannot read %s" % (tmp_path / "nowhere.tsv") in capsys.readouterr().err

    def test_missing_type_sidecar_is_data_error(self, dump_path, tmp_path, capsys):
        sidecar = str(tmp_path / "types.tsv")
        assert self.build(dump_path, tmp_path, "--type-sidecar", sidecar) == 2
        assert "cannot read %s" % sidecar in capsys.readouterr().err

    def test_input_not_utf8_is_data_error(self, dump_path, tmp_path, capsys):
        dump = str(tmp_path / "dump.tsv")
        shutil.copy(dump_path, dump)
        put_bad_byte(dump)
        assert self.build(dump, tmp_path) == 2
        assert "%s: not UTF-8 text" % dump in capsys.readouterr().err

    def test_type_sidecar_not_utf8_is_data_error(self, dump_path, tmp_path, capsys):
        sidecar = tmp_path / "types.tsv"
        sidecar.write_text("concept:a:x\tthing\nconcept:b:y\tthing\n")
        put_bad_byte(str(sidecar))
        assert self.build(dump_path, tmp_path, "--type-sidecar", str(sidecar)) == 2
        assert "%s: not UTF-8 text" % sidecar in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        None, "{", json.dumps({"meta_train": [], "meta_test": []}), "[]"])
    def test_bad_explicit_split_is_data_error(self, dump_path, tmp_path, capsys, content):
        split = tmp_path / "split.json"
        if content is not None:
            split.write_text(content)
        assert self.build(dump_path, tmp_path, "--explicit-split", str(split)) == 2
        assert str(split) in capsys.readouterr().err


class TestUnwritableOutput:
    """An --out that cannot be written is a data error naming it, never a traceback."""

    @staticmethod
    def under_a_file(tmp_path):
        (tmp_path / "file").write_text("")
        return str(tmp_path / "file" / "out")

    def test_generate_synthetic(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x.tsv")
        assert main(["generate-synthetic", "--out", out]) == 2
        assert "cannot write %s" % out in capsys.readouterr().err

    def test_build_dataset(self, dump_path, tmp_path, capsys):
        out = self.under_a_file(tmp_path)
        assert main(["build-dataset", "--input", dump_path, "--out", out,
                     "--counts", "6,2,2"]) == 2
        assert "cannot write %s" % out in capsys.readouterr().err

    def test_train_embeddings(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "missing" / "t")
        assert main(["train-embeddings", "--dataset", workdir["ds"], "--model", "TransE",
                     "--out", out, "--set", "dim=16"]) == 2
        assert "cannot write %s" % out in capsys.readouterr().err

    def test_train_matcher(self, workdir, tmp_path, capsys):
        out = self.under_a_file(tmp_path)
        assert main(train_argv(workdir, out, 5)) == 2
        assert "cannot write %s" % out in capsys.readouterr().err

    def test_evaluate_fails_before_scoring(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "missing" / "r.json")
        assert main(["evaluate", "--dataset", workdir["ds"], "--checkpoint",
                     os.path.join(workdir["run"], "matcher"), "--out", out]) == 2
        captured = capsys.readouterr()
        assert "cannot write %s" % out in captured.err
        assert "overall" not in captured.out


class TestEmptyValidSplit:
    @pytest.fixture(scope="class")
    def no_valid(self, dump_path, workdir, tmp_path_factory):
        ds = str(tmp_path_factory.mktemp("no-valid") / "ds")
        assert main(["build-dataset", "--input", dump_path, "--out", ds,
                     "--counts", "10,0,0", "--seed", "3"]) == 0
        return ds

    def argv(self, ds, workdir, out, episodes):
        return ["train-matcher", "--dataset", ds, "--table", workdir["table"], "--out", out,
                "--set", "dim=16", "--set", "batch_size=8", "--set", "eval_interval=50",
                "--set", "max_episodes=%d" % episodes]

    def test_run_that_would_validate_fails_before_training(self, no_valid, workdir,
                                                          tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(self.argv(no_valid, workdir, out, 50)) == 2
        assert "meta-valid split holds no queries" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_run_that_never_validates_trains(self, no_valid, workdir, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(self.argv(no_valid, workdir, out, 10)) == 0
        capsys.readouterr()
        with open(os.path.join(out, "training-log.jsonl")) as fh:
            assert [json.loads(line)["step"] for line in fh] == list(range(1, 11))
