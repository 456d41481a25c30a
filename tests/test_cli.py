"""Command line driver: exit codes, artifact layout, determinism, overrides."""

import json
import subprocess
import sys

import numpy as np
import pytest

from sidlab import TokenMap, load_model, save_embeddings_bin, save_embeddings_csv, synth_embeddings
from sidlab.cli import (
    EXIT_BIJECTION,
    EXIT_CONFIG,
    EXIT_EQUIVALENCE,
    EXIT_MISSING,
    EXIT_OK,
    OUT_ENV_VAR,
    main,
)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, command, payload, out_name, extra=()):
    cfg = write_config(tmp_path, f"{command}_{out_name}.json", payload)
    out = tmp_path / out_name
    code = main([command, "--config", cfg, "--out-dir", str(out), *extra])
    return code, out


def read_json(path):
    return json.loads(path.read_text())


TRAIN_CFG = {
    "seed": 0,
    "world": {"C": 2, "N": 4, "alpha": 0.5},
    "spec": {"k": 2, "X": 2},
    "form": "cascaded",
    "init": "zeros",
    "n_samples": 400,
    "lr": 0.2,
    "epochs": 2,
}


class TestConfigHandling:
    def test_missing_config_file(self, capsys):
        assert main(["verify", "--config", "/no/such/file.json"]) == EXIT_CONFIG
        assert "not found" in capsys.readouterr().err

    def test_unparseable_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["verify", "--config", str(bad)]) == EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err

    def test_config_must_be_an_object(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert main(["verify", "--config", str(bad)]) == EXIT_CONFIG

    def test_unknown_subcommand_is_a_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {})
        assert main(["frobnicate", "--config", cfg]) == EXIT_CONFIG

    def test_missing_required_key(self, tmp_path):
        code, _ = run(tmp_path, "tokenize", {"k": 2, "X": 2}, "o")  # no scheme
        assert code == EXIT_CONFIG

    def test_out_dir_resolution_order(self, tmp_path, monkeypatch):
        cfg_payload = {"scheme": "identity", "k": 1, "X": 2, "mode": "strict"}
        # 1. config out_dir wins over env
        env_dir = tmp_path / "env_dir"
        monkeypatch.setenv(OUT_ENV_VAR, str(env_dir))
        cfg_dir = tmp_path / "cfg_dir"
        cfg = write_config(tmp_path, "a.json", {**cfg_payload, "out_dir": str(cfg_dir)})
        assert main(["tokenize", "--config", cfg]) == EXIT_OK
        assert (cfg_dir / "token_map.json").is_file()
        assert not env_dir.exists()
        # 2. env used when config is silent
        cfg2 = write_config(tmp_path, "b.json", cfg_payload)
        assert main(["tokenize", "--config", cfg2]) == EXIT_OK
        assert (env_dir / "token_map.json").is_file()
        # 3. flag wins over both
        flag_dir = tmp_path / "flag_dir"
        assert main(["tokenize", "--config", cfg, "--out-dir", str(flag_dir)]) == EXIT_OK
        assert (flag_dir / "token_map.json").is_file()
        # 4. default directory as the last resort
        monkeypatch.delenv(OUT_ENV_VAR)
        monkeypatch.chdir(tmp_path)
        assert main(["tokenize", "--config", cfg2]) == EXIT_OK
        assert (tmp_path / "sidlab_out" / "token_map.json").is_file()

    def test_seed_override_changes_hash_and_artifacts(self, tmp_path):
        payload = {
            "seed": 1,
            "scheme": "rq_kmeans",
            "k": 2,
            "X": 2,
            "mode": "probe",
            "embeddings": {"kind": "synth", "n_items": 6, "dim": 3},
        }
        code_a, out_a = run(tmp_path, "tokenize", payload, "seed_a")
        code_b, out_b = run(tmp_path, "tokenize", payload, "seed_b", extra=["--seed", "2"])
        assert code_a == code_b == EXIT_OK
        sum_a = read_json(out_a / "summary.json")
        sum_b = read_json(out_b / "summary.json")
        assert sum_a["seed"] == 1 and sum_b["seed"] == 2
        assert sum_a["config_sha256"] != sum_b["config_sha256"]


class TestTokenizeCommand:
    def test_identity_strict_succeeds(self, tmp_path):
        code, out = run(
            tmp_path, "tokenize", {"scheme": "identity", "k": 2, "X": 3, "mode": "strict"}, "id"
        )
        assert code == EXIT_OK
        tmap = TokenMap.load(out / "token_map.json")
        assert tmap.n_items == 9 and tmap.mode == "strict"
        audit = read_json(out / "audit.json")
        assert audit["is_bijective_onto_product"] is True
        assert "config_sha256" in audit

    def test_strict_bijection_failure_exits_2_but_audits(self, tmp_path, capsys):
        payload = {
            "seed": 3,
            "scheme": "rq_kmeans",
            "k": 2,
            "X": 4,
            "mode": "strict",
            "embeddings": {"kind": "synth", "n_items": 16, "dim": 6},
        }
        code, out = run(tmp_path, "tokenize", payload, "strict_fail")
        assert code == EXIT_BIJECTION
        assert "collide" in capsys.readouterr().err
        assert not (out / "token_map.json").exists()
        audit = read_json(out / "audit.json")
        assert audit["collision_count"] > 0
        summary = read_json(out / "summary.json")
        assert summary["status"] == "bijection_failure"

    def test_probe_mode_tolerates_collisions(self, tmp_path):
        payload = {
            "seed": 3,
            "scheme": "rq_kmeans",
            "k": 2,
            "X": 4,
            "mode": "probe",
            "embeddings": {"kind": "synth", "n_items": 16, "dim": 6},
        }
        code, out = run(tmp_path, "tokenize", payload, "probe_ok")
        assert code == EXIT_OK
        assert (out / "token_map.json").is_file()
        assert (out / "tokenizer.json").is_file()

    def test_fsq_scheme(self, tmp_path):
        payload = {
            "seed": 5,
            "scheme": "fsq",
            "k": 2,
            "X": 4,
            "mode": "probe",
            "embeddings": {"kind": "synth", "n_items": 10, "dim": 4},
            "fsq": {"levels": [4, 4], "bounds": [[-2.0, 2.0], [-2.0, 2.0]]},
        }
        code, out = run(tmp_path, "tokenize", payload, "fsq")
        assert code == EXIT_OK
        tok = read_json(out / "tokenizer.json")
        assert tok["scheme"] == "fsq"

    def test_fsq_level_count_must_match_k(self, tmp_path):
        payload = {
            "scheme": "fsq",
            "k": 3,
            "X": 4,
            "mode": "probe",
            "embeddings": {"kind": "synth", "n_items": 4, "dim": 4},
            "fsq": {"levels": [4, 4]},
        }
        code, _ = run(tmp_path, "tokenize", payload, "fsq_bad")
        assert code == EXIT_CONFIG

    def test_pq_scheme_with_csv_embeddings(self, tmp_path):
        emb = synth_embeddings(12, 6, seed=2)
        emb_path = tmp_path / "emb.csv"
        save_embeddings_csv(emb, emb_path)
        payload = {
            "seed": 2,
            "scheme": "pq",
            "k": 2,
            "X": 3,
            "mode": "probe",
            "embeddings": {"kind": "csv", "path": str(emb_path)},
        }
        code, out = run(tmp_path, "tokenize", payload, "pq_csv")
        assert code == EXIT_OK
        assert read_json(out / "tokenizer.json")["scheme"] == "pq"

    def test_bin_embeddings_source(self, tmp_path):
        emb = synth_embeddings(8, 4, seed=2)
        emb_path = tmp_path / "emb.bin"
        save_embeddings_bin(emb, emb_path)
        payload = {
            "seed": 2,
            "scheme": "rq_kmeans",
            "k": 1,
            "X": 4,
            "mode": "probe",
            "embeddings": {"kind": "bin", "path": str(emb_path)},
        }
        code, _ = run(tmp_path, "tokenize", payload, "bin")
        assert code == EXIT_OK

    def test_missing_embeddings_file(self, tmp_path):
        payload = {
            "scheme": "pq",
            "k": 2,
            "X": 2,
            "mode": "probe",
            "embeddings": {"kind": "csv", "path": str(tmp_path / "ghost.csv")},
        }
        code, _ = run(tmp_path, "tokenize", payload, "ghost")
        assert code == EXIT_MISSING

    def test_unknown_scheme(self, tmp_path):
        code, _ = run(
            tmp_path, "tokenize", {"scheme": "wavelet", "k": 1, "X": 2, "mode": "probe"}, "bad"
        )
        assert code == EXIT_CONFIG


class TestVerifyCommand:
    def test_strict_sweep_reports_the_loss_gap(self, tmp_path, capsys):
        payload = {"seed": 1, "trials": 6, "tolerance": 1e-10}
        code, out = run(tmp_path, "verify", payload, "strict")
        assert code == EXIT_EQUIVALENCE
        assert "exceeds tolerance" in capsys.readouterr().err
        summary = read_json(out / "summary.json")
        # partition identity holds even though the loss identity does not
        assert summary["max_abs_partition_gap"] < 1e-10
        assert summary["max_abs_loss_gap"] > 1e-10
        assert summary["per_form"]["parallel"]["max_abs_loss_gap"] < 1e-10
        assert summary["per_form"]["cascaded"]["max_abs_loss_gap"] > 1e-10

    def test_parallel_only_sweep_is_clean(self, tmp_path):
        payload = {"seed": 1, "trials": 8, "forms": ["parallel"], "tolerance": 1e-10}
        code, out = run(tmp_path, "verify", payload, "par")
        assert code == EXIT_OK
        assert read_json(out / "summary.json")["max_abs_loss_gap"] < 1e-10

    def test_probe_collision_mode_never_fails_the_run(self, tmp_path):
        payload = {"seed": 2, "trials": 5, "map_mode": "probe_collision"}
        code, out = run(tmp_path, "verify", payload, "probe")
        assert code == EXIT_OK
        assert read_json(out / "summary.json")["max_abs_partition_gap"] > 1e-6

    def test_zero_trials_writes_header_only(self, tmp_path):
        code, out = run(tmp_path, "verify", {"trials": 0}, "empty")
        assert code == EXIT_OK
        lines = (out / "equivalence.csv").read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("context,item,")

    def test_bad_values_rejected(self, tmp_path):
        assert run(tmp_path, "verify", {"trials": -1}, "neg")[0] == EXIT_CONFIG
        assert run(tmp_path, "verify", {"forms": ["hybrid"]}, "badform")[0] == EXIT_CONFIG
        assert run(tmp_path, "verify", {"map_mode": "x"}, "badmode")[0] == EXIT_CONFIG


class TestTrainCommand:
    def test_artifacts_and_summary(self, tmp_path):
        code, out = run(tmp_path, "train", TRAIN_CFG, "basic")
        assert code == EXIT_OK
        for name in (
            "checkpoint_init.json",
            "checkpoint_final.json",
            "token_map.json",
            "trace.csv",
            "summary.json",
        ):
            assert (out / name).is_file(), name
        summary = read_json(out / "summary.json")
        assert summary["final_kl"] < summary["initial_kl"]
        assert "final_kl_chain" in summary
        init = load_model(out / "checkpoint_init.json")
        final = load_model(out / "checkpoint_final.json")
        assert any(
            not np.array_equal(a, b) for a, b in zip(init.tables, final.tables)
        )
        lines = (out / "trace.csv").read_text().splitlines()
        assert len(lines) == TRAIN_CFG["epochs"] + 1

    def test_world_size_must_match_spec(self, tmp_path):
        payload = dict(TRAIN_CFG, world={"C": 2, "N": 5, "alpha": 0.5})
        assert run(tmp_path, "train", payload, "mismatch")[0] == EXIT_CONFIG

    def test_table_cap_enforced(self, tmp_path):
        payload = dict(TRAIN_CFG, max_table_entries=3)
        assert run(tmp_path, "train", payload, "cap")[0] == EXIT_CONFIG

    def test_random_init_variant(self, tmp_path):
        payload = dict(TRAIN_CFG, init={"sigma": 0.3})
        code, out = run(tmp_path, "train", payload, "rand_init")
        assert code == EXIT_OK
        init = load_model(out / "checkpoint_init.json")
        assert any(np.any(t != 0.0) for t in init.tables)

    def test_bad_init_rejected(self, tmp_path):
        payload = dict(TRAIN_CFG, init="ones")
        assert run(tmp_path, "train", payload, "bad_init")[0] == EXIT_CONFIG

    def test_parallel_form(self, tmp_path):
        payload = dict(TRAIN_CFG, form="parallel")
        code, out = run(tmp_path, "train", payload, "par")
        assert code == EXIT_OK
        assert read_json(out / "checkpoint_final.json")["form"] == "parallel"

    def test_divergence_exits_1(self, tmp_path, capsys):
        payload = dict(TRAIN_CFG, lr=float("inf"))
        code, _ = run(tmp_path, "train", payload, "div")
        assert code == 1
        assert "non-finite" in capsys.readouterr().err


class TestDecodeCommand:
    @pytest.fixture()
    def trained(self, tmp_path):
        code, out = run(tmp_path, "train", dict(TRAIN_CFG, form="parallel"), "for_decode")
        assert code == EXIT_OK
        return out

    def decode_payload(self, trained, **over):
        payload = {
            "checkpoint": str(trained / "checkpoint_final.json"),
            "token_map": str(trained / "token_map.json"),
            "context": 0,
            "method": "beam",
            "beam_width": 4,
            "top_k": 2,
        }
        payload.update(over)
        return payload

    def test_beam_exact_and_mtp_agree_on_parallel(self, tmp_path, trained):
        results = {}
        for method in ("beam", "exact", "mtp"):
            code, out = run(
                tmp_path, "decode", self.decode_payload(trained, method=method), f"d_{method}"
            )
            assert code == EXIT_OK
            results[method] = read_json(out / "decode.json")["results"]
        assert [r["item_id"] for r in results["beam"]] == [
            r["item_id"] for r in results["exact"]
        ]
        assert [r["tokens"] for r in results["beam"]] == [
            r["tokens"] for r in results["mtp"]
        ]

    def test_mtp_on_cascaded_is_a_config_error(self, tmp_path):
        code, out = run(tmp_path, "train", TRAIN_CFG, "casc_for_decode")
        assert code == EXIT_OK
        payload = self.decode_payload(out, method="mtp")
        assert run(tmp_path, "decode", payload, "mtp_casc")[0] == EXIT_CONFIG

    def test_missing_artifacts_exit_5(self, tmp_path, trained):
        payload = self.decode_payload(trained, checkpoint=str(trained / "ghost.json"))
        assert run(tmp_path, "decode", payload, "no_ckpt")[0] == EXIT_MISSING
        payload = self.decode_payload(trained, token_map=str(trained / "ghost.json"))
        assert run(tmp_path, "decode", payload, "no_map")[0] == EXIT_MISSING

    def test_malformed_checkpoint_exits_4(self, tmp_path, trained):
        bad = tmp_path / "bad_ckpt.json"
        bad.write_text("{broken")
        payload = self.decode_payload(trained, checkpoint=str(bad))
        assert run(tmp_path, "decode", payload, "bad_ckpt")[0] == EXIT_CONFIG

    @pytest.mark.parametrize(
        "breakage",
        [
            lambda ckpt: ckpt["params"][0].pop(),  # params do not fit the shape
            lambda ckpt: ckpt.update(form="mystery"),
            lambda ckpt: ckpt.pop("C"),
        ],
        ids=["params_length", "unknown_form", "missing_C"],
    )
    def test_checkpoint_that_parses_but_does_not_fit_exits_4(
        self, tmp_path, trained, breakage, capsys
    ):
        ckpt = read_json(trained / "checkpoint_final.json")
        breakage(ckpt)
        bad = tmp_path / "bad_fit.json"
        bad.write_text(json.dumps(ckpt))
        payload = self.decode_payload(trained, checkpoint=str(bad))
        assert run(tmp_path, "decode", payload, "bad_fit")[0] == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        # a missing token map still takes precedence over the bad checkpoint
        payload = self.decode_payload(
            trained, checkpoint=str(bad), token_map=str(trained / "ghost.json")
        )
        assert run(tmp_path, "decode", payload, "bad_fit_no_map")[0] == EXIT_MISSING

    def test_context_out_of_range(self, tmp_path, trained):
        payload = self.decode_payload(trained, context=99)
        assert run(tmp_path, "decode", payload, "bad_ctx")[0] == EXIT_CONFIG

    def test_spec_mismatch_between_map_and_checkpoint(self, tmp_path, trained):
        other = run(
            tmp_path,
            "train",
            dict(TRAIN_CFG, spec={"k": 1, "X": 4}, world={"C": 2, "N": 4, "alpha": 0.5}),
            "other_spec",
        )[1]
        payload = self.decode_payload(trained, token_map=str(other / "token_map.json"))
        assert run(tmp_path, "decode", payload, "mismatch")[0] == EXIT_CONFIG

    def test_results_are_rank_ordered_with_item_ids(self, tmp_path, trained):
        code, out = run(
            tmp_path, "decode", self.decode_payload(trained, top_k=4, beam_width=4), "ranks"
        )
        assert code == EXIT_OK
        results = read_json(out / "decode.json")["results"]
        assert [r["rank"] for r in results] == [0, 1, 2, 3]
        scores = [r["score"] for r in results]
        assert scores == sorted(scores, reverse=True)
        assert all(r["item_id"] is not None for r in results)


class TestBenchCommand:
    def test_ops_artifacts(self, tmp_path):
        payload = {"k_values": [1, 2, 3], "X_values": [2, 4], "C": 1}
        code, out = run(tmp_path, "bench", payload, "ops")
        assert code == EXIT_OK
        assert not (out / "bench_times.csv").exists()
        summary = read_json(out / "summary.json")
        assert summary["reference_k3_X256"]["ntp_ops"] == 768
        assert summary["reference_k3_X256"]["full_ops"] == 16777216
        lines = (out / "bench_ops.csv").read_text().splitlines()
        assert len(lines) == 7

    def test_timing_opt_in(self, tmp_path):
        payload = {"k_values": [1], "X_values": [2], "include_timing": True, "repeats": 2}
        code, out = run(tmp_path, "bench", payload, "times")
        assert code == EXIT_OK
        assert (out / "bench_times.csv").is_file()


class TestDeterminism:
    """The same config and seed must produce byte-identical artifacts."""

    def rerun_and_compare(self, tmp_path, command, payload, names):
        code_a, out_a = run(tmp_path, command, payload, "det_a")
        code_b, out_b = run(tmp_path, command, payload, "det_b")
        assert code_a == code_b
        for name in names:
            a = (out_a / name).read_bytes()
            b = (out_b / name).read_bytes()
            assert a == b, f"{command}: {name} differs between identical runs"

    def test_tokenize(self, tmp_path):
        payload = {
            "seed": 4,
            "scheme": "rq_kmeans",
            "k": 2,
            "X": 3,
            "mode": "probe",
            "embeddings": {"kind": "synth", "n_items": 12, "dim": 5},
        }
        self.rerun_and_compare(
            tmp_path, "tokenize", payload,
            ["token_map.json", "audit.json", "tokenizer.json", "summary.json"],
        )

    def test_verify(self, tmp_path):
        payload = {"seed": 5, "trials": 4}
        self.rerun_and_compare(tmp_path, "verify", payload, ["equivalence.csv", "summary.json"])

    def test_train(self, tmp_path):
        self.rerun_and_compare(
            tmp_path, "train", TRAIN_CFG,
            ["checkpoint_init.json", "checkpoint_final.json", "trace.csv", "summary.json"],
        )

    def test_bench(self, tmp_path):
        payload = {"k_values": [1, 2], "X_values": [2, 4]}
        self.rerun_and_compare(tmp_path, "bench", payload, ["bench_ops.csv", "summary.json"])


class TestEntryPoints:
    def test_module_and_script_entry(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "sidlab", "--version"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "sidlab" in result.stdout
        cfg = tmp_path / "v.json"
        cfg.write_text(json.dumps({"trials": 0}))
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "sidlab",
                "verify",
                "--config",
                str(cfg),
                "--out-dir",
                str(tmp_path / "venture"),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
