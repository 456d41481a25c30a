"""Command line driver: exit codes, artifact layout, determinism, overrides."""

import ast
import functools
import hashlib
import json
import math
import re
import shutil
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sidlab import artifacts, cli
from sidlab import TokenMap, check_contexts, load_model, synth_embeddings
from sidlab import write_csv
from sidlab.losses import REPORT_COLUMNS
from sidlab import CodebookSpec, ItemEmbeddings, ParallelLogitModel, identity_token_map, save_model
from reference import composed_report, save_embeddings_bin, save_embeddings_csv
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

    def test_integer_too_long_to_parse(self, tmp_path, capsys):
        # json.loads refuses an integer of over 4300 digits with a ValueError
        bad = tmp_path / "long.json"
        bad.write_text('{"trials": ' + "1" * 5000 + "}")
        assert main(["verify", "--config", str(bad)]) == EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err

    def test_config_must_be_an_object(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        assert main(["verify", "--config", str(bad)]) == EXIT_CONFIG

    def test_unknown_subcommand_is_a_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {})
        assert main(["frobnicate", "--config", cfg]) == EXIT_CONFIG

    def test_one_parser_parses_every_call_as_a_fresh_one(self, tmp_path, monkeypatch):
        # main keeps one parser per process; no subcommand, --seed or --out-dir
        # of one call may reach the next, nor may a call that fails to parse
        argvs = [
            ["tokenize", "--config", "a.json", "--seed", "3", "--out-dir", "x"],
            ["verify", "--config", "b.json"],
            ["frobnicate", "--config", "c.json"],
            ["tokenize", "--config", "d.json"],
            ["bench", "--config", "e.json", "--seed", "-1"],
            ["train", "--out-dir", "y", "--config", "f.json"],
            ["decode", "--config", "g.json"],
        ]
        parse, parsers, parsed = cli._Parser.parse_args, [], []

        def recorded(parser, args=None, namespace=None):
            parsers.append(parser)
            result = parse(parser, args, namespace)
            parsed.append(vars(result))
            return result

        monkeypatch.chdir(tmp_path)  # no config exists: every call exits 4
        monkeypatch.setattr(cli._Parser, "parse_args", recorded)
        assert [main(argv) for argv in argvs] == [EXIT_CONFIG] * len(argvs)
        assert len(parsers) == len(argvs) and all(p is cli.build_parser() for p in parsers)
        fresh = [vars(parse(cli.build_parser.__wrapped__(), argv)) for argv in argvs
                 if argv[0] != "frobnicate"]
        assert parsed == fresh

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

    def assert_one_config_error_line(self, tmp_path, capsys, payload):
        # a warning raised as an error would end in a traceback, not in exit 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, "tokenize", payload, "non_finite")
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("scheme", ["rq_kmeans", "pq"])
    @pytest.mark.parametrize("values", ["opposite_signs", "same_sign"])
    def test_embeddings_near_overflow_exit_4(self, tmp_path, capsys, scheme, values):
        rng = np.random.default_rng(0)
        if values == "opposite_signs":  # distances overflow
            rows = rng.choice([-1.0, 1.0], (16, 2)) * 1.7e308 * rng.uniform(0.9, 1.0, (16, 2))
        else:  # distances are 0 or 1, center means overflow
            rows = np.stack([np.full(16, 1.6e308), np.arange(16) % 2.0], axis=1)
        emb_path = tmp_path / "huge.csv"
        save_embeddings_csv(ItemEmbeddings(rows), emb_path)
        payload = {"seed": 0, "scheme": scheme, "k": 2, "X": 2, "mode": "probe",
                   "embeddings": {"kind": "csv", "path": str(emb_path)}}
        self.assert_one_config_error_line(tmp_path, capsys, payload)

    @pytest.mark.parametrize(
        "bounds", [[[0.0, 1e-320]], [["-inf", "inf"]], [[0.0, "inf"]]],
        ids=["scaled_overflows", "infinite", "half_infinite"],
    )
    def test_fsq_non_finite_exit_4(self, tmp_path, capsys, bounds):
        payload = {"seed": 0, "scheme": "fsq", "k": 1, "X": 4, "mode": "probe",
                   "embeddings": {"kind": "synth", "n_items": 8, "dim": 2},
                   "fsq": {"levels": [4], "bounds": bounds}}
        self.assert_one_config_error_line(tmp_path, capsys, payload)


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

    @pytest.mark.parametrize("sigma", [1e308, 1000.0], ids=["draw_overflows", "z_overflows"])
    def test_non_finite_results_exit_4_and_write_nothing(self, tmp_path, capsys, sigma):
        # 1e308 draws inf table entries; 1000 draws finite ones whose exp(log Z) is inf
        payload = {"trials": 6, "k_values": [2, 3], "X_values": [2, 3], "C_values": [1, 2],
                   "sigma": sigma}
        with warnings.catch_warnings():  # and no numpy warning before the error line
            warnings.simplefilter("error")
            code, out = run(tmp_path, "verify", payload, "non_finite")
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "non-finite" in err
        assert list(out.iterdir()) == []

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
        # C * (216 + 216**2 + 216**3) entries, past 10**7; refused before the world is drawn
        payload = dict(TRAIN_CFG, spec={"k": 3, "X": 216},
                       world={"C": 2, "N": 216**3, "alpha": 0.5})
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

    @pytest.mark.parametrize(
        "over,exit_code,err,written",
        [
            ({"lr": 1e308}, 1, "train: mean epoch loss became non-finite at epoch 1\n",
             ["checkpoint_init.json", "token_map.json"]),
            ({"world": {"C": 2, "N": 4, "alpha": 1e308}}, EXIT_CONFIG,
             "config error: p_star rows must sum to 1 within 1e-12\n", []),
            ({"world": {"C": 2, "N": 4, "alpha": float("inf")}}, EXIT_CONFIG,
             "config error: p_star rows must sum to 1 within 1e-12\n", []),
        ],
        ids=["lr_overflows", "gamma_sum_overflows", "gamma_draws_are_inf"],
    )
    def test_overflow_prints_only_the_exit_line(
        self, tmp_path, capsys, over, exit_code, err, written
    ):
        payload = dict(TRAIN_CFG, init={"sigma": 0.3}, n_samples=40, **over)
        with warnings.catch_warnings():  # a numpy warning raised as an error is a traceback
            warnings.simplefilter("error")
            code, out = run(tmp_path, "train", payload, "overflow")
        assert code == exit_code
        assert capsys.readouterr().err == err
        assert sorted(p.name for p in out.iterdir()) == written


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("method", ["beam", "exact"])
    def test_non_finite_checkpoint_param_exits_4(self, tmp_path, trained, bad, method, capsys):
        ckpt = read_json(trained / "checkpoint_final.json")
        ckpt["params"][1][2] = bad
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(ckpt))
        payload = self.decode_payload(trained, checkpoint=str(path), method=method)
        code, out = run(tmp_path, "decode", payload, "non_finite")
        assert code == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err
        assert not (out / "decode.json").exists()

    @pytest.mark.parametrize("method", ["beam", "exact", "mtp"])
    def test_overflowing_path_scores_exit_4(self, tmp_path, method, capsys):
        # every entry finite, but two of them summed along a path overflow to inf
        spec = CodebookSpec(k=2, X=4)
        model = ParallelLogitModel(spec, 1, [np.full((1, 4), 1.7e308)] * 2)
        ckpt = tmp_path / "huge.json"
        save_model(model, ckpt)
        tmap = tmp_path / "huge_map.json"
        identity_token_map(spec).save(tmap)
        payload = {"checkpoint": str(ckpt), "token_map": str(tmap), "context": 0,
                   "method": method, "beam_width": 4, "top_k": 2}
        code, out = run(tmp_path, "decode", payload, "overflow")
        assert code == EXIT_CONFIG
        assert "overflow" in capsys.readouterr().err
        assert not (out / "decode.json").exists()

    @pytest.mark.parametrize("method", ["beam", "exact", "mtp"])
    def test_overflowing_path_scores_print_one_line(self, tmp_path, method, capsys):
        spec = CodebookSpec(k=2, X=4)
        model = ParallelLogitModel(spec, 1, [np.full((1, 4), 1.7e308)] * 2)
        save_model(model, tmp_path / "huge.json")
        identity_token_map(spec).save(tmp_path / "huge_map.json")
        payload = {"checkpoint": str(tmp_path / "huge.json"),
                   "token_map": str(tmp_path / "huge_map.json"), "context": 0,
                   "method": method, "beam_width": 4, "top_k": 2}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(tmp_path, "decode", payload, "overflow")[0] == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "artifact,key,value",
        [("checkpoint", "k", 1.9), ("checkpoint", "k", True), ("checkpoint", "X", "2"),
         ("checkpoint", "C", 1.5), ("token_map", "k", 1.9), ("token_map", "k", True),
         ("token_map", "X", "2"), ("token_map", "X", 2.0)],
        ids=["ckpt_k_float", "ckpt_k_bool", "ckpt_X_string", "ckpt_C_float", "map_k_float",
             "map_k_bool", "map_X_string", "map_X_integral_float"],
    )
    @pytest.mark.parametrize("method", ["beam", "exact"])
    def test_header_that_is_not_a_json_integer_exits_4(
        self, tmp_path, artifact, key, value, method, capsys
    ):
        # each header used to be cast with int(), so k: 1.9 loaded as k=1 and decoded
        artifacts = {
            "checkpoint": {"form": "parallel", "k": 1, "X": 2, "C": 1, "params": [[0.1, 0.2]]},
            "token_map": {"k": 1, "X": 2, "mode": "strict", "forward": [[0], [1]]},
        }
        payload = {"context": 0, "method": method, "top_k": 1}
        for name, doc in artifacts.items():
            payload[name] = write_config(tmp_path, f"{name}.json", doc)
        assert run(tmp_path, "decode", payload, "valid_header")[0] == EXIT_OK
        artifacts[artifact][key] = value
        write_config(tmp_path, f"{artifact}.json", artifacts[artifact])
        code, out = run(tmp_path, "decode", payload, "bad_header")
        assert code == EXIT_CONFIG
        assert "must be a JSON integer" in capsys.readouterr().err
        assert not out.exists() or list(out.iterdir()) == []

    def test_beam_round_over_the_table_cap_exits_4(self, tmp_path, capsys):
        # 3,000 entries per context, but width 10**6 makes the last round 10**9 candidates
        spec = CodebookSpec(k=3, X=1000)
        save_model(ParallelLogitModel.zeros(spec, 1), tmp_path / "wide.json")
        TokenMap(spec, [[0, 0, 0]], "probe").save(tmp_path / "wide_map.json")
        payload = {"checkpoint": str(tmp_path / "wide.json"),
                   "token_map": str(tmp_path / "wide_map.json"), "context": 0,
                   "method": "beam", "beam_width": 10**6, "top_k": 1}
        start = time.perf_counter()
        code, out = run(tmp_path, "decode", payload, "wide")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "cap is 10000000" in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "breakage",
        [lambda tm: tm["forward"][1].__setitem__(1, 1.5), lambda tm: tm["forward"][1].pop()],
        ids=["float_token", "ragged_row"],
    )
    def test_malformed_token_map_exits_4(self, tmp_path, trained, breakage, capsys):
        token_map = read_json(trained / "token_map.json")
        breakage(token_map)
        bad = tmp_path / "bad_map.json"
        bad.write_text(json.dumps(token_map))
        payload = self.decode_payload(trained, token_map=str(bad))
        assert run(tmp_path, "decode", payload, "bad_map")[0] == EXIT_CONFIG
        assert "MalformedSequenceError" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", [5_000, 100_000])
    @pytest.mark.parametrize("artifact", ["config", "checkpoint", "token_map"])
    def test_json_nested_too_deeply_exits_4(self, tmp_path, trained, artifact, depth, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * depth + "]" * depth)
        if artifact == "config":
            code = main(["decode", "--config", str(deep), "--out-dir", str(tmp_path / "o")])
        else:
            payload = self.decode_payload(trained, **{artifact: str(deep)})
            code = run(tmp_path, "decode", payload, "deep")[0]
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_boolean_in_a_checkpoint_table_exits_4(self, tmp_path, capsys):
        code, out = run(tmp_path, "train", dict(TRAIN_CFG, spec={"k": 2, "X": 3},
                                             world={"C": 2, "N": 9, "alpha": 0.5}), "k2x3")
        assert code == EXIT_OK
        ckpt = read_json(out / "checkpoint_final.json")
        ckpt["params"][1][4] = True
        bad = tmp_path / "bool_ckpt.json"
        bad.write_text(json.dumps(ckpt))
        payload = self.decode_payload(out, checkpoint=str(bad), method="exact")
        assert run(tmp_path, "decode", payload, "bool_ckpt")[0] == EXIT_CONFIG
        assert "holds a boolean" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "forward",
        ["[[0, 1], [0, true]]", "[[false, 1], [1, 0]]", "[[0, 1], [1, [true]]]"],
        ids=["true_in_row_1", "false_in_row_0", "nested_deeper"],
    )
    def test_boolean_in_a_token_map_row_exits_4(self, tmp_path, forward, capsys):
        # [0, true] used to load as [0, 1], and the map decoded
        spec = CodebookSpec(k=2, X=2)
        save_model(ParallelLogitModel.random(spec, 1, 1.0, seed=0), tmp_path / "ckpt.json")
        (tmp_path / "map.json").write_text(
            '{"k": 2, "X": 2, "mode": "probe", "forward": %s}' % forward)
        payload = {"checkpoint": str(tmp_path / "ckpt.json"),
                   "token_map": str(tmp_path / "map.json"), "context": 0,
                   "method": "exact", "top_k": 1}
        assert run(tmp_path, "decode", payload, "bool_map")[0] == EXIT_CONFIG
        assert "not a boolean" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "forward,want",
        [("[[0, 1], [2, 0]]", EXIT_OK), ("[ [0 ,1] ,\n\t[ 2,0 ]\r\n ]", EXIT_OK),
         ("[[-0, 1], [2, 0]]", EXIT_OK), ("[[0, -1], [2, 0]]", EXIT_CONFIG),
         ("[[0, 3], [2, 0]]", EXIT_CONFIG), ("[[0, 100000000000000000], [2, 0]]", EXIT_CONFIG),
         ("[[0, 1000000000000000000], [2, 0]]", EXIT_CONFIG),
         ("[[0, -9223372036854775809], [2, 0]]", EXIT_CONFIG), ("[[0, 1], [2]]", EXIT_CONFIG),
         ("[]", EXIT_CONFIG), ("[[]]", EXIT_CONFIG), ("[[0, 1.0], [2, 0]]", EXIT_CONFIG),
         ("[[0, 1e0], [2, 0]]", EXIT_CONFIG), ("[[0, 01], [2, 0]]", EXIT_CONFIG),
         ("[[0, 1], [2, 0],]", EXIT_CONFIG), ("[[[0, 1]], [[2, 0]]]", EXIT_CONFIG)],
        ids=["valid", "whitespace", "minus_zero", "negative", "out_of_range", "digits_18",
             "digits_19", "digits_19_negative", "ragged", "no_rows", "empty_row", "float_cell",
             "exponent_cell", "leading_zero", "trailing_comma", "nested_deeper"],
    )
    def test_token_map_rows_exit_as_json_reads_them(
        self, tmp_path, monkeypatch, forward, want, capsys
    ):
        # the exit codes of a map read by json.loads alone, and the same messages
        spec = CodebookSpec(k=2, X=3)
        save_model(ParallelLogitModel.random(spec, 1, 1.0, seed=0), tmp_path / "ckpt.json")
        (tmp_path / "map.json").write_text(
            '{"k": 2, "X": 3, "mode": "probe", "forward": %s}' % forward)
        payload = {"checkpoint": str(tmp_path / "ckpt.json"),
                   "token_map": str(tmp_path / "map.json"), "context": 0,
                   "method": "exact", "top_k": 1}
        assert run(tmp_path, "decode", payload, "rows")[0] == want
        err = capsys.readouterr().err
        monkeypatch.setattr(artifacts, "_floats_kernel", lambda: None)
        assert run(tmp_path, "decode", payload, "rows_by_json")[0] == want
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("token", ["1", "-0", "true", "null", "NaN", "-Infinity", "+1.0",
                                       "01.0", "1.", ".5", "0x1p3", "1e400", "[0.5]"])
    def test_tokens_the_float_reader_declines_exit_as_json_reads_them(
        self, tmp_path, token, capsys
    ):
        TokenMap(CodebookSpec(k=1, X=2), [[0], [1]], "strict").save(tmp_path / "map.json")
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text('{"form": "parallel", "k": 1, "X": 2, "C": 1, "params": [[0.5, %s]]}'
                        % token)
        payload = {"checkpoint": str(ckpt), "token_map": str(tmp_path / "map.json"),
                   "context": 0, "method": "exact", "top_k": 1}
        # an integer loads as a float; every other token is refused
        want = EXIT_OK if token in ("1", "-0") else EXIT_CONFIG
        assert run(tmp_path, "decode", payload, "declined")[0] == want
        err = capsys.readouterr().err
        assert err == "" if want == EXIT_OK else err.count("\n") == 1

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


class TestBadConfigValues:
    """A config value its table refuses exits 4 with a config error, never a traceback."""

    SMALL = {"tokenize": {"scheme": "identity", "k": 2, "X": 2}, "verify": {"trials": 1},
             "train": TRAIN_CFG, "bench": {"k_values": [1], "X_values": [2]}}

    @pytest.fixture
    def decode_inputs(self, tmp_path):
        """A valid beam decode config over a freshly trained parallel model."""
        code, trained = run(tmp_path, "train", dict(TRAIN_CFG, form="parallel"), "for_decode")
        assert code == EXIT_OK
        return {"checkpoint": str(trained / "checkpoint_final.json"),
                "token_map": str(trained / "token_map.json"), "context": 0, "method": "beam"}

    def assert_config_error(self, tmp_path, capsys, command, payload):
        code, out = run(tmp_path, command, payload, "bad_value")
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        return out

    @pytest.mark.parametrize(
        "over",
        [{"collapse_threshold": "high"}, {"seed": [1]}, {"k": None}, {"kmeans": 3},
         {"scheme": "fsq", "embeddings": {"kind": "synth", "n_items": 4, "dim": 2},
          "fsq": {"levels": [2, 2], "bounds": [[0.0], [0.0, 1.0]]}},
         {"scheme": "rq_kmeans", "embeddings": {"kind": "synth", "n_items": 0, "dim": 2}},
         {"scheme": "rq_kmeans", "embeddings": {"kind": "synth", "n_items": 4, "dim": 0}},
         {"scheme": "rq_kmeans", "embeddings": {"kind": "synth", "n_items": 4, "dim": 2},
          "kmeans": {"max_iters": 0}},
         {"collapse_threshold": 0}, {"collapse_threshold": 1.5},
         {"scheme": "pq", "k": 3, "mode": "probe",
          "embeddings": {"kind": "synth", "n_items": 8, "dim": 2}},
         {"scheme": "rq_kmeans", "X": 4, "mode": "probe",
          "embeddings": {"kind": "synth", "n_items": 3, "dim": 2}},
         {"scheme": "fsq", "k": 3, "mode": "probe",
          "embeddings": {"kind": "synth", "n_items": 8, "dim": 2}, "fsq": {"levels": [2, 2, 2]}},
         {"scheme": "fsq", "embeddings": {"kind": "synth", "n_items": 4, "dim": 2},
          "fsq": {"levels": [0, 2]}}],
        ids=["threshold", "seed", "k", "kmeans", "fsq_bounds", "n_items_0", "dim_0",
             "max_iters_0", "threshold_0", "threshold_above_1", "pq_dim_below_k",
             "rq_fewer_items_than_X", "fsq_dim_below_levels", "fsq_level_0"],
    )
    def test_tokenize(self, tmp_path, capsys, over):
        payload = dict({"scheme": "identity", "k": 2, "X": 2}, **over)
        self.assert_config_error(tmp_path, capsys, "tokenize", payload)

    @pytest.mark.parametrize(
        "name,content",
        [("bad_header.csv", b"x,y\n1,2\n"), ("bad_magic.bin", b"NOTMAGIC" + bytes(8))],
        ids=["csv_header", "bin_magic"],
    )
    def test_tokenize_bad_embeddings_file(self, tmp_path, capsys, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        payload = {"scheme": "rq_kmeans", "k": 1, "X": 2, "mode": "probe",
                   "embeddings": {"kind": path.suffix[1:], "path": str(path)}}
        self.assert_config_error(tmp_path, capsys, "tokenize", payload)

    @pytest.mark.parametrize(
        "over",
        [{"trials": "x"}, {"k_values": ["a"]}, {"C_values": 4}, {"sigma": None},
         {"trials": float("inf")}, {"k_values": [0]}, {"k_values": []}, {"C_values": [0]},
         {"C_values": []}, {"X_values": [1]}, {"X_values": []}, {"forms": []},
         {"sigma": -1}, {"items_per_context": -1},
         {"k_values": [1, 40], "X_values": [2, 16]},
         {"forms": ["cascaded"], "k_values": [2], "X_values": [1000], "C_values": [20]},
         {"forms": ["parallel"], "k_values": [6], "X_values": [30], "C_values": [1]},
         {"sigma": float("nan")}, {"sigma": float("inf")}, {"tolerance": float("nan")},
         {"tolerance": float("inf")}],
        ids=["trials", "k_values", "C_values", "sigma", "trials_inf", "k_values_0",
             "k_values_empty", "C_values_0", "C_values_empty", "X_values_1", "X_values_empty",
             "forms_empty", "sigma_negative", "items_per_context_negative",
             "space_over_2_31", "cascaded_tables_over_cap", "parallel_space_over_cap",
             "sigma_nan", "sigma_inf", "tolerance_nan", "tolerance_inf"],
    )
    def test_verify(self, tmp_path, capsys, over):
        self.assert_config_error(tmp_path, capsys, "verify", dict({"trials": 1}, **over))

    @pytest.mark.parametrize(
        "over",
        [{"lr": "fast"}, {"epochs": None}, {"world": {"C": "two", "N": 4}},
         {"init": {"sigma": "wide"}}, {"n_samples": 0},
         {"lr": -1}, {"epochs": 0}, {"init": {"sigma": -1}}, {"lr": float("nan")},
         {"init": {"sigma": float("nan")}}],
        ids=["lr", "epochs", "world_C", "init_sigma", "n_samples_0", "lr_negative",
             "epochs_0", "init_sigma_negative", "lr_nan", "init_sigma_nan"],
    )
    def test_train(self, tmp_path, capsys, over):
        out = self.assert_config_error(tmp_path, capsys, "train", dict(TRAIN_CFG, **over))
        assert not out.exists() or list(out.iterdir()) == []

    def test_train_init_that_overflows_writes_nothing(self, tmp_path, capsys):
        payload = dict(TRAIN_CFG, init={"sigma": 1e308})
        code, out = run(tmp_path, "train", payload, "huge_init")
        assert code == EXIT_CONFIG
        assert "non-finite" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "over", [{"context": "first"}, {"top_k": [1]}, {"beam_width": {}}],
        ids=["context", "top_k", "beam_width"],
    )
    def test_decode(self, tmp_path, capsys, decode_inputs, over):
        self.assert_config_error(tmp_path, capsys, "decode", dict(decode_inputs, **over))

    @pytest.mark.parametrize(
        "over",
        [{"C": "one"}, {"k_values": 5}, {"include_timing": True, "repeats": "x"},
         {"k_values": [0]}, {"X_values": [1]}, {"C": 0}, {"include_timing": True, "repeats": 0},
         {"k_values": [40], "X_values": [16]}],
        ids=["C", "k_values", "repeats", "k_values_0", "X_values_1", "C_0", "repeats_0",
             "space_over_2_31"],
    )
    def test_bench(self, tmp_path, capsys, over):
        payload = dict({"k_values": [1], "X_values": [2]}, **over)
        self.assert_config_error(tmp_path, capsys, "bench", payload)

    @pytest.mark.parametrize(
        "command,over",
        [("verify", {"forms": [["cascaded"]]}), ("train", {"form": ["cascaded"]}),
         ("verify", {"seed": -5}), ("train", {"seed": -5}), ("tokenize", {"seed": -5}),
         ("bench", {"seed": -1}), ("tokenize", {"k": 2.7}), ("verify", {"seed": 1.9}),
         ("train", {"spec": {"k": 2, "X": 2.5}}), ("verify", {"k_values": [1, 2.5]}),
         ("train", {"world": {"C": 2, "N": 4, "alpha": 0.5, "uniform": "false"}}),
         ("bench", {"include_timing": "no"}), ("verify", {"k_values": "12"})],
        ids=["forms_nested", "form_list", "verify_seed_negative", "train_seed_negative",
             "tokenize_seed_negative", "bench_seed_negative", "k_fractional",
             "seed_fractional", "X_fractional", "k_values_fractional", "uniform_string",
             "include_timing_string", "k_values_string"],
    )
    def test_values_read_as_their_type(self, tmp_path, capsys, command, over):
        self.assert_config_error(tmp_path, capsys, command, dict(self.SMALL[command], **over))

    @pytest.mark.parametrize("command", ["verify", "train", "tokenize"])
    def test_negative_seed_flag(self, tmp_path, capsys, command):
        code, out = run(tmp_path, command, self.SMALL[command], "neg_seed", extra=["--seed", "-5"])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_out_dir_must_be_a_string(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "out_dir.json", {"trials": 1, "out_dir": 5})
        assert main(["verify", "--config", cfg]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("below", [False, True], ids=["a_file", "below_a_file"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_unusable_out_dir(self, tmp_path, capsys, via, below):
        # mkdir raises FileExistsError on a file and NotADirectoryError below
        # one; either is one config error line naming the directory
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        out = str(blocker / "sub" if below else blocker)
        payload = {"trials": 1, **({"out_dir": out} if via == "config" else {})}
        cfg = write_config(tmp_path, "verify.json", payload)
        argv = ["verify", "--config", cfg, *(["--out-dir", out] if via == "flag" else [])]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: output directory ")
        assert repr(out) in err[0]
        assert blocker.read_text() == "a file, not a directory"

    @pytest.mark.parametrize(
        "command,over,key",
        [("verify", {"trials": "2"}, "verify.trials"),
         ("verify", {"sigma": "0.5"}, "verify.sigma"),
         ("verify", {"k_values": [1, 2.0]}, "verify.k_values[1]"),
         ("verify", {"C_values": [True]}, "verify.C_values[0]"),
         ("verify", {"max_table_entries": 100}, "verify.max_table_entries"),
         ("train", {"init": {"sigma": 0.3, "sigmaa": 0.3}}, "train.init.sigmaa"),
         ("train", {"spec": {"k": 2, "X": 2, "x": 2}}, "train.spec.x"),
         ("bench", {"include_timing": False}, "bench.include_timing"),
         ("bench", {"C": 1.0}, "bench.C"),
         ("tokenize", {"collapse_threshold": True}, "tokenize.collapse_threshold")],
        ids=["trials_string", "sigma_string", "k_values_float", "C_values_bool",
             "removed_key", "init_sigmaa", "spec_x", "include_timing", "C_float",
             "threshold_bool"],
    )
    def test_values_that_cast_are_refused(self, tmp_path, capsys, command, over, key):
        # each of these loaded once, cast or ignored; now each exits 4 naming its key
        code, out = run(tmp_path, command, dict(self.SMALL[command], **over), "castable")
        assert code == EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "over,key",
        [({"topk": 3}, "decode.topk"), ({"beam_width": True}, "decode.beam_width"),
         ({"top_k": 2.0}, "decode.top_k")],
        ids=["topk", "beam_width_bool", "top_k_float"],
    )
    def test_decode_values_that_cast_are_refused(self, tmp_path, capsys, decode_inputs, over,
                                                 key):
        code, out = run(tmp_path, "decode", dict(decode_inputs, **over), "castable")
        assert code == EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_unused_key_of_another_variant_is_allowed(self, tmp_path, decode_inputs):
        payload = dict(decode_inputs, method="exact", beam_width=16, top_k=2)
        code, out = run(tmp_path, "decode", payload, "exact_with_width")
        assert code == EXIT_OK
        assert len(read_json(out / "decode.json")["results"]) == 2

    @pytest.mark.parametrize("method", ["exact", "beam", "mtp"])
    def test_top_k_over_the_item_count_is_refused_for_every_method(self, tmp_path, capsys,
                                                                    decode_inputs, method):
        n_items = TokenMap.from_json_dict(read_json(Path(decode_inputs["token_map"]))).n_items
        payload = dict(decode_inputs, method=method, top_k=n_items)
        code, out = run(tmp_path, "decode", payload, "all_items")
        assert code == EXIT_OK
        assert len(read_json(out / "decode.json")["results"]) == n_items
        payload["top_k"] = n_items + 1
        code, out = run(tmp_path, "decode", payload, "too_many")
        assert code == EXIT_CONFIG
        assert f"top_k {n_items + 1} exceeds" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_lr_reads_the_infinity_literal(self, tmp_path):
        # a float key takes any JSON number, Infinity included: the run trains and diverges
        code, out = run(tmp_path, "train", dict(TRAIN_CFG, lr=float("inf")), "inf_lr")
        assert code == 1
        assert (out / "checkpoint_init.json").is_file()


class _ConfigReads:
    """The config reads of one ``cmd_*`` function and of the cli.py helpers it
    hands parts of its config to, traced through names bound to them.

    ``reads`` collects each key path read; ``problems`` each read of a key
    its table does not declare, each subscript that is not a string literal,
    each attribute (``.get`` and the like) and each hand-off to a function
    outside cli.py.
    """

    def __init__(self, functions):
        self.functions = functions
        self.reads, self.problems, self.seen = set(), set(), set()

    def trace(self, fn, env):
        key = (fn.name, tuple(sorted((n, path) for n, (_, path) in env.items())))
        if key in self.seen:
            return
        self.seen.add(key)
        env, before = dict(env), None
        while env != before:  # until no alias, or alias of an alias, is new
            before = dict(env)
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                    pairs = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple)
                             and isinstance(value, ast.Tuple) else [(target, value)])
                    for name, expr in pairs:
                        found = self.resolve(expr, env, fn)
                        if isinstance(name, ast.Name) and found:
                            env[name.id] = found
        for node in ast.walk(fn):
            where = f"{fn.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Subscript):
                self.resolve(node, env, fn)
            elif isinstance(node, ast.Attribute) and self.resolve(node.value, env, fn):
                self.problems.add(f"{where} .{node.attr} on the config")
            elif isinstance(node, ast.Call):
                callee = node.func.id if isinstance(node.func, ast.Name) else None
                for i, arg in enumerate(node.args):
                    found = self.resolve(arg, env, fn)
                    if found and callee in self.functions:
                        param = self.functions[callee].args.args[i].arg
                        self.trace(self.functions[callee], {param: found})
                    elif found:
                        self.problems.add(f"{where} config handed to {ast.unparse(node.func)}")
                for kw in node.keywords:
                    if self.resolve(kw.value, env, fn):
                        self.problems.add(f"{where} config handed over as a keyword")

    def resolve(self, node, env, fn):
        """(table, key path) of a config object ``node`` names, else None."""
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if not isinstance(node, ast.Subscript):
            return None
        outer = self.resolve(node.value, env, fn)
        if outer is None:
            return None
        table, path = outer
        name = node.slice.value if isinstance(node.slice, ast.Constant) else None
        if not isinstance(name, str):
            self.problems.add(f"{fn.name}:{node.lineno} non-literal key {ast.unparse(node)}")
            return None
        self.reads.add(path + (name,))
        if name not in table:
            dotted = ".".join(path + (name,))
            self.problems.add(f"{fn.name}:{node.lineno} reads undeclared {dotted}")
            return None
        kind = table[name].kind
        return (kind, path + (name,)) if isinstance(kind, dict) else None


def declared_paths(table, path=()):
    """Every key path of ``table``, nested tables' keys included."""
    for name, key in table.items():
        yield path + (name,)
        if isinstance(key.kind, dict):
            yield from declared_paths(key.kind, path + (name,))


class TestOneConfigReader:
    """A ``cmd_*`` sees only the values ``main`` read through its table, and
    reads only keys that table declares: an undeclared read would be a
    ``KeyError`` traceback, outside the exit contract.  Every declared key
    is read, so none is accepted and then ignored."""

    def test_commands_read_only_declared_keys(self):
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert {name for name in functions if name.startswith("cmd_")} == {
            f"cmd_{command}" for command in cli.TABLES
        }
        for command, table in cli.TABLES.items():
            fn = functions[f"cmd_{command}"]
            # the raw config dict is main's alone: no parameter can carry it here
            assert [arg.arg for arg in fn.args.args] == ["cfg", "out_dir", "chash"]
            scan = _ConfigReads(functions)
            scan.trace(fn, {"cfg": (table, ())})
            assert not scan.problems, f"{command}: {sorted(scan.problems)}"
            unread = set(declared_paths(table)) - scan.reads - {("out_dir",)}  # main reads it
            assert not unread, f"{command} declares keys nothing reads: {sorted(unread)}"


def kind_text(kind, choices=None):
    if isinstance(kind, list):
        return "array of " + kind_text(kind[0])
    if isinstance(kind, dict):
        return "object or string" if choices else "object"
    return kind.__name__


def reference_rows(table, path=()):
    """README's reference rows for ``table``: key path, kind, default, bound."""
    for name, key in table.items():
        default = ("required" if key.default is ... else "unset" if key.default is None
                   else f"`{json.dumps(key.default)}`")
        bound = [f">= {key.low}"] if key.low is not None else []
        if key.choices is not None:
            bound.append("one of " + ", ".join(f"`{json.dumps(c)}`" for c in key.choices))
        yield (f"| `{'.'.join(path + (name,))}` | {kind_text(key.kind, key.choices)} "
               f"| {default} | {'; '.join(bound)} |")
        if isinstance(key.kind, dict):
            yield from reference_rows(key.kind, path + (name,))


class TestConfigReference:
    """README's config reference for each subcommand lists its table: every
    key in the table's order, with its kind, default and bound."""

    @pytest.mark.parametrize("command", sorted(cli.TABLES))
    def test_readme_matches_the_table(self, command):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = re.search(rf"^### {command}\n(.*?)(?=^#)", readme, re.S | re.M).group(1)
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        assert rows == list(reference_rows(cli.TABLES[command]))


class TestArtifactBytes:
    """Pinned sha256 of artifacts whose JSON layout must not drift between versions.

    The hashes were recorded with the list-of-tuples TokenMap that the int64
    table replaced.
    """

    def sha256(self, path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_tokenize_rq_kmeans_probe(self, tmp_path):
        payload = {
            "seed": 3,
            "scheme": "rq_kmeans",
            "k": 2,
            "X": 4,
            "mode": "probe",
            "embeddings": {"kind": "synth", "n_items": 16, "dim": 6},
        }
        code, out = run(tmp_path, "tokenize", payload, "pinned")
        assert code == EXIT_OK
        assert self.sha256(out / "token_map.json") == (
            "51d9f2ed68f13e7a4be194f8da5288c2d871777dd8c8d221e210a5e20a35f107"
        )
        assert self.sha256(out / "audit.json") == (
            "10cd5c7f195e79d5442adc7ed73628f6130764e3410b9bc780a622d68765d754"
        )

    @pytest.mark.parametrize(
        "scheme,tokenizer_sha,token_map_sha",
        [("rq_kmeans", "c72534716338b0b6996371679fe89a0df80f0248c545dfec78380520b1da443c",
          "73185356d53ca1704574314a47caf7a64eba5b050a3c62faa286059819d953cd"),
         ("pq", "31a9b863db839d3edd9d6ed4a93b0d1eae0120536498a660f06ed599db18a75b",
          "93d27b8dcd1af3b1c1838cf03ff8cdf44fc8e958f2c4a8205ce39b2ec67e64da")],
    )
    def test_tokenize_fit_bytes(self, tmp_path, scheme, tokenizer_sha, token_map_sha):
        # pins the fitted codebooks, not only the map: recorded with the
        # full-matrix k-means that the screened nearest-center search replaced
        payload = {"seed": 0, "scheme": scheme, "k": 3, "X": 8, "mode": "probe",
                   "embeddings": {"kind": "synth", "n_items": 512, "dim": 16}}
        code, out = run(tmp_path, "tokenize", payload, "pinned")
        assert code == EXIT_OK
        assert self.sha256(out / "tokenizer.json") == tokenizer_sha
        assert self.sha256(out / "token_map.json") == token_map_sha

    def test_tokenize_fsq_bytes(self, tmp_path):
        # recorded with the per-item, per-dimension loop that whole columns replaced
        payload = {"seed": 0, "scheme": "fsq", "k": 3, "X": 8, "mode": "probe",
                   "embeddings": {"kind": "synth", "n_items": 512, "dim": 16},
                   "fsq": {"levels": [8, 5, 2],
                           "bounds": [[-2.0, 2.0], [-1.5, 1.0], [-0.25, 0.25]]}}
        code, out = run(tmp_path, "tokenize", payload, "pinned")
        assert code == EXIT_OK
        assert self.sha256(out / "tokenizer.json") == (
            "f4e7d829d769ab22de4af45e396e14577c81648317a88d9ad9d484a90455d7a9"
        )
        assert self.sha256(out / "token_map.json") == (
            "0fd86ea7cea2423115e5a0d0632420752341b33b184029afdc771b565bb6883d"
        )

    def test_train_token_map(self, tmp_path):
        code, out = run(tmp_path, "train", TRAIN_CFG, "pinned")
        assert code == EXIT_OK
        assert self.sha256(out / "token_map.json") == (
            "0da820f6a48bb70a07b5aa8448767cf41b71530550f7a3761ceec224e72a0a16"
        )

    def test_train_bytes(self, tmp_path):
        # recorded when each module wrote its own JSON and CSV files
        code, out = run(tmp_path, "train", TRAIN_CFG, "pinned")
        assert code == EXIT_OK
        assert {name: self.sha256(out / name) for name in (
            "checkpoint_init.json", "checkpoint_final.json", "trace.csv", "summary.json"
        )} == {
            "checkpoint_init.json":
                "71b31c70604b13ad4678fd41331c249969c468cb29b1237304f2e30f4722e4f6",
            "checkpoint_final.json":
                "ba2d8069162a92ef9b96661c18a02acdae36ca960b9741c1f3fd09b5cc892aed",
            "trace.csv": "ed1ebaba3c8df9f343fd14a69850bb6aa7aef3fe3ea68346cc9251f4bdcb8ea6",
            "summary.json": "11674764587e8f53d2b270fad74493ced7e19f2d909f6dde72f8380eee9a9fd6",
        }

    def test_bench_bytes(self, tmp_path):
        # k=4, X=64 is over the table cap, so its counted cells are empty
        code, out = run(tmp_path, "bench", {"k_values": [1, 2, 4], "X_values": [2, 64]}, "pinned")
        assert code == EXIT_OK
        assert self.sha256(out / "bench_ops.csv") == (
            "39a37e369e70175776c3f9f7922ed68092106a28f97814dcb4d2d6aacccc3533"
        )
        assert self.sha256(out / "summary.json") == (
            "58b1604c9c05134bfbf61f51284097ada98d6ff7b4afdff05bc0c7982a7bd3ea"
        )

    def test_decode_bytes(self, tmp_path, monkeypatch):
        # relative artifact paths keep the embedded config hash the same in every tmp_path
        monkeypatch.chdir(tmp_path)
        code, _ = run(tmp_path, "train", dict(TRAIN_CFG, form="parallel"), "for_decode")
        assert code == EXIT_OK
        payload = {"checkpoint": "for_decode/checkpoint_final.json",
                   "token_map": "for_decode/token_map.json", "context": 1,
                   "method": "beam", "beam_width": 3, "top_k": 3}
        code, out = run(tmp_path, "decode", payload, "pinned")
        assert code == EXIT_OK
        assert self.sha256(out / "decode.json") == (
            "a2f28d605167705c8fff0db9d20735cfcc6e5fbba89901bae1a14a2bcfebabe2"
        )


    def test_decode_without_cc_warns_once_and_writes_the_same_bytes(self, tmp_path, monkeypatch):
        # no compiler and no cached library: checkpoints are read with json.loads
        code, _ = run(tmp_path, "train", dict(TRAIN_CFG, form="parallel"), "for_decode")
        assert code == EXIT_OK
        payload = {"checkpoint": str(tmp_path / "for_decode/checkpoint_final.json"),
                   "token_map": str(tmp_path / "for_decode/token_map.json"), "context": 1,
                   "method": "exact", "top_k": 3}
        code, out = run(tmp_path, "decode", payload, "with_kernel")
        assert code == EXIT_OK
        want = (out / "decode.json").read_bytes()

        source = tmp_path / "pkg" / "_floats.c"
        source.parent.mkdir()
        shutil.copy(artifacts._FLOATS_SOURCE, source)
        monkeypatch.setattr(artifacts, "_FLOATS_SOURCE", source)
        monkeypatch.setenv("PATH", str(tmp_path / "no_bin"))
        monkeypatch.setattr(artifacts, "_floats_kernel", functools.cache(
            artifacts._floats_kernel.__wrapped__))
        with pytest.warns(RuntimeWarning) as caught:
            for name in ("without_kernel", "without_kernel_again"):
                code, out = run(tmp_path, "decode", payload, name)
                assert code == EXIT_OK
                assert (out / "decode.json").read_bytes() == want
        assert [str(w.message).split(",")[0] for w in caught] == [
            "JSON float kernel unavailable"]
        assert "FileNotFoundError" in str(caught[0].message)

    @pytest.mark.parametrize(
        "payload,exit_code,csv_sha,summary_sha",
        [({"seed": 5, "trials": 12, "k_values": [1, 2, 3], "X_values": [2, 3, 4],
           "C_values": [1, 2, 3], "items_per_context": 3}, EXIT_EQUIVALENCE,
          "1d5e92853deb03127fc8af67f512600651a963c11eb1bf415cc09685dd6a7b43",
          "a4d285a4fa84b79653f80c5ddb32478c1264a787d7725d80050272e87ed29969"),
         ({"seed": 6, "trials": 10, "map_mode": "probe_collision", "k_values": [1, 2],
           "X_values": [2, 3], "C_values": [1, 2], "items_per_context": 10}, EXIT_OK,
          "673327a6e09e47ae3c83d9b895f8400f50a6bee50acbb0da8eb34e6b63977fe1",
          "fcfb2539e8ce9d29929891ee6e185ac91fe1eb0fc033d2e92fdfa419340047e9"),
         # k=3, X=16 caps a batch at two contexts, so these trials split across batches
         ({"seed": 7, "trials": 6, "k_values": [3], "X_values": [4, 16], "C_values": [3, 4],
           "items_per_context": 3}, EXIT_EQUIVALENCE,
          "96f372e5d5dda1ad0e04acea4738e3dcdadfdec842d03298b7c2901bb7c3f8cb",
          "443687b687055ec6fca600d5e14959b6dc7b5f69154a9edde09b8d366a4452bb")],
        ids=["strict", "probe_collision", "split_batches"],
    )
    def test_verify(self, tmp_path, payload, exit_code, csv_sha, summary_sha):
        # recorded when every (context, item) report redid the context-level work
        code, out = run(tmp_path, "verify", payload, "pinned")
        assert code == exit_code
        assert self.sha256(out / "equivalence.csv") == csv_sha
        assert self.sha256(out / "summary.json") == summary_sha


def replay_verify(payload):
    """(form, token map, model, (C, n_pick) items) of every trial that verify
    draws from ``payload``, whose sweep keys must all be given, in its order."""
    rng = np.random.default_rng(payload["seed"])
    trials = []
    for t in range(payload["trials"]):
        spec = CodebookSpec(k=int(rng.choice(payload["k_values"])),
                            X=int(rng.choice(payload["X_values"])))
        C = int(rng.choice(payload["C_values"]))
        model_seed = int(rng.integers(2**31))
        tmap = identity_token_map(spec)
        if payload["map_mode"] == "probe_collision":
            dup = tmap.token_matrix[int(rng.integers(tmap.n_items))]
            tmap = TokenMap(spec, np.vstack([tmap.token_matrix, dup]), "probe")
        n_pick = min(payload["items_per_context"], tmap.n_items)
        items = np.array([rng.choice(tmap.n_items, n_pick, replace=False) for _ in range(C)])
        form = payload["forms"][t % len(payload["forms"])]
        model = cli.FORMS[form].random(spec, C, payload["sigma"], model_seed)
        trials.append((form, tmap, model, items.reshape(C, n_pick)))
    return trials


class TestVerifyWork:
    """verify checks each context once, in batches of contexts that share a map."""

    @pytest.fixture()
    def batches(self, monkeypatch):
        """Every check_contexts call verify makes: (model, map, items)."""
        calls = []

        def recorded(model, tmap, items):
            calls.append((model, tmap, np.asarray(items)))
            return check_contexts(model, tmap, items)

        monkeypatch.setattr(cli, "check_contexts", recorded)
        return calls

    @pytest.mark.parametrize("map_mode", ["strict", "probe_collision"])
    def test_once_per_context_and_spec(self, tmp_path, monkeypatch, batches, map_mode):
        built = Counter()

        def counted(spec):
            built[spec] += 1
            return identity_token_map(spec)

        monkeypatch.setattr(cli, "identity_token_map", counted)
        # caps of 4, 2, 2 and 1 contexts for X**k = 2, 3, 4 and 9: some trials split
        monkeypatch.setattr(cli, "_VERIFY_BATCH_SEQUENCES", 8)
        payload = {"seed": 3, "trials": 8, "forms": ["cascaded", "parallel"], "k_values": [1, 2],
                   "X_values": [2, 3], "C_values": [2], "items_per_context": 2, "sigma": 0.5,
                   "map_mode": map_mode}
        code, out = run(tmp_path, "verify", payload, "work")
        assert code in (EXIT_OK, EXIT_EQUIVALENCE)
        trials = replay_verify(payload)
        assert len((out / "equivalence.csv").read_text().splitlines()) == 1 + 2 * 8 * 2

        def row(tables, items, h):
            return tuple(tab[h].tobytes() for tab in tables) + (items[h].tobytes(),)

        # each (trial, context) row goes through exactly one batch, with its items
        want = Counter(row(model.tables, items, h)
                       for _, _, model, items in trials for h in range(model.C))
        seen = Counter(row(model.tables, items, b)
                       for model, _, items in batches for b in range(model.C))
        assert seen == want and set(want.values()) == {1}
        # one batch per cap's worth of contexts that share (form, spec, map)
        groups = Counter()
        for t, (form, tmap, model, _) in enumerate(trials):
            groups[form, tmap.spec, t if tmap.mode == "probe" else None] += model.C
        assert len(batches) == sum(
            math.ceil(n / max(1, 8 // spec.sequence_space_size))
            for (_, spec, _), n in groups.items()
        ) > len(groups)
        assert built == Counter({tmap.spec: 1 for _, tmap, _, _ in trials})

    @pytest.mark.parametrize(
        "budget,sweep",
        [(20, {"k_values": [2], "X_values": [3], "C_values": [3], "items_per_context": 3}),
         (20, {"k_values": [3], "X_values": [3], "C_values": [1, 2], "items_per_context": 2}),
         (8, {"k_values": [1, 2], "X_values": [2, 3], "C_values": [1, 3],
              "items_per_context": 10, "map_mode": "probe_collision"}),
         (8, {"k_values": [1, 2], "X_values": [2, 3], "C_values": [2], "items_per_context": 0}),
         (2**13, {"k_values": [1, 2], "X_values": [2], "C_values": [1, 4],
                  "items_per_context": 5, "sigma": 0.0}),
         (8, {"k_values": [1, 2], "X_values": [2, 3], "C_values": [1, 3], "items_per_context": 2,
              "forms": ["parallel", "cascaded", "parallel"], "trials": 7})],
        ids=["trial_split_across_batches", "spec_over_the_cap", "probe_maps",
             "no_items", "items_above_n_items", "repeated_form"],
    )
    def test_reports_equal_the_composed_reference_bit_for_bit(
        self, tmp_path, monkeypatch, budget, sweep
    ):
        monkeypatch.setattr(cli, "_VERIFY_BATCH_SEQUENCES", budget)
        payload = dict({"seed": 11, "trials": 6, "forms": ["cascaded", "parallel"],
                        "sigma": 1.5, "map_mode": "strict"}, **sweep)
        code, out = run(tmp_path, "verify", payload, "bits")
        assert code in (EXIT_OK, EXIT_EQUIVALENCE)
        trials = replay_verify(payload)
        want = [composed_report(model, h, tmap, int(i))
                for _, tmap, model, items in trials
                for h in range(model.C) for i in items[h]]
        write_csv(tmp_path / "want.csv", {name: [r[name] for r in want] for name in REPORT_COLUMNS})
        # the CSV cells are repr of each float, so equal bytes are equal bits
        assert (out / "equivalence.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        per_form = read_json(out / "summary.json")["per_form"]
        assert sorted(per_form) == sorted(set(payload["forms"]))
        assert per_form["parallel"]["n_reports"] == sum(
            items.size for form, _, _, items in trials if form == "parallel")

    def test_no_batch_holds_more_than_the_cap(self, tmp_path, batches):
        payload = {"seed": 6, "trials": 6, "forms": ["parallel", "cascaded"], "k_values": [2],
                   "X_values": [2, 100], "C_values": [64], "items_per_context": 2,
                   "map_mode": "strict"}
        code, _ = run(tmp_path, "verify", payload, "cap")
        assert code in (EXIT_OK, EXIT_EQUIVALENCE)
        sizes = [(model.form, model.spec.sequence_space_size, model.C)
                 for model, _, _ in batches]
        assert all(B <= max(1, cli._VERIFY_BATCH_SEQUENCES // n) for _, n, B in sizes)
        assert sum(B for _, _, B in sizes) == 6 * 64
        # the parallel X**k = 10**4 spec is over the cap: one context per batch;
        # the two parallel X**k = 4 trials share one batch
        assert ("parallel", 10**4, 1) in sizes and ("parallel", 4, 128) in sizes


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
    # the sidlab modules each subcommand must leave unimported
    UNLOADED = {
        "decode": ("tokenizer", "trainer", "bench"),
        "verify": ("tokenizer", "trainer", "bench"),
        "train": ("tokenizer", "bench"),
        "tokenize": ("trainer", "bench"),
    }

    @pytest.mark.parametrize("command", UNLOADED)
    def test_a_subcommand_imports_only_its_own_modules(self, tmp_path, command):
        spec = CodebookSpec(k=2, X=3)
        save_model(ParallelLogitModel.random(spec, 1, 1.0, seed=0), tmp_path / "ckpt.json")
        identity_token_map(spec).save(tmp_path / "map.json")
        payload = {
            "decode": {"checkpoint": str(tmp_path / "ckpt.json"),
                       "token_map": str(tmp_path / "map.json"), "context": 0,
                       "method": "exact", "top_k": 2},
            "verify": {"trials": 2, "forms": ["parallel"]},
            "train": dict(TRAIN_CFG, epochs=1),
            "tokenize": {"scheme": "rq_kmeans", "k": 2, "X": 2, "mode": "probe",
                         "embeddings": {"kind": "synth", "n_items": 4, "dim": 2}},
        }[command]
        argv = [command, "--config", write_config(tmp_path, "c.json", payload),
                "--out-dir", str(tmp_path / "out")]
        code = ("import sys\nfrom sidlab import cli\n"
                f"print(cli.main({argv!r}),"
                " *sorted(m for m in sys.modules if m.startswith('sidlab.')))")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                check=True)
        status, *loaded = result.stdout.split()
        assert status == str(EXIT_OK), result.stderr
        assert "sidlab.cli" in loaded
        assert not {f"sidlab.{name}" for name in self.UNLOADED[command]} & set(loaded), loaded

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
