"""CLI tests: all four subcommands plus error paths and determinism."""

import json

import pytest

from voyager import cli as cli_mod
from voyager.bench import BENCH_SCHEMA_VERSION, BenchProfile, validate_report
from voyager.cli import main
from voyager.distill import DistillConfig, DistilledTable, build_table, depth_chain
from voyager.eval import simulate_model
from voyager.model import load_checkpoint
from voyager.traces import parse_trace


@pytest.fixture
def stride_trace_file(tmp_path):
    path = tmp_path / "stride.txt"
    rc = main(["gen", "stride", "--out", str(path), "-n", "400"])
    assert rc == 0
    return path


# ----------------------------------------------------------------------
# gen
# ----------------------------------------------------------------------
def test_gen_writes_parseable_trace(stride_trace_file):
    trace = parse_trace(stride_trace_file)
    assert len(trace) == 400
    assert trace[1].block - trace[0].block == 1


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert "subcommand" in capsys.readouterr().err


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------
def _train_args(path, extra=()):
    return [
        "train",
        "--trace",
        str(path),
        "--steps",
        "60",
        "--hidden-dim",
        "16",
        "--embed-dim",
        "8",
        "--seed",
        "0",
        *extra,
    ]


def test_malformed_trace_is_clean_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0x1,0x40\nbogus-line\n")
    assert main(["train", "--trace", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 2" in err


def test_missing_trace_file_is_clean_error(tmp_path, capsys):
    assert main(["train", "--trace", str(tmp_path / "nope.txt")]) == 1
    assert "error:" in capsys.readouterr().err


def test_training_run_prints_metrics(stride_trace_file, capsys):
    rc = main(_train_args(stride_trace_file))
    assert rc == 0
    out = capsys.readouterr().out
    assert "page_acc=" in out and "offset_acc=" in out
    assert "baseline next_line" in out and "baseline stride" in out


def test_training_run_is_deterministic(stride_trace_file, capsys):
    main(_train_args(stride_trace_file))
    first = capsys.readouterr().out
    main(_train_args(stride_trace_file))
    second = capsys.readouterr().out
    assert first == second


def test_no_baselines_flag(stride_trace_file, capsys):
    rc = main(_train_args(stride_trace_file, ["--no-baselines"]))
    assert rc == 0
    assert "baseline next_line" not in capsys.readouterr().out


# ----------------------------------------------------------------------
# train --save -> simulate --checkpoint
# ----------------------------------------------------------------------
def test_train_save_then_simulate_checkpoint(stride_trace_file, tmp_path, capsys):
    prefix = tmp_path / "ckpt" / "model"
    rc = main(_train_args(stride_trace_file, ["--save", str(prefix)]))
    assert rc == 0
    assert "saved checkpoint" in capsys.readouterr().out
    assert prefix.with_suffix(".npz").exists()
    assert prefix.with_suffix(".vocab.json").exists()

    rc = main(
        [
            "simulate",
            "--trace",
            str(stride_trace_file),
            "--checkpoint",
            str(prefix),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "prefetcher=neural" in out and "coverage=" in out


@pytest.fixture
def saved_checkpoint(tmp_path, capsys):
    """A page_cycle trace and a ``train --seq-len 16 --save`` checkpoint."""
    trace_path = tmp_path / "pc.txt"
    assert main(["gen", "page_cycle", "--out", str(trace_path), "-n", "400"]) == 0
    prefix = tmp_path / "ckpt" / "model"
    rc = main(_train_args(trace_path, ["--seq-len", "16", "--save", str(prefix)]))
    assert rc == 0
    capsys.readouterr()
    return trace_path, prefix


def _simulate_checkpoint(trace_path, prefix, capsys):
    argv = ["simulate", "--trace", str(trace_path), "--checkpoint", str(prefix)]
    assert main(argv) == 0
    return capsys.readouterr().out


def _expected_sim_output(trace_path, prefix, capsys, seq_len):
    """What ``simulate`` prints for the checkpoint run at ``seq_len``."""
    argv = ["simulate", "--trace", str(trace_path), "--checkpoint", str(prefix)]
    model, pc_vocab, page_vocab = load_checkpoint(prefix)
    result = simulate_model(
        model,
        pc_vocab,
        page_vocab,
        parse_trace(trace_path),
        cli_mod._sim_config(cli_mod.build_parser().parse_args(argv)),
        seq_len=seq_len,
    )
    cli_mod._print_sim_result(result)
    return capsys.readouterr().out


_DELETE = object()


def _rewrite_meta(prefix, **fields):
    """Edit checkpoint metadata in place (``_DELETE`` drops a key)."""
    meta_path = prefix.with_suffix(".vocab.json")
    meta = json.loads(meta_path.read_text())
    for key, value in fields.items():
        if value is _DELETE:
            del meta[key]
        else:
            meta[key] = value
    meta_path.write_text(json.dumps(meta))


def _checkpoint_commands(trace_path, prefix, tmp_path):
    """``simulate --checkpoint`` and ``distill --checkpoint`` argvs."""
    common = ["--trace", str(trace_path), "--checkpoint", str(prefix)]
    return [
        ["simulate", *common],
        ["distill", *common, "--out", str(tmp_path / "table.json")],
    ]


def test_sequence_train_then_stateful_simulate(saved_checkpoint, capsys):
    """simulate reads seq_len from the checkpoint: a trained checkpoint
    runs statefully with its saved seq_len."""
    trace_path, prefix = saved_checkpoint
    meta = json.loads(prefix.with_suffix(".vocab.json").read_text())
    assert meta["train_mode"] == "sequence" and meta["seq_len"] == 16

    out = _simulate_checkpoint(trace_path, prefix, capsys)
    stateful = _expected_sim_output(trace_path, prefix, capsys, seq_len=16)
    other = _expected_sim_output(trace_path, prefix, capsys, seq_len=5)
    assert out == stateful
    assert stateful != other  # the saved seq_len is visible in the counters
    coverage = float(out.split("coverage=")[1].split()[0])
    assert coverage > 0.0


def test_distill_checkpoint_tabulates_stateful_rollouts(
    saved_checkpoint, tmp_path, capsys
):
    """distill --checkpoint builds the table build_table builds at the
    checkpoint's saved seq_len."""
    trace_path, prefix = saved_checkpoint
    out_path = tmp_path / "table.json"
    argv = [
        "distill",
        "--trace",
        str(trace_path),
        "--checkpoint",
        str(prefix),
        "--out",
        str(out_path),
    ]
    assert main(argv) == 0
    args = cli_mod.build_parser().parse_args(argv)
    model, pc_vocab, page_vocab = load_checkpoint(prefix)
    expected = build_table(
        model,
        pc_vocab,
        page_vocab,
        parse_trace(trace_path),
        DistillConfig(
            depths=depth_chain(args.depth),
            table_size=args.table_size,
            top_k=args.top_k,
            fallback=args.fallback,
        ),
        inference="stateful",
        seq_len=16,
    )
    assert DistilledTable.load(out_path).to_dict() == expected.to_dict()


@pytest.mark.parametrize("train_mode", ["window", None])
def test_legacy_checkpoint_is_clean_error(
    saved_checkpoint, tmp_path, capsys, train_mode
):
    """Window-trained (or mode-less, older) checkpoints are rejected by
    both offline commands: inference is stateful only."""
    trace_path, prefix = saved_checkpoint
    _rewrite_meta(prefix, train_mode=train_mode)
    for argv in _checkpoint_commands(trace_path, prefix, tmp_path):
        assert main(argv) == 1, argv[0]
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "train_mode" in captured.err
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("seq_len", [_DELETE, None, 0, -3, "16", 16.0, True])
def test_simulate_sequence_checkpoint_bad_seq_len_is_clean_error(
    saved_checkpoint, tmp_path, capsys, seq_len
):
    """A missing or bad seq_len is a clean error for simulate and
    distill alike."""
    trace_path, prefix = saved_checkpoint
    _rewrite_meta(prefix, seq_len=seq_len)
    for argv in _checkpoint_commands(trace_path, prefix, tmp_path):
        assert main(argv) == 1, argv[0]
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "seq_len" in captured.err
        assert "Traceback" not in captured.err


def test_simulate_missing_checkpoint_is_clean_error(
    stride_trace_file, tmp_path, capsys
):
    rc = main(
        [
            "simulate",
            "--trace",
            str(stride_trace_file),
            "--checkpoint",
            str(tmp_path / "absent"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------------
# simulate (baselines)
# ----------------------------------------------------------------------
def test_simulate_baseline_with_distance(stride_trace_file, capsys):
    rc = main(
        [
            "simulate",
            "--trace",
            str(stride_trace_file),
            "--prefetcher",
            "next_line",
            "--degree",
            "1",
            "--distance",
            "8",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "prefetcher=next_line" in out
    coverage = float(out.split("coverage=")[1].split()[0])
    assert coverage > 0.9


def test_simulate_none_reproduces_baseline_miss_rate(stride_trace_file, capsys):
    rc = main(
        ["simulate", "--trace", str(stride_trace_file), "--prefetcher", "none"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    miss = float(out.split(" miss_rate=")[1].split()[0])
    baseline = float(out.split("baseline_miss_rate=")[1].split()[0])
    assert miss == baseline


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------
#: Fast-tier bench coverage: shrink the smoke profile, same code path.
TINY_BENCH = BenchProfile(
    name="tiny",
    trace_length=200,
    train_steps=5,
    embed_dim=8,
    hidden_dim=16,
    workloads=("stride", "page_cycle"),
)


def test_bench_cmd_tiny_profile(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli_mod.PROFILES, "smoke", TINY_BENCH)
    out_path = tmp_path / "BENCH_voyager.json"
    rc = main(["bench", "--profile", "smoke", "--out", str(out_path)])
    assert rc == 0
    report = json.loads(out_path.read_text())
    assert validate_report(report) == []
    assert "wrote" in capsys.readouterr().out


def test_bench_cmd_gates_after_writing(tmp_path, capsys, monkeypatch):
    """A passing gate writes a valid report; a failing one writes, then exits 1."""
    monkeypatch.setitem(cli_mod.PROFILES, "smoke", TINY_BENCH)
    out = tmp_path / "BENCH_voyager.json"
    base = ["bench", "--profile", "smoke", "--out", str(out)]
    assert main(base + ["--max-neural-sim-s", "1e9"]) == 0
    assert validate_report(json.loads(out.read_text())) == []
    assert "wrote" in capsys.readouterr().out

    out.unlink()
    assert main(base + ["--max-neural-sim-s", "-1"]) == 1
    assert "exceeds budget" in capsys.readouterr().err
    assert validate_report(json.loads(out.read_text())) == []


def test_bench_invalid_report_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        cli_mod, "run_bench", lambda *a, **k: {"schema_version": 0}
    )
    out = tmp_path / "BENCH_voyager.json"
    out.write_text('{"serving": {"streams": 4}}\n')
    before = out.read_bytes()
    assert main(["bench", "--profile", "smoke", "--out", str(out)]) == 1
    assert "error: invalid bench report" in capsys.readouterr().err
    assert out.read_bytes() == before


@pytest.mark.slow
def test_bench_smoke_writes_valid_report(tmp_path, capsys):
    out_path = tmp_path / "BENCH_voyager.json"
    rc = main(["bench", "--profile", "smoke", "--out", str(out_path)])
    assert rc == 0
    report = json.loads(out_path.read_text())
    assert report["schema_version"] == BENCH_SCHEMA_VERSION
    assert validate_report(report) == []
    assert len(report["workloads"]) >= 2
    assert "wrote" in capsys.readouterr().out


# ----------------------------------------------------------------------
# simulate/serve error paths: clean exits, never tracebacks
# ----------------------------------------------------------------------
@pytest.fixture
def tiny_checkpoint(stride_trace_file, tmp_path):
    prefix = tmp_path / "ckpt" / "model"
    rc = main(
        [
            "train",
            "--trace",
            str(stride_trace_file),
            "--steps",
            "5",
            "--hidden-dim",
            "8",
            "--embed-dim",
            "4",
            "--no-baselines",
            "--save",
            str(prefix),
        ]
    )
    assert rc == 0
    return prefix


def test_simulate_corrupt_checkpoint_npz_is_clean_error(
    stride_trace_file, tiny_checkpoint, capsys
):
    tiny_checkpoint.with_suffix(".npz").write_bytes(b"not a zip archive")
    rc = main(
        [
            "simulate",
            "--trace",
            str(stride_trace_file),
            "--checkpoint",
            str(tiny_checkpoint),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not a readable .npz" in err


def test_simulate_corrupt_checkpoint_meta_is_clean_error(
    stride_trace_file, tiny_checkpoint, capsys
):
    tiny_checkpoint.with_suffix(".vocab.json").write_text("{truncated")
    rc = main(
        [
            "simulate",
            "--trace",
            str(stride_trace_file),
            "--checkpoint",
            str(tiny_checkpoint),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not valid JSON" in err


def test_simulate_checkpoint_missing_meta_fields_is_clean_error(
    stride_trace_file, tiny_checkpoint, capsys
):
    tiny_checkpoint.with_suffix(".vocab.json").write_text(
        json.dumps({"schema_version": 1})
    )
    rc = main(
        [
            "simulate",
            "--trace",
            str(stride_trace_file),
            "--checkpoint",
            str(tiny_checkpoint),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_serve_missing_checkpoint_is_clean_error(
    stride_trace_file, tmp_path, capsys
):
    rc = main(
        [
            "serve",
            "--trace",
            str(stride_trace_file),
            "--checkpoint",
            str(tmp_path / "absent"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "incomplete" in err


def test_unknown_prefetcher_is_usage_error(stride_trace_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(
            [
                "simulate",
                "--trace",
                str(stride_trace_file),
                "--prefetcher",
                "psychic",
            ]
        )
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_adapt_bench_invalid_block_writes_nothing(tmp_path, capsys, monkeypatch):
    """``adapt --bench`` shape-checks its block before merging it."""
    run = {
        "frozen_coverage": 0.1,
        "adapted_coverage": 0.2,
        "rounds": 1,
        "swaps": 1,
        "model_version": 1,
        "max_lag_accesses": 3,
        "boundaries": [0, 100],
        "phases": [],
    }  # no mean_gain
    monkeypatch.setattr(
        cli_mod,
        "run_adaptation_bench",
        lambda *a, **k: {"config": {}, "workloads": {"multi_phase": run}},
    )
    out = tmp_path / "BENCH_voyager.json"
    out.write_text('{"serving": {"streams": 4}}\n')
    before = out.read_bytes()
    rc = main(
        [
            "adapt",
            "--bench",
            "--out",
            str(out),
            "--workdir",
            str(tmp_path / "work"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "mean_gain" in err
    assert out.read_bytes() == before


def no_run_bench(*args, **kwargs):
    raise AssertionError("flags must be checked before the sweep runs")


def test_bench_jobs_zero_is_clean_error(capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "run_bench", no_run_bench)
    rc = main(["bench", "--profile", "smoke", "--jobs", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "jobs" in err


def test_bench_bad_distill_sizes_is_clean_error(capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "run_bench", no_run_bench)
    rc = main(
        [
            "bench",
            "--profile",
            "smoke",
            "--distill-frontier",
            "--distill-table-sizes",
            "16,zero",
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--distill-table-sizes" in err


# ----------------------------------------------------------------------
# distill -> simulate --prefetcher table
# ----------------------------------------------------------------------
def test_distill_then_simulate_table(
    stride_trace_file, tiny_checkpoint, tmp_path, capsys
):
    table_path = tmp_path / "tables.json"
    rc = main(
        [
            "distill",
            "--trace",
            str(stride_trace_file),
            "--checkpoint",
            str(tiny_checkpoint),
            "--out",
            str(table_path),
            "--depth",
            "2",
            "--table-size",
            "512",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "distilled" in out and "wrote" in out
    assert table_path.exists()

    rc = main(
        [
            "simulate",
            "--trace",
            str(stride_trace_file),
            "--prefetcher",
            "table",
            "--table",
            str(table_path),
        ]
    )
    assert rc == 0
    assert "prefetcher=table" in capsys.readouterr().out


def test_distill_missing_checkpoint_is_clean_error(
    stride_trace_file, tmp_path, capsys
):
    rc = main(
        [
            "distill",
            "--trace",
            str(stride_trace_file),
            "--checkpoint",
            str(tmp_path / "absent"),
            "--out",
            str(tmp_path / "t.json"),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_distill_invalid_depth_is_clean_error(
    stride_trace_file, tiny_checkpoint, tmp_path, capsys
):
    rc = main(
        [
            "distill",
            "--trace",
            str(stride_trace_file),
            "--checkpoint",
            str(tiny_checkpoint),
            "--out",
            str(tmp_path / "t.json"),
            "--depth",
            "0",
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_table_without_table_file_is_clean_error(
    stride_trace_file, capsys
):
    rc = main(
        ["simulate", "--trace", str(stride_trace_file), "--prefetcher", "table"]
    )
    assert rc == 1
    assert "needs --table" in capsys.readouterr().err


def test_simulate_table_flag_without_table_prefetcher_is_clean_error(
    stride_trace_file, tmp_path, capsys
):
    rc = main(
        [
            "simulate",
            "--trace",
            str(stride_trace_file),
            "--prefetcher",
            "stride",
            "--table",
            str(tmp_path / "t.json"),
        ]
    )
    assert rc == 1
    assert "only makes sense" in capsys.readouterr().err


def test_simulate_corrupt_table_file_is_clean_error(
    stride_trace_file, tmp_path, capsys
):
    table_path = tmp_path / "t.json"
    table_path.write_text("[1, 2, 3]")
    rc = main(
        [
            "simulate",
            "--trace",
            str(stride_trace_file),
            "--prefetcher",
            "table",
            "--table",
            str(table_path),
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_workloads_json_listing(capsys):
    assert main(["workloads", "--json"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert isinstance(listing, list)
    names = {entry["name"] for entry in listing}
    assert {"stride", "page_cycle", "random_walk"} <= names
    assert all(entry["description"] for entry in listing)
    # the human listing still works and covers the same registry
    assert main(["workloads"]) == 0
    human = capsys.readouterr().out
    assert all(name in human for name in names)
