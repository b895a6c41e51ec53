"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_list(capsys):
    code, out = run_cli(capsys, "list")
    assert code == 0
    assert "SobelFilter" in out
    assert "Affine+RLPV" in out
    assert out.count("\n") > 34


def test_params(capsys):
    code, out = run_cli(capsys, "params")
    assert code == 0
    assert "700 MHz" in out
    assert "Reuse buffer" in out


def test_run(capsys):
    code, out = run_cli(capsys, "run", "HT", "--model", "RLPV", "--sms", "1")
    assert code == 0
    assert "reused instructions" in out
    assert "VSB hit rate" in out


def test_run_base_has_no_wir_section(capsys):
    code, out = run_cli(capsys, "run", "HT", "--model", "Base", "--sms", "1")
    assert code == 0
    assert "VSB hit rate" not in out


def test_compare(capsys):
    code, out = run_cli(capsys, "compare", "DW", "--sms", "1")
    assert code == 0
    for model in ("Base", "RLPV", "NoVSB", "Affine+RLPV"):
        assert model in out


def test_profile(capsys):
    code, out = run_cli(capsys, "profile", "DW", "--sms", "1")
    assert code == 0
    assert "repeated computations" in out


def test_trace_stalls_table(capsys):
    code, out = run_cli(capsys, "trace", "vectoradd", "--sms", "1", "--stalls")
    assert code == 0
    assert "resident_warp_cycles" in out
    assert "100.0%" in out
    for reason in ("issued", "memory_pending", "scoreboard_raw"):
        assert reason in out


def test_trace_chrome_export(capsys, tmp_path):
    import json

    out_file = tmp_path / "trace.json"
    code, out = run_cli(capsys, "trace", "vectoradd", "--sms", "1",
                        "--chrome", str(out_file))
    assert code == 0
    assert f"wrote {out_file}" in out
    trace = json.loads(out_file.read_text())
    assert trace["traceEvents"]
    from repro.trace import validate_chrome_trace
    assert validate_chrome_trace(trace) == []


def test_trace_accepts_table1_benchmark(capsys):
    code, out = run_cli(capsys, "trace", "GA", "--sms", "1", "--stalls")
    assert code == 0
    assert "GA on RLPV" in out


def test_trace_rejects_unknown_benchmark():
    with pytest.raises(SystemExit):
        main(["trace", "ZZ"])


def test_trace_ring_capacity_flag(capsys, tmp_path):
    out_file = tmp_path / "trace.json"
    code, out = run_cli(capsys, "trace", "vectoradd", "--sms", "1",
                        "--ring-capacity", "128", "--chrome", str(out_file))
    assert code == 0
    assert "dropped at ring capacity 128" in out


def test_vectoradd_not_in_table1_suite():
    # The demo kernel must never leak into the 34-benchmark figure sweeps.
    from repro.workloads import all_abbrs, get_workload

    assert "vectoradd" not in all_abbrs()
    assert len(all_abbrs()) == 34
    assert get_workload("vectoradd").suite == "demo"


def test_experiment_series(capsys, monkeypatch):
    # Full-suite drivers are heavy; stub one in to exercise the rendering
    # paths end to end.
    import repro.cli as cli

    monkeypatch.setitem(cli.EXPERIMENTS, "fig20",
                        (lambda: {16: 0.1, 32: 0.2}, "series", False))
    monkeypatch.setitem(cli.EXPERIMENTS, "fig17",
                        (lambda: {"SF": {"RLPV": 1.1}}, "per-benchmark", False))
    code, out = run_cli(capsys, "experiment", "fig20")
    assert code == 0 and "0.200" in out
    code, out = run_cli(capsys, "experiment", "fig17")
    assert code == 0 and "SF" in out


def test_experiment_unknown(capsys):
    code = main(["experiment", "fig99"])
    assert code == 2


def test_bad_benchmark_rejected():
    with pytest.raises(SystemExit):
        main(["run", "ZZ"])


def test_pipeline_show(capsys):
    code, out = run_cli(capsys, "pipeline", "show", "--model", "RLPV",
                        "--engine", "fast")
    assert code == 0
    assert "7 stages" in out
    for stage in ("select", "rename", "reuse_probe", "operand_read",
                  "execute", "allocate_verify", "writeback_retire"):
        assert stage in out
    assert "fused fast_pick/ready_fast" in out
    assert "fast engine kernels" in out


def test_pipeline_show_json(capsys):
    import json

    code, out = run_cli(capsys, "pipeline", "show", "--model", "Base",
                        "--json", "-")
    assert code == 0
    stages = json.loads(out)
    assert [desc["name"] for desc in stages][:2] == ["select", "rename"]
    assert stages[4]["binding"] == "fast engine kernels"


def test_parser_structure():
    parser = build_parser()
    args = parser.parse_args(["run", "SF", "--model", "R", "--scale", "2"])
    assert args.benchmark == "SF"
    assert args.model == "R"
    assert args.scale == 2


def test_check(capsys):
    code, out = run_cli(capsys, "check", "GA", "BP", "--sms", "1")
    assert code == 0
    assert out.count("OK") == 2
    assert "2/2 benchmarks verified against the golden model (RLPV)" in out


def test_check_unknown_benchmark(capsys):
    code = main(["check", "ZZ"])
    assert code == 2


def test_check_requires_a_target(capsys):
    code = main(["check"])
    assert code == 2


def test_cache_verify_reports_corruption(capsys, tmp_path):
    from repro.harness.runner import clear_cache, run_benchmark, set_cache_dir

    try:
        set_cache_dir(tmp_path)
        clear_cache()
        run_benchmark("GA", "Base", num_sms=1)
        entry = next(tmp_path.glob("*/*.json"))
        entry.write_text(entry.read_text()[:30])

        code, out = run_cli(capsys, "cache", "verify", "--dir", str(tmp_path))
        assert code == 1
        assert "1 corrupt" in out

        code, out = run_cli(capsys, "cache", "verify", "--dir", str(tmp_path),
                            "--prune")
        assert code == 0
        assert "pruned 1 corrupt entry" in out
        assert not entry.exists()
    finally:
        set_cache_dir(None)
        clear_cache()


def test_cache_verify_prunes_unaddressable_entries(capsys, tmp_path):
    from repro.harness.runner import clear_cache, run_benchmark, set_cache_dir

    try:
        set_cache_dir(tmp_path)
        clear_cache()
        run_benchmark("GA", "Base", num_sms=1)
        entry = next(tmp_path.glob("*/*.json"))
        stray = entry.parent / ("f" * 64 + ".json")
        stray.write_text(entry.read_text())

        code, out = run_cli(capsys, "cache", "verify", "--dir", str(tmp_path))
        assert code == 0
        assert "1 ok" in out and "1 unaddressable" in out

        code, out = run_cli(capsys, "cache", "verify", "--dir", str(tmp_path),
                            "--prune")
        assert "pruned 1 unaddressable entry" in out
        assert not stray.exists() and entry.exists()
    finally:
        set_cache_dir(None)
        clear_cache()


def test_cache_verify_without_dir(capsys, monkeypatch):
    from repro.harness.runner import set_cache_dir

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    set_cache_dir(None)
    code = main(["cache", "verify"])
    assert code == 2


def test_bench_parser_defaults():
    args = build_parser().parse_args(["bench"])
    assert args.reps == 3 and not args.check and not args.quick
    args = build_parser().parse_args(
        ["bench", "--quick", "--check", "--baseline", "b.json", "--out", "o"])
    assert args.quick and args.check and args.baseline == "b.json"


def test_bench_check_without_baseline_errors(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["bench", "--quick", "--check", "--baseline",
                 str(tmp_path / "missing.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert "no baseline" in captured.err


@pytest.mark.tier2
def test_bench_quick_end_to_end(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, text = run_cli(capsys, "bench", "--quick", "--out", str(out))
    assert code == 0
    assert "RLPV fast speedup" in text
    assert out.exists()


# ------------------------------------------------------------- campaigns


@pytest.fixture
def _campaign_cache():
    """CLI campaign commands mutate the process-global cache dir."""
    from repro.harness.runner import clear_cache, set_cache_dir

    clear_cache()
    yield
    clear_cache()
    set_cache_dir(None)


def test_campaign_run_rejects_unknown_benchmark(tmp_path, _campaign_cache):
    with pytest.raises(SystemExit, match="unknown benchmark"):
        main(["campaign", "run", "--dir", str(tmp_path),
              "--benchmarks", "ZZ"])


def test_campaign_run_requires_benchmarks(tmp_path, _campaign_cache):
    with pytest.raises(SystemExit, match="--benchmarks"):
        main(["campaign", "run", "--dir", str(tmp_path)])


def test_campaign_status_and_work_cycle(capsys, tmp_path, _campaign_cache):
    """Materialize, inspect, drain with one CLI worker, re-inspect:
    status speaks for the directory at every stage."""
    from repro.campaign import Campaign, MatrixSpec

    Campaign.create(MatrixSpec.make(["GA"], num_sms=1), base=tmp_path,
                    checkpoint_every=400)

    # One campaign exists: status auto-selects it, and it is all pending.
    code, out = run_cli(capsys, "campaign", "status", "--dir", str(tmp_path))
    assert code == 1  # not complete yet
    assert "1 pending" in out

    from repro.campaign import list_campaigns
    (campaign_id,) = list_campaigns(tmp_path)

    # Drain it with one worker process entry point.
    code, out = run_cli(capsys, "campaign", "work", "--dir", str(tmp_path),
                        "--id", campaign_id, "--worker-id", "w0")
    assert code == 0
    assert "drained" in out and "1 completed" in out

    code, out = run_cli(capsys, "campaign", "status", "--dir", str(tmp_path),
                        campaign_id, "--json", "-")
    assert code == 0
    assert "1 done" in out
    payload = json.loads(out[out.index("{"):])
    assert payload["complete"] is True
    assert payload["counts"]["done"] == 1
    assert payload["failures"] == []


def _campaign_cli_error(capsys, *argv) -> str:
    """Run a campaign command expected to fail; return its stderr."""
    code = main(["campaign", *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("campaign: ") and err.count("\n") == 1
    return err


def test_campaign_status_unknown_id(capsys, tmp_path, _campaign_cache):
    err = _campaign_cli_error(capsys, "status", "--dir", str(tmp_path),
                              "feedfeedfeed")
    assert "no campaign 'feedfeedfeed'" in err


def test_campaign_resume_unknown_id(capsys, tmp_path, _campaign_cache):
    err = _campaign_cli_error(capsys, "resume", "--dir", str(tmp_path),
                              "feedfeedfeed")
    assert "no campaign 'feedfeedfeed'" in err


def test_campaign_work_unknown_id(capsys, tmp_path, _campaign_cache):
    err = _campaign_cli_error(capsys, "work", "--dir", str(tmp_path),
                              "--id", "nope", "--worker-id", "w0")
    assert "no campaign 'nope'" in err


def test_campaign_work_malformed_chaos(capsys, tmp_path, _campaign_cache):
    from repro.campaign import Campaign, MatrixSpec

    campaign = Campaign.create(MatrixSpec.make(["GA"], num_sms=1),
                               base=tmp_path)
    err = _campaign_cli_error(capsys, "work", "--dir", str(tmp_path),
                              "--id", campaign.id, "--worker-id", "w0",
                              "--chaos", "bogus")
    assert "malformed chaos spec 'bogus'" in err


def test_campaign_old_manifest_is_one_line(capsys, tmp_path,
                                           _campaign_cache):
    from repro.campaign import Campaign, MatrixSpec

    campaign = Campaign.create(MatrixSpec.make(["GA"], num_sms=1),
                               base=tmp_path)
    manifest_path = campaign.root / "campaign.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["version"] = 1
    manifest_path.write_text(json.dumps(manifest))
    for command in ("status", "resume"):
        err = _campaign_cli_error(capsys, command, "--dir", str(tmp_path),
                                  campaign.id)
        assert "manifest version 1" in err


def test_campaign_run_zero_cadence_is_one_line(capsys, tmp_path,
                                               _campaign_cache):
    err = _campaign_cli_error(capsys, "run", "--dir", str(tmp_path),
                              "--benchmarks", "GA", "--sms", "1",
                              "--checkpoint-every", "0")
    assert "checkpoint_every must be at least 1" in err
    assert not list(tmp_path.glob("campaign/*"))  # no manifest written


def test_campaign_status_without_campaigns(capsys, tmp_path, _campaign_cache):
    code, out = run_cli(capsys, "campaign", "status", "--dir", str(tmp_path))
    assert code == 1
    assert "none" in out


def test_cache_verify_reports_campaign_debris(capsys, tmp_path):
    import time as _time

    leases = tmp_path / "campaign" / "feedfeedfeed" / "leases"
    leases.mkdir(parents=True)
    (leases / "stale.json").write_text(json.dumps(
        {"job": "stale", "owner": "w0", "attempt": 1,
         "expires": _time.time() - 5.0}))
    (tmp_path / "ckpt").mkdir()
    (tmp_path / "ckpt" / ("ab" * 32 + ".ckpt.json")).write_text("{broken")

    code, out = run_cli(capsys, "cache", "verify", "--dir", str(tmp_path))
    assert "campaign debris: 1 orphaned checkpoint slot, " \
           "1 expired lease file" in out

    code, out = run_cli(capsys, "cache", "verify", "--dir", str(tmp_path),
                        "--prune")
    assert not list(tmp_path.glob("ckpt/*.ckpt.json"))
    assert not list(leases.glob("*.json"))
