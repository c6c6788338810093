"""Tests for the CLI entry point (fast experiments only)."""

import json

import pytest

from repro.harness.cli import VERBS, main


def test_models_command(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    assert "Eqs. 6/7/9" in out
    assert "gpu-lockfree" in out


def test_extensions_command(capsys):
    assert main(["extensions", "--rounds", "20"]) == 0
    out = capsys.readouterr().out
    assert "gpu-dissemination" in out
    assert "gpu-sense-reversal" in out


def test_fig11_command_with_rounds(capsys):
    assert main(["fig11", "--rounds", "5"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 11" in out
    assert "cpu-explicit" in out


def test_trace_command(tmp_path, capsys):
    out_file = tmp_path / "t.json"
    assert (
        main(
            ["trace", "--strategy", "gpu-simple", "--blocks", "4",
             "--out", str(out_file)]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "verified=True" in out
    data = json.loads(out_file.read_text())
    assert data["traceEvents"]


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_fig11_plot_flag(capsys):
    assert main(["fig11", "--rounds", "5", "--plot"]) == 0
    out = capsys.readouterr().out
    assert "sync time" in out  # the ASCII chart section
    assert "|" in out  # chart rails


def test_composition_command(capsys):
    assert main(["composition"]) == 0
    out = capsys.readouterr().out
    assert "Figs. 7/10" in out
    assert "gpu-simple" in out


def test_diff_command(tmp_path, capsys):
    out_dir = tmp_path / "sweeps"
    main(["fig11", "--rounds", "5", "--save-sweeps", str(out_dir)])
    capsys.readouterr()
    base = str(out_dir / "fig11.json")
    # Identical files: exit 0, no drift.
    assert main(["diff", "--baseline", base, "--current", base]) == 0
    assert "no drift" in capsys.readouterr().out
    # Tampered copy: exit 1, drift listed.
    import json

    payload = json.loads((out_dir / "fig11.json").read_text())
    payload["totals"]["cpu-implicit"][0] += 999
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(payload))
    assert main(["diff", "--baseline", base, "--current", str(tampered)]) == 1
    assert "drifted point" in capsys.readouterr().out


def test_diff_requires_paths():
    with pytest.raises(SystemExit):
        main(["diff"])


def test_save_sweeps_option(tmp_path, capsys):
    out_dir = tmp_path / "sweeps"
    assert main(["fig11", "--rounds", "5", "--save-sweeps", str(out_dir)]) == 0
    capsys.readouterr()
    assert (out_dir / "fig11.json").exists()
    assert (out_dir / "fig11.csv").exists()
    assert (out_dir / "fig11_sync.csv").exists()

    from repro.harness.store import load_sweep

    sweep = load_sweep(out_dir / "fig11.json")
    assert sweep.algorithm == "micro"
    assert len(sweep.blocks) == 30


def test_all_renders_figs_13_and_14_from_one_sweep(tmp_path, capsys, monkeypatch):
    """``all`` sweeps each algorithm once for both figures, with the same
    stdout and saved sweeps as separate fig13 and fig14 runs."""
    from repro.algorithms import FFT, BitonicSort, SmithWaterman
    from repro.harness import cli, experiments

    for name, make in (
        ("fft", lambda: FFT(n=64)),
        ("swat", lambda: SmithWaterman(12, 12)),
        ("bitonic", lambda: BitonicSort(n=64)),
    ):
        monkeypatch.setitem(experiments.ALGORITHM_FACTORIES, name, make)
    real_sweep = experiments.algorithm_sweep
    swept = []

    def tiny_sweep(algorithm_name, *args, **kwargs):
        swept.append(algorithm_name)
        return real_sweep(algorithm_name, *args, blocks=[2, 5], **kwargs)

    monkeypatch.setattr(experiments, "algorithm_sweep", tiny_sweep)
    monkeypatch.setattr(cli, "VERBS", tuple(
        v for v in VERBS if v.name in ("fig13", "fig14", "all")
    ))

    assert main(["all", "--save-sweeps", str(tmp_path / "all")]) == 0
    together = capsys.readouterr().out
    assert swept == ["fft", "swat", "bitonic"]

    apart = []
    for fig in ("fig13", "fig14"):
        assert main([fig, "--save-sweeps", str(tmp_path / "apart")]) == 0
        apart.append(capsys.readouterr().out)
    assert len(swept) == 3 + 6
    assert together == "\n\n".join(o.rstrip("\n") for o in apart) + "\n"
    saved = sorted(p.name for p in (tmp_path / "all").iterdir())
    assert saved == sorted(p.name for p in (tmp_path / "apart").iterdir())
    assert {name[:5] for name in saved} == {"fig13", "fig14"}
    for name in saved:
        assert (tmp_path / "all" / name).read_bytes() == (
            tmp_path / "apart" / name
        ).read_bytes()


def test_chaos_command_clean_exit(capsys):
    assert main(["chaos", "--strategy", "gpu-lockfree", "--plans", "6"]) == 0
    out = capsys.readouterr().out
    assert "chaos campaign: gpu-lockfree" in out
    assert "verdict      CLEAN" in out


def test_chaos_command_all_sweeps_device_and_host(capsys):
    assert main(["chaos", "--strategy", "all", "--plans", "3"]) == 0
    out = capsys.readouterr().out
    assert "gpu-simple" in out
    assert "cpu-implicit" in out


def test_chaos_command_unknown_strategy_fails(capsys):
    assert main(["chaos", "--strategy", "no-such", "--plans", "2"]) == 1
    out = capsys.readouterr().out
    assert "UNEXPLAINED" in out


def test_journal_flag_writes_journal(tmp_path, capsys):
    jdir = tmp_path / "journal"
    assert (
        main(["fig11", "--rounds", "5", "--journal",
              "--journal-dir", str(jdir)])
        == 0
    )
    journals = list(jdir.glob("*/journal.jsonl"))
    assert len(journals) == 1


def test_resume_flag_replays_bit_identical(tmp_path, capsys):
    jdir = tmp_path / "journal"
    argv = ["fig11", "--rounds", "5", "--journal", "--journal-dir", str(jdir)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    # --resume with no run-id resumes whatever journal matches the batch.
    assert main(argv + ["--resume"]) == 0
    assert capsys.readouterr().out == first


def test_resume_wrong_run_id_is_typed(tmp_path, capsys):
    jdir = tmp_path / "journal"
    assert main(["fig11", "--rounds", "5", "--journal-dir", str(jdir),
                 "--resume", "0" * 16]) == 1
    assert capsys.readouterr().err.startswith("fig11: cannot resume")


def test_interrupted_sweep_exits_130(tmp_path, capsys, monkeypatch):
    import signal

    from repro.parallel import Executor

    jdir = tmp_path / "journal"
    original = Executor.map

    def tripping_map(self, worker, payloads, *, resume=None):
        def tripwire(done, total, cached):
            if done == 3:
                signal.raise_signal(signal.SIGINT)

        self.progress = tripwire
        return original(self, worker, payloads, resume=resume)

    monkeypatch.setattr(Executor, "map", tripping_map)
    code = main(["fig11", "--rounds", "5", "--journal",
                 "--journal-dir", str(jdir)])
    assert code == 130
    err = capsys.readouterr().err
    assert "interrupted" in err
    assert "resume with: --resume" in err

    # The hint works: resuming completes the sweep cleanly.
    monkeypatch.setattr(Executor, "map", original)
    run_id = err.split("--resume")[-1].strip()
    assert main(["fig11", "--rounds", "5", "--journal-dir", str(jdir),
                 "--resume", run_id]) == 0


# -- the tune verb ------------------------------------------------------------


def test_tune_command_advisory_exits_zero(capsys):
    code = main(["tune", "--rounds", "100", "--blocks", "30",
                 "--strategy", "gpu-simple"])
    assert code == 0
    out = capsys.readouterr().out
    assert "recommended: gpu-lockfree" in out
    assert "[SC100 advice]" in out


def test_tune_strict_gates_on_suboptimal_strategy(capsys):
    assert main(["tune", "--rounds", "100", "--blocks", "30",
                 "--strategy", "gpu-simple", "--strict"]) == 1
    capsys.readouterr()
    assert main(["tune", "--rounds", "100", "--blocks", "30",
                 "--strategy", "gpu-lockfree", "--strict"]) == 0


def test_tune_recommendation_flips_with_preset(capsys):
    assert main(["tune", "--rounds", "100", "--blocks", "4",
                 "--strategy", "gpu-simple"]) == 0
    assert "matches the cost-model recommendation" in capsys.readouterr().out
    assert main(["tune", "--rounds", "100", "--blocks", "4",
                 "--strategy", "gpu-simple", "--preset", "dual_gpu"]) == 0
    assert "[SC100 advice]" in capsys.readouterr().out


def test_tune_json_envelope(capsys):
    assert main(["tune", "--rounds", "100", "--blocks", "30",
                 "--strategy", "gpu-simple", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "tune-report"
    assert payload["recommended"] == "gpu-lockfree"
    assert payload["advisory"]["code"] == "SC100"


def test_tune_measure_runs_the_sweep(capsys):
    assert main(["tune", "--rounds", "10", "--blocks", "4",
                 "--strategy", "gpu-lockfree", "--measure"]) == 0
    out = capsys.readouterr().out
    assert "measured sync overhead" in out


def test_tune_unknown_strategy_fails(capsys):
    assert main(["tune", "--strategy", "gpu-sense-reversal"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tune: ")
    assert "unmodeled" in err


# -- the verb table -----------------------------------------------------------


@pytest.mark.parametrize("verb", [v.name for v in VERBS])
def test_every_verb_has_help(verb, capsys):
    with pytest.raises(SystemExit) as exc:
        main([verb, "--help"])
    assert exc.value.code == 0
    assert f"repro-harness {verb}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["fig11", "--plans", "3"],
        ["models", "--cache"],
        ["serve", "--preset", "gtx280"],
        ["table1", "--strategy", "gpu-simple"],
        ["diff", "--jobs", "2", "--baseline", "a", "--current", "b"],
    ],
)
def test_flag_of_another_verb_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["fig11", "--rounds", "0"],
        ["trace", "--blocks", "0"],
        ["extensions", "--rounds", "0"],
        ["diff", "--baseline", "/missing.json", "--current", "/missing.json"],
        ["crashtest", "--crash-points", "nope"],
        ["fig13", "--step", "0", "--algorithms", "fft"],
        ["fig11", "--rounds", "2", "--jobs", "0"],
        ["fig11", "--rounds", "2", "--jobs", "-1"],
    ],
)
def test_bad_input_is_a_typed_failure(argv, capsys):
    """A bad value exits 1 (typed error) or 2 (usage error) with a
    one-line message naming the verb or flag, never a traceback."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (1, 2)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines()[-1].startswith(
        f"{argv[0]}: " if code == 1 else "repro-harness"
    )
