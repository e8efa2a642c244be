"""Command-line interface."""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def usage_error(capsys, *argv) -> str:
    """The stderr of a command argparse refuses (exit 2, no traceback)."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "Traceback" not in err
    return err


def _options(parser: argparse.ArgumentParser, path: str):
    """``(command path, option, action)`` for every option of ``parser``
    and of its subcommands, at any depth."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _options(sub, f"{path} {name}")
        elif action.option_strings:
            yield path, action.option_strings[-1], action


def _is_numeric(kind) -> bool:
    try:
        value = kind("1")
    except (ValueError, TypeError, argparse.ArgumentTypeError):
        return False
    values = value if isinstance(value, tuple) else (value,)
    return all(isinstance(v, (int, float)) and not isinstance(v, bool)
               for v in values)


def test_every_numeric_option_uses_a_checked_type():
    """An int, float or int-list option refuses a negative, NaN or
    infinite value at parse time, so a bad input exits 2 before any
    simulation runs. Walks the parser only; runs no command."""
    plain = []
    numeric = 0
    for path, option, action in _options(build_parser(), "repro"):
        if action.type is None or not _is_numeric(action.type):
            continue
        numeric += 1
        for text in ("-1", "nan", "inf"):
            try:
                action.type(text)
            except (ValueError, argparse.ArgumentTypeError):
                continue
            plain.append(f"{path} {option} accepts {text}")
    assert numeric >= 40
    assert plain == []


def test_nullkernel_command(capsys):
    code, out = run_cli(capsys, "nullkernel")
    assert code == 0
    assert "2771.6" in out and "GH200" in out


def test_profile_command(capsys):
    code, out = run_cli(capsys, "profile", "--model", "gpt2",
                        "--platform", "Intel+H100", "--batch-size", "1")
    assert code == 0
    assert "TKLQT" in out
    assert "classification" in out


def test_profile_with_mode(capsys):
    code, out = run_cli(capsys, "profile", "--model", "gpt2",
                        "--mode", "flash_attention")
    assert code == 0
    assert "gpt2" in out


def test_sweep_command(capsys):
    code, out = run_cli(capsys, "sweep", "--model", "bert-base-uncased",
                        "--platform", "GH200",
                        "--batches", "1,2,4,8,16,32,64")
    assert code == 0
    assert "star" in out


def test_fusion_command(capsys):
    code, out = run_cli(capsys, "fusion", "--model", "xlm-roberta-base")
    assert code == 0
    assert "speedup" in out


def test_whatif_command(capsys):
    code, out = run_cli(capsys, "whatif", "--model", "bert-base-uncased",
                        "--platform", "GH200", "--reference", "Intel+H100")
    assert code == 0
    assert "CPU speedup" in out


def test_memory_command_fits(capsys):
    code, out = run_cli(capsys, "memory", "--model", "gpt2",
                        "--platform", "Intel+H100", "--batch-size", "8")
    assert code == 0
    assert "fits        : yes" in out


def test_memory_command_overflow(capsys):
    code, out = run_cli(capsys, "memory", "--model", "llama-2-7b",
                        "--platform", "Intel+H100",
                        "--batch-size", "512", "--seq-len", "2048")
    assert code == 1
    assert "NO" in out


def test_export_json(capsys, tmp_path):
    out = tmp_path / "sweep.json"
    code, text = run_cli(capsys, "export", "--model", "gpt2",
                         "--platform", "Intel+H100", "--batches", "1,2",
                         "--out", str(out))
    assert code == 0
    assert "2 sweep points" in text
    assert out.exists()


def test_export_csv(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, _ = run_cli(capsys, "export", "--model", "gpt2",
                      "--platform", "GH200", "--batches", "1,4",
                      "--out", str(out))
    assert code == 0
    assert out.read_text().startswith("model,platform")


def test_timeline_command(capsys):
    code, out = run_cli(capsys, "timeline", "--model", "gpt2",
                        "--batch-size", "1", "--seq-len", "128")
    assert code == 0
    assert "cpu ops" in out and "gpu" in out and "#" in out


def test_unknown_model_exits_cleanly(capsys):
    code = main(["profile", "--model", "not-a-model"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: unknown model")
    assert "Traceback" not in err


def test_invalid_tp_degree_exits_cleanly(capsys):
    code = main(["run", "--model", "gpt2", "--tp", "5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "does not divide gpt2's 12 attention heads" in err
    assert "valid degrees: 1, 2, 3, 4, 6, 12" in err


def test_missing_subcommand_exits():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("argv", [
    ["tpsweep", "--degrees", "abc"],
    ["tpsweep", "--degrees", "1,,2"],
    ["sweep", "--batches", "1,x"],
    ["export", "--out", "unused.json", "--batches", "1,x"],
    ["hostsweep", "--counts", "1,x"],
    ["kvpressure", "--pools", "x"],
    ["kvpressure", "--policies", "bogus"],
    ["check", "graph", "--degrees", "x"],
    ["check", "schedule", "--degrees", "x"],
    ["check", "graph", "--degrees", "0"],
    ["check", "schedule", "--degrees", "2,0"],
    ["tpsweep", "--degrees", "-1"],
], ids=" ".join)
def test_malformed_list_option_is_a_usage_error(capsys, argv):
    """A bad entry in a comma-separated option fails at parse time."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "usage:" in err
    assert f"argument {argv[-2]}: expected comma-separated" in err
    assert "Traceback" not in err


@pytest.fixture
def deadline():
    """Fail a call that runs past a few seconds rather than hang on it."""
    def expire(signum, frame):
        raise TimeoutError("still running after 5 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("argv", [
    ["serve", "--rate", "nan"],
    ["serve", "--duration", "nan"],
    ["serve", "--arrival", "poisson", "--rate", "nan"],
    ["serve", "--arrival", "poisson", "--duration", "nan"],
    ["kvpressure", "--rate", "nan"],
    ["kvpressure", "--duration", "nan"],
    ["serve", "--rate", "inf"],
    ["serve", "--duration", "inf"],
    ["serve", "--arrival", "poisson", "--duration", "inf"],
], ids=" ".join)
def test_non_finite_rate_or_duration_is_a_configuration_error(
        capsys, deadline, argv):
    """A NaN or infinite rate or duration fails its checked type at parse
    time instead of generating arrivals forever."""
    err = usage_error(capsys, *argv)
    assert f"argument {argv[-2]}:" in err


@pytest.mark.parametrize("argv", [
    ["serve", "--kv-policy", "offload", "--kv-pool-gib", "nan"],
    ["kvpressure", "--pools", "nan"],
    ["kvpressure", "--slo-ms", "nan"],
    ["hostsweep", "--knee-fraction", "nan"],
    ["timeline", "--window-fraction", "nan"],
    ["fusion", "--threshold", "nan"],
    ["serve", "--prefix-share", "nan"],
], ids=" ".join)
def test_nan_option_is_a_usage_error(capsys, deadline, argv):
    """A NaN size, SLO or fraction fails its checked type at parse time
    instead of raising deep in the run or printing nonsense."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument {argv[-2]}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["serve", "--output-tokens", "0", "--duration", "0.1"],
    ["serve", "--prompt-len", "0", "--duration", "0.1"],
    ["serve", "--prompt-len", "-5", "--duration", "0.1"],
    ["kvpressure", "--output-tokens", "0"],
    ["kvpressure", "--prompt-len", "0"],
    ["hostsweep", "--output-tokens", "0"],
    ["hostsweep", "--prompt-len", "0"],
    ["fusion", "--threshold", "0"],
    ["fusion", "--threshold", "1.5"],
    ["serve", "--prefix-share", "-0.1"],
    ["serve", "--sessions", "-1", "--duration", "0.1"],
    ["hostsweep", "--requests", "0"],
    ["serve", "--host-cores", "-1"],
    ["serve", "--numa", "-1", "--host-cores", "2"],
], ids=" ".join)
def test_out_of_range_option_is_a_usage_error(capsys, deadline, argv):
    """A non-positive length, a negative session count, host core count or
    NUMA domain, an empty hostsweep burst, or a threshold or share outside
    its range, fails its checked type at parse time; before, a zero or negative length was clamped to 1
    and the run exited 0, a negative session count raised a ``randrange``
    traceback, and an empty burst failed on a rate and duration that
    ``hostsweep`` has no option for."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"argument {argv[1]}:" in err
    assert "Traceback" not in err


def test_zero_sessions_is_the_valid_default():
    args = build_parser().parse_args(["serve", "--sessions", "0"])
    assert args.sessions == 0 == build_parser().parse_args(
        ["serve"]).sessions


def test_serve_command_summary(capsys):
    code, out = run_cli(capsys, "serve", "--rate", "20", "--duration", "0.2",
                        "--prompt-len", "64", "--output-tokens", "3")
    assert code == 0
    assert "TTFT" in out and "requests completed" in out


def test_serve_command_timeline(capsys):
    code, out = run_cli(capsys, "serve", "--rate", "20", "--duration", "0.2",
                        "--prompt-len", "64", "--output-tokens", "3",
                        "--timeline", "--width", "60")
    assert code == 0
    assert "serving timeline" in out and "legend" in out


def test_serve_static_scenario(capsys):
    code, out = run_cli(capsys, "serve", "--scenario", "static",
                        "--rate", "20", "--duration", "0.2",
                        "--prompt-len", "64", "--output-tokens", "3",
                        "--max-active", "4")
    assert code == 0
    assert "static serving" in out


def test_serve_emit_trace_and_skip_analyze(capsys, tmp_path):
    out_path = tmp_path / "trace.json"
    code, out = run_cli(capsys, "serve", "--rate", "15", "--duration", "0.2",
                        "--prompt-len", "64", "--output-tokens", "2",
                        "--emit-trace", str(out_path))
    assert code == 0
    assert out_path.exists()
    assert "wrote" in out

    code, out = run_cli(capsys, "skip", "analyze", str(out_path))
    assert code == 0
    assert "TKLQT" in out and "classification" in out


def test_run_refuses_shapes_that_cannot_fit(capsys):
    code = main(["run", "--model", "llama-2-7b", "--platform", "AMD+A100",
                 "--batch-size", "128", "--seq-len", "2048"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    assert "repro memory" in err and "--ignore-memory" in err


def test_run_ignore_memory_escape_hatch(capsys):
    code, out = run_cli(capsys, "run", "--model", "llama-2-7b",
                        "--platform", "AMD+A100", "--batch-size", "128",
                        "--seq-len", "2048", "--ignore-memory")
    assert code == 0
    assert "TKLQT" in out


def test_sweep_refuses_batches_that_cannot_fit(capsys):
    code = main(["sweep", "--model", "llama-2-7b", "--platform", "AMD+A100",
                 "--seq-len", "2048", "--batches", "1,128"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--ignore-memory" in err


def test_serve_with_kv_offload_reports_the_pool(capsys):
    code, out = run_cli(capsys, "serve", "--model", "gpt2",
                        "--platform", "GH200", "--rate", "40",
                        "--duration", "0.3", "--prompt-len", "512",
                        "--output-tokens", "128", "--max-active", "8",
                        "--kv-policy", "offload", "--kv-pool-gib", "0.04")
    assert code == 0
    assert "kv pool r0" in out
    assert "swaps=0+0" not in out  # the pool is tight enough to swap


def test_serve_kv_pool_without_policy_exits_cleanly(capsys):
    code = main(["serve", "--rate", "20", "--duration", "0.2",
                 "--kv-pool-gib", "0.1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--kv-policy recompute" in err


def test_kvpressure_command(capsys):
    code, out = run_cli(capsys, "kvpressure", "--model", "gpt2",
                        "--platforms", "GH200", "--pools", "0.04",
                        "--policies", "offload", "--prompt-len", "512",
                        "--output-tokens", "128", "--rate", "40",
                        "--duration", "0.2", "--max-active", "8",
                        "--mode", "eager")
    assert code == 0
    assert "tokens/s vs KV pool size" in out
    assert "swaps=" in out


def test_skip_analyze_with_fusion(capsys, tmp_path):
    out_path = tmp_path / "trace.json"
    run_cli(capsys, "serve", "--rate", "15", "--duration", "0.15",
            "--prompt-len", "64", "--output-tokens", "2",
            "--emit-trace", str(out_path))
    code, out = run_cli(capsys, "skip", "analyze", str(out_path), "--fusion")
    assert code == 0
    assert "speedup" in out


def test_skip_analyze_into_a_closed_pipe_exits_quietly(tmp_path):
    from repro.engine import EngineConfig, run
    from repro.hardware import INTEL_H100
    from repro.trace import chrome
    from repro.workloads import GPT2

    trace_path = tmp_path / "trace.json"
    chrome.dump(run(GPT2, INTEL_H100, seq_len=64,
                    config=EngineConfig(iterations=1)).trace, trace_path)
    # The reader is gone before the first write, as after `| head -1`
    # once head has its line.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(__file__).resolve().parent.parent / "src"
    try:
        result = subprocess.run(
            [sys.executable, "-m", "repro", "skip", "analyze",
             str(trace_path), "--fusion"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)})
    finally:
        os.close(write_end)
    assert result.stderr == b""
    assert result.returncode == 1


def test_serve_record_sample_rejects_zero(capsys):
    err = usage_error(capsys, "serve", "--rate", "20", "--duration", "0.2",
                      "--record-sample", "0")
    assert "argument --record-sample:" in err


def test_serve_chunk_tokens_rejects_negative(capsys):
    err = usage_error(capsys, "serve", "--rate", "20", "--duration", "0.2",
                      "--chunk-tokens", "-5")
    assert "argument --chunk-tokens:" in err


def test_serve_chunk_tokens_rejected_for_static(capsys):
    code = main(["serve", "--scenario", "static", "--rate", "20",
                 "--duration", "0.2", "--chunk-tokens", "128"])
    err = capsys.readouterr().err
    assert code == 2
    assert "static batching prefills whole batches" in err


def test_serve_chunk_tokens_zero_is_the_parity_switch(capsys):
    """0 is valid (chunking off) and must serve identically to the default."""
    argv = ["serve", "--rate", "20", "--duration", "0.2",
            "--prompt-len", "64", "--output-tokens", "3"]
    code, base = run_cli(capsys, *argv)
    assert code == 0
    code, chunked_off = run_cli(capsys, *argv, "--chunk-tokens", "0")
    assert code == 0
    assert chunked_off == base


def test_serve_chunked_prefill_summary(capsys):
    code, out = run_cli(capsys, "serve", "--rate", "30", "--duration", "0.2",
                        "--prompt-len", "700", "--output-tokens", "4",
                        "--max-active", "4", "--chunk-tokens", "256")
    assert code == 0
    assert "TTFT" in out


def test_serve_pp_validation(capsys):
    err = usage_error(capsys, "serve", "--rate", "20", "--duration", "0.2",
                      "--pp", "0")
    assert "argument --pp:" in err

    code = main(["serve", "--rate", "20", "--duration", "0.2",
                 "--pp-microbatches", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--pp-microbatches" in err  # microbatches without stages


def test_serve_with_pp_emits_checkable_trace(capsys, tmp_path):
    out_path = tmp_path / "pp-trace.json"
    code, _ = run_cli(capsys, "serve", "--rate", "20", "--duration", "0.2",
                      "--prompt-len", "700", "--output-tokens", "3",
                      "--max-active", "4", "--chunk-tokens", "256",
                      "--pp", "2", "--pp-microbatches", "2",
                      "--emit-trace", str(out_path))
    assert code == 0
    code, out = run_cli(capsys, "check", "trace", str(out_path))
    assert code == 0
    code, out = run_cli(capsys, "check", "schedule", "--trace", str(out_path))
    assert code == 0


def test_run_with_pp(capsys):
    code, out = run_cli(capsys, "run", "--model", "gpt2", "--pp", "2",
                        "--pp-microbatches", "2", "--batch-size", "2")
    assert code == 0
    assert "TKLQT" in out


def test_check_schedule_with_pp(capsys):
    code, out = run_cli(capsys, "check", "schedule", "--models", "gpt2",
                        "--pp", "2", "--pp-microbatches", "2", "--json")
    assert code == 0
    assert "pp=2x2" in out  # the PP stage schedules were actually checked


def test_serve_cluster_command(capsys):
    code, out = run_cli(capsys, "serve", "--arrival", "bursty",
                        "--rate", "400", "--duration", "0.05",
                        "--prompt-len", "64", "--output-tokens", "4",
                        "--router", "least-loaded", "--replicas", "4",
                        "--prefix-share", "0.5", "--prefix-len", "64")
    assert code == 0
    assert "router" in out and "least-loaded" in out and "routed" in out
    assert "prefix hits=" in out
    assert "per-replica scale-out" in out


def _replica_table_header(out):
    return next(line.split() for line in out.splitlines()
                if line.startswith("replica "))


def test_serve_replica_table_shows_booked_cpu_with_a_host(capsys):
    code, out = run_cli(capsys, "serve", "--replicas", "4",
                        "--host-cores", "2", "--rate", "300",
                        "--duration", "0.05")
    assert code == 0
    assert _replica_table_header(out) == [
        "replica", "requests", "tokens", "steps", "tokens/s", "util", "cpu"]
    # r0's booked CPU share, not a copy of its GPU utilization (69.5%).
    rows = [line.split() for line in out.splitlines()]
    assert ["r0", "8", "128", "22", "769", "69.5%", "68.9%"] in rows


def test_serve_replica_table_has_no_cpu_column_without_a_host(capsys):
    code, out = run_cli(capsys, "serve", "--replicas", "2", "--rate", "300",
                        "--duration", "0.05")
    assert code == 0
    assert _replica_table_header(out) == [
        "replica", "requests", "tokens", "steps", "tokens/s", "util"]


def test_serve_cluster_emit_trace_is_checkable(capsys, tmp_path):
    out_path = tmp_path / "cluster-trace.json"
    code, _ = run_cli(capsys, "serve", "--arrival", "bursty",
                      "--rate", "400", "--duration", "0.05",
                      "--prompt-len", "64", "--output-tokens", "4",
                      "--router", "round-robin", "--replicas", "2",
                      "--emit-trace", str(out_path))
    assert code == 0
    code, out = run_cli(capsys, "check", "trace", str(out_path))
    assert code == 0  # R001/R002 replay over the exported routing log


def test_serve_rejects_nonpositive_rate(capsys):
    err = usage_error(capsys, "serve", "--rate", "0", "--duration", "0.1")
    assert "argument --rate:" in err


def test_serve_rejects_out_of_range_prefix_share(capsys):
    # The share's checked type refuses it at parse time (argparse's exit 2).
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--rate", "20", "--duration", "0.1",
              "--prefix-share", "1.5"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "argument --prefix-share: must be in [0, 1]" in err


def test_serve_autoscale_needs_cluster_router(capsys):
    code = main(["serve", "--rate", "20", "--duration", "0.1",
                 "--autoscale-max", "4"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--autoscale-max needs a cluster router" in err


def test_serve_cluster_scenario_must_be_continuous(capsys):
    code = main(["serve", "--rate", "20", "--duration", "0.1",
                 "--router", "least-loaded", "--scenario", "static"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--router shared" in err


def test_serve_default_flags_keep_pre_cluster_output(capsys):
    # --arrival fixed --prefix-share 0 is the identity lift: byte-identical
    # output to the same serve before the traffic flags existed.
    base = ("serve", "--rate", "20", "--duration", "0.2",
            "--prompt-len", "64", "--output-tokens", "3")
    code_a, out_a = run_cli(capsys, *base)
    code_b, out_b = run_cli(capsys, *base, "--arrival", "fixed",
                            "--prefix-share", "0")
    assert code_a == code_b == 0
    assert out_a == out_b
