"""Command-line interface.

Subcommands mirror the paper's workflow:

* ``profile``   — SKIP metrics + classification for one run
* ``run``       — one engine run with optional tensor parallelism
  (``--tp N``); prints per-device SKIP metrics
* ``sweep``     — batch-size sweep with transition stars (Fig. 6 / 10 / 11)
* ``tpsweep``   — tensor-parallel degree sweep with per-device metrics
* ``fusion``    — proximity-score fusion recommendations (Figs. 7-8)
* ``nullkernel``— the Table V micro-benchmark
* ``whatif``    — required CPU speedup to match a reference platform
* ``memory``    — HBM footprint check for a workload shape
* ``serve``     — serving simulation with recording / Chrome-trace export;
  ``--kv-policy recompute|offload`` gates admission and decode growth on a
  paged KV pool (``--kv-pool-gib`` sizes it)
* ``kvpressure``— tokens/s + SLO attainment vs KV pool size and policy
  across platforms (the GH200-offload-advantage sweep)
* ``skip``      — SKIP analysis of a Chrome trace file (self-hosting:
  ``repro serve ... --emit-trace out.json && repro skip analyze out.json``)
* ``check``     — static analysis of the artifacts the above produce:
  ``check graph`` / ``check schedule`` / ``check trace`` / ``check code``
  (see ``docs/static-analysis.md``)

Run ``python -m repro <subcommand> --help`` for options.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Sequence

from repro.analysis import run_batch_sweep, run_tp_sweep, tp_sweep_report
from repro.analysis.whatif import required_cpu_speedup
from repro.engine import DispatchMode, EngineConfig, ExecutionMode, TPConfig
from repro.errors import ConfigurationError, ReproError
from repro.hardware import PAPER_PLATFORMS, get_platform, nullkernel_table
from repro.kvcache import KvPolicy
from repro.skip import SkipProfiler, fusion_report, profile_report, transition_report
from repro.units import format_bytes, format_ns
from repro.viz import render_table
from repro.workloads import get_model
from repro.workloads.memory import memory_report

_FAST = EngineConfig(iterations=1)


def _comma_list(element: Callable[[str], object],
                what: str) -> Callable[[str], tuple]:
    """An argparse ``type`` parsing a comma-separated list of ``what``.

    A malformed entry is a usage error (exit 2) at parse time, like any
    other bad option value.
    """
    def parse(text: str) -> tuple:
        try:
            return tuple(element(item) for item in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {what}, got {text!r}") from None
    return parse


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise ValueError(f"not positive: {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"negative: {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # NaN fails too
        raise ValueError(f"not positive and finite: {value}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0 < value <= 1:  # NaN fails too
        raise ValueError(f"not in (0, 1]: {value}")
    return value


def _share(text: str) -> float:
    value = float(text)
    if not 0 <= value <= 1:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be in [0, 1] (got {text})")
    return value


_INT_LIST = _comma_list(int, "integers")
_POSITIVE_INT_LIST = _comma_list(_positive_int, "positive integers")
_POSITIVE_FLOAT_LIST = _comma_list(_positive_float, "positive numbers")
_KV_POLICY_LIST = _comma_list(
    KvPolicy, "KV policies (" + ", ".join(p.value for p in KvPolicy) + ")")


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="gpt2", help="model name (catalog)")
    parser.add_argument("--platform", default="Intel+H100",
                        help="platform name (catalog)")
    parser.add_argument("--batch-size", type=int, default=1)
    parser.add_argument("--seq-len", type=int, default=512)


def _add_tp_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tp", type=int, default=1,
                        help="tensor-parallel degree (GPU count)")
    parser.add_argument("--dispatch", default="single",
                        choices=[m.value for m in DispatchMode],
                        help="CPU dispatch topology for TP runs")


def _cmd_profile(args: argparse.Namespace) -> int:
    profiler = SkipProfiler(get_platform(args.platform))
    result = profiler.profile(get_model(args.model),
                              batch_size=args.batch_size,
                              seq_len=args.seq_len,
                              mode=ExecutionMode(args.mode))
    print(profile_report(result))
    return 0


def _tp_config(args: argparse.Namespace) -> TPConfig | None:
    if getattr(args, "tp", 1) == 1:
        return None
    return TPConfig(degree=args.tp,
                    dispatch=DispatchMode(getattr(args, "dispatch", "single")))


def _pp_config(args: argparse.Namespace):
    from repro.engine import PPConfig

    stages = getattr(args, "pp", 1)
    if stages < 1:
        raise ConfigurationError("--pp must be at least 1 (1 disables "
                                 "pipeline parallelism)")
    microbatches = getattr(args, "pp_microbatches", 1)
    if microbatches < 1:
        raise ConfigurationError("--pp-microbatches must be at least 1")
    if stages == 1:
        if microbatches > 1:
            raise ConfigurationError(
                "--pp-microbatches needs pipeline stages; pass --pp N")
        return None
    return PPConfig(stages=stages, microbatches=microbatches)


def _add_pp_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pp", type=int, default=1,
                        help="pipeline-parallel stage count (1 disables; "
                             ">1 splits the layer stack across stages)")
    parser.add_argument("--pp-microbatches", type=int, default=1,
                        help="microbatches flowing through the pipeline "
                             "per step (GPipe-style)")


def _require_memory_fits(model, platform, batch_size: int, seq_len: int,
                         ignore: bool) -> None:
    """Fail fast (exit 2) when a shape cannot fit the platform's HBM.

    Simulating a run that would OOM on real hardware produces numbers
    nobody can reproduce; ``--ignore-memory`` keeps the escape hatch for
    deliberate what-if shapes.
    """
    if ignore:
        return
    report = memory_report(model, platform.gpu, batch_size, seq_len)
    if not report.fits:
        raise ConfigurationError(
            f"{model.name} @ BS={batch_size} seq={seq_len} needs "
            f"{format_bytes(report.total_bytes)} but {platform.gpu.name} "
            f"has {format_bytes(report.capacity_bytes)} "
            f"({100 * report.utilization:.0f}% of HBM); see 'repro memory' "
            f"for the breakdown or pass --ignore-memory to simulate anyway")


def _causality_log(args: argparse.Namespace):
    """The CausalityLog to record into, or None when ``--causality`` unset."""
    if not getattr(args, "causality", None):
        return None
    from repro.sim.causality import CausalityLog

    return CausalityLog()


def _dump_causality(log, args: argparse.Namespace) -> None:
    if log is None:
        return
    from repro.obs import dump_causality

    dump_causality(log, args.causality)
    print(f"wrote {len(log.events)} causality events to {args.causality} "
          f"(verify with 'repro check hb --log {args.causality}')")


def _cmd_run(args: argparse.Namespace) -> int:
    platform = get_platform(args.platform)
    model = get_model(args.model)
    _require_memory_fits(model, platform, args.batch_size, args.seq_len,
                         args.ignore_memory)
    causality = _causality_log(args)
    profiler = SkipProfiler(platform)
    result = profiler.profile(model,
                              batch_size=args.batch_size,
                              seq_len=args.seq_len,
                              mode=ExecutionMode(args.mode),
                              tp=_tp_config(args),
                              pp=_pp_config(args),
                              causality=causality)
    print(profile_report(result))
    _dump_causality(causality, args)
    return 0


def _cmd_tpsweep(args: argparse.Namespace) -> int:
    sweep = run_tp_sweep(
        get_model(args.model),
        get_platform(args.platform),
        batch_size=args.batch_size,
        degrees=args.degrees,
        seq_len=args.seq_len,
        dispatch=DispatchMode(args.dispatch),
        engine_config=_FAST,
    )
    print(tp_sweep_report(sweep))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    model = get_model(args.model)
    platforms = ([get_platform(args.platform)] if args.platform != "all"
                 else list(PAPER_PLATFORMS))
    for platform in platforms:
        _require_memory_fits(model, platform, max(args.batches), args.seq_len,
                             args.ignore_memory)
    sweep = run_batch_sweep(model, platforms, args.batches,
                            seq_len=args.seq_len,
                            engine_config=_FAST, tp=_tp_config(args),
                            jobs=args.jobs)
    for platform in platforms:
        print(transition_report(f"{model.name} on {platform.name}",
                                sweep.transition(platform.name)))
        print()
    return 0


def _cmd_fusion(args: argparse.Namespace) -> int:
    profiler = SkipProfiler(get_platform(args.platform), _FAST)
    result = profiler.profile(get_model(args.model),
                              batch_size=args.batch_size,
                              seq_len=args.seq_len)
    print(fusion_report(result.recommend_fusions(threshold=args.threshold)))
    return 0


def _cmd_nullkernel(_args: argparse.Namespace) -> int:
    rows = [[r.platform, f"{r.launch_overhead_ns:.1f}", f"{r.duration_ns:.1f}"]
            for r in nullkernel_table(PAPER_PLATFORMS)]
    print(render_table(["platform", "launch overhead (ns)", "duration (ns)"],
                       rows, title="nullKernel micro-benchmark (Table V)"))
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    requirement = required_cpu_speedup(
        get_model(args.model),
        get_platform(args.platform),
        get_platform(args.reference),
        batch_size=args.batch_size,
        seq_len=args.seq_len,
        engine_config=_FAST,
    )
    print(f"{requirement.platform} needs a {requirement.required_speedup:.2f}x "
          f"CPU speedup to match {requirement.reference} at "
          f"BS={requirement.batch_size}")
    print(f"  baseline : {format_ns(requirement.baseline_latency_ns)}")
    print(f"  target   : {format_ns(requirement.reference_latency_ns)}")
    print(f"  achieved : {format_ns(requirement.achieved_latency_ns)}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.analysis import run_batch_sweep, sweep_to_csv, sweep_to_json

    model = get_model(args.model)
    platforms = ([get_platform(args.platform)] if args.platform != "all"
                 else list(PAPER_PLATFORMS))
    sweep = run_batch_sweep(model, platforms, args.batches,
                            seq_len=args.seq_len, engine_config=_FAST)
    if args.out.endswith(".csv"):
        sweep_to_csv(sweep, args.out)
    else:
        sweep_to_json(sweep, args.out)
    print(f"wrote {len(sweep.points)} sweep points to {args.out}")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.viz import TimelineOptions, render_timeline

    profiler = SkipProfiler(get_platform(args.platform), _FAST)
    result = profiler.profile(get_model(args.model),
                              batch_size=args.batch_size,
                              seq_len=args.seq_len,
                              tp=_tp_config(args))
    begin, end = result.trace.span
    window_end = begin + (end - begin) * args.window_fraction
    print(render_timeline(result.trace, TimelineOptions(
        width=args.width, begin_ns=begin, end_ns=window_end)))
    return 0


def _kv_config(args: argparse.Namespace):
    """Build the serve command's KV-cache settings (None = pre-kvcache path)."""
    from repro.kvcache import KvCacheConfig

    policy = KvPolicy(args.kv_policy)
    if policy is KvPolicy.NONE:
        if args.kv_pool_gib is not None:
            raise ConfigurationError(
                "--kv-pool-gib needs a pressure policy; pass "
                "--kv-policy recompute or --kv-policy offload")
        return None
    return KvCacheConfig(policy=policy, pool_gib=args.kv_pool_gib)


def _serve_requests(args: argparse.Namespace) -> list:
    """Build the serve command's arrival stream from the traffic knobs.

    ``--arrival fixed`` (the default) replays the historical Poisson
    stream through :func:`repro.traffic.tag_requests` — with no prefix
    share and no sessions that returns the stream unchanged, keeping the
    pre-cluster output bit-identical. Any other family generates through
    :func:`repro.traffic.generate_traffic`.
    """
    from repro.serving import poisson_requests
    from repro.traffic import (
        ArrivalFamily,
        ArrivalSpec,
        PrefixSpec,
        TrafficConfig,
        generate_traffic,
        tag_requests,
    )

    if not 0 < args.rate < math.inf:
        raise ConfigurationError(
            f"--rate must be positive and finite (got {args.rate:g})")
    prefix = (PrefixSpec(share=args.prefix_share, prefix_len=args.prefix_len,
                         pool=args.prefix_pool)
              if args.prefix_share > 0 else None)
    if args.arrival == "fixed":
        requests = poisson_requests(
            rate_per_s=args.rate, duration_s=args.duration,
            prompt_len=args.prompt_len, output_tokens=args.output_tokens,
            seed=args.seed)
        return tag_requests(requests, prefix=prefix, sessions=args.sessions,
                            seed=args.seed)
    config = TrafficConfig(
        arrivals=ArrivalSpec(family=ArrivalFamily(args.arrival),
                             rate_per_s=args.rate, duration_s=args.duration,
                             seed=args.seed),
        prompt_len=args.prompt_len, output_tokens=args.output_tokens,
        prefix=prefix if prefix is not None else PrefixSpec(),
        sessions=args.sessions)
    return generate_traffic(config)


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.analysis import serving_slo_attainment
    from repro.obs import RunRecorder, recording_to_trace
    from repro.serving import (
        ClassifiedRequest,
        ContinuousBatchPolicy,
        LatencyModel,
        PriorityPolicy,
        RequestClass,
        StaticBatchPolicy,
        simulate_cluster,
        simulate_serving,
    )
    from repro.trace import chrome
    from repro.viz import TimelineOptions, render_serving_timeline

    if args.record_sample < 1:
        raise ConfigurationError(
            f"--record-sample must be at least 1 (got {args.record_sample}); "
            f"K=1 records everything, K>1 samples 1-in-K requests")
    if args.chunk_tokens < 0:
        raise ConfigurationError(
            f"--chunk-tokens must be non-negative (got {args.chunk_tokens}); "
            f"0 disables chunked prefill and reproduces whole-prompt serving")
    clustered = args.router != "shared"
    if clustered and args.scenario != "continuous":
        raise ConfigurationError(
            f"--router {args.router} runs the cluster stack, whose replicas "
            f"run continuous batching; --scenario {args.scenario} is only "
            f"available with --router shared")
    if args.autoscale_max and not clustered:
        raise ConfigurationError(
            "--autoscale-max needs a cluster router; pass e.g. "
            "--router least-loaded")
    host = None
    if args.host_cores or args.numa is not None or args.pin:
        from repro.host import HostConfig, HostModel

        if not args.host_cores:
            raise ConfigurationError(
                "--numa/--pin shape a finite host; pass --host-cores N "
                "to enable one")
        if args.scenario != "continuous":
            raise ConfigurationError(
                f"--host-cores models dispatch-CPU contention for the "
                f"continuous scenario; --scenario {args.scenario} does "
                f"not book per-step CPU shares")
        host = HostModel.for_platform(
            args.platform, replicas=max(args.replicas, 1),
            config=HostConfig(cores=args.host_cores, numa=args.numa,
                              pin=args.pin))
    model = get_model(args.model)
    kv = _kv_config(args)
    if args.prefix_share > 0:
        from repro.kvcache import KvCacheConfig

        # COW prefix caching rides on the paged pool; with no pressure
        # policy configured it gets a dedicated unbounded-pool config.
        kv = (dataclasses.replace(kv, prefix_caching=True)
              if kv is not None else KvCacheConfig(prefix_caching=True))
    latency = LatencyModel(get_platform(args.platform), engine_config=_FAST,
                           tp=_tp_config(args), pp=_pp_config(args))
    requests = _serve_requests(args)
    if args.scenario == "continuous":
        policy = ContinuousBatchPolicy(max_active=args.max_active,
                                       chunk_tokens=args.chunk_tokens)
        workload: list = list(requests)
    elif args.scenario == "static":
        if args.chunk_tokens:
            raise ConfigurationError(
                "--chunk-tokens applies to the continuous and priority "
                "scenarios; static batching prefills whole batches")
        policy = StaticBatchPolicy(max_batch_size=args.max_active)
        workload = list(requests)
    else:  # priority: every 4th request is interactive, the rest are bulk
        policy = PriorityPolicy(bulk_batch=args.max_active,
                                chunk_tokens=args.chunk_tokens)
        workload = [
            ClassifiedRequest(request=request,
                              request_class=(RequestClass.INTERACTIVE
                                             if index % 4 == 0
                                             else RequestClass.BULK))
            for index, request in enumerate(requests)
        ]
    recorder = RunRecorder(sample_every=args.record_sample)
    causality = _causality_log(args)
    if clustered:
        from repro.serving import AutoscaleConfig

        autoscale = (AutoscaleConfig(max_replicas=args.autoscale_max)
                     if args.autoscale_max else None)
        result = simulate_cluster(
            workload, model, latency, policy=policy, router=args.router,
            replicas=args.replicas, recorder=recorder, kv=kv,
            autoscale=autoscale, causality=causality, host=host)
    else:
        result = simulate_serving(workload, model, latency, policy=policy,
                                  replicas=args.replicas, recorder=recorder,
                                  kv=kv, causality=causality, host=host)
    report = result.report
    title = (f"{args.scenario} serving: {model.name} on {args.platform} "
             f"({len(requests)} requests, {args.replicas} replica(s))")
    print(recorder.summary().render(title))
    print(f"throughput         : "
          f"{report.throughput_tokens_per_s():.0f} tokens/s")
    print(serving_slo_attainment(report).render())
    router = getattr(result, "router", None)
    if router is not None:
        scaled = (f"  scaled to {router.replicas}"
                  if router.scale_events else "")
        print(f"router             : {router.policy}  "
              f"routed {router.routed} -> "
              f"{'/'.join(str(n) for n in router.routed_per_replica)}"
              f"  busy {format_ns(router.router_busy_ns)}{scaled}")
    host_stats = getattr(result, "host", None)
    if host_stats is not None:
        print(f"host cpu           : {host_stats.cores} cores / "
              f"{host_stats.domains} domain(s)  "
              f"grants={host_stats.grants} "
              f"(remote {host_stats.remote_grants})  "
              f"stall {format_ns(host_stats.stall_ns)}  "
              f"busy {format_ns(host_stats.busy_ns)}")
    for stats in result.kv:
        prefix = ""
        if stats.prefix_hits or stats.prefix_misses:
            prefix = (f"  prefix hits={stats.prefix_hits}"
                      f"/misses={stats.prefix_misses}"
                      f" forks={stats.cow_forks}")
        print(f"kv pool r{stats.replica}         : "
              f"{stats.capacity_blocks} blocks x {stats.block_tokens} tokens"
              f"  preempts={stats.preemptions}"
              f"  swaps={stats.swap_out_events}+{stats.swap_in_events}"
              f" ({format_ns(stats.swap_ns)}){prefix}")
    if args.replicas > 1:
        headers = ["replica", "requests", "tokens", "steps", "tokens/s",
                   "util"]
        rows = [[f"r{stats.replica}", str(stats.requests),
                 str(stats.output_tokens), str(stats.steps),
                 f"{stats.throughput_tokens_per_s:.0f}",
                 f"{100 * stats.utilization:.1f}%"]
                for stats in result.replicas]
        if host is not None:
            # Booked dispatch CPU: a host-free run books none.
            headers.append("cpu")
            for row, stats in zip(rows, result.replicas):
                row.append(f"{100 * stats.cpu_utilization:.1f}%")
        print()
        print(render_table(headers, rows, title="per-replica scale-out"))
    if args.timeline:
        print()
        print(render_serving_timeline(recorder,
                                      TimelineOptions(width=args.width)))
    if args.emit_trace:
        trace = recording_to_trace(
            recorder, latency, model,
            devices_per_replica=result.devices_per_replica)
        chrome.dump(trace, args.emit_trace)
        print(f"wrote {len(trace.kernels)} kernels / "
              f"{len(trace.iterations)} steps to {args.emit_trace}")
    _dump_causality(causality, args)
    return 0


def _cmd_kvpressure(args: argparse.Namespace) -> int:
    from repro.analysis import kv_pressure_report, run_kv_pressure_sweep

    platforms = [get_platform(name) for name in args.platforms.split(",")]
    result = run_kv_pressure_sweep(
        get_model(args.model), platforms,
        pool_gib=args.pools, policies=args.policies,
        prompt_len=args.prompt_len, output_tokens=args.output_tokens,
        rate_per_s=args.rate, duration_s=args.duration, seed=args.seed,
        max_active=args.max_active, mode=ExecutionMode(args.mode),
        slo_ms=args.slo_ms)
    print(kv_pressure_report(result))
    return 0


def _cmd_hostsweep(args: argparse.Namespace) -> int:
    from repro.analysis import replicas_per_host_report, run_replicas_per_host

    platforms = [get_platform(name) for name in args.platforms.split(",")]
    result = run_replicas_per_host(
        get_model(args.model), platforms, counts=args.counts, scale=args.scale,
        knee_fraction=args.knee_fraction, prompt_len=args.prompt_len,
        output_tokens=args.output_tokens, requests_count=args.requests,
        seed=args.seed, max_active=args.max_active)
    print(replicas_per_host_report(result))
    return 0


def _cmd_skip_analyze(args: argparse.Namespace) -> int:
    from repro.skip.report import metrics_report, top_kernels_report
    from repro.trace import chrome

    result = SkipProfiler.analyze(chrome.load(args.trace))
    metrics = result.metrics
    source = result.metadata.get("source", "chrome trace")
    print(metrics_report(metrics, f"SKIP metrics for {args.trace} ({source})"))
    print(f"classification             : {result.boundedness.value}")
    print()
    print(top_kernels_report(metrics, args.top))
    if args.fusion:
        print()
        print(fusion_report(result.recommend_fusions()))
    return 0


def _resolve_check_models(spec: str) -> list:
    from repro.workloads import ALL_MODELS, PAPER_MODELS

    if spec == "paper":
        return list(PAPER_MODELS)
    if spec == "all":
        return list(ALL_MODELS)
    return [get_model(name) for name in spec.split(",")]


def _emit_report(report, as_json: bool) -> int:
    print(report.to_json() if as_json else report.render())
    return 0 if report.ok else 1


def _cmd_check_graph(args: argparse.Namespace) -> int:
    from repro.check import check_workload_graphs

    report = check_workload_graphs(_resolve_check_models(args.models),
                                   args.degrees, batch_size=args.batch_size,
                                   seq_len=args.seq_len)
    return _emit_report(report, args.json)


def _cmd_check_schedule(args: argparse.Namespace) -> int:
    from repro.check import check_trace_schedules, check_workload_schedules

    if args.trace:
        return _emit_report(check_trace_schedules(args.trace), args.json)
    _pp_config(args)  # validate the stage/microbatch pair up front
    report = check_workload_schedules(_resolve_check_models(args.models),
                                      args.degrees, batch_size=args.batch_size,
                                      seq_len=args.seq_len,
                                      dispatch=DispatchMode(args.dispatch),
                                      pp_stages=args.pp,
                                      pp_microbatches=args.pp_microbatches)
    return _emit_report(report, args.json)


def _cmd_check_trace(args: argparse.Namespace) -> int:
    from repro.check import check_trace_files

    return _emit_report(check_trace_files(args.traces), args.json)


def _cmd_check_hb(args: argparse.Namespace) -> int:
    from repro.check import check_causality_logs, check_hb_scenarios

    if args.log:
        if args.certify:
            raise ConfigurationError(
                "--certify re-executes a scenario under a perturbed "
                "tie-break, which an exported log cannot do; pass "
                "--scenario instead of --log")
        return _emit_report(check_causality_logs(args.log), args.json)
    report = check_hb_scenarios(args.scenario or (), certify=args.certify)
    return _emit_report(report, args.json)


def _cmd_check_code(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.check import check_source

    root = args.root or str(Path(__file__).parent)
    return _emit_report(check_source(root), args.json)


def _cmd_validate(_args: argparse.Namespace) -> int:
    from repro.reproduction import run_scorecard

    scorecard = run_scorecard(progress=lambda msg: print(f"... {msg}"))
    print()
    print(scorecard.render())
    return 0 if not scorecard.failures() else 1


def _cmd_memory(args: argparse.Namespace) -> int:
    platform = get_platform(args.platform)
    report = memory_report(get_model(args.model), platform.gpu,
                           args.batch_size, args.seq_len)
    print(f"{report.model} @ BS={args.batch_size} seq={args.seq_len} "
          f"on {report.gpu}")
    print(f"  weights     : {format_bytes(report.weights_bytes)}")
    print(f"  activations : {format_bytes(report.activation_bytes)}")
    print(f"  kv cache    : {format_bytes(report.kv_cache_bytes)}")
    print(f"  reserve     : {format_bytes(report.reserve_bytes)}")
    print(f"  total       : {format_bytes(report.total_bytes)} "
          f"of {format_bytes(report.capacity_bytes)} "
          f"({100 * report.utilization:.1f}%)")
    print(f"  fits        : {'yes' if report.fits else 'NO'}")
    return 0 if report.fits else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SKIP profiler & CPU-GPU coupling characterization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    profile = sub.add_parser("profile", help="profile one run with SKIP")
    _add_workload_args(profile)
    profile.add_argument("--mode", default="eager",
                         choices=[m.value for m in ExecutionMode
                                  if m is not ExecutionMode.PROXIMITY_FUSED])
    profile.set_defaults(func=_cmd_profile)

    run_p = sub.add_parser(
        "run", help="one engine run, optionally tensor-parallel")
    _add_workload_args(run_p)
    _add_tp_args(run_p)
    run_p.add_argument("--mode", default="eager",
                       choices=[m.value for m in ExecutionMode
                                if m is not ExecutionMode.PROXIMITY_FUSED])
    _add_pp_args(run_p)
    run_p.add_argument("--ignore-memory", action="store_true",
                       help="simulate even when the shape exceeds HBM")
    run_p.add_argument("--causality", metavar="PATH",
                       help="record the run's causality log (scheduling, "
                            "rendezvous, occupancy) to a JSON sidecar for "
                            "'repro check hb --log'")
    run_p.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="batch sweep with transition stars")
    sweep.add_argument("--model", default="bert-base-uncased")
    sweep.add_argument("--platform", default="all",
                       help="platform name or 'all'")
    sweep.add_argument("--seq-len", type=int, default=512)
    sweep.add_argument("--batches", type=_INT_LIST,
                       default="1,2,4,8,16,32,64,128")
    _add_tp_args(sweep)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the sweep grid (results "
                            "merge in deterministic serial order)")
    sweep.add_argument("--ignore-memory", action="store_true",
                       help="sweep even when the largest batch exceeds HBM")
    sweep.set_defaults(func=_cmd_sweep)

    tpsweep = sub.add_parser(
        "tpsweep", help="tensor-parallel degree sweep (per-device metrics)")
    _add_workload_args(tpsweep)
    tpsweep.add_argument("--degrees", type=_POSITIVE_INT_LIST, default="1,2,4",
                         help="comma-separated TP degrees (each must divide "
                              "the model's attention head count)")
    tpsweep.add_argument("--dispatch", default="single",
                         choices=[m.value for m in DispatchMode])
    tpsweep.set_defaults(func=_cmd_tpsweep)

    fusion = sub.add_parser("fusion", help="fusion recommendations")
    _add_workload_args(fusion)
    fusion.add_argument("--threshold", type=_fraction, default=1.0,
                        help="minimum proximity score")
    fusion.set_defaults(func=_cmd_fusion)

    nullk = sub.add_parser("nullkernel", help="Table V micro-benchmark")
    nullk.set_defaults(func=_cmd_nullkernel)

    whatif = sub.add_parser("whatif", help="required CPU speedup analysis")
    _add_workload_args(whatif)
    whatif.add_argument("--reference", default="Intel+H100")
    whatif.set_defaults(func=_cmd_whatif)

    memory = sub.add_parser("memory", help="HBM footprint check")
    _add_workload_args(memory)
    memory.set_defaults(func=_cmd_memory)

    serve = sub.add_parser(
        "serve", help="serving simulation with observability recording")
    serve.add_argument("--model", default="gpt2")
    serve.add_argument("--platform", default="Intel+H100")
    serve.add_argument("--scenario", default="continuous",
                       choices=["continuous", "static", "priority"])
    serve.add_argument("--replicas", type=int, default=1,
                       help="engine replicas serving one admission queue")
    _add_tp_args(serve)
    _add_pp_args(serve)
    serve.add_argument("--arrival", default="fixed",
                       choices=["fixed", "poisson", "bursty", "diurnal"],
                       help="arrival process: fixed replays the historical "
                            "seeded Poisson list bit-identically; the "
                            "others generate through repro.traffic")
    serve.add_argument("--rate", type=float, default=20.0,
                       help="mean arrival rate (req/s)")
    serve.add_argument("--duration", type=float, default=1.0,
                       help="arrival stream duration (s)")
    serve.add_argument("--prefix-share", type=_share, default=0.0,
                       help="fraction of requests tagged with a shared "
                            "prefix (enables copy-on-write prefix caching "
                            "when positive)")
    serve.add_argument("--prefix-len", type=int, default=256,
                       help="tokens in each shared prefix")
    serve.add_argument("--prefix-pool", type=int, default=4,
                       help="distinct shared prefixes tagged requests draw "
                            "from")
    serve.add_argument("--sessions", type=_non_negative_int, default=0,
                       help="distinct session tags to spread over the "
                            "stream (0 = untagged)")
    serve.add_argument("--router", default="shared",
                       choices=["shared", "round-robin", "least-loaded",
                                "session", "disaggregated"],
                       help="shared = replicas race on one queue (the flat "
                            "runtime); anything else routes through the "
                            "cluster tier with that placement policy")
    serve.add_argument("--autoscale-max", type=int, default=0,
                       help="let the cluster router spin up replicas to "
                            "this ceiling under backlog (0 = fixed pool; "
                            "needs a cluster --router)")
    serve.add_argument("--prompt-len", type=_positive_int, default=128)
    serve.add_argument("--output-tokens", type=_positive_int, default=16)
    serve.add_argument("--max-active", type=int, default=8,
                       help="max active sequences (continuous), batch size "
                            "(static), or bulk batch (priority)")
    serve.add_argument("--chunk-tokens", type=int, default=0,
                       help="per-step token budget for chunked prefill "
                            "(sarathi-style stall-free scheduling); 0 "
                            "disables chunking and reproduces whole-prompt "
                            "serving bit-identically")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--record-sample", type=int, default=1, metavar="K",
                       help="record full per-request detail for 1-in-K "
                            "requests; aggregate counters stay exact for all "
                            "(K=1 records everything)")
    serve.add_argument("--timeline", action="store_true",
                       help="render the recorded run as an ASCII timeline")
    serve.add_argument("--width", type=int, default=100)
    serve.add_argument("--emit-trace", metavar="PATH",
                       help="export the recorded run as Chrome-trace JSON "
                            "(analyzable with 'repro skip analyze')")
    serve.add_argument("--kv-policy", default="none",
                       choices=["none", "recompute", "offload"],
                       help="paged KV-pool pressure policy (continuous "
                            "scenario only; 'none' reproduces the "
                            "pre-kvcache serving path exactly)")
    serve.add_argument("--kv-pool-gib", type=_positive_float, default=None,
                       help="KV pool size per replica in GiB (default: all "
                            "HBM left after weights and runtime reserve)")
    serve.add_argument("--host-cores", type=_non_negative_int, default=0,
                       help="finite host CPU: total dispatch cores shared "
                            "by every replica and the router (0 = "
                            "unlimited, the historical model; per-domain "
                            "budget on per-GPU-domain hosts like GH200)")
    serve.add_argument("--numa", type=_non_negative_int, default=None,
                       metavar="DOMAIN",
                       help="force every replica's dispatch affinity to "
                            "this NUMA domain (default: each replica's "
                            "GPU-attached domain; needs --host-cores)")
    serve.add_argument("--pin", action="store_true",
                       help="forbid remote-domain spill: dispatch work "
                            "waits for a local core instead of borrowing "
                            "a penalized remote one (needs --host-cores)")
    serve.add_argument("--causality", metavar="PATH",
                       help="record the serving run's causality log "
                            "(scheduling, KV grants, occupancy) to a JSON "
                            "sidecar for 'repro check hb --log'")
    serve.set_defaults(func=_cmd_serve)

    hostsweep = sub.add_parser(
        "hostsweep",
        help="tokens/s + launch-tax knee vs replicas packed on one host")
    hostsweep.add_argument("--model", default="gpt2")
    hostsweep.add_argument("--platforms",
                           default="AMD+A100,Intel+H100,GH200",
                           help="comma-separated platform names to compare")
    hostsweep.add_argument("--counts", type=_INT_LIST,
                           default="1,2,3,4,6,8",
                           help="comma-separated replica counts (increasing)")
    hostsweep.add_argument("--scale", type=int, default=16,
                           help="divide each cataloged host's cores by this "
                                "(topology preserved) so the knee lands in "
                                "a small sweep")
    hostsweep.add_argument("--knee-fraction", type=_fraction, default=0.5,
                           help="a replica still pays off while it adds at "
                                "least this fraction of single-replica "
                                "tokens/s")
    hostsweep.add_argument("--prompt-len", type=_positive_int, default=64)
    hostsweep.add_argument("--output-tokens", type=_positive_int, default=16)
    hostsweep.add_argument("--requests", type=_positive_int, default=40,
                           help="burst size served by every cell")
    hostsweep.add_argument("--seed", type=int, default=11)
    hostsweep.add_argument("--max-active", type=int, default=4)
    hostsweep.set_defaults(func=_cmd_hostsweep)

    kvpressure = sub.add_parser(
        "kvpressure",
        help="tokens/s + SLO attainment vs KV pool size and policy")
    kvpressure.add_argument("--model", default="llama-3.2-1b")
    kvpressure.add_argument("--platforms", default="AMD+A100,GH200",
                            help="comma-separated platform names to compare")
    kvpressure.add_argument("--pools", type=_POSITIVE_FLOAT_LIST,
                            default="0.2,0.15,0.1",
                            help="comma-separated pool sizes (GiB/replica)")
    kvpressure.add_argument("--policies", type=_KV_POLICY_LIST,
                            default="recompute,offload",
                            help="comma-separated pressure policies")
    kvpressure.add_argument("--prompt-len", type=_positive_int, default=1024)
    kvpressure.add_argument("--output-tokens", type=_positive_int, default=128)
    kvpressure.add_argument("--rate", type=float, default=40.0,
                            help="Poisson arrival rate (req/s)")
    kvpressure.add_argument("--duration", type=float, default=1.0,
                            help="arrival stream duration (s)")
    kvpressure.add_argument("--seed", type=int, default=7)
    kvpressure.add_argument("--max-active", type=int, default=16)
    kvpressure.add_argument("--slo-ms", type=_positive_float, default=200.0)
    kvpressure.add_argument(
        "--mode", default="compile_reduce_overhead",
        choices=[m.value for m in ExecutionMode
                 if m is not ExecutionMode.PROXIMITY_FUSED],
        help="execution mode (compiled decode exposes memory pressure; "
             "eager decode is launch-bound and hides it)")
    kvpressure.set_defaults(func=_cmd_kvpressure)

    skip = sub.add_parser("skip", help="SKIP analysis of a Chrome trace file")
    skip_sub = skip.add_subparsers(dest="skip_command", required=True)
    analyze = skip_sub.add_parser(
        "analyze", help="metrics + classification for a trace JSON")
    analyze.add_argument("trace", help="Chrome-trace JSON path")
    analyze.add_argument("--top", type=int, default=5,
                         help="top-k kernel table size")
    analyze.add_argument("--fusion", action="store_true",
                         help="also mine fusion candidates (Fig. 7/8 table)")
    analyze.set_defaults(func=_cmd_skip_analyze)

    check = sub.add_parser(
        "check", help="static analysis of graphs, schedules, traces, code")
    check_sub = check.add_subparsers(dest="check_command", required=True)

    def _add_check_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true",
                       help="emit findings as machine-readable JSON")

    def _add_check_catalog(p: argparse.ArgumentParser) -> None:
        p.add_argument("--models", default="paper",
                       help="'paper', 'all', or comma-separated model names")
        p.add_argument("--degrees", type=_POSITIVE_INT_LIST, default="1,2,4,8",
                       help="TP degrees to verify (non-dividing skipped)")
        p.add_argument("--batch-size", type=int, default=1)
        p.add_argument("--seq-len", type=int, default=128)
        _add_check_common(p)

    check_graph = check_sub.add_parser(
        "graph", help="verify lowered graphs + TP sharding conservation")
    _add_check_catalog(check_graph)
    check_graph.set_defaults(func=_cmd_check_graph)

    check_sched = check_sub.add_parser(
        "schedule", help="detect rendezvous deadlocks in TP schedules")
    _add_check_catalog(check_sched)
    check_sched.add_argument("--dispatch", default="per-device",
                             choices=[m.value for m in DispatchMode])
    _add_pp_args(check_sched)
    check_sched.add_argument("--trace", metavar="PATH", action="append",
                             help="hazard-check the schedules reconstructed "
                                  "from an exported Chrome trace instead of "
                                  "the catalog (repeatable)")
    check_sched.set_defaults(func=_cmd_check_schedule)

    check_trace = check_sub.add_parser(
        "trace", help="lint Chrome-trace files + recomputed SKIP identities")
    check_trace.add_argument("traces", nargs="+",
                             help="Chrome-trace JSON path(s)")
    _add_check_common(check_trace)
    check_trace.set_defaults(func=_cmd_check_trace)

    check_hb = check_sub.add_parser(
        "hb", help="happens-before race detection + determinism "
                   "certification over causality logs")
    check_hb.add_argument("--scenario", action="append", metavar="NAME",
                          help="canonical scenario to simulate and check "
                               "(repeatable; default: all — mixed-stream, "
                               "pp-kv-offload, cluster, host-contention)")
    check_hb.add_argument("--log", action="append", metavar="PATH",
                          help="check an exported causality sidecar (from "
                               "'repro serve/run --causality') instead of "
                               "re-simulating (repeatable)")
    check_hb.add_argument("--certify", action="store_true",
                          help="also re-execute each scenario under an "
                               "adversarially perturbed (causally-"
                               "equivalent) tie-break order and report any "
                               "outcome divergence as H008")
    _add_check_common(check_hb)
    check_hb.set_defaults(func=_cmd_check_hb)

    check_code = check_sub.add_parser(
        "code", help="repo-specific AST lint over the package source")
    check_code.add_argument("--root", default=None,
                            help="package tree to lint (default: the "
                                 "installed repro package)")
    _add_check_common(check_code)
    check_code.set_defaults(func=_cmd_check_code)

    validate = sub.add_parser(
        "validate", help="recompute every paper anchor (scorecard)")
    validate.set_defaults(func=_cmd_validate)

    export = sub.add_parser("export", help="sweep to JSON/CSV for plotting")
    export.add_argument("--model", default="bert-base-uncased")
    export.add_argument("--platform", default="all")
    export.add_argument("--seq-len", type=int, default=512)
    export.add_argument("--batches", type=_INT_LIST,
                        default="1,2,4,8,16,32,64,128")
    export.add_argument("--out", required=True,
                        help="output path (.json or .csv)")
    export.set_defaults(func=_cmd_export)

    timeline = sub.add_parser("timeline", help="ASCII trace timeline")
    _add_workload_args(timeline)
    _add_tp_args(timeline)
    timeline.add_argument("--width", type=int, default=100)
    timeline.add_argument("--window-fraction", type=_fraction, default=0.34,
                          help="fraction of the trace to show (default: "
                               "roughly the first iteration)")
    timeline.set_defaults(func=_cmd_timeline)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Configuration mistakes (unknown model, invalid TP degree, bad trace
    file, ...) surface as one-line ``error: ...`` messages on stderr with
    exit code 2, not tracebacks; tracebacks are reserved for actual bugs.
    A reader that closes the output pipe early (``| head``) ends the
    command quietly with exit code 1.
    """
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's exit-time flush of
        # the unwritten rest cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
