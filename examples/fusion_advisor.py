"""Fusion advisor: recommend kernel fusions and verify them end-to-end.

The full SKIP loop from the paper plus its proposed future work:

1. profile a CPU-bound model in eager mode;
2. mine deterministic kernel chains (proximity score = 1) at every length;
3. report the idealized Eq. 8 speedups (Fig. 8);
4. actually *apply* the recommended chains in the engine's PROXIMITY_FUSED
   mode and compare the simulated gain to the idealized one.

Usage:
    python examples/fusion_advisor.py [model-name] [platform-name]
"""

import sys

from repro import ExecutionMode, get_model, get_platform, SkipProfiler
from repro.skip import combined_plan, fusion_report
from repro.units import format_ns


def main() -> None:
    model = get_model(sys.argv[1] if len(sys.argv) > 1 else "gpt2")
    platform = get_platform(sys.argv[2] if len(sys.argv) > 2 else "Intel+H100")

    profiler = SkipProfiler(platform)
    baseline = profiler.profile(model, batch_size=1, seq_len=512)
    print(f"{model.name} on {platform.name}: "
          f"{baseline.metrics.kernel_launches:.0f} launches/iteration, "
          f"classified {baseline.boundedness.value}\n")

    analyses = baseline.recommend_fusions()
    print(fusion_report(analyses))

    plan = combined_plan(analyses)
    if plan is None:
        print("\nNo deterministic chains found; nothing to fuse.")
        return

    fused = profiler.profile(model, batch_size=1, seq_len=512,
                             mode=ExecutionMode.PROXIMITY_FUSED,
                             fusion_plan=plan)
    ideal = max(a.ideal_speedup for a in analyses)
    simulated = (baseline.metrics.inference_latency_ns
                 / fused.metrics.inference_latency_ns)
    print(f"\nApplying the combined plan ({len(plan.chains)} chains):")
    print(f"  launches/iteration : {baseline.metrics.kernel_launches:.0f} "
          f"-> {fused.metrics.kernel_launches:.0f}")
    print(f"  inference latency  : {format_ns(baseline.metrics.inference_latency_ns)} "
          f"-> {format_ns(fused.metrics.inference_latency_ns)}")
    print(f"  idealized speedup  : {ideal:.2f}x (Eq. 8, launch-count ratio)")
    print(f"  simulated speedup  : {simulated:.3f}x (dispatch cost survives)")


if __name__ == "__main__":
    main()
