"""Self-test of the benchmark on tiny grids; runs in well under a minute.

    python3 bench/selftest.py

Runs every workload untraced and traced, and checks that every traced entry
point resolves, that self-time arithmetic is right on a synthetic nested
call, that an unresolved entry point drops its metrics, and that a corrupted
output counts as a failed run.  Exits non-zero on the first failure.
"""

import sys


def check_self_time(spans):
    ticks = iter(range(100))
    tracer = spans.Tracer(entries=(), clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    tracer.wrap("outer", body)()
    # outer spans ticks 0-5, each inner call one tick of it
    assert [s.name for s in tracer.spans] == ["outer", "inner", "inner"]
    assert tracer.self_times() == [3.0, 1.0, 1.0], tracer.self_times()


def check_missing_entry(spans):
    metrics = spans.layer_metrics([], [], 1, ["wigsolve.dynamics._SweepPlan.apply"])
    assert "dynamics.transport_apply_s" not in metrics
    assert "dynamics.transport_apply_calls" not in metrics
    assert metrics["dynamics.layout_s"] == 0.0


def check_workloads(harness, workloads):
    spec = harness.metric_spec()
    for name in workloads.WORKLOADS:
        for trace, listed in ((False, "end_to_end"), (True, "per_layer")):
            metrics, tally, samples = harness.run_workload(name, 1, 0.0, trace, quick=True)
            assert tally.failed == 0, tally.problems
            assert set(metrics) == {m["name"] for m in spec[listed]}, (name, trace)
            assert samples["config_echo"]
            if trace:
                assert metrics["trace.coverage_frac"] >= 0.9, metrics["trace.coverage_frac"]
                assert metrics["kernels.table_builds"] == len(samples["config_echo"])


def check_corruption(harness, dynamics):
    """A corrupted output must count as a failed run, in 2-D and in 4-D."""

    def nan_field(out):
        out[0][-1].values[0, 0] = float("nan")

    def mass_jump(out):
        out[1].total_mass[-1] += 1e-3

    def asymmetric_marginal(out):
        out[0][-1][1][0, 1] *= 1.0 + 1e-9

    cases = (("stream2d", "evolve", nan_field), ("families2d", "evolve", mass_jump),
             ("fermi4d", "evolve_4d", asymmetric_marginal))
    for workload, attr, corrupt in cases:
        original = getattr(dynamics, attr)

        def corrupted(cfg, original=original, corrupt=corrupt):
            out = original(cfg)
            corrupt(out)
            return out

        setattr(dynamics, attr, corrupted)
        try:
            _, tally, _ = harness.run_workload(workload, 1, 0.0, False, quick=True)
        finally:
            setattr(dynamics, attr, original)
        assert tally.attempted > 0 and tally.failed == tally.attempted, (workload, tally)


def main() -> int:
    import harness
    import spans
    import workloads
    from wigsolve import dynamics

    missing = spans.unresolved()
    assert not missing, f"unresolved entry points: {missing}"
    check_self_time(spans)
    check_missing_entry(spans)
    check_workloads(harness, workloads)
    check_corruption(harness, dynamics)
    print("benchmark self-test passed")
    return 0


if __name__ == "__main__":
    import bootstrap

    bootstrap.prepare()
    sys.exit(main())
