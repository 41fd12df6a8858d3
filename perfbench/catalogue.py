"""Which end-to-end metric each per-layer metric should move, and where.

Written down before any optimisation is measured: a change that claims to
improve a layer names the per-layer metric here, and the end-to-end metric
and workload listed next to it are where the gain must show.  Units and
directions live in ``BENCHMARK.json``.
"""

LOCAL = "annexc-kernel-local"
POOL = "hubo-circuit-pool"
DAEMON = "annexc-kernel-daemon"
ANNEXC = f"{LOCAL}, {DAEMON}"
ALL = f"{LOCAL}, {POOL}, {DAEMON}"

#: per-layer metric -> (layer, end-to-end metric it should move, workloads)
MOVES = {
    # compile: the physics and its build products
    "compile.compile_problem_ms": ("compile", "cold_pts_per_s", ALL),
    "compile.lower_plan_ms": ("compile", "cold_pts_per_s", LOCAL),
    "compile.build_circuit_ms": ("compile", "cold_pts_per_s", POOL),
    "compile.plan_evolve_ms": ("compile", "cold_pts_per_s, run_p50_ms", LOCAL),
    "compile.program_run_ms.kernel": ("compile", "run_p50_ms", LOCAL),
    "compile.program_run_ms.statevector": ("compile", "cold_pts_per_s", POOL),
    "compile.sampling_prepare_ms": ("compile", "reuse_pts_per_s, run_p50_ms", POOL),
    "compile.sample_ms": ("compile", "reuse_pts_per_s", POOL),
    "circuits.two_qubit_gates.direct": ("compile", "cold_pts_per_s", POOL),
    "circuits.two_qubit_gates.pauli": ("compile", "cold_pts_per_s", POOL),
    "compile.plan_rotations": ("compile", "cold_pts_per_s, run_p50_ms", LOCAL),
    "compile.memo_hit_ratio": ("compile", "cold_pts_per_s", ALL),
    # runtime.spec / runtime.results: keys and the result codec
    "runtime.spec.content_key_us": ("runtime.spec", "run_p50_ms, reuse_pts_per_s", ANNEXC),
    "runtime.spec.from_dict_us": ("runtime.spec", "run_p50_ms, reuse_pts_per_s", ANNEXC),
    "runtime.results.encode_us": ("runtime.results", "run_p50_ms, reuse_pts_per_s", ANNEXC),
    "runtime.results.decode_us": ("runtime.results", "run_p50_ms, reuse_pts_per_s", ANNEXC),
    # runtime.executor: the execution seam, batching and the process pool
    "runtime.executor.execute_spec_overhead_ms": (
        "runtime.executor", "cold_pts_per_s, run_p50_ms", ALL),
    "runtime.executor.batch_ms_per_pt": ("runtime.executor", "reuse_pts_per_s", POOL),
    "runtime.executor.map_specs_s.serial": ("runtime.executor", "reuse_pts_per_s", POOL),
    "runtime.executor.map_specs_s.w1": ("runtime.executor", "reuse_pts_per_s", POOL),
    "runtime.executor.map_specs_s.wN": ("runtime.executor", "cold_pts_per_s, reuse_pts_per_s", POOL),
    "runtime.executor.batch_gain": ("runtime.executor", "reuse_pts_per_s", POOL),
    "runtime.executor.process_scaling": ("runtime.executor", "cold_pts_per_s", POOL),
    "runtime.executor.fused_ratio": ("runtime.executor", "reuse_pts_per_s", POOL),
    "runtime.shm.bytes_share": ("runtime.executor", "cold_pts_per_s", POOL),
    "machine_cores": ("runtime.executor", "cold_pts_per_s (context for the ratios)", POOL),
    # runtime.cache / runtime.session
    "runtime.cache.get_hit_ms": ("runtime.cache", "reuse_pts_per_s", LOCAL),
    "runtime.cache.get_miss_ms": ("runtime.cache", "cold_pts_per_s", LOCAL),
    "runtime.cache.put_ms": ("runtime.cache", "cold_pts_per_s", LOCAL),
    "runtime.cache.stats_ms": ("runtime.cache", "cold_pts_per_s (stats poll beside writes)", DAEMON),
    "runtime.cache.stats_entries": ("runtime.cache", "context for runtime.cache.stats_ms", ALL),
    "runtime.cache.hit_ratio": ("runtime.cache", "reuse_pts_per_s", LOCAL),
    "runtime.session.overhead_ms": ("runtime.session", "run_p50_ms, reuse_pts_per_s", LOCAL),
    # service: protocol, jobs, daemon, client
    "service.protocol.ping_ms": ("service", "run_p50_ms", DAEMON),
    "service.protocol.wire_us_per_pt": ("service", "reuse_pts_per_s", DAEMON),
    "service.jobs.from_batch_ms": ("service", "cold_pts_per_s", DAEMON),
    "service.jobs.save_ms": ("service", "cold_pts_per_s", DAEMON),
    "service.jobs.save_ms.x4": ("service", "cold_pts_per_s", DAEMON),
    "service.jobs.save_growth.x4": ("service", "cold_pts_per_s", DAEMON),
    "service.jobs.state_bytes": ("service", "cold_pts_per_s", DAEMON),
    "service.jobs.state_bytes.x4": ("service", "cold_pts_per_s", DAEMON),
    "service.jobs.saves_per_job": ("service", "cold_pts_per_s", DAEMON),
    "service.jobs.saves_per_job.x4": ("service", "cold_pts_per_s", DAEMON),
    "service.daemon.submit_ms": ("service", "cold_pts_per_s, reuse_pts_per_s", DAEMON),
    "service.daemon.claim_ms": ("service", "cold_pts_per_s", DAEMON),
    "service.daemon.complete_ms": ("service", "cold_pts_per_s", DAEMON),
    "service.daemon.result_ms": ("service", "reuse_pts_per_s", DAEMON),
    "service.daemon.stats_ms": ("service", "cold_pts_per_s (stats poll beside writes)", DAEMON),
    "service.client.wait_quantum_ms": ("service", "run_p50_ms", DAEMON),
    "service.stats.points_executed": ("service", "cold_pts_per_s", DAEMON),
    "service.stats.points_from_cache": ("service", "reuse_pts_per_s", DAEMON),
    "service.stats.dedup_hits": ("service", "reuse_pts_per_s", DAEMON),
    "service.stats.lease_losses": ("service", "cold_pts_per_s", DAEMON),
    # cross-layer
    "ledger.unattributed_frac": ("ledger", "all (what the per-point ledger cannot see)", DAEMON),
    "trace.overhead_frac": ("trace", "none (cost of the benchmark's spans)", ALL),
    "trace.session_self_ms_per_pt": ("runtime.session", "run_p50_ms, reuse_pts_per_s", LOCAL),
    "machine.calibration_ms": ("machine", "none (the speed the end-to-end figures are rescaled by)", ALL),
}
