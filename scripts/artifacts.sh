# The artifact manifest: which bench targets exist, which artifacts they
# write and which of those the perf gate compares against baselines/.
# Sourced by tier1.sh, perfgate.sh and report.sh; a new bench or a newly
# gated artifact is one edit here. (CI uploads BENCH_*.json by glob.)

# Every bench target of crates/bench (tier1 --smoke runs each with --test).
BENCH_TARGETS=(table3 table4 table5 table6 fig5 ablations obs_report
               chaos_soak service_bench)

# Artifacts gated against baselines/ (smoke-mode snapshots), and the
# benches whose smoke run rewrites them.
GATE_BENCHES=(obs_report chaos_soak ablations service_bench table4 table5)
GATED_ARTIFACTS=(BENCH_obs_FFT.json BENCH_obs_RADIX.json BENCH_chaos.json
                 BENCH_ablations.json BENCH_service.json BENCH_table4.json
                 BENCH_table5.json)

# NDJSON metric streams the obs_report, chaos_soak and service_bench runs
# leave in target/artifacts.
STREAM_ARTIFACTS=(stream_FFT.ndjson stream_RADIX.ndjson
                  stream_CHAOS_FFT.ndjson stream_service.ndjson)

# Everything scripts/report.sh regenerates at full size and tier1 --smoke
# validates. BENCH_table6/fig5/fig6 are written by full-size runs only
# (fig5 writes both figures).
SMOKE_ARTIFACTS=("${GATED_ARTIFACTS[@]}" BENCH_table3.json
                 target/artifacts/trace_fft.json)
ALL_ARTIFACTS=("${SMOKE_ARTIFACTS[@]}" BENCH_table6.json BENCH_fig5.json
               BENCH_fig6.json "${STREAM_ARTIFACTS[@]/#/target/artifacts/}")
