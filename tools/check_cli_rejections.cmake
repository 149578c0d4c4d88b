# Usage-error contract for the analysis CLIs: every malformed or
# out-of-contract flag value must be rejected up front with the usage exit
# code (1) — never clamped, never silently ignored, and never deferred until
# after a partial analysis has run.
#
# Regression matrix (each bug here shipped or nearly shipped once):
#   * --whatif site numbers that overflow uint32 ("stmt#4294967296") used to
#     wrap modulo 2^32 and speed up an unrelated statement;
#   * --whatif percentages outside (0, 100] used to be accepted and produce
#     nonsense negative or zero costs;
#   * --whatif-rank 0 / negative used to be clamped to a huge unsigned value;
#   * a --whatif spec without a colon must not run the analysis without it;
#   * negative probe costs used to flow into the overhead model as credits.
#
# Invoked by ctest with -DANALYZE=<perturb-analyze>
# -DEXPERIMENT=<perturb-experiment> -DARTIFACTS=<paper_artifacts>
# -DTRACE_FILE=<any valid .ptt>.

function(expect_usage_error)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE code
    OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR
      "expected usage exit 1 from '${ARGN}', got ${code} (stderr: ${err})")
  endif()
  if(NOT err MATCHES "error:|usage:")
    message(FATAL_ERROR "no diagnostic from '${ARGN}': ${err}")
  endif()
endfunction()

# Site number one past UINT32_MAX: must be an unknown-site rejection, not a
# wrap onto whatever statement 0 happens to be.  Unlike the spec-syntax cases
# below this one is only reachable after a real analysis (site resolution
# runs against the recovered trace), hence the probe flags.
execute_process(COMMAND "${ANALYZE}" "${TRACE_FILE}"
  --stmt-probe 175 --sync-probe 90 --control-probe 60
  "--whatif=stmt#4294967296:50"
  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code EQUAL 1)
  message(FATAL_ERROR
    "overflowing site number: expected usage exit 1, got ${code}: ${err}")
endif()
if(NOT err MATCHES "unknown site")
  message(FATAL_ERROR "overflowing site number: unhelpful diagnosis: ${err}")
endif()

# A --whatif spec without a colon is malformed, not analyzed without it.
expect_usage_error("${ANALYZE}" "${TRACE_FILE}" "--whatif=no-colon-here")

# What-if percentages: contract is 0 < pct <= 100.
expect_usage_error("${ANALYZE}" "${TRACE_FILE}" "--whatif=stmt#1:0")
expect_usage_error("${ANALYZE}" "${TRACE_FILE}" "--whatif=stmt#1:101")
expect_usage_error("${ANALYZE}" "${TRACE_FILE}" "--whatif=stmt#1:-5")
expect_usage_error("${ANALYZE}" "${TRACE_FILE}" "--whatif=stmt#1:banana")

# Ranked what-if counts: 0 and negatives are meaningless, not "all".
expect_usage_error("${ANALYZE}" "${TRACE_FILE}" --whatif-rank=0)
expect_usage_error("${ANALYZE}" "${TRACE_FILE}" --whatif-rank=-3)

# Negative probe costs are not credits.
expect_usage_error("${ANALYZE}" "${TRACE_FILE}" --stmt-probe=-175)
expect_usage_error("${ANALYZE}" "${TRACE_FILE}" --lock-acquire=-1)

# Workload descriptors: unknown family (never a fallback to a Livermore run),
# malformed seed, unknown knob.
expect_usage_error("${EXPERIMENT}" --workload=zipf:7)
expect_usage_error("${EXPERIMENT}" --workload=pareto:notaseed)
expect_usage_error("${EXPERIMENT}" --workload=pareto:7:tailiness=2.0)
expect_usage_error("${EXPERIMENT}" --workload=pareto:7:alpha=0.5)

# The paper-artifacts driver: an unknown artifact name or option is a usage
# error (exit 1), never a run of some default artifact; exit 2 is reserved
# for a failed shape claim.
expect_usage_error("${ARTIFACTS}" fig9)
expect_usage_error("${ARTIFACTS}")
expect_usage_error("${ARTIFACTS}" table1 --threads 4)
expect_usage_error("${ARTIFACTS}" table1 --n 0)
expect_usage_error("${ARTIFACTS}" all --csv=one.csv)
