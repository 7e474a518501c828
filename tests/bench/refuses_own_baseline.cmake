# `perf_suite --check-baseline FILE` with --out left at its default must
# not overwrite the baseline it checks against: it exits 2 before any
# section runs.  Invoked as `cmake -D... -P refuses_own_baseline.cmake`:
#   SUITE     path to the perf_suite binary
#   BASELINE  the committed BENCH_core.json (read only)
#   WORKDIR   a scratch directory in the build tree that receives a copy
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
file(COPY "${BASELINE}" DESTINATION "${WORKDIR}")
file(SHA256 "${WORKDIR}/BENCH_core.json" before)
execute_process(COMMAND "${SUITE}" --smoke --check-baseline BENCH_core.json
                WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
file(SHA256 "${WORKDIR}/BENCH_core.json" after)
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "exit code ${code}, expected 2\n--- stderr:\n${err}")
endif()
if(NOT before STREQUAL after)
  message(FATAL_ERROR "the baseline copy changed")
endif()
if(NOT err MATCHES "is the --check-baseline file")
  message(FATAL_ERROR "stderr does not name the clash:\n${err}")
endif()
