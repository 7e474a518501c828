# A `--check-baseline` file is read by the document's schema before any
# section runs: one missing a field fails at once (exit 1, naming the
# field), and writes no --out file.  A repeated flag is a usage error
# (exit 2), also before anything runs.  Invoked as
# `cmake -D... -P rejects_stale_baseline.cmake`:
#   SUITE     path to the perf_suite binary
#   BASELINE  the committed BENCH_core.json (read only)
#   WORKDIR   a scratch directory in the build tree
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
file(READ "${BASELINE}" baseline)
string(JSON stale REMOVE "${baseline}" peerstore list_speedup)
file(WRITE "${WORKDIR}/stale.json" "${stale}")

execute_process(COMMAND "${SUITE}" --smoke --out "${WORKDIR}/out.json"
                        --check-baseline "${WORKDIR}/stale.json"
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "1")
  message(FATAL_ERROR "stale baseline: exit code ${code}, expected 1\n--- stderr:\n${err}")
endif()
if(NOT err MATCHES "peerstore[.]list_speedup: missing required field")
  message(FATAL_ERROR "stale baseline: stderr does not name the field:\n${err}")
endif()
if(EXISTS "${WORKDIR}/out.json")
  message(FATAL_ERROR "stale baseline: the run wrote ${WORKDIR}/out.json")
endif()

foreach(args "--smoke;--smoke"
             "--out;${WORKDIR}/a.json;--out;${WORKDIR}/b.json"
             "--check-baseline;${BASELINE};--check-baseline;${BASELINE}")
  execute_process(COMMAND "${SUITE}" ${args}
                  WORKING_DIRECTORY "${WORKDIR}"
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  list(GET args 0 flag)
  if(NOT code STREQUAL "2")
    message(FATAL_ERROR "${args}: exit code ${code}, expected 2\n--- stderr:\n${err}")
  endif()
  if(NOT err MATCHES "perf_suite: ${flag}: given more than once")
    message(FATAL_ERROR "${args}: stderr does not name the repeated flag:\n${err}")
  endif()
endforeach()
file(GLOB written "${WORKDIR}/*.json")
if(NOT written STREQUAL "${WORKDIR}/stale.json")
  message(FATAL_ERROR "a refused command line wrote: ${written}")
endif()
