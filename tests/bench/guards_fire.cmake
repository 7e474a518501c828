# The guards that compare this run with committed values must fire: on a
# copy of the baseline with event_queue.speedup_vs_heap and
# peerstore.list_speedup x100 and content_fabric.allocs_per_fetch /100, a
# smoke run exits 1 naming all three.  Invoked as
# `cmake -D... -P guards_fire.cmake`:
#   SUITE     path to the perf_suite binary
#   BASELINE  the committed BENCH_core.json (read only)
#   WORKDIR   a scratch directory in the build tree
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
file(READ "${BASELINE}" doctored)
# CMake has no floating-point math: scale by appending an exponent.
foreach(change "event_queue;speedup_vs_heap;e2"
               "peerstore;list_speedup;e2"
               "content_fabric;allocs_per_fetch;e-2")
  list(GET change 0 section)
  list(GET change 1 field)
  list(GET change 2 exponent)
  string(JSON value GET "${doctored}" ${section} ${field})
  string(JSON doctored SET "${doctored}" ${section} ${field} "${value}${exponent}")
endforeach()
file(WRITE "${WORKDIR}/doctored.json" "${doctored}")

execute_process(COMMAND "${SUITE}" --smoke --out "${WORKDIR}/out.json"
                        --check-baseline "${WORKDIR}/doctored.json"
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "1")
  message(FATAL_ERROR "exit code ${code}, expected 1\n--- stderr:\n${err}")
endif()
foreach(guard event_queue.speedup_vs_heap peerstore.list_speedup
              content_fabric.allocs_per_fetch)
  string(REPLACE "." "[.]" pattern "${guard}")
  if(NOT err MATCHES "FAIL — ${pattern} is ")
    message(FATAL_ERROR "stderr does not name ${guard}:\n${err}")
  endif()
endforeach()
