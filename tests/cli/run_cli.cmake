# Runs one ipfs_sim command line and checks what it prints (ctest label
# `cli`).  Invoked as `cmake -D... -P run_cli.cmake` with:
#   SIM          path to the ipfs_sim binary
#   ARGS         its arguments
#   CODE         the exit code the command must return
#   OUT_ONCE     regexes that must each match stdout exactly once
#   ERR_ONCE     regexes that must each match stderr exactly once
#   ERR_HAS      regexes that must each match stderr at least once
# Every list is `|`-separated, so no argument or regex may contain `|`.
foreach(list ARGS OUT_ONCE ERR_ONCE ERR_HAS)
  string(REPLACE "|" ";" ${list} "${${list}}")
endforeach()
execute_process(COMMAND "${SIM}" ${ARGS}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)

set(failures "")
if(NOT code STREQUAL "${CODE}")
  string(APPEND failures "exit code ${code}, expected ${CODE}\n")
endif()

function(count_matches text regex result)
  string(REGEX MATCHALL "${regex}" matches "${text}")
  list(LENGTH matches n)
  set(${result} ${n} PARENT_SCOPE)
endfunction()

foreach(regex IN LISTS OUT_ONCE)
  count_matches("${out}" "${regex}" n)
  if(NOT n EQUAL 1)
    string(APPEND failures "stdout matches '${regex}' ${n} times, expected once\n")
  endif()
endforeach()
foreach(regex IN LISTS ERR_ONCE)
  count_matches("${err}" "${regex}" n)
  if(NOT n EQUAL 1)
    string(APPEND failures "stderr matches '${regex}' ${n} times, expected once\n")
  endif()
endforeach()
foreach(regex IN LISTS ERR_HAS)
  count_matches("${err}" "${regex}" n)
  if(n EQUAL 0)
    string(APPEND failures "stderr does not match '${regex}'\n")
  endif()
endforeach()

if(failures)
  message(FATAL_ERROR "ipfs_sim ${ARGS}:\n${failures}--- stderr:\n${err}")
endif()
