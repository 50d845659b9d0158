# expect_exit.cmake — run one command and require its exit code and a
# stderr pattern; CTest's own pass/fail regexes cannot check both.
#
#   cmake -DEXE=<program> -DARGS=<arg|arg|...> -DEXIT=<code>
#         -DMATCH=<regex> -P expect_exit.cmake
#
# ARGS separates arguments with '|' so a list survives add_test.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXIT}")
  message(FATAL_ERROR
    "expected exit ${EXIT}, got '${code}'\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR "stderr does not match '${MATCH}':\n${err}")
endif()
