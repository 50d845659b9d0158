# expect_exit.cmake — run one command and require its exit code and a
# stderr pattern; CTest's own pass/fail regexes cannot check both.
#
#   cmake -DEXE=<program> -DARGS=<arg|arg|...> -DEXIT=<code>
#         -DMATCH=<regex> [-DOUT_MATCH=<regex>] -P expect_exit.cmake
#
# ARGS separates arguments with '|' so a list survives add_test. OUT_MATCH,
# when given, must also match stdout.
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
if(DEFINED OUT_MATCH AND NOT out MATCHES "${OUT_MATCH}")
  message(FATAL_ERROR "stdout does not match '${OUT_MATCH}':\n${out}")
endif()
