# Runs CLI with ARGS (a |-separated argument list) and passes only if it exits
# 2 with an "error:" line on stderr that names EXPECT, the offending argument.
#
#   cmake -DCLI=path/to/vpga_flow_cli "-DARGS=--flow|abc" -DEXPECT=--flow \
#         -P expect_usage_error.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${CLI} ${args} RESULT_VARIABLE rc ERROR_VARIABLE err
                OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2, got '${rc}'\n${err}")
endif()
if(NOT err MATCHES "error: [^\n]*${EXPECT}")
  message(FATAL_ERROR "no 'error:' line naming ${EXPECT}:\n${err}")
endif()
