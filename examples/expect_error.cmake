# Runs an example that must reject its input: passes only when it exits
# with status 1 and its output matches EXPECT (a regular expression).
#
#   cmake -DEXAMPLE=<binary> "-DARGS=<arg|arg|...>" -DEXPECT=<regex> \
#         -P expect_error.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${EXAMPLE} ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
message("${out}${err}")
if(NOT status EQUAL 1)
  message(FATAL_ERROR "${EXAMPLE} exited with '${status}', expected 1")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}'")
endif()
