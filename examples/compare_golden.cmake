# Runs an example (or a figure bench) and compares its stdout byte for
# byte with the committed golden file; on a mismatch the actual output
# is kept next to the build for diffing.
#
#   cmake -DEXAMPLE=<binary> -DGOLDEN=<file> -DACTUAL=<file> \
#         -P compare_golden.cmake
execute_process(COMMAND ${EXAMPLE} OUTPUT_FILE ${ACTUAL}
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "output differs from the golden file:\n"
                      "  diff ${GOLDEN} ${ACTUAL}")
endif()
