# Run BIN and compare its stdout with the file GOLDEN byte for byte.
#
#   cmake -DBIN=<program> -DGOLDEN=<file> -P check.cmake
#
# On a mismatch the actual output is written next to the test's
# working directory as <golden name>.actual, so `diff` shows the drift.
execute_process(COMMAND ${BIN} OUTPUT_VARIABLE actual
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} exited with status ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    get_filename_component(name ${GOLDEN} NAME)
    file(WRITE ${name}.actual "${actual}")
    message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}; "
                        "it was written to ${name}.actual")
endif()
