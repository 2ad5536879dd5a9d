# Run one example and compare its standard output byte-for-byte
# with the committed expected file. Fails when the example exits
# non-zero or prints anything else.
#
#   cmake -DEXAMPLE=<binary> -DEXPECTED=<file> -P compare_output.cmake
execute_process(COMMAND ${EXAMPLE}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${EXAMPLE} exited with ${status}")
endif()
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
    message(FATAL_ERROR
            "${EXAMPLE}: standard output differs from ${EXPECTED}\n"
            "--- actual output ---\n${actual}")
endif()
