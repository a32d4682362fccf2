# Run one program and require its stdout to equal a golden file byte for
# byte. Used as `cmake -DPROGRAM=<exe> -DGOLDEN=<file> -P compare_stdout.cmake`.
if(NOT PROGRAM OR NOT GOLDEN)
    message(FATAL_ERROR "compare_stdout: set PROGRAM and GOLDEN")
endif()
execute_process(COMMAND ${PROGRAM}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "compare_stdout: ${PROGRAM} exited with ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "compare_stdout: ${PROGRAM} output differs from "
                        "${GOLDEN}\n--- got ---\n${actual}")
endif()
