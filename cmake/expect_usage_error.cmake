# CTest helper: run TOOL with ARGS (one space-separated string) and
# require a usage error — exit status 2 and a "usage:" line on
# stderr. Registered by tools/CMakeLists.txt for malformed flags.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "expected exit status 2, got '${rc}'\n${out}${err}")
endif()
if(NOT err MATCHES "usage:")
    message(FATAL_ERROR "no usage message on stderr:\n${err}")
endif()
