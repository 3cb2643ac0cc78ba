# CTest helper: run the chaos grid TOOL with ARGS (one space-separated
# string) plus --out-dir OUT_DIR and require it to fail (exit 2), then
# run the replay command from the first .repro it wrote — through the
# shell, exactly as a user would paste it — and require that to fail
# too. A replay line that drops a flag the failure depends on passes
# instead, and fails this check. Registered by tools/CMakeLists.txt.
file(REMOVE_RECURSE "${OUT_DIR}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${TOOL} ${args} --out-dir ${OUT_DIR}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR
            "grid: expected exit status 2, got '${rc}'\n${out}${err}")
endif()

file(GLOB repros "${OUT_DIR}/*.repro")
list(SORT repros)
list(LENGTH repros n)
if(n EQUAL 0)
    message(FATAL_ERROR "grid failed but wrote no .repro in ${OUT_DIR}")
endif()
list(GET repros 0 repro)
file(STRINGS "${repro}" lines REGEX "^xui_chaos ")
list(LENGTH lines n)
if(NOT n EQUAL 1)
    message(FATAL_ERROR "${repro}: expected one replay line")
endif()
string(REGEX REPLACE "^xui_chaos" "\"${TOOL}\"" cmd "${lines}")

execute_process(COMMAND sh -c "${cmd}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT out MATCHES ": FAIL\n")
    message(FATAL_ERROR
            "replay of ${repro} did not reproduce the failure "
            "(exit '${rc}'):\n${cmd}\n${out}${err}")
endif()
