# Golden-report check for one corpus trace:
#
#   cmake -DHEAPMD=<heapmd> -DSTEM=<name> -P audit_golden.cmake
#
# run in tests/data.  Runs `heapmd audit --deep 1 --trace <name>.trace`
# and fails unless its stdout equals <name>.audit byte for byte.  The
# audit's exit status is its verdict (0 clean, 3 findings), not a
# failure of this check; a crash is.
execute_process(
    COMMAND ${HEAPMD} audit --deep 1 --trace ${STEM}.trace
    OUTPUT_VARIABLE actual
    RESULT_VARIABLE status)
if(NOT status MATCHES "^[0-3]$")
    message(FATAL_ERROR "audit of ${STEM}.trace failed: ${status}")
endif()
file(READ ${STEM}.audit expected)
if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "audit of ${STEM}.trace differs from "
        "${STEM}.audit\n--- expected\n${expected}--- actual\n${actual}")
endif()
