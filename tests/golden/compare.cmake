# Golden-output comparison, run as a ctest command:
#
#   cmake -DBENCH=<binary> -DJOBS=<n> -DGOLDEN=<file> -DOUT=<file>
#         [-DARGS="<extra flags>"] -P compare.cmake
#
# Runs the bench at the canonical golden operating point
# (--scale=0.01 --seed=3 --format=json --no-progress), plus the optional
# extra flags, with the requested job count and byte-compares the JSON
# against the committed golden.
# Any drift — numeric, ordering, or formatting — fails the test.
foreach(var BENCH JOBS GOLDEN OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "compare.cmake: -D${var}=... is required")
    endif()
endforeach()

separate_arguments(extra_args UNIX_COMMAND "${ARGS}")
execute_process(
    COMMAND ${BENCH} --scale=0.01 --seed=3 --format=json --no-progress
            ${extra_args} --jobs=${JOBS} --out=${OUT}
    RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${run_rc}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
    RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
    execute_process(COMMAND diff -u ${GOLDEN} ${OUT})
    message(FATAL_ERROR
        "golden mismatch: ${OUT} differs from ${GOLDEN} (jobs=${JOBS}). "
        "If the change is intentional, regenerate per tests/golden/README.md.")
endif()
