# End-to-end check of the --trace-events claim, run as a ctest command:
#
#   cmake -DBENCH=<fig3_reuse_cdf> -DOUT=<file-prefix> -P trace_events.cmake
#
# 1. --trace-cell=canneal at --jobs=4 writes one chrome://tracing file
#    for that cell: schema maps-trace-v1, at least one sampled request,
#    and a non-empty traceEvents array of complete ("ph":"X") spans.
# 2. A --trace-cell that names no cell writes no file and warns on
#    stderr, naming both flags; the exit code stays 0.
cmake_minimum_required(VERSION 3.19) # string(JSON)

foreach(var BENCH OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "trace_events.cmake: -D${var}=... is required")
    endif()
endforeach()

set(trace ${OUT}.json)
file(REMOVE ${trace})
execute_process(
    COMMAND ${BENCH} --scale=0.01 --seed=3 --format=json --no-progress
            --jobs=4 --trace-events=${trace} --trace-sample=64
            --trace-cell=canneal --out=${OUT}.jsonl
    RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${run_rc}")
endif()
if(NOT EXISTS ${trace})
    message(FATAL_ERROR "--trace-cell=canneal wrote no ${trace}")
endif()

file(READ ${trace} body)
string(JSON schema GET "${body}" otherData schema)
string(JSON cell GET "${body}" otherData cell)
string(JSON sampled GET "${body}" otherData requests_sampled)
string(JSON events LENGTH "${body}" traceEvents)
if(NOT schema STREQUAL "maps-trace-v1")
    message(FATAL_ERROR "trace schema is '${schema}', not maps-trace-v1")
endif()
if(NOT cell STREQUAL "canneal")
    message(FATAL_ERROR "trace claimed by cell '${cell}', not canneal")
endif()
if(sampled LESS 1)
    message(FATAL_ERROR "trace sampled ${sampled} requests")
endif()
if(events LESS 1)
    message(FATAL_ERROR "trace has no traceEvents")
endif()
# Every event is a complete span: as many "ph":"X" as events, and no
# other phase. (Indexing each event with string(JSON) is quadratic.)
string(REGEX MATCHALL "\"ph\":\"[^\"]*\"" phases "${body}")
string(REGEX MATCHALL "\"ph\":\"X\"" complete "${body}")
list(LENGTH phases n_phases)
list(LENGTH complete n_complete)
if(NOT n_phases EQUAL events OR NOT n_complete EQUAL events)
    message(FATAL_ERROR "${events} events but ${n_phases} phase fields, "
        "${n_complete} of them \"X\"")
endif()

# A filter that matches nothing: no file, one warning, exit 0.
set(missing ${OUT}.nomatch.json)
file(REMOVE ${missing})
execute_process(
    COMMAND ${BENCH} --scale=0.01 --seed=3 --format=json --no-progress
            --jobs=4 --trace-events=${missing} --trace-cell=nosuch
            --out=${OUT}.nomatch.jsonl
    RESULT_VARIABLE run_rc
    ERROR_VARIABLE err)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "--trace-cell=nosuch run exited with ${run_rc}")
endif()
if(EXISTS ${missing})
    message(FATAL_ERROR "--trace-cell=nosuch still wrote ${missing}")
endif()
string(FIND "${err}" "--trace-events=${missing}" at_events)
string(FIND "${err}" "--trace-cell=nosuch" at_cell)
if(at_events EQUAL -1 OR at_cell EQUAL -1)
    message(FATAL_ERROR "no warning naming --trace-events and "
        "--trace-cell on stderr; got: '${err}'")
endif()
