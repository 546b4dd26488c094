# Fails unless the bench record JSON (BENCH_<name>.json, written by a
# bench's --json) holds headline metric METRIC with value 1, i.e. every
# verdict behind that metric passed.
#
#   cmake -DJSON=<BENCH_name.json> -DMETRIC=<key> -P expect_metric.cmake
file(READ "${JSON}" record)
string(REPLACE "." "\\." key "${METRIC}")
if(NOT record MATCHES "\"${key}\": ([^,\n}]+)")
    message(FATAL_ERROR "${JSON} has no metric ${METRIC}")
endif()
if(NOT CMAKE_MATCH_1 EQUAL 1)
    message(FATAL_ERROR "${METRIC} = ${CMAKE_MATCH_1} in ${JSON}")
endif()
message(STATUS "${METRIC} = 1")
