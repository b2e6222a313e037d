# Runs engine_driver with one output sent to a device that refuses every
# write and checks that the failure is reported: exit status 1 and the
# "engine_driver: cannot write <path>" diagnostic on stderr.
#
#   cmake -DDRIVER=<engine_driver> -DWHICH=<metrics|journal|stdout>
#         -DFULL=/dev/full -P driver_write_failure.cmake
set(args --requests 40)
set(redirect OUTPUT_QUIET)
if(WHICH STREQUAL "metrics")
  list(APPEND args --metrics-out ${FULL})
  set(want "engine_driver: cannot write ${FULL}")
elseif(WHICH STREQUAL "journal")
  list(APPEND args --journal-out ${FULL})
  set(want "engine_driver: cannot write ${FULL}")
elseif(WHICH STREQUAL "stdout")
  set(redirect OUTPUT_FILE ${FULL})
  set(want "engine_driver: cannot write stdout")
else()
  message(FATAL_ERROR "unknown WHICH '${WHICH}'")
endif()

execute_process(COMMAND ${DRIVER} ${args} ${redirect}
                RESULT_VARIABLE status ERROR_VARIABLE err)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "expected exit 1, got '${status}'; stderr: ${err}")
endif()
string(FIND "${err}" "${want}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${want}': ${err}")
endif()
