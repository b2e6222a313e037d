# Runs engine_driver with fault plans that name what no hook point reads:
# the two retired overlay-message kinds and the retired `payload=` field.
# Each must be refused before the run starts: exit status 2 and one
# "engine_driver: bad --fault-plan" line on stderr.
#
#   cmake -DDRIVER=<engine_driver> -P driver_retired_fault_kind.cmake
foreach(plan "drop_message:p=1" "delay_message:p=1" "withhold_reveal:p=1:payload=500")
  execute_process(COMMAND ${DRIVER} --requests 40 --fault-plan ${plan}
                  OUTPUT_QUIET RESULT_VARIABLE status ERROR_VARIABLE err)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "plan '${plan}': expected exit 2, got '${status}'; stderr: ${err}")
  endif()
  string(FIND "${err}" "engine_driver: bad --fault-plan" at)
  string(REGEX MATCHALL "\n" lines "${err}")
  list(LENGTH lines nlines)
  if(at EQUAL -1 OR NOT nlines EQUAL 1)
    message(FATAL_ERROR "plan '${plan}': want one diagnostic line, got: ${err}")
  endif()
endforeach()
