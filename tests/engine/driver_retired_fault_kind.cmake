# Runs engine_driver with fault plans that name what no hook point reads:
# the two retired overlay-message kinds and the retired `payload=` field,
# plus one malformed crash plan.  Each must be refused before the run
# starts: exit status 2 and one "engine_driver: bad --<flag>" line on
# stderr that names the offending token and no source file.
#
#   cmake -DDRIVER=<engine_driver> -DWAL_DIR=<scratch dir> -P driver_retired_fault_kind.cmake
function(expect_refused flag plan token)
  execute_process(COMMAND ${DRIVER} --requests 40 ${ARGN} --${flag} ${plan}
                  OUTPUT_QUIET RESULT_VARIABLE status ERROR_VARIABLE err)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "${flag} '${plan}': expected exit 2, got '${status}'; stderr: ${err}")
  endif()
  string(FIND "${err}" "engine_driver: bad --${flag}" at)
  string(REGEX MATCHALL "\n" lines "${err}")
  list(LENGTH lines nlines)
  if(at EQUAL -1 OR NOT nlines EQUAL 1)
    message(FATAL_ERROR "${flag} '${plan}': want one diagnostic line, got: ${err}")
  endif()
  string(FIND "${err}" "'${token}'" named)
  if(named EQUAL -1)
    message(FATAL_ERROR "${flag} '${plan}': diagnostic does not name '${token}': ${err}")
  endif()
  string(FIND "${err}" ".cpp" leaked)
  if(NOT leaked EQUAL -1)
    message(FATAL_ERROR "${flag} '${plan}': diagnostic names a source file: ${err}")
  endif()
endfunction()

expect_refused(fault-plan "drop_message:p=1" "drop_message")
expect_refused(fault-plan "delay_message:p=1" "delay_message")
expect_refused(fault-plan "withhold_reveal:p=1:payload=500" "payload")
expect_refused(crash-plan "crash_at_site:attempts=0:idx=3" "idx" --wal-dir ${WAL_DIR})
