# Runs a byte-compared tool with its stdout sent to a device that refuses
# every write and checks that the failure is reported: exit status 1 and
# the "<NAME>: cannot write stdout" diagnostic on stderr.
#
#   cmake -DNAME=round_dump -DTOOL=<round_dump> -DFULL=/dev/full
#         -P stdout_write_failure.cmake
#   cmake -DNAME=journal_query -DTOOL=<journal_query> -DDRIVER=<engine_driver>
#         -DJOURNAL=<scratch path> -DFULL=/dev/full -P stdout_write_failure.cmake
#
# journal_query needs a journal to read: DRIVER writes one to JOURNAL
# first, and the query exports it with --jsonl.
if(NAME STREQUAL "round_dump")
  set(args --requests 50 --offers 20)
elseif(NAME STREQUAL "journal_query")
  execute_process(COMMAND ${DRIVER} --requests 40 --journal-out ${JOURNAL}
                  OUTPUT_QUIET RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "engine_driver could not write the journal: '${status}'")
  endif()
  set(args ${JOURNAL} --jsonl)
else()
  message(FATAL_ERROR "unknown NAME '${NAME}'")
endif()

execute_process(COMMAND ${TOOL} ${args} OUTPUT_FILE ${FULL}
                RESULT_VARIABLE status ERROR_VARIABLE err)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "expected exit 1, got '${status}'; stderr: ${err}")
endif()
set(want "${NAME}: cannot write stdout")
string(FIND "${err}" "${want}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${want}': ${err}")
endif()
