# Runs a command and fails unless it exits with exactly EXPECT. With
# NO_FILE set, also fails if the command left that file behind; with
# STDOUT_MATCHES set, also fails unless its standard output matches that
# regular expression; with STDOUT_JSON set, also fails unless its standard
# output parses as JSON.
#
#   cmake -DEXPECT=2 [-DNO_FILE=<path>] [-DSTDOUT_MATCHES=<regex>]
#         [-DSTDOUT_JSON=ON] -P expect_exit.cmake <command> <args>...
set(cmd "")
set(seen_script FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(seen_script)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} MATCHES "expect_exit\\.cmake$")
    set(seen_script TRUE)
  endif()
endforeach()
if(NO_FILE)
  file(REMOVE "${NO_FILE}")
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit status ${rc}, expected ${EXPECT}: ${cmd}\n${err}")
endif()
if(DEFINED STDOUT_MATCHES AND NOT out MATCHES "${STDOUT_MATCHES}")
  message(FATAL_ERROR "${cmd}: stdout does not match ${STDOUT_MATCHES}:\n"
                      "${out}")
endif()
if(STDOUT_JSON)
  # string(JSON) ignores text after the first value, so the stripped output
  # must also end where an object or array does.
  string(JSON json_type ERROR_VARIABLE json_err TYPE "${out}")
  string(STRIP "${out}" stripped)
  if(json_err)
    message(FATAL_ERROR "${cmd}: stdout is not JSON: ${json_err}")
  elseif(NOT stripped MATCHES "[]}]$")
    message(FATAL_ERROR "${cmd}: text after the JSON on stdout:\n${out}")
  endif()
endif()
if(NO_FILE AND EXISTS "${NO_FILE}")
  message(FATAL_ERROR "${cmd} wrote ${NO_FILE}")
endif()
