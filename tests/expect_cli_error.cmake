# Runs BIN with the flags in ARGS and passes only when it exits non-zero
# within 5 s and its output matches the regex EXPECT (the flag or limit
# the error must name). A binary that hangs on the flags is killed at
# 5 s and fails the test.
#
#   cmake -DBIN=<binary> "-DARGS=<flags>" -DEXPECT=<regex> \
#         -P expect_cli_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE out
                TIMEOUT 5)
if(NOT rc MATCHES "^[1-9][0-9]*$")
  message(FATAL_ERROR "expected a non-zero exit, got: ${rc}\n${out}")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "output does not match '${EXPECT}':\n${out}")
endif()
