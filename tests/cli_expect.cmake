# Runs one pioblast_cli invocation and checks how it ends (ctest label: cli).
#
#   cmake -DCLI=<pioblast_cli> -DARGS="--procs=1|--seed=3" -DEXPECT_RC=2
#         -DEXPECT_ERR=<regex> [-DEXPECT_OUT=<regex>] -P cli_expect.cmake
#
# ARGS is '|'-separated (a ';' list would be split by add_test). Fails unless
# the exit status is exactly EXPECT_RC and stderr matches EXPECT_ERR (when
# given) and stdout matches EXPECT_OUT (when given). Patterns are not
# anchored: sanitizer builds may print warnings before the message.
string(REPLACE "|" ";" cli_args "${ARGS}")
execute_process(COMMAND "${CLI}" ${cli_args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT_RC)
  message(FATAL_ERROR "exit status '${rc}', want ${EXPECT_RC}; stderr:\n${err}")
endif()
if(DEFINED EXPECT_ERR AND NOT err MATCHES "${EXPECT_ERR}")
  message(FATAL_ERROR "stderr does not match '${EXPECT_ERR}':\n${err}")
endif()
if(DEFINED EXPECT_OUT AND NOT out MATCHES "${EXPECT_OUT}")
  message(FATAL_ERROR "stdout does not match '${EXPECT_OUT}':\n${out}")
endif()
