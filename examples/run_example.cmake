# Runs one example as a ctest case: it passes only when the example
# exits 0 and its standard output matches EXPECT (a regular expression).
#
#   cmake -DEXE=<example binary> -DEXPECT=<regex> -P run_example.cmake
execute_process(COMMAND "${EXE}" RESULT_VARIABLE rc OUTPUT_VARIABLE out)
message("${out}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with '${rc}'")
endif()
if(NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "${EXE} printed no line matching '${EXPECT}'")
endif()
