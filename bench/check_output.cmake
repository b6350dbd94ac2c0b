# Runs one paper harness and checks it: exit 0, and stdout+stderr
# byte-identical to its committed capture.
#   cmake -DEXE=<harness> -DEXPECTED=<file> -DACTUAL=<file> -P check_output.cmake
# Both pipes go to one file, as `EXE > ACTUAL 2>&1` would write it.
execute_process(COMMAND ${EXE}
                OUTPUT_FILE ${ACTUAL}
                ERROR_FILE ${ACTUAL}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}; output in ${ACTUAL}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED} ${ACTUAL}
                RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u ${EXPECTED} ${ACTUAL})
  message(FATAL_ERROR "${ACTUAL} differs from ${EXPECTED}. A change that "
          "moves a printed number regenerates the file and names the move.")
endif()
