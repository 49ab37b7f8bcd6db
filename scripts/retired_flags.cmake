# Retired-option pin: every flag or sweep axis the project removed must be
# rejected up front — exit code 2 with a message naming the key — instead of
# being silently ignored by a run that then measures something else.
#
#   cmake -DBIN=<adccbench> -P scripts/retired_flags.cmake
if(NOT DEFINED BIN)
  message(FATAL_ERROR "retired_flags.cmake: -DBIN=... is required")
endif()

# Each entry: <argument>|<key the error message must name>.
set(cases
    "--ckpt_async_depth=2|ckpt_async_depth"
    "--ckpt_dirty_commit=1|ckpt_dirty_commit"
    "--ckpt_compress=lz|ckpt_compress"
    "--sweep=ckpt_dirty_commit=0+1|ckpt_dirty_commit")
foreach(entry IN LISTS cases)
  string(REPLACE "|" ";" parts "${entry}")
  list(GET parts 0 arg)
  list(GET parts 1 key)
  execute_process(COMMAND ${BIN} ${arg} --quick
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "retired_flags.cmake: '${arg}' exited with ${rc}, expected 2")
  endif()
  string(FIND "${err}" "${key}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "retired_flags.cmake: '${arg}' error does not name '${key}': ${err}")
  endif()
endforeach()
