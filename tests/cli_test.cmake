# CLI smoke test for dwarf-extract-struct: ship a demo module, extract a
# header, dump the DIE tree, and check the expected content is present.
# A header with a by-value struct field must compile as C11 on its own
# (run with -DCMAKE_CXX_COMPILER=<g++ or clang++>, used as `-x c`).
set(mod "${CMAKE_CURRENT_BINARY_DIR}/cli_test_hfi1.ko")

execute_process(COMMAND "${TOOL}" --ship-demo 10.9-5 "${mod}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--ship-demo failed: ${rc}")
endif()

execute_process(COMMAND "${TOOL}" "${mod}" sdma_state current_state go_s99_running
                OUTPUT_VARIABLE header RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "extraction failed: ${rc}")
endif()
foreach(needle "whole_struct[72]" "enum sdma_states current_state" "padding0[48]")
  string(FIND "${header}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "generated header missing '${needle}':\n${header}")
  endif()
endforeach()

execute_process(COMMAND "${TOOL}" --dump "${mod}" OUTPUT_VARIABLE dump RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--dump failed: ${rc}")
endif()
string(FIND "${dump}" "DW_TAG_structure_type" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "dump missing structure tag")
endif()

# A struct field held by value (sdma_engine.state, a struct sdma_state)
# needs a complete type: the header must compile as C11 with the fields at
# the offsets the module's debug info gives.
execute_process(COMMAND "${TOOL}" "${mod}" sdma_engine this_idx state
                OUTPUT_VARIABLE engine_header RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sdma_engine extraction failed: ${rc}")
endif()
set(check_c "${CMAKE_CURRENT_BINARY_DIR}/cli_test_sdma_engine.c")
file(WRITE "${check_c}" "#include <stddef.h>
${engine_header}
_Static_assert(offsetof(struct sdma_engine, this_idx) == 16, \"this_idx offset\");
_Static_assert(offsetof(struct sdma_engine, state) == 64, \"state offset\");
_Static_assert(sizeof(struct sdma_engine) == 256, \"sdma_engine size\");
")
execute_process(COMMAND "${CMAKE_CXX_COMPILER}" -x c -std=c11 -fsyntax-only "${check_c}"
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generated sdma_engine header does not compile as C11 (${rc}):\n"
                      "${err}\n${engine_header}")
endif()
file(REMOVE "${check_c}")

# Unknown struct must fail with a nonzero exit code.
execute_process(COMMAND "${TOOL}" "${mod}" no_such_struct field ERROR_QUIET
                OUTPUT_QUIET RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "extraction of a missing struct must fail")
endif()
file(REMOVE "${mod}")
