# CLI check of pdcluster: each paper app runs by name at its table's ranks
# per node, --rpn overrides the table, and a count that is not a positive
# integer or an unknown app gets the usage and exit code 2.
function(run_pdcluster)
  execute_process(COMMAND "${TOOL}" ${ARGN} --nodes 1 --mode linux
                  OUTPUT_VARIABLE out RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "'${ARGN}' exited ${rc}")
  endif()
  string(REGEX MATCH "^[^\n]*" first "${out}")
  set(first "${first}" PARENT_SCOPE)
endfunction()

foreach(app_rpn lammps:64 nekbone:32 umt:32 hacc:32 qbox:32)
  string(REPLACE ":" ";" pair "${app_rpn}")
  list(GET pair 0 app)
  list(GET pair 1 rpn)
  run_pdcluster(--app ${app})
  if(NOT first MATCHES "^app=${app} nodes=1 ranks=${rpn} ")
    message(FATAL_ERROR "--app ${app}: first line is '${first}', not ranks=${rpn}")
  endif()
endforeach()

run_pdcluster(--app lammps --rpn 2)
if(NOT first MATCHES " ranks=2 ")
  message(FATAL_ERROR "--rpn 2 did not override the table: '${first}'")
endif()

foreach(args "--nodes;0" "--nodes;-2" "--nodes;abc" "--rpn;0" "--app;bogus")
  execute_process(COMMAND "${TOOL}" ${args} OUTPUT_QUIET ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "^usage: pdcluster")
    message(FATAL_ERROR "'${args}' exited ${rc} with '${err}', not the usage and 2")
  endif()
endforeach()
