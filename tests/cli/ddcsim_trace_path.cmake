# ddcsim runs gm and centroid on SoaRoundEngine, and on RoundRunner when
# --trace asks for an event log. The two routes must print the same
# run: this script runs both for each protocol and requires stdout to be
# byte-identical apart from the trailing "trace:" line.
#
#   cmake -DDDCSIM=<ddcsim binary> -DWORK_DIR=<dir>
#         -P ddcsim_trace_path.cmake
foreach(protocol gm centroid)
  set(args --protocol ${protocol} --nodes 64 --rounds 30 --pattern push-pull
           --loss-prob 0.1 --crash-prob 0.02 --summary-line)
  set(trace_file ${WORK_DIR}/ddcsim_trace_path_${protocol}.csv)
  execute_process(COMMAND ${DDCSIM} ${args}
                  OUTPUT_VARIABLE plain RESULT_VARIABLE plain_rc)
  execute_process(COMMAND ${DDCSIM} ${args} --trace ${trace_file}
                  OUTPUT_VARIABLE traced RESULT_VARIABLE traced_rc)
  if(NOT plain_rc EQUAL 0 OR NOT traced_rc EQUAL 0)
    message(FATAL_ERROR "${protocol}: ddcsim exited ${plain_rc} / ${traced_rc}")
  endif()
  string(REGEX REPLACE "\ntrace: [^\n]*\n$" "" traced_body "${traced}")
  if(traced_body STREQUAL traced)
    message(FATAL_ERROR "${protocol}: the --trace run printed no trace: line")
  endif()
  if(NOT plain STREQUAL traced_body)
    message(FATAL_ERROR "${protocol}: --trace changed the output\n"
                        "--- default (SoA):\n${plain}\n"
                        "--- --trace (RoundRunner):\n${traced}")
  endif()
  if(NOT plain MATCHES "RESULT")
    message(FATAL_ERROR "${protocol}: no RESULT line in\n${plain}")
  endif()
endforeach()
