# Saves a design's mapped netlist with vpga_flow_cli --save-mapped and runs
# the flow again on the saved file; both runs must exit 0.
#
#   cmake -DCLI=path/to/vpga_flow_cli -DDESIGN=counter -DOUT=counter.vnl \
#         -P save_mapped_roundtrip.cmake
execute_process(COMMAND ${CLI} --design ${DESIGN} --save-mapped ${OUT}
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--save-mapped exited '${rc}'\n${err}")
endif()
execute_process(COMMAND ${CLI} --netlist ${OUT}
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--netlist ${OUT} exited '${rc}'\n${err}")
endif()
