# Golden metrics document: pins the registration order and every
# published value of the metrics registry. Regenerates the document with
#
#   lssim_run --workload mp3d --set particles=300 --set steps=2 \
#     --protocols AD,LS,Dragon --directories sparse,full-map \
#     --interconnects network,bus --procs 3 --l1 1k --l2 2k \
#     --dir-entries 16 --jobs 2 \
#     --metrics-out tests/telemetry/golden_metrics.json
#
# and compares it byte for byte with the checked-in copy. Every
# coherence.<kind> counter is non-zero somewhere in this matrix. Rewrite
# the golden file with the command above only when a change to the
# published metrics is intended.
#
# cmake -DLSSIM_RUN=<lssim_run> -DGOLDEN=<file> -DOUT=<file> -P this-file
execute_process(
  COMMAND ${LSSIM_RUN} --workload mp3d --set particles=300 --set steps=2
          --protocols AD,LS,Dragon --directories sparse,full-map
          --interconnects network,bus --procs 3 --l1 1k --l2 2k
          --dir-entries 16 --jobs 2 --metrics-out ${OUT}
  RESULT_VARIABLE run_status
  OUTPUT_QUIET)
if(NOT run_status EQUAL 0)
  message(FATAL_ERROR "lssim_run failed with status ${run_status}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
  RESULT_VARIABLE diff_status)
if(NOT diff_status EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from the golden ${GOLDEN}")
endif()
