# Fixed-seed golden check: runs psdsweep, psdsim and rt_golden with fixed
# seeds and compares their output bytes with the files committed next to
# this script.
#
#   cmake -DPSDSIM=<psdsim> -DPSDSWEEP=<psdsweep> -DRT_GOLDEN=<rt_golden>
#         -DGOLDEN_DIR=<this dir> -DOUT_DIR=<scratch dir> -P check_golden.cmake
#
# ctest runs it as test_golden.  After an intended output change, run it
# once and copy the files from OUT_DIR over GOLDEN_DIR.
foreach(var PSDSIM PSDSWEEP RT_GOLDEN GOLDEN_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

function(run_step name)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_FILE "${OUT_DIR}/${name}.stdout"
                  ERROR_FILE "${OUT_DIR}/${name}.stderr")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} exited with ${rc}; see ${OUT_DIR}")
  endif()
endfunction()

# The grids live in sweep.spec / cluster.spec next to this script.
foreach(grid sweep cluster)
  run_step(${grid} "${PSDSWEEP}" --spec "${GOLDEN_DIR}/${grid}.spec"
           --threads 2 --quiet --no-resume --out "${OUT_DIR}/${grid}.jsonl")
endforeach()
# The default psdsim report.
run_step(psdsim "${PSDSIM}")
file(RENAME "${OUT_DIR}/psdsim.stdout" "${OUT_DIR}/psdsim.txt")
# ManualClock rt and cluster reports plus one cluster stats stream.
run_step(rt "${RT_GOLDEN}" "${OUT_DIR}/cluster_stats.jsonl")
file(RENAME "${OUT_DIR}/rt.stdout" "${OUT_DIR}/rt.txt")

set(failed "")
foreach(f sweep.jsonl cluster.jsonl psdsim.txt rt.txt cluster_stats.jsonl)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${GOLDEN_DIR}/${f}" "${OUT_DIR}/${f}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    list(APPEND failed "${f}")
  endif()
endforeach()
if(failed)
  message(FATAL_ERROR "golden mismatch: ${failed} (fresh output in ${OUT_DIR})")
endif()
message(STATUS "golden outputs match byte for byte")
