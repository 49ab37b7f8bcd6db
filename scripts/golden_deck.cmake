# Recovery-behaviour golden deck: runs the fixed sweep below through adccbench
# and byte-compares its --no_timing csv against tests/golden/recovery_deck.csv.
# The deck crosses all three workloads with every durability mode under no
# crash, a boundary crash, three mid-unit fuzz crashes and two silent flips,
# so any change to recovery accounting (lost/partial/torn/salvaged units,
# detection latency, verify status) shows up as a fixture diff.
#
#   cmake -DBIN=<adccbench> -DGOLDEN=<recovery_deck.csv> -DOUT=<scratch.csv> \
#         -P scripts/golden_deck.cmake
#
# With ADCC_UPDATE_GOLDEN=1 in the environment the rendered deck replaces the
# fixture instead (the same switch the GoldenTable gtests use).
foreach(var BIN GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_deck.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(
  COMMAND ${BIN}
          --sweep=workload=cg+mm+mc,mode=all,crash=none+step:2+fuzz:1+fuzz:2+fuzz:3+flip:1+flip:2
          --quick --no_timing --format=csv --sweep_jobs=4
  OUTPUT_FILE ${OUT}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "golden_deck.cmake: adccbench exited with ${rc}")
endif()

if(DEFINED ENV{ADCC_UPDATE_GOLDEN})
  execute_process(COMMAND ${CMAKE_COMMAND} -E copy ${OUT} ${GOLDEN})
  message(STATUS "golden_deck.cmake: rewrote ${GOLDEN}")
  return()
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR
          "golden_deck.cmake: ${OUT} drifted from ${GOLDEN} (diff the two); if "
          "the change is deliberate, rerun with ADCC_UPDATE_GOLDEN=1 and commit "
          "the diff")
endif()
