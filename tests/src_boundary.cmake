# Fails when any file under SRC_DIR includes a testkit/ header or names
# the nm_testkit target, when a file under SRC_DIR/mining/ includes an
# engine/ header or names the nm_engine target (mining sits below the
# replay engine in the library order), or when a file under
# SRC_DIR/engine/, policy/ or sim/ includes a mem/ header or names the
# nm_mem target (replay reads the index's own records; mem/ is the
# spill store's blob codec). Run as:
#   cmake -DSRC_DIR=<repo>/src -P src_boundary.cmake
if(NOT SRC_DIR OR NOT IS_DIRECTORY "${SRC_DIR}/common")
  message(FATAL_ERROR "src_boundary: SRC_DIR must name the src/ tree")
endif()

# Lists the files under `dir` whose lines match `regex` into `out`, and
# their count into `out`_checked.
function(find_offenders dir regex out)
  file(GLOB_RECURSE files "${dir}/*")
  set(offenders "")
  foreach(f IN LISTS files)
    file(STRINGS "${f}" hits REGEX "${regex}")
    if(hits)
      list(APPEND offenders "${f}")
    endif()
  endforeach()
  list(LENGTH files checked)
  set(${out} "${offenders}" PARENT_SCOPE)
  set(${out}_checked ${checked} PARENT_SCOPE)
endfunction()

find_offenders("${SRC_DIR}" "#[ \t]*include[ \t]*[\"<]testkit/|nm_testkit"
               testkit)
find_offenders("${SRC_DIR}/mining" "#[ \t]*include[ \t]*[\"<]engine/|nm_engine"
               engine)
set(mem "")
set(mem_checked 0)
foreach(layer engine policy sim)
  find_offenders("${SRC_DIR}/${layer}"
                 "#[ \t]*include[ \t]*[\"<]mem/|nm_mem" hits)
  list(APPEND mem ${hits})
  math(EXPR mem_checked "${mem_checked} + ${hits_checked}")
endforeach()
set(failures "")
if(testkit)
  list(JOIN testkit "\n  " listing)
  string(APPEND failures "src/ must not depend on testkit/:\n  ${listing}\n")
endif()
if(engine)
  list(JOIN engine "\n  " listing)
  string(APPEND failures "src/mining/ must not depend on engine/:\n  ${listing}\n")
endif()
if(mem)
  list(JOIN mem "\n  " listing)
  string(APPEND failures
         "src/engine/, policy/ and sim/ must not depend on mem/:\n  ${listing}\n")
endif()
if(failures)
  message(FATAL_ERROR "${failures}")
endif()
message(STATUS "src_boundary: ${testkit_checked} files under ${SRC_DIR} reach "
               "no testkit/; ${engine_checked} under mining/ reach no engine/; "
               "${mem_checked} under engine/, policy/ and sim/ reach no mem/")
