# Build file of the perfbench runner.
#
# It is injected into the repository's own CMake project rather than
# re-describing how the simulator is built:
#
#   cmake -S . -B <dir> -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_INCLUDE=<abs path>/perfbench/perfbench.cmake
#
# CMake includes this file right after the top-level project() call; the
# deferred call below then adds the runner once every library target of
# the repository exists. The runner links exactly what alb-trace links,
# so it follows the library set of the repository as it changes.
include_guard(GLOBAL)

set(PERFBENCH_DIR ${CMAKE_CURRENT_LIST_DIR})

function(perfbench_add_runner)
  if(NOT TARGET alb-trace)
    message(FATAL_ERROR "perfbench: the repository defines no alb-trace target to link against")
  endif()
  get_target_property(libs alb-trace LINK_LIBRARIES)
  add_executable(perfbench-runner ${PERFBENCH_DIR}/runner.cpp)
  target_link_libraries(perfbench-runner PRIVATE ${libs})
  target_include_directories(perfbench-runner PRIVATE ${CMAKE_SOURCE_DIR}/src)
  target_compile_definitions(perfbench-runner PRIVATE
    PERFBENCH_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}"
    PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
endfunction()

cmake_language(DEFER DIRECTORY ${CMAKE_SOURCE_DIR} CALL perfbench_add_runner)
