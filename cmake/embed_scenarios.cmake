# Writes OUTPUT, a C++ source compiling every SCENARIO_DIR/*.json file (not
# recursive, so scenarios/traces/ stays out) into
# ipfs::scenario::embedded_scenario_files(), which backs
# ScenarioSpec::builtins().  The build runs it whenever a scenario file
# changes (CMakeLists.txt); by hand:
#
#   cmake -DSCENARIO_DIR=scenarios -DOUTPUT=embedded_scenarios.cpp \
#         -P cmake/embed_scenarios.cmake
cmake_minimum_required(VERSION 3.20)

set(delimiter "ipfs_scenario")
set(source [=[// Generated by cmake/embed_scenarios.cmake from scenarios/*.json; edit
// those files instead.
#include <span>
#include <string_view>
#include <utility>

namespace ipfs::scenario {

std::span<const std::pair<std::string_view, std::string_view>>
embedded_scenario_files() {
  static constexpr std::pair<std::string_view, std::string_view> kFiles[] = {
]=])

file(GLOB scenario_files "${SCENARIO_DIR}/*.json")
list(SORT scenario_files)
foreach(scenario_file IN LISTS scenario_files)
  get_filename_component(file_name "${scenario_file}" NAME)
  file(READ "${scenario_file}" contents)
  string(FIND "${contents}" ")${delimiter}\"" clash)
  if(NOT clash EQUAL -1)
    message(FATAL_ERROR "${scenario_file} contains the raw-string delimiter "
                        "')${delimiter}\"'")
  endif()
  string(APPEND source
         "      {\"${file_name}\", R\"${delimiter}(${contents})${delimiter}\"},\n")
endforeach()

string(APPEND source [=[  };
  return kFiles;
}

}  // namespace ipfs::scenario
]=])
file(WRITE "${OUTPUT}" "${source}")
