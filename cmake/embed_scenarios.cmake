# Writes the C++ source that embeds the builtin scenario files
# (src/scenario/builtin_files.hpp).  Run by the build, not by hand:
#
#   cmake -DOUTPUT=out.cpp -DSCENARIO_DIR=scenarios "-DSTEMS=p0;p1;..." -P embed_scenarios.cmake
#
# g++ 12 has no #embed, so each file becomes a raw string literal; a file
# that contains the closing delimiter fails the build instead of
# truncating the literal.
set(delimiter "ipfs_scenario")
set(entries "")
foreach(stem IN LISTS STEMS)
  file(READ "${SCENARIO_DIR}/${stem}.json" text)
  string(FIND "${text}" ")${delimiter}\"" clash)
  if(NOT clash EQUAL -1)
    message(FATAL_ERROR "${stem}.json contains the raw-string delimiter )${delimiter}\"")
  endif()
  string(REPLACE "_" "-" name "${stem}")
  string(APPEND entries "    {\"${name}\", R\"${delimiter}(${text})${delimiter}\"},\n")
endforeach()
file(WRITE "${OUTPUT}" "// Generated from scenarios/*.json by cmake/embed_scenarios.cmake.
#include \"scenario/builtin_files.hpp\"

namespace ipfs::scenario {
namespace {
constexpr BuiltinFile kFiles[] = {
${entries}};
}  // namespace

std::span<const BuiltinFile> builtin_files() noexcept { return kFiles; }

}  // namespace ipfs::scenario
")
