// The builtin scenario catalogue as data.
//
// The checked-in `scenarios/*.json` files named in the top-level
// CMakeLists.txt (`IPFS_BUILTIN_SCENARIOS`) are embedded verbatim into a
// source file that cmake/embed_scenarios.cmake generates at build time;
// `ScenarioSpec::builtins()` decodes them.  The files are the only copy
// of the builtin values.
#pragma once

#include <span>
#include <string_view>

namespace ipfs::scenario {

struct BuiltinFile {
  std::string_view name;  ///< builtin name: the file stem with '_' -> '-'
  std::string_view json;  ///< the file's bytes
};

/// Every embedded file, in the CMake list's order.
[[nodiscard]] std::span<const BuiltinFile> builtin_files() noexcept;

}  // namespace ipfs::scenario
