// Inputs of the reference tests that compare a rewritten per-procedure
// fact with the computation it replaced: every corpus entry, every
// examples/synl program (SYNAT_EXAMPLES_DIR), and the seed-1 generated
// 160-procedure program in both alias modes.
#pragma once

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gen.h"
#include "synat/corpus/corpus.h"

namespace synat::test_support {

/// (name, source) of every reference input, in a fixed order.
inline std::vector<std::pair<std::string, std::string>> reference_inputs() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const corpus::Entry& e : corpus::all())
    out.emplace_back(std::string(e.name), std::string(e.source));
  std::vector<std::filesystem::path> files;
  for (const auto& f : std::filesystem::directory_iterator(SYNAT_EXAMPLES_DIR))
    if (f.path().extension() == ".synl") files.push_back(f.path());
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& f : files) {
    std::ifstream in(f);
    std::stringstream ss;
    ss << in.rdbuf();
    out.emplace_back(f.filename().string(), ss.str());
  }
  for (perfbench::AliasMode mode :
       {perfbench::AliasMode::Disjoint, perfbench::AliasMode::Shared}) {
    perfbench::GenOptions o;
    o.procs = 160;
    o.seed = 1;
    o.mode = mode;
    out.emplace_back(
        mode == perfbench::AliasMode::Shared ? "gen shared" : "gen disjoint",
        perfbench::GenProgram(o).render());
  }
  return out;
}

}  // namespace synat::test_support
