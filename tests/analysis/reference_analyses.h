// Test-only references: the per-procedure analyses as they were before
// their results moved into flat arrays and their searches into reused
// buffers (node-keyed hash maps, a vector per match list, block and held
// lock set, fresh search buffers per query). Reference tests compare them
// with the library's analyses on every reference input.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "synat/analysis/localcond.h"
#include "synat/cfg/cfg.h"

namespace synat::analysis::reference {

using cfg::AccessPath;
using cfg::Cfg;
using cfg::EventId;
using synl::Program;
using synl::StmtId;
using synl::VarId;

struct MatchInfo {
  std::vector<EventId> matches;
  bool complete = false;
};

class MatchingAnalysis {
 public:
  MatchingAnalysis(const Program& prog, const Cfg& cfg);
  const MatchInfo* info(EventId e) const {
    auto it = info_.find(e);
    return it == info_.end() ? nullptr : &it->second;
  }
  /// All SC/VL/CAS events for which `ll` is a match, in map order.
  std::vector<EventId> matched_by(EventId ll) const;

 private:
  void match_ll(EventId sc_or_vl);
  void match_read(EventId cas);

  const Program& prog_;
  const Cfg& cfg_;
  std::unordered_map<EventId, MatchInfo> info_;
};

/// A local block with its own event list.
struct LocalBlock {
  StmtId stmt;
  VarId lvar;
  AccessPath svar;
  bool reads_svar = false;
  bool init_is_ll = false;
  bool lvar_updated = false;
  bool has_successful_sc = false;
  Pred cond = Pred::True;
  std::vector<EventId> events;
};

class LocalCondAnalysis {
 public:
  LocalCondAnalysis(const Program& prog, const Cfg& cfg);
  const std::vector<LocalBlock>& blocks() const { return blocks_; }
  const LocalBlock* block_for(StmtId local_stmt) const {
    auto it = index_.find(local_stmt);
    return it == index_.end() ? nullptr : &blocks_[it->second];
  }

 private:
  static constexpr uint32_t kNoBlock = UINT32_MAX;
  void walk(StmtId sid, uint32_t block,
            std::vector<std::pair<uint32_t, uint32_t>>& owner);
  void analyze_block(StmtId local_stmt);

  const Program& prog_;
  std::vector<LocalBlock> blocks_;
  std::vector<uint32_t> parent_;
  std::unordered_map<StmtId, size_t> index_;
};

class EscapeAnalysis {
 public:
  EscapeAnalysis(const Program& prog, const Cfg& cfg);
  bool unescaped_at(EventId e, VarId v) const;
  bool is_fresh_var(VarId v) const;

 private:
  void analyze_var(VarId v);

  const Program& prog_;
  const Cfg& cfg_;
  std::unordered_map<VarId, std::vector<bool>> escaped_after_;
  std::unordered_map<VarId, bool> fresh_;
};

class UniqueAnalysis {
 public:
  UniqueAnalysis(const Program& prog, const Cfg& cfg);
  bool is_working_copy(VarId v) const { return working_.count(v) != 0; }

 private:
  bool check_candidate(VarId v) const;

  const Program& prog_;
  const Cfg& cfg_;
  std::unordered_set<VarId> working_;
};

/// Theorem 3.1's local-action test over the reference escape and
/// uniqueness results.
bool is_local_action(const Program& prog, const Cfg& cfg,
                     const EscapeAnalysis& escape,
                     const UniqueAnalysis& unique, EventId e);

/// The lock paths held on entry to each node: a vector per node, copied
/// per node on every iteration of the dataflow.
std::vector<std::vector<AccessPath>> lock_sets(const Cfg& cfg);

}  // namespace synat::analysis::reference
