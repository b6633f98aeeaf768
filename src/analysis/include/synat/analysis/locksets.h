// Lock sets for Theorem 5.1: the lock paths held on entry to each CFG
// event of one procedure.
//
// A forward dataflow over the CFG whose meet is intersection: the entry
// holds nothing, an Acquire appends its lock path, a Release removes the
// first equal path, and a join keeps, in its own order, the paths that every
// incoming edge carries. Nodes are visited in EventId order until nothing
// changes, so each held list keeps the order its locks were acquired in
// along the first path that reached it; the universe fingerprint hashes
// that order.
//
// Layout: compressed sparse rows, one begin offset per node and one array
// of every held path; a procedure in which no event holds a lock keeps
// neither. The dataflow runs in per-thread buffers, one lock-id list per
// node version in a shared pool.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "synat/cfg/cfg.h"

namespace synat::analysis {

using cfg::AccessPath;
using cfg::Cfg;
using cfg::EventId;

class LockSets {
 public:
  LockSets() = default;
  explicit LockSets(const Cfg& cfg);

  /// Lock paths held on entry to `e`, in acquisition order.
  std::span<const AccessPath> held(EventId e) const {
    if (begin_.empty()) return {};
    return {locks_.data() + begin_[e.idx], begin_[e.idx + 1] - begin_[e.idx]};
  }

 private:
  std::vector<uint32_t> begin_;  ///< node i's locks: [begin_[i], begin_[i+1])
  std::vector<AccessPath> locks_;
};

}  // namespace synat::analysis
