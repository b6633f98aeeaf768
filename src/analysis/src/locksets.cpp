#include "synat/analysis/locksets.h"

#include <algorithm>

namespace synat::analysis {

using cfg::Edge;
using cfg::Event;
using cfg::EventKind;

namespace {

constexpr uint32_t kUndefined = UINT32_MAX;

/// The dataflow's buffers, reused by every construction on this thread.
struct LockScratch {
  /// The distinct Acquire paths, in first-acquired order; a lock id is an
  /// index here.
  std::vector<AccessPath> paths;
  /// Every version of every node's list, back to back; node i's current
  /// list is pool[at[i], at[i] + len[i]), len kUndefined until defined.
  std::vector<uint32_t> pool;
  std::vector<uint32_t> at, len;
  std::vector<uint32_t> out, merged;
};
thread_local LockScratch lock_scratch;

/// Lock id of `path`, or kUndefined if no Acquire locks it.
uint32_t lock_id(const LockScratch& s, const AccessPath& path) {
  for (size_t k = 0; k < s.paths.size(); ++k)
    if (s.paths[k] == path) return static_cast<uint32_t>(k);
  return kUndefined;
}

/// Makes `list` the current list of node `n`.
void set_list(LockScratch& s, uint32_t n, const std::vector<uint32_t>& list) {
  s.at[n] = static_cast<uint32_t>(s.pool.size());
  s.len[n] = static_cast<uint32_t>(list.size());
  s.pool.insert(s.pool.end(), list.begin(), list.end());
}

}  // namespace

LockSets::LockSets(const Cfg& cfg) {
  LockScratch& s = lock_scratch;
  const size_t n = cfg.num_nodes();
  s.paths.clear();
  for (uint32_t i = 0; i < n; ++i) {
    const Event& ev = cfg.node(EventId(i));
    if (ev.kind == EventKind::Acquire && ev.path.root.valid() &&
        lock_id(s, ev.path) == kUndefined)
      s.paths.push_back(ev.path);
  }
  if (s.paths.empty()) return;  // nothing is ever held

  s.pool.clear();
  s.at.assign(n, 0);
  s.len.assign(n, kUndefined);
  s.len[cfg.entry().idx] = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (uint32_t i = 0; i < n; ++i) {
      if (s.len[i] == kUndefined) continue;
      // Transfer.
      s.out.assign(s.pool.begin() + s.at[i],
                   s.pool.begin() + s.at[i] + s.len[i]);
      const Event& ev = cfg.node(EventId(i));
      if (ev.kind == EventKind::Acquire && ev.path.root.valid()) {
        s.out.push_back(lock_id(s, ev.path));
      } else if (ev.kind == EventKind::Release && ev.path.root.valid()) {
        auto it = std::find(s.out.begin(), s.out.end(), lock_id(s, ev.path));
        if (it != s.out.end()) s.out.erase(it);
      }
      for (const Edge& e : cfg.succs(EventId(i))) {
        const uint32_t to = e.to.idx;
        if (s.len[to] == kUndefined) {
          set_list(s, to, s.out);
          changed = true;
          continue;
        }
        // Intersect, in the successor's order.
        s.merged.clear();
        for (uint32_t k = s.at[to]; k < s.at[to] + s.len[to]; ++k) {
          if (std::find(s.out.begin(), s.out.end(), s.pool[k]) != s.out.end())
            s.merged.push_back(s.pool[k]);
        }
        if (s.merged.size() != s.len[to]) {
          set_list(s, to, s.merged);
          changed = true;
        }
      }
    }
  }

  size_t total = 0;
  for (uint32_t i = 0; i < n; ++i)
    if (s.len[i] != kUndefined) total += s.len[i];
  if (total == 0) return;
  begin_.resize(n + 1);
  locks_.reserve(total);
  for (uint32_t i = 0; i < n; ++i) {
    begin_[i] = static_cast<uint32_t>(locks_.size());
    if (s.len[i] == kUndefined) continue;
    for (uint32_t k = s.at[i]; k < s.at[i] + s.len[i]; ++k)
      locks_.push_back(s.paths[s.pool[k]]);
  }
  begin_[n] = static_cast<uint32_t>(locks_.size());
}

}  // namespace synat::analysis
