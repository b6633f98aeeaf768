#include "synat/cfg/liveness.h"

#include <cstdint>
#include <vector>

namespace synat::cfg {

namespace {

/// True if `a` is a proper prefix of `b` (same root, fewer selectors, all
/// matching; Index matches Index).
bool proper_prefix(const AccessPath& a, const AccessPath& b) {
  if (a.root != b.root || a.sels.size() >= b.sels.size()) return false;
  for (size_t i = 0; i < a.sels.size(); ++i) {
    if (!(a.sels[i] == b.sels[i])) return false;
  }
  return true;
}

bool same_path(const AccessPath& a, const AccessPath& b) { return a == b; }

/// live_after's search buffers, reused by every query on this thread.
struct LiveScratch {
  std::vector<uint8_t> visited;
  std::vector<EventId> work;
};
thread_local LiveScratch live_scratch;

}  // namespace

AccessEffect access_effect(const Event& ev, const AccessPath& query) {
  if (!ev.path.root.valid()) return AccessEffect::None;
  switch (ev.kind) {
    case EventKind::Read:
      if (ev.is_base) return AccessEffect::None;
      if (same_path(ev.path, query) || proper_prefix(ev.path, query))
        return AccessEffect::Use;
      return AccessEffect::None;
    case EventKind::Write:
      if (same_path(ev.path, query) || proper_prefix(ev.path, query))
        return AccessEffect::Kill;
      return AccessEffect::None;
    case EventKind::LL:
    case EventKind::VL:
    case EventKind::SC:
    case EventKind::CAS:
      // Conservative: any non-blocking primitive on the location (or a
      // prefix) keeps it live. SC/CAS may fail, so they are not kills.
      if (same_path(ev.path, query) || proper_prefix(ev.path, query))
        return AccessEffect::Use;
      return AccessEffect::None;
    default:
      return AccessEffect::None;
  }
}

bool live_after(const Program& prog, const Cfg& cfg, EventId point,
                const AccessPath& query) {
  const bool exit_is_use =
      query.root.valid() &&
      prog.var(query.root).kind == synl::VarKind::ThreadLocal;

  std::vector<uint8_t>& visited = live_scratch.visited;
  std::vector<EventId>& work = live_scratch.work;
  visited.assign(cfg.num_nodes(), 0);
  work.clear();
  auto push = [&](EventId n) {
    if (!visited[n.idx]) {
      visited[n.idx] = true;
      work.push_back(n);
    }
  };
  for (const Edge& e : cfg.succs(point)) push(e.to);

  while (!work.empty()) {
    EventId n = work.back();
    work.pop_back();
    const Event& ev = cfg.node(n);
    if (n == cfg.exit()) {
      if (exit_is_use) return true;
      continue;
    }
    switch (access_effect(ev, query)) {
      case AccessEffect::Use:
        return true;
      case AccessEffect::Kill:
        continue;  // this path is satisfied; do not explore past the write
      case AccessEffect::None:
        break;
    }
    for (const Edge& e : cfg.succs(n)) push(e.to);
  }
  return false;
}

}  // namespace synat::cfg
