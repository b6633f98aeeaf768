// Local conditions of local blocks (paper Section 5.3).
//
// A local block `local lvar := e in stmt` has a local condition p(lvar) if
// lvar is not updated in stmt and p(lvar) holds throughout stmt's
// execution. Conditions are harvested from the TRUE(...) statements inside
// the block that depend only on lvar; after exceptional-variant generation
// those assumptions are unconditional on the block's single path, which is
// where Theorem 5.5 is applied.
//
// We canonicalize the predicates that appear in the paper's algorithms:
// null-ness tests of the block variable. Everything else yields the trivial
// condition `true` (which never enables Theorem 5.5).
//
// A block is additionally an *LL-SC block on svar* when its initializer is
// LL(svar) and its body contains a successful (TRUE-guarded) SC on svar.
//
// Cost. A block's events are the events of its Local statement and of every
// statement in its body. One pre-order walk maps each statement to its
// innermost enclosing block; passes over the CFG then count and place each
// event in that block and its ancestors. Membership is therefore linear in
// the procedure's events times its block nesting depth. Only lvar_updated
// and the condition walk each block's own body. The blocks sit in one
// exact-size array and their event lists are slices of a second; the walk's
// buffers are reused per thread.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "synat/cfg/cfg.h"

namespace synat::analysis {

using cfg::AccessPath;
using cfg::Cfg;
using cfg::EventId;
using synl::Program;
using synl::StmtId;
using synl::VarId;

enum class Pred : uint8_t {
  True,    ///< no usable condition
  EqNull,  ///< lvar == null
  NeNull,  ///< lvar != null
};

constexpr Pred negate(Pred p) {
  switch (p) {
    case Pred::True: return Pred::True;
    case Pred::EqNull: return Pred::NeNull;
    case Pred::NeNull: return Pred::EqNull;
  }
  return Pred::True;
}

std::string_view to_string(Pred p);

struct LocalBlock {
  StmtId stmt;        ///< the Local statement
  VarId lvar;
  AccessPath svar;    ///< location read by the initializer (if any)
  bool reads_svar = false;   ///< initializer is a read or LL of svar
  bool init_is_ll = false;   ///< initializer is LL(svar)
  bool lvar_updated = false; ///< condition (i) violated
  bool has_successful_sc = false;  ///< body contains TRUE-guarded SC on svar
  Pred cond = Pred::True;
  /// Events belonging to this block (initializer + body), in event order:
  /// a slice of the analysis's event array.
  std::span<const EventId> events;

  bool is_llsc_block() const {
    return init_is_ll && has_successful_sc && !lvar_updated;
  }
  bool is_plain_local_block() const {
    return reads_svar && !init_is_ll && !lvar_updated;
  }
};

/// Its blocks' event lists are slices of an array it owns, so it is not
/// copied.
class LocalCondAnalysis {
 public:
  LocalCondAnalysis(const Program& prog, const Cfg& cfg);
  LocalCondAnalysis(const LocalCondAnalysis&) = delete;
  LocalCondAnalysis& operator=(const LocalCondAnalysis&) = delete;

  /// Every block of the procedure, in pre-order.
  const std::vector<LocalBlock>& blocks() const { return blocks_; }
  /// The block of `local_stmt`, found by a scan; null if it has none.
  const LocalBlock* block_for(StmtId local_stmt) const {
    for (const LocalBlock& b : blocks_)
      if (b.stmt == local_stmt) return &b;
    return nullptr;
  }

 private:
  std::vector<LocalBlock> blocks_;
  std::vector<EventId> events_;  ///< every block's events, block by block
};

}  // namespace synat::analysis
