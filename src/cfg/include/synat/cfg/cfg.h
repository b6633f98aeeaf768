// Per-procedure control-flow graph over events (see event.h).
//
// Construction walks the AST in evaluation order: for every statement the
// events of its sub-expressions appear in left-to-right post-order before
// the statement's own effect event. `synchronized` bodies are bracketed by
// Acquire/Release, and jumps (break / continue / return) that leave
// synchronized blocks get the intervening Release events inserted on the
// jump path, preserving the matched-pair property the paper's Theorem 4.1
// relies on.
//
// The graph is laid out flat once construction finishes: each direction's
// edges sit in one array, grouped by node (compressed sparse rows), and
// each node keeps its edges in the order they were added. Reachability
// answers with a NodeSet, one bit per node.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "synat/cfg/event.h"

namespace synat::cfg {

/// A set of nodes of one CFG: one bit per node, iterated in ascending
/// EventId order.
class NodeSet {
 public:
  NodeSet() = default;
  explicit NodeSet(size_t num_nodes) : words_((num_nodes + 63) / 64, 0) {}

  bool contains(EventId e) const {
    return e.idx / 64 < words_.size() &&
           ((words_[e.idx / 64] >> (e.idx % 64)) & 1) != 0;
  }
  size_t count(EventId e) const { return contains(e) ? 1 : 0; }
  /// Adds `e`, which must be a node of the set's graph; false if present.
  bool insert(EventId e) {
    uint64_t& w = words_[e.idx / 64];
    const uint64_t bit = uint64_t{1} << (e.idx % 64);
    if (w & bit) return false;
    w |= bit;
    return true;
  }
  /// Adds every node of `other`, a set over the same graph.
  NodeSet& operator|=(const NodeSet& other) {
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
    return *this;
  }

  class iterator {
   public:
    iterator(const std::vector<uint64_t>* words, size_t word)
        : words_(words), word_(word) {
      settle();
    }
    EventId operator*() const {
      return EventId(static_cast<uint32_t>(
          word_ * 64 + static_cast<size_t>(std::countr_zero(bits_))));
    }
    iterator& operator++() {
      bits_ &= bits_ - 1;
      if (bits_ == 0) {
        ++word_;
        settle();
      }
      return *this;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.word_ == b.word_ && a.bits_ == b.bits_;
    }

   private:
    /// Moves to the first set bit at or after word_.
    void settle() {
      for (; word_ < words_->size(); ++word_) {
        bits_ = (*words_)[word_];
        if (bits_ != 0) return;
      }
      bits_ = 0;
    }
    const std::vector<uint64_t>* words_ = nullptr;
    size_t word_ = 0;
    uint64_t bits_ = 0;
  };
  iterator begin() const { return iterator(&words_, 0); }
  iterator end() const { return iterator(&words_, words_.size()); }

 private:
  std::vector<uint64_t> words_;
};

struct LoopInfo {
  StmtId stmt;           ///< the Loop statement
  EventId head;          ///< LoopHead node
  StmtId parent;         ///< enclosing Loop statement, if any
  std::vector<EventId> back_sources;  ///< nodes with a Back edge to head
  std::vector<EventId> members;       ///< all nodes strictly inside the loop
};

class Cfg {
 public:
  EventId entry() const { return entry_; }
  EventId exit() const { return exit_; }
  ProcId proc() const { return proc_; }

  const Event& node(EventId id) const { return nodes_[id.idx]; }
  Event& node(EventId id) { return nodes_[id.idx]; }
  size_t num_nodes() const { return nodes_.size(); }

  /// Out-edges of `id` in the order they were added.
  std::span<const Edge> succs(EventId id) const {
    return {succs_.data() + succ_begin_[id.idx],
            succs_.data() + succ_begin_[id.idx + 1]};
  }
  /// In-edges of `id` in the order they were added; `Edge::to` is the
  /// source.
  std::span<const Edge> preds(EventId id) const {
    return {preds_.data() + pred_begin_[id.idx],
            preds_.data() + pred_begin_[id.idx + 1]};
  }

  const std::vector<LoopInfo>& loops() const { return loops_; }
  const LoopInfo* loop_info(StmtId loop) const {
    auto it = loop_index_.find(loop);
    return it == loop_index_.end() ? nullptr : &loops_[it->second];
  }

  /// True if `n` is inside loop `loop` (directly or in a nested loop).
  bool in_loop(EventId n, StmtId loop) const;

  /// All event ids in creation order (a valid traversal universe; creation
  /// order is not a topological order because of back edges).
  std::vector<EventId> all_nodes() const;

  /// Forward reachability from `from`, optionally restricted to nodes for
  /// which `within` returns true (edges to outside nodes are not followed).
  template <class Pred>
  NodeSet reachable(EventId from, Pred within) const {
    return search(from, within, succ_begin_, succs_);
  }

  /// Backward reachability (same contract as `reachable`).
  template <class Pred>
  NodeSet reachable_back(EventId from, Pred within) const {
    return search(from, within, pred_begin_, preds_);
  }

  std::string dump(const Program& prog) const;

 private:
  friend class CfgBuilder;

  template <class Pred>
  NodeSet search(EventId from, Pred within, const std::vector<uint32_t>& begin,
                 const std::vector<Edge>& edges) const {
    NodeSet seen(nodes_.size());
    if (!within(from)) return seen;
    seen.insert(from);
    std::vector<EventId> work{from};
    while (!work.empty()) {
      EventId n = work.back();
      work.pop_back();
      for (uint32_t i = begin[n.idx]; i < begin[n.idx + 1]; ++i) {
        EventId to = edges[i].to;
        if (within(to) && seen.insert(to)) work.push_back(to);
      }
    }
    return seen;
  }

  /// Lays out `edges`, (source, edge) pairs in the order they were added,
  /// as the two adjacency arrays.
  void lay_out(const std::vector<std::pair<EventId, Edge>>& edges);

  ProcId proc_;
  EventId entry_, exit_;
  std::vector<Event> nodes_;
  /// Node i's out-edges are succs_[succ_begin_[i] .. succ_begin_[i+1]);
  /// likewise for in-edges.
  std::vector<uint32_t> succ_begin_, pred_begin_;
  std::vector<Edge> succs_, preds_;
  std::vector<LoopInfo> loops_;
  std::unordered_map<StmtId, size_t> loop_index_;
};

/// Builds the CFG for one procedure. The program must have passed sema.
Cfg build_cfg(const Program& prog, ProcId proc);

}  // namespace synat::cfg
