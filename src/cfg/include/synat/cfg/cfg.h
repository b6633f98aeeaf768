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
// The graph is laid out flat once construction finishes: the nodes in one
// exact-size array, the edges of both directions in one array, grouped by
// node (compressed sparse rows), with each node's edges in the order they
// were added, and every loop's members and back-edge sources as slices of
// two more arrays. The builder collects into per-thread buffers that it
// reuses from one build to the next, so a build allocates only the
// finished arrays. Reachability fills a caller's NodeSet, one bit per
// node.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "synat/cfg/event.h"

namespace synat::cfg {

/// A set of nodes of one CFG: one bit per node, iterated in ascending
/// EventId order.
class NodeSet {
 public:
  NodeSet() = default;
  explicit NodeSet(size_t num_nodes) : words_((num_nodes + 63) / 64, 0) {}

  /// Empties the set and sizes it for a graph of `num_nodes` nodes,
  /// keeping its buffer.
  void reset(size_t num_nodes) { words_.assign((num_nodes + 63) / 64, 0); }

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

/// Several node sets of one CFG in one array, for facts that keep a set per
/// variable or per region: row r is words [r*W, (r+1)*W), W words per row.
class NodeRows {
 public:
  /// Drops every row and sizes rows for a graph of `num_nodes` nodes,
  /// keeping the buffer.
  void reset(size_t num_nodes) {
    row_words_ = (num_nodes + 63) / 64;
    words_.clear();
  }
  /// Appends `n` empty rows; returns the index of the first.
  uint32_t add_rows(uint32_t n) {
    const uint32_t first = rows();
    words_.resize(words_.size() + n * row_words_, 0);
    return first;
  }
  uint32_t rows() const {
    return row_words_ == 0 ? 0
                           : static_cast<uint32_t>(words_.size() / row_words_);
  }

  bool contains(uint32_t row, EventId e) const {
    return ((words_[row * row_words_ + e.idx / 64] >> (e.idx % 64)) & 1) != 0;
  }
  /// Adds `e` to row `row`; false if present.
  bool insert(uint32_t row, EventId e) {
    uint64_t& w = words_[row * row_words_ + e.idx / 64];
    const uint64_t bit = uint64_t{1} << (e.idx % 64);
    if (w & bit) return false;
    w |= bit;
    return true;
  }
  void erase(uint32_t row, EventId e) {
    words_[row * row_words_ + e.idx / 64] &= ~(uint64_t{1} << (e.idx % 64));
  }

 private:
  size_t row_words_ = 0;
  std::vector<uint64_t> words_;
};

struct LoopInfo {
  StmtId stmt;           ///< the Loop statement
  EventId head;          ///< LoopHead node
  StmtId parent;         ///< enclosing Loop statement, if any
  /// Nodes with a Back edge to head, in the order the edges were added.
  std::span<const EventId> back_sources;
  /// The head and every node inside the loop, in creation order.
  std::span<const EventId> members;
};

/// A CFG's loops point into arrays the Cfg owns, so a Cfg moves but is
/// never copied.
class Cfg {
 public:
  Cfg() = default;
  Cfg(Cfg&&) = default;
  Cfg& operator=(Cfg&&) = default;
  Cfg(const Cfg&) = delete;
  Cfg& operator=(const Cfg&) = delete;

  EventId entry() const { return entry_; }
  EventId exit() const { return exit_; }
  ProcId proc() const { return proc_; }

  const Event& node(EventId id) const { return nodes_[id.idx]; }
  Event& node(EventId id) { return nodes_[id.idx]; }
  size_t num_nodes() const { return nodes_.size(); }

  /// Out-edges of `id` in the order they were added.
  std::span<const Edge> succs(EventId id) const {
    return {edges_.data() + begin_[id.idx],
            edges_.data() + begin_[id.idx + 1]};
  }
  /// In-edges of `id` in the order they were added; `Edge::to` is the
  /// source.
  std::span<const Edge> preds(EventId id) const {
    return {pred_edges() + pred_begin()[id.idx],
            pred_edges() + pred_begin()[id.idx + 1]};
  }

  const std::vector<LoopInfo>& loops() const { return loops_; }
  /// The loop of statement `loop`, found by a scan (a procedure has a
  /// handful of loops); null if `loop` is not one of them.
  const LoopInfo* loop_info(StmtId loop) const {
    for (const LoopInfo& info : loops_)
      if (info.stmt == loop) return &info;
    return nullptr;
  }

  /// True if `n` is inside loop `loop` (directly or in a nested loop).
  bool in_loop(EventId n, StmtId loop) const;

  /// Forward reachability from `from`, restricted to nodes for which
  /// `within` returns true (edges to outside nodes are not followed), into
  /// a caller's buffers: adds to `seen`, a set over this graph, every such
  /// node reachable through nodes not yet in it, using `work` as the search
  /// stack. Searches with one predicate into one set therefore leave the
  /// union of their reachable sets.
  template <class Pred>
  void reach(EventId from, Pred within, NodeSet& seen,
             std::vector<EventId>& work) const {
    search(from, within, begin_.data(), edges_.data(), seen, work);
  }
  /// Backward reachability (same contract as `reach`).
  template <class Pred>
  void reach_back(EventId from, Pred within, NodeSet& seen,
                  std::vector<EventId>& work) const {
    search(from, within, pred_begin(), pred_edges(), seen, work);
  }

  std::string dump(const Program& prog) const;

 private:
  friend class CfgBuilder;

  template <class Pred>
  void search(EventId from, Pred within, const uint32_t* begin,
              const Edge* edges, NodeSet& seen,
              std::vector<EventId>& work) const {
    if (!within(from) || !seen.insert(from)) return;
    work.assign(1, from);
    while (!work.empty()) {
      EventId n = work.back();
      work.pop_back();
      for (uint32_t i = begin[n.idx]; i < begin[n.idx + 1]; ++i) {
        EventId to = edges[i].to;
        if (within(to) && seen.insert(to)) work.push_back(to);
      }
    }
  }

  /// In-edge offsets and in-edges: the second halves of begin_ and edges_.
  const uint32_t* pred_begin() const {
    return begin_.data() + nodes_.size() + 1;
  }
  const Edge* pred_edges() const {
    return edges_.data() + edges_.size() / 2;
  }

  /// Lays out `edges`, (source, edge) pairs in the order they were added,
  /// as the adjacency arrays of both directions.
  void lay_out(std::span<const std::pair<EventId, Edge>> edges);

  ProcId proc_;
  EventId entry_, exit_;
  std::vector<Event> nodes_;
  /// Out-edge offsets of every node, then in-edge offsets of every node:
  /// node i's out-edges are edges_[begin_[i] .. begin_[i+1]), and its
  /// in-edges the same range of pred_edges() under pred_begin().
  std::vector<uint32_t> begin_;
  /// Every out-edge grouped by source, then every in-edge grouped by
  /// target; `Edge::to` of an in-edge is its source.
  std::vector<Edge> edges_;
  std::vector<LoopInfo> loops_;
  /// The arrays LoopInfo::members and back_sources are slices of.
  std::vector<EventId> loop_members_, loop_back_sources_;
};

/// Builds the CFG for one procedure. The program must have passed sema.
Cfg build_cfg(const Program& prog, ProcId proc);

}  // namespace synat::cfg
