#include "synat/cfg/cfg.h"

#include <algorithm>
#include <iterator>
#include <string>

#include "synat/obs/trace.h"
#include "synat/synl/printer.h"

namespace synat::cfg {

void SelectorList::spill_to(uint32_t cap) {
  Selector* heap = new Selector[cap];
  std::copy(begin(), end(), heap);
  if (spilled()) delete[] heap_;
  heap_ = heap;
  cap_ = cap;
}

std::string AccessPath::str(const Program& prog) const {
  std::string out = root.valid()
                        ? std::string(prog.syms().name(prog.var(root).name))
                        : std::string("<?>");
  for (const Selector& s : sels) {
    if (s.kind == Selector::Field) {
      out += '.';
      out += prog.syms().name(s.field);
    } else {
      out += "[*]";
    }
  }
  return out;
}

std::string_view to_string(EventKind k) {
  switch (k) {
    case EventKind::Entry: return "entry";
    case EventKind::Exit: return "exit";
    case EventKind::LoopHead: return "loophead";
    case EventKind::Join: return "join";
    case EventKind::Read: return "read";
    case EventKind::Write: return "write";
    case EventKind::LL: return "LL";
    case EventKind::VL: return "VL";
    case EventKind::SC: return "SC";
    case EventKind::CAS: return "CAS";
    case EventKind::New: return "new";
    case EventKind::Acquire: return "acquire";
    case EventKind::Release: return "release";
    case EventKind::Assume: return "assume";
  }
  return "?";
}

bool Cfg::in_loop(EventId n, StmtId loop) const {
  const LoopInfo* info = loop_info(loop);
  if (!info) return false;
  for (EventId m : info->members)
    if (m == n) return true;
  return false;
}

std::string Cfg::dump(const Program& prog) const {
  std::string out;
  for (uint32_t i = 0; i < nodes_.size(); ++i) {
    const Event& ev = nodes_[i];
    out += 'n' + std::to_string(i) + ": " + std::string(to_string(ev.kind));
    if (ev.path.root.valid()) out += ' ' + ev.path.str(prog);
    if (ev.must_succeed) out += " [must-succeed]";
    out += " ->";
    for (const Edge& e : succs(EventId(i))) {
      out += " n" + std::to_string(e.to.idx);
      switch (e.kind) {
        case EdgeKind::True: out += "(T)"; break;
        case EdgeKind::False: out += "(F)"; break;
        case EdgeKind::Back: out += "(back)"; break;
        case EdgeKind::Fall: break;
      }
    }
    out += '\n';
  }
  return out;
}

void Cfg::lay_out(std::span<const std::pair<EventId, Edge>> edges) {
  // Counting sort by source (and by target), stable, so each node's edges
  // keep the order they were added in.
  const size_t n = nodes_.size();
  const size_t m = edges.size();
  begin_.assign(2 * (n + 1), 0);
  uint32_t* succ_begin = begin_.data();
  uint32_t* pred_begin = succ_begin + n + 1;
  for (const auto& [from, e] : edges) {
    ++succ_begin[from.idx + 1];
    ++pred_begin[e.to.idx + 1];
  }
  for (size_t i = 0; i < n; ++i) {
    succ_begin[i + 1] += succ_begin[i];
    pred_begin[i + 1] += pred_begin[i];
  }
  // Place each edge at its node's cursor, begin[i] advancing to the end of
  // node i; shifting the offsets one slot right then restores the begins.
  edges_.resize(2 * m);
  Edge* succs = edges_.data();
  Edge* preds = succs + m;
  for (const auto& [from, e] : edges) {
    succs[succ_begin[from.idx]++] = e;
    preds[pred_begin[e.to.idx]++] = {from, e.kind};
  }
  for (size_t i = n; i > 0; --i) {
    succ_begin[i] = succ_begin[i - 1];
    pred_begin[i] = pred_begin[i - 1];
  }
  succ_begin[0] = pred_begin[0] = 0;
}

// ---------------------------------------------------------------------------
// Builder

using synl::Expr;
using synl::ExprKind;
using synl::Stmt;
using synl::StmtKind;

namespace {

/// Dangling out-edges waiting for their destination.
using Dangling = std::pair<EventId, EdgeKind>;

struct SyncCtx {
  ExprId lock;
  StmtId stmt;
};

struct LoopCtx {
  StmtId stmt;
  EventId head;
  size_t sync_depth;  ///< sync stack size at loop entry
  uint32_t info;      ///< index of its loop in BuildScratch::loops
  std::vector<Dangling> breaks;  ///< edges that exit the loop via break
};

/// A loop while its CFG is built: its members are the head and every node
/// created until the loop's body is done, so they are the id range
/// [head, member_end).
struct PendingLoop {
  StmtId stmt;
  EventId head;
  StmtId parent;
  uint32_t member_end = 0;
};

/// The builder's buffers. Each thread reuses its own from one build to the
/// next, so each keeps the capacity of the largest procedure it served and
/// a build allocates only the finished Cfg's arrays.
struct BuildScratch {
  std::vector<Event> nodes;
  /// Every edge as (source, edge), in the order added.
  std::vector<std::pair<EventId, Edge>> edges;
  /// The frontiers of the statements being built, innermost on top: a
  /// statement built at `base` finds its incoming frontier at
  /// [base, size()) and leaves its outgoing one there.
  std::vector<Dangling> frontier;
  std::vector<SyncCtx> sync_stack;
  /// Enclosing loops, innermost at loop_depth - 1; entries above the depth
  /// keep their `breaks` buffers for the next loop at that depth.
  std::vector<LoopCtx> loop_stack;
  std::vector<PendingLoop> loops;
  /// (loop index, source) of every back edge, in the order added.
  std::vector<std::pair<uint32_t, EventId>> back_sources;
  std::vector<uint32_t> offsets;  ///< per-loop counting-sort cursors
};

thread_local BuildScratch build_scratch;

}  // namespace

// Not in an anonymous namespace: Cfg befriends this exact class name.
class CfgBuilder {
 public:
  CfgBuilder(const Program& prog, ProcId proc, BuildScratch& scratch)
      : prog_(prog), proc_(proc), s_(scratch), f_(scratch.frontier) {
    s_.nodes.clear();
    s_.edges.clear();
    s_.frontier.clear();
    s_.sync_stack.clear();
    s_.loops.clear();
    s_.back_sources.clear();
  }

  Cfg build() {
    const EventId entry =
        add_node(make_event(EventKind::Entry, StmtId(), ExprId()));
    exit_ = add_node(make_event(EventKind::Exit, StmtId(), ExprId()));
    f_.push_back({entry, EdgeKind::Fall});
    build_stmt(prog_.proc(proc_).body, 0);
    connect_all(0, exit_);

    Cfg cfg;
    cfg.proc_ = proc_;
    cfg.entry_ = entry;
    cfg.exit_ = exit_;
    cfg.nodes_.assign(std::make_move_iterator(s_.nodes.begin()),
                      std::make_move_iterator(s_.nodes.end()));
    cfg.lay_out(s_.edges);
    lay_out_loops(cfg);
    return cfg;
  }

 private:
  EventId add_node(Event ev) {
    s_.nodes.push_back(std::move(ev));
    return EventId(static_cast<uint32_t>(s_.nodes.size() - 1));
  }
  void add_edge(EventId from, EventId to, EdgeKind kind) {
    s_.edges.push_back({from, {to, kind}});
  }

  Event make_event(EventKind kind, StmtId stmt, ExprId expr) {
    Event ev;
    ev.kind = kind;
    ev.stmt = stmt;
    ev.expr = expr;
    if (loop_depth_ > 0) ev.loop = s_.loop_stack[loop_depth_ - 1].stmt;
    return ev;
  }

  /// Wires the frontier at `base` into `to`, keeping each edge's kind, and
  /// empties it.
  void connect_all(size_t base, EventId to) {
    for (size_t i = base; i < f_.size(); ++i)
      add_edge(f_[i].first, to, f_[i].second);
    f_.resize(base);
  }

  /// Appends a node, wiring the frontier at `base` into it; the new node
  /// becomes the frontier.
  void chain(size_t base, Event ev) {
    EventId id = add_node(std::move(ev));
    connect_all(base, id);
    f_.push_back({id, EdgeKind::Fall});
  }

  /// AccessPath for a Location expression (x | x.fd | x[e], possibly
  /// chained). Returns an empty path when the expression is not rooted in a
  /// variable (parse-error recovery).
  AccessPath path_of(ExprId id) const {
    AccessPath path;
    ExprId cur = id;
    while (cur.valid()) {
      const Expr& e = prog_.expr(cur);
      if (e.kind == ExprKind::VarRef) {
        path.root = e.var;
        break;
      }
      if (e.kind == ExprKind::Field) {
        path.sels.push_back({Selector::Field, e.name});
        cur = e.a;
      } else if (e.kind == ExprKind::Index) {
        path.sels.push_back({Selector::Index, {}});
        cur = e.a;
      } else {
        break;  // not a location
      }
    }
    // Collected from the outermost selector inward.
    std::reverse(path.sels.begin(), path.sels.end());
    return path;
  }

  /// Emits the address-computation events of a location (reads of the base
  /// pointer chain and index expressions) WITHOUT the final read of the
  /// location itself. Used for assignment targets and LL/SC/VL/CAS operands.
  /// Base-chain reads are flagged is_base: they fetch a pointer only to
  /// dereference it, so the liveness analysis does not treat them as value
  /// uses (paper Section 4, condition (ii)).
  void emit_location_base(ExprId id, StmtId stmt, size_t base) {
    const Expr& e = prog_.expr(id);
    switch (e.kind) {
      case ExprKind::VarRef:
        return;  // the variable's address needs no evaluation
      case ExprKind::Field:
        emit_location_read(e.a, stmt, base);
        return;
      case ExprKind::Index:
        emit_location_read(e.a, stmt, base);
        emit_expr(e.b, stmt, base, 0);  // index is a value use
        return;
      default:
        return;  // error recovery
    }
  }

  /// Emits a read of location `id` flagged as a base (address) read,
  /// preceded by its own base reads.
  void emit_location_read(ExprId id, StmtId stmt, size_t base) {
    const Expr& e = prog_.expr(id);
    if (!synl::is_location_kind(e.kind)) {
      emit_expr(id, stmt, base, 0);  // error recovery
      return;
    }
    emit_location_base(id, stmt, base);
    Event ev = make_event(EventKind::Read, stmt, id);
    ev.path = path_of(id);
    ev.is_base = true;
    chain(base, std::move(ev));
  }

  /// Emits evaluation events for `id`. `assume_polarity` is +1 when the
  /// expression appears positively inside a TRUE(...) (so an SC/CAS here
  /// must succeed), -1 when negated, 0 when not inside an assumption.
  void emit_expr(ExprId id, StmtId stmt, size_t base, int assume_polarity) {
    if (!id.valid()) return;
    const Expr& e = prog_.expr(id);
    switch (e.kind) {
      case ExprKind::IntLit:
      case ExprKind::BoolLit:
      case ExprKind::NullLit:
        return;
      case ExprKind::VarRef:
      case ExprKind::Field:
      case ExprKind::Index: {
        emit_location_base(id, stmt, base);
        Event ev = make_event(EventKind::Read, stmt, id);
        ev.path = path_of(id);
        chain(base, std::move(ev));
        return;
      }
      case ExprKind::Unary:
        emit_expr(e.a, stmt, base,
                  e.un_op == synl::UnOp::Not ? -assume_polarity
                                             : assume_polarity);
        return;
      case ExprKind::Binary: {
        // Conjunction preserves polarity (TRUE(a && b) assumes both);
        // everything else is neutral for the success analysis.
        int child = e.bin_op == synl::BinOp::And ? assume_polarity : 0;
        emit_expr(e.a, stmt, base, child);
        emit_expr(e.b, stmt, base, child);
        return;
      }
      case ExprKind::LL:
      case ExprKind::VL: {
        emit_location_base(e.a, stmt, base);
        Event ev = make_event(
            e.kind == ExprKind::LL ? EventKind::LL : EventKind::VL, stmt, id);
        ev.path = path_of(e.a);
        ev.must_succeed = assume_polarity > 0;
        chain(base, std::move(ev));
        return;
      }
      case ExprKind::SC: {
        emit_location_base(e.a, stmt, base);
        emit_expr(e.b, stmt, base, 0);
        Event ev = make_event(EventKind::SC, stmt, id);
        ev.path = path_of(e.a);
        ev.must_succeed = assume_polarity > 0;
        chain(base, std::move(ev));
        return;
      }
      case ExprKind::CAS: {
        emit_location_base(e.a, stmt, base);
        emit_expr(e.b, stmt, base, 0);
        emit_expr(e.c, stmt, base, 0);
        Event ev = make_event(EventKind::CAS, stmt, id);
        ev.path = path_of(e.a);
        ev.must_succeed = assume_polarity > 0;
        chain(base, std::move(ev));
        return;
      }
      case ExprKind::New:
        chain(base, make_event(EventKind::New, stmt, id));
        return;
      case ExprKind::Call:
        SYNAT_ASSERT(false, "procedure call reached CFG construction; "
                            "inline_calls must run first");
    }
  }

  /// Emits Release events for every synchronized block entered after
  /// `down_to` (used when a jump leaves those blocks).
  void emit_releases(size_t base, size_t down_to, StmtId jump_stmt) {
    for (size_t i = s_.sync_stack.size(); i > down_to; --i) {
      const ExprId lock = s_.sync_stack[i - 1].lock;
      Event ev = make_event(EventKind::Release, jump_stmt, lock);
      ev.path = path_of(lock);
      chain(base, std::move(ev));
    }
  }

  LoopCtx* find_loop(StmtId target) {
    for (size_t i = loop_depth_; i > 0; --i) {
      if (s_.loop_stack[i - 1].stmt == target) return &s_.loop_stack[i - 1];
    }
    return nullptr;
  }

  /// Records a back edge of loop `info` from `from` to its head.
  void add_back_edge(uint32_t info, EventId head, EventId from,
                     EdgeKind kind) {
    add_edge(from, head, kind);
    s_.back_sources.emplace_back(info, from);
  }

  /// Builds `id` from the frontier at `base`, leaving its exits there.
  void build_stmt(StmtId id, size_t base) {
    if (!id.valid()) return;
    const Stmt& s = prog_.stmt(id);
    switch (s.kind) {
      case StmtKind::Assign: {
        emit_expr(s.e2, id, base, 0);
        emit_location_base(s.e1, id, base);
        Event ev = make_event(EventKind::Write, id, s.e1);
        ev.path = path_of(s.e1);
        chain(base, std::move(ev));
        return;
      }
      case StmtKind::ExprStmt:
        emit_expr(s.e1, id, base, 0);
        return;
      case StmtKind::Block:
        for (StmtId child : prog_.children(s)) build_stmt(child, base);
        return;
      case StmtKind::If: {
        emit_expr(s.e1, id, base, 0);
        // Materialize a branch point so True/False edges have one source.
        chain(base, make_event(EventKind::Join, id, s.e1));
        const EventId branch = f_[base].first;
        f_[base] = {branch, EdgeKind::True};
        build_stmt(s.s1, base);
        // The else branch's exits follow the then branch's.
        const size_t else_base = f_.size();
        f_.push_back({branch, EdgeKind::False});
        build_stmt(s.s2, else_base);
        return;
      }
      case StmtKind::Local: {
        emit_expr(s.e1, id, base, 0);
        Event ev = make_event(EventKind::Write, id, ExprId());
        ev.path.root = s.var;
        chain(base, std::move(ev));
        build_stmt(s.s1, base);
        return;
      }
      case StmtKind::Loop: {
        chain(base, make_event(EventKind::LoopHead, id, ExprId()));
        const EventId head = f_[base].first;
        const uint32_t info = static_cast<uint32_t>(s_.loops.size());
        s_.loops.push_back(
            {id, head,
             loop_depth_ > 0 ? s_.loop_stack[loop_depth_ - 1].stmt : StmtId()});
        if (loop_depth_ == s_.loop_stack.size()) s_.loop_stack.emplace_back();
        LoopCtx& pushed = s_.loop_stack[loop_depth_++];
        pushed.stmt = id;
        pushed.head = head;
        pushed.sync_depth = s_.sync_stack.size();
        pushed.info = info;
        pushed.breaks.clear();

        // The body starts from the head, the frontier chain() left.
        build_stmt(s.s1, base);
        // Normal termination: fall back to the head. The dangling edge's
        // branch kind is preserved (analyses need to know whether the back
        // edge was the True or False leg of an if); back edges are
        // identified through LoopInfo::back_sources, not the edge kind.
        for (size_t i = base; i < f_.size(); ++i)
          add_back_edge(info, head, f_[i].first, f_[i].second);
        f_.resize(base);
        const LoopCtx& ctx = s_.loop_stack[--loop_depth_];
        f_.insert(f_.end(), ctx.breaks.begin(), ctx.breaks.end());
        s_.loops[info].member_end = static_cast<uint32_t>(s_.nodes.size());
        return;
      }
      case StmtKind::Return:
        emit_expr(s.e1, id, base, 0);
        emit_releases(base, 0, id);
        connect_all(base, exit_);
        return;
      case StmtKind::Break: {
        LoopCtx* ctx = find_loop(s.jump_target);
        if (ctx != nullptr) {  // else malformed; sema reported it
          emit_releases(base, ctx->sync_depth, id);
          ctx->breaks.insert(ctx->breaks.end(), f_.begin() + base, f_.end());
        }
        f_.resize(base);
        return;
      }
      case StmtKind::Continue: {
        LoopCtx* ctx = find_loop(s.jump_target);
        if (ctx != nullptr) {
          emit_releases(base, ctx->sync_depth, id);
          for (size_t i = base; i < f_.size(); ++i)
            add_back_edge(ctx->info, ctx->head, f_[i].first, f_[i].second);
        }
        f_.resize(base);
        return;
      }
      case StmtKind::Skip:
        return;
      case StmtKind::Synchronized: {
        emit_expr(s.e1, id, base, 0);
        Event acq = make_event(EventKind::Acquire, id, s.e1);
        acq.path = path_of(s.e1);
        chain(base, std::move(acq));
        s_.sync_stack.push_back({s.e1, id});
        build_stmt(s.s1, base);
        s_.sync_stack.pop_back();
        Event rel = make_event(EventKind::Release, id, s.e1);
        rel.path = path_of(s.e1);
        chain(base, std::move(rel));
        return;
      }
      case StmtKind::Assume: {
        emit_expr(s.e1, id, base, +1);
        chain(base, make_event(EventKind::Assume, id, s.e1));
        // TRUE(false) marks an infeasible branch (used by the variant
        // generator for jumps into deleted iterations): dead end.
        const Expr& e = prog_.expr(s.e1);
        if (e.kind == ExprKind::BoolLit && !e.bool_value) f_.resize(base);
        return;
      }
      case StmtKind::Assert:
        emit_expr(s.e1, id, base, 0);
        return;
    }
  }

  /// Gives `cfg` its loops, with members and back-edge sources as slices
  /// of one exact-size array each.
  void lay_out_loops(Cfg& cfg) {
    const size_t num_loops = s_.loops.size();
    if (num_loops == 0) return;
    size_t num_members = 0;
    for (const PendingLoop& l : s_.loops)
      num_members += l.member_end - l.head.idx;
    cfg.loop_members_.resize(num_members);
    cfg.loop_back_sources_.resize(s_.back_sources.size());
    // Back-edge sources by loop, each loop's in the order added.
    s_.offsets.assign(num_loops + 1, 0);
    for (const auto& [info, from] : s_.back_sources) ++s_.offsets[info + 1];
    for (size_t i = 0; i < num_loops; ++i) s_.offsets[i + 1] += s_.offsets[i];
    for (const auto& [info, from] : s_.back_sources)
      cfg.loop_back_sources_[s_.offsets[info]++] = from;

    cfg.loops_.resize(num_loops);
    size_t member = 0;
    size_t source = 0;
    for (size_t i = 0; i < num_loops; ++i) {
      const PendingLoop& l = s_.loops[i];
      LoopInfo& info = cfg.loops_[i];
      info.stmt = l.stmt;
      info.head = l.head;
      info.parent = l.parent;
      const size_t first = member;
      for (uint32_t n = l.head.idx; n < l.member_end; ++n)
        cfg.loop_members_[member++] = EventId(n);
      info.members = {cfg.loop_members_.data() + first, member - first};
      // offsets[i] now ends loop i's sources.
      info.back_sources = {cfg.loop_back_sources_.data() + source,
                           s_.offsets[i] - source};
      source = s_.offsets[i];
    }
  }

  const Program& prog_;
  ProcId proc_;
  BuildScratch& s_;
  std::vector<Dangling>& f_;  ///< s_.frontier
  EventId exit_;
  size_t loop_depth_ = 0;
};

Cfg build_cfg(const Program& prog, ProcId proc) {
  obs::SpanScope span(obs::StageId::CfgLiveness);
  return CfgBuilder(prog, proc, build_scratch).build();
}

}  // namespace synat::cfg
