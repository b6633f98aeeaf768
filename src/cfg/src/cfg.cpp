#include "synat/cfg/cfg.h"

#include <algorithm>
#include <string>

#include "synat/obs/trace.h"
#include "synat/synl/printer.h"

namespace synat::cfg {

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

std::vector<EventId> Cfg::all_nodes() const {
  std::vector<EventId> out;
  out.reserve(nodes_.size());
  for (uint32_t i = 0; i < nodes_.size(); ++i) out.push_back(EventId(i));
  return out;
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

void Cfg::lay_out(const std::vector<std::pair<EventId, Edge>>& edges) {
  // Counting sort by source (and by target), stable, so each node's edges
  // keep the order they were added in.
  const size_t n = nodes_.size();
  succ_begin_.assign(n + 1, 0);
  pred_begin_.assign(n + 1, 0);
  for (const auto& [from, e] : edges) {
    ++succ_begin_[from.idx + 1];
    ++pred_begin_[e.to.idx + 1];
  }
  for (size_t i = 0; i < n; ++i) {
    succ_begin_[i + 1] += succ_begin_[i];
    pred_begin_[i + 1] += pred_begin_[i];
  }
  // Place each edge at its node's cursor, begin_[i] advancing to the end of
  // node i; shifting the array one slot right then restores the begins.
  succs_.resize(edges.size());
  preds_.resize(edges.size());
  for (const auto& [from, e] : edges) {
    succs_[succ_begin_[from.idx]++] = e;
    preds_[pred_begin_[e.to.idx]++] = {from, e.kind};
  }
  for (size_t i = n; i > 0; --i) {
    succ_begin_[i] = succ_begin_[i - 1];
    pred_begin_[i] = pred_begin_[i - 1];
  }
  succ_begin_[0] = pred_begin_[0] = 0;
}

// ---------------------------------------------------------------------------
// Builder

using synl::Expr;
using synl::ExprKind;
using synl::Stmt;
using synl::StmtKind;

// Not in an anonymous namespace: Cfg befriends this exact class name.
class CfgBuilder {
 public:
  CfgBuilder(const Program& prog, ProcId proc) : prog_(prog), proc_(proc) {}

  Cfg build() {
    cfg_.proc_ = proc_;
    cfg_.entry_ = add_node(make_event(EventKind::Entry, StmtId(), ExprId()));
    cfg_.exit_ = add_node(make_event(EventKind::Exit, StmtId(), ExprId()));
    Frontier end = build_stmt(prog_.proc(proc_).body,
                              {{cfg_.entry_, EdgeKind::Fall}});
    connect_all(end, cfg_.exit_, EdgeKind::Fall);
    cfg_.lay_out(edges_);
    return std::move(cfg_);
  }

 private:
  /// Dangling out-edges waiting for their destination.
  using Frontier = std::vector<std::pair<EventId, EdgeKind>>;

  struct SyncCtx {
    ExprId lock;
    StmtId stmt;
  };
  struct LoopCtx {
    StmtId stmt;
    EventId head;
    size_t sync_depth;      ///< sync_stack_ size at loop entry
    Frontier breaks;        ///< edges that exit the loop via break
    size_t info;            ///< index of its LoopInfo in cfg_.loops_
  };

  EventId add_node(Event ev) {
    cfg_.nodes_.push_back(std::move(ev));
    return EventId(static_cast<uint32_t>(cfg_.nodes_.size() - 1));
  }
  void add_edge(EventId from, EventId to, EdgeKind kind) {
    edges_.push_back({from, {to, kind}});
  }

  Event make_event(EventKind kind, StmtId stmt, ExprId expr) {
    Event ev;
    ev.kind = kind;
    ev.stmt = stmt;
    ev.expr = expr;
    if (!loop_stack_.empty()) ev.loop = loop_stack_.back().stmt;
    return ev;
  }

  void connect_all(const Frontier& f, EventId to, EdgeKind override_kind) {
    for (auto [from, kind] : f) {
      EdgeKind k = override_kind == EdgeKind::Back ? EdgeKind::Back : kind;
      add_edge(from, to, k);
    }
  }

  /// Appends a node, wiring the frontier into it; returns the new
  /// frontier, in `f`'s buffer.
  Frontier chain(Frontier f, Event ev) {
    EventId id = add_node(std::move(ev));
    for (auto [from, kind] : f) add_edge(from, id, kind);
    note_loop_member(id);
    f.assign(1, {id, EdgeKind::Fall});
    return f;
  }

  void note_loop_member(EventId id) {
    // Record membership in every enclosing loop.
    for (LoopCtx& ctx : loop_stack_)
      cfg_.loops_[ctx.info].members.push_back(id);
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
  Frontier emit_location_base(ExprId id, StmtId stmt, Frontier f) {
    const Expr& e = prog_.expr(id);
    switch (e.kind) {
      case ExprKind::VarRef:
        return f;  // the variable's address needs no evaluation
      case ExprKind::Field:
        return emit_location_read(e.a, stmt, std::move(f));
      case ExprKind::Index: {
        f = emit_location_read(e.a, stmt, std::move(f));
        return emit_expr(e.b, stmt, std::move(f), 0);  // index is a value use
      }
      default:
        return f;  // error recovery
    }
  }

  /// Emits a read of location `id` flagged as a base (address) read,
  /// preceded by its own base reads.
  Frontier emit_location_read(ExprId id, StmtId stmt, Frontier f) {
    const Expr& e = prog_.expr(id);
    if (!synl::is_location_kind(e.kind)) {
      return emit_expr(id, stmt, std::move(f), 0);  // error recovery
    }
    f = emit_location_base(id, stmt, std::move(f));
    Event ev = make_event(EventKind::Read, stmt, id);
    ev.path = path_of(id);
    ev.is_base = true;
    return chain(std::move(f), std::move(ev));
  }

  /// Emits evaluation events for `id`. `assume_polarity` is +1 when the
  /// expression appears positively inside a TRUE(...) (so an SC/CAS here
  /// must succeed), -1 when negated, 0 when not inside an assumption.
  Frontier emit_expr(ExprId id, StmtId stmt, Frontier f, int assume_polarity) {
    if (!id.valid()) return f;
    const Expr& e = prog_.expr(id);
    switch (e.kind) {
      case ExprKind::IntLit:
      case ExprKind::BoolLit:
      case ExprKind::NullLit:
        return f;
      case ExprKind::VarRef:
      case ExprKind::Field:
      case ExprKind::Index: {
        f = emit_location_base(id, stmt, std::move(f));
        Event ev = make_event(EventKind::Read, stmt, id);
        ev.path = path_of(id);
        return chain(std::move(f), std::move(ev));
      }
      case ExprKind::Unary:
        return emit_expr(e.a, stmt, std::move(f),
                         e.un_op == synl::UnOp::Not ? -assume_polarity
                                                    : assume_polarity);
      case ExprKind::Binary: {
        // Conjunction preserves polarity (TRUE(a && b) assumes both);
        // everything else is neutral for the success analysis.
        int child = e.bin_op == synl::BinOp::And ? assume_polarity : 0;
        f = emit_expr(e.a, stmt, std::move(f), child);
        return emit_expr(e.b, stmt, std::move(f), child);
      }
      case ExprKind::LL:
      case ExprKind::VL: {
        f = emit_location_base(e.a, stmt, std::move(f));
        Event ev = make_event(
            e.kind == ExprKind::LL ? EventKind::LL : EventKind::VL, stmt, id);
        ev.path = path_of(e.a);
        ev.must_succeed = assume_polarity > 0;
        return chain(std::move(f), std::move(ev));
      }
      case ExprKind::SC: {
        f = emit_location_base(e.a, stmt, std::move(f));
        f = emit_expr(e.b, stmt, std::move(f), 0);
        Event ev = make_event(EventKind::SC, stmt, id);
        ev.path = path_of(e.a);
        ev.must_succeed = assume_polarity > 0;
        return chain(std::move(f), std::move(ev));
      }
      case ExprKind::CAS: {
        f = emit_location_base(e.a, stmt, std::move(f));
        f = emit_expr(e.b, stmt, std::move(f), 0);
        f = emit_expr(e.c, stmt, std::move(f), 0);
        Event ev = make_event(EventKind::CAS, stmt, id);
        ev.path = path_of(e.a);
        ev.must_succeed = assume_polarity > 0;
        return chain(std::move(f), std::move(ev));
      }
      case ExprKind::New: {
        Event ev = make_event(EventKind::New, stmt, id);
        return chain(std::move(f), std::move(ev));
      }
      case ExprKind::Call:
        SYNAT_ASSERT(false, "procedure call reached CFG construction; "
                            "inline_calls must run first");
    }
    return f;
  }

  /// Emits Release events for every synchronized block entered after
  /// `down_to` (used when a jump leaves those blocks).
  Frontier emit_releases(Frontier f, size_t down_to, StmtId jump_stmt) {
    for (size_t i = sync_stack_.size(); i > down_to; --i) {
      Event ev = make_event(EventKind::Release, jump_stmt, sync_stack_[i - 1].lock);
      ev.path = path_of(sync_stack_[i - 1].lock);
      f = chain(std::move(f), std::move(ev));
    }
    return f;
  }

  LoopCtx* find_loop(StmtId target) {
    for (auto it = loop_stack_.rbegin(); it != loop_stack_.rend(); ++it) {
      if (it->stmt == target) return &*it;
    }
    return nullptr;
  }

  Frontier build_stmt(StmtId id, Frontier f) {
    if (!id.valid()) return f;
    const Stmt& s = prog_.stmt(id);
    switch (s.kind) {
      case StmtKind::Assign: {
        f = emit_expr(s.e2, id, std::move(f), 0);
        f = emit_location_base(s.e1, id, std::move(f));
        Event ev = make_event(EventKind::Write, id, s.e1);
        ev.path = path_of(s.e1);
        return chain(std::move(f), std::move(ev));
      }
      case StmtKind::ExprStmt:
        return emit_expr(s.e1, id, std::move(f), 0);
      case StmtKind::Block: {
        for (StmtId child : prog_.children(s))
          f = build_stmt(child, std::move(f));
        return f;
      }
      case StmtKind::If: {
        f = emit_expr(s.e1, id, std::move(f), 0);
        // Materialize a branch point so True/False edges have one source.
        Event ev = make_event(EventKind::Join, id, s.e1);
        Frontier at_branch = chain(std::move(f), std::move(ev));
        EventId branch = at_branch[0].first;
        Frontier out = build_stmt(s.s1, {{branch, EdgeKind::True}});
        if (s.s2.valid()) {
          Frontier out2 = build_stmt(s.s2, {{branch, EdgeKind::False}});
          out.insert(out.end(), out2.begin(), out2.end());
        } else {
          out.push_back({branch, EdgeKind::False});
        }
        return out;
      }
      case StmtKind::Local: {
        f = emit_expr(s.e1, id, std::move(f), 0);
        Event ev = make_event(EventKind::Write, id, ExprId());
        ev.path.root = s.var;
        f = chain(std::move(f), std::move(ev));
        return build_stmt(s.s1, std::move(f));
      }
      case StmtKind::Loop: {
        Event head_ev = make_event(EventKind::LoopHead, id, ExprId());
        Frontier at_head = chain(std::move(f), std::move(head_ev));
        EventId head = at_head[0].first;

        LoopInfo info;
        info.stmt = id;
        info.head = head;
        info.parent = loop_stack_.empty() ? StmtId() : loop_stack_.back().stmt;
        info.members.push_back(head);
        const size_t li = cfg_.loops_.size();
        cfg_.loop_index_[id] = li;
        cfg_.loops_.push_back(std::move(info));

        loop_stack_.push_back({id, head, sync_stack_.size(), {}, li});
        Frontier body_end = build_stmt(s.s1, {{head, EdgeKind::Fall}});
        // Normal termination: fall back to the head. The dangling edge's
        // branch kind is preserved (analyses need to know whether the back
        // edge was the True or False leg of an if); back edges are
        // identified through LoopInfo::back_sources, not the edge kind.
        for (auto [from, kind] : body_end) {
          add_edge(from, head, kind);
          cfg_.loops_[li].back_sources.push_back(from);
        }
        Frontier after = std::move(loop_stack_.back().breaks);
        loop_stack_.pop_back();
        return after;
      }
      case StmtKind::Return: {
        f = emit_expr(s.e1, id, std::move(f), 0);
        f = emit_releases(std::move(f), 0, id);
        connect_all(f, cfg_.exit_, EdgeKind::Fall);
        return {};
      }
      case StmtKind::Break: {
        LoopCtx* ctx = find_loop(s.jump_target);
        if (!ctx) return {};  // malformed; sema reported it
        f = emit_releases(std::move(f), ctx->sync_depth, id);
        for (auto edge : f) ctx->breaks.push_back(edge);
        return {};
      }
      case StmtKind::Continue: {
        LoopCtx* ctx = find_loop(s.jump_target);
        if (!ctx) return {};
        f = emit_releases(std::move(f), ctx->sync_depth, id);
        for (auto [from, kind] : f) {
          add_edge(from, ctx->head, kind);
          cfg_.loops_[ctx->info].back_sources.push_back(from);
        }
        return {};
      }
      case StmtKind::Skip:
        return f;
      case StmtKind::Synchronized: {
        f = emit_expr(s.e1, id, std::move(f), 0);
        Event acq = make_event(EventKind::Acquire, id, s.e1);
        acq.path = path_of(s.e1);
        f = chain(std::move(f), std::move(acq));
        sync_stack_.push_back({s.e1, id});
        f = build_stmt(s.s1, std::move(f));
        sync_stack_.pop_back();
        Event rel = make_event(EventKind::Release, id, s.e1);
        rel.path = path_of(s.e1);
        return chain(std::move(f), std::move(rel));
      }
      case StmtKind::Assume: {
        f = emit_expr(s.e1, id, std::move(f), +1);
        Event ev = make_event(EventKind::Assume, id, s.e1);
        f = chain(std::move(f), std::move(ev));
        // TRUE(false) marks an infeasible branch (used by the variant
        // generator for jumps into deleted iterations): dead end.
        const Expr& e = prog_.expr(s.e1);
        if (e.kind == ExprKind::BoolLit && !e.bool_value) return {};
        return f;
      }
      case StmtKind::Assert:
        return emit_expr(s.e1, id, std::move(f), 0);
    }
    return f;
  }

  const Program& prog_;
  ProcId proc_;
  Cfg cfg_;
  /// Every edge as (source, edge), in the order added; laid out when the
  /// build finishes.
  std::vector<std::pair<EventId, Edge>> edges_;
  std::vector<SyncCtx> sync_stack_;
  std::vector<LoopCtx> loop_stack_;
};

Cfg build_cfg(const Program& prog, ProcId proc) {
  obs::SpanScope span(obs::StageId::CfgLiveness);
  return CfgBuilder(prog, proc).build();
}

}  // namespace synat::cfg
