#include "synat/synl/inline.h"

#include <string>
#include <vector>

namespace synat::synl {

namespace {

class Inliner {
 public:
  Inliner(Program& prog, DiagEngine& diags, bool contain)
      : prog_(prog), diags_(diags), contain_(contain) {}

  bool run() {
    size_t num_procs = prog_.num_procs();  // expansions add no procedures
    for (size_t i = 0; i < num_procs; ++i) {
      ProcId pid(static_cast<uint32_t>(i));
      if (prog_.proc(pid).broken) continue;
      size_t before = diags_.num_errors();
      std::vector<ProcId> stack{pid};
      rewrite_stmt(prog_.proc(pid).body, stack);
      if (contain_ && diags_.num_errors() != before) mark_proc_broken(prog_, pid);
    }
    // Any surviving call is in an unsupported position.
    for (size_t i = 0; i < num_procs; ++i) {
      ProcId pid(static_cast<uint32_t>(i));
      if (prog_.proc(pid).broken) continue;
      size_t before = diags_.num_errors();
      for_each_expr_in_stmt(prog_, prog_.proc(pid).body, [&](ExprId e) {
        if (prog_.expr(e).kind == ExprKind::Call) {
          error(prog_.expr(e).loc,
                "procedure calls are only supported as statements or as the "
                "entire right-hand side of an assignment/initializer");
        }
      });
      if (contain_ && diags_.num_errors() != before) mark_proc_broken(prog_, pid);
    }
    return contain_ || ok_;
  }

 private:
  void error(SourceLoc loc, const std::string& msg) {
    diags_.error(loc, msg);
    ok_ = false;
  }

  Symbol fresh(const std::string& base) {
    return prog_.syms().intern("__" + base + std::to_string(counter_));
  }

  ExprId make_var(Symbol name, SourceLoc loc) {
    Expr e;
    e.kind = ExprKind::VarRef;
    e.name = name;
    e.loc = loc;
    return prog_.add_expr(std::move(e));
  }

  ExprId default_for(TypeId ret, SourceLoc loc) {
    Expr e;
    e.loc = loc;
    if (ret.valid() && (prog_.type(ret).kind == TypeKind::Ref ||
                        prog_.type(ret).kind == TypeKind::Null ||
                        prog_.type(ret).kind == TypeKind::Array)) {
      e.kind = ExprKind::NullLit;
    } else if (ret.valid() && prog_.type(ret).kind == TypeKind::Bool) {
      e.kind = ExprKind::BoolLit;
      e.bool_value = false;
    } else {
      e.kind = ExprKind::IntLit;
      e.int_value = 0;
    }
    return prog_.add_expr(std::move(e));
  }

  StmtId make_stmt(Stmt s) { return prog_.add_stmt(std::move(s)); }

  /// Replaces every `return [e]` in the cloned callee body with
  /// `{ __ret := e; break __inl; }` (the assignment only when a value is
  /// returned and wanted).
  void lower_returns(StmtId id, Symbol ret_name, Symbol label) {
    if (!id.valid()) return;
    const Stmt s = prog_.stmt(id);  // copy: the arena may grow below
    if (s.kind == StmtKind::Return) {
      ExprId value = s.e1;
      SourceLoc loc = s.loc;
      StmtId seq[2];
      size_t n = 0;
      if (value.valid() && ret_name.valid()) {
        Stmt assign;
        assign.kind = StmtKind::Assign;
        assign.loc = loc;
        assign.e1 = make_var(ret_name, loc);
        assign.e2 = value;
        seq[n++] = make_stmt(std::move(assign));
      }
      Stmt brk;
      brk.kind = StmtKind::Break;
      brk.loc = loc;
      brk.label = label;
      seq[n++] = make_stmt(std::move(brk));
      IdRange stmts = prog_.add_children(std::span(seq, n));
      Stmt& self = prog_.stmt(id);  // re-fetch: arena may have grown
      self.kind = StmtKind::Block;
      self.e1 = ExprId();
      self.stmts = stmts;
      return;
    }
    lower_returns(s.s1, ret_name, label);
    lower_returns(s.s2, ret_name, label);
    for (uint32_t i = 0; i < s.stmts.count; ++i)
      lower_returns(prog_.children(s)[i], ret_name, label);
  }

  /// Builds the expansion statement for `dst := callee(args)`, where
  /// `call` is a copy of the Call node. `dst` is a location expression
  /// (invalid for statement calls).
  // The expansion grows the argument array, so the arguments are re-read
  // by index from the copied node's range.
  StmtId expand(ProcId callee, const Expr call, ExprId dst, SourceLoc loc,
                std::vector<ProcId>& stack) {
    const ProcInfo& info = prog_.proc(callee);
    const size_t num_args = call.args.count;
    if (num_args != info.params.size()) {
      error(loc, "call to '" + std::string(prog_.syms().name(info.name)) +
                     "' with " + std::to_string(num_args) +
                     " argument(s); expected " +
                     std::to_string(info.params.size()));
      return make_stmt(Stmt{});  // skip
    }
    for (ProcId p : stack) {
      if (p == callee) {
        error(loc, "recursive call to '" +
                       std::string(prog_.syms().name(info.name)) +
                       "' (SYNL does not support recursion)");
        return make_stmt(Stmt{});
      }
    }

    ++counter_;
    Symbol label = fresh("inl");
    Symbol ret_name = dst.valid() ? fresh("ret") : Symbol();
    std::vector<Symbol> arg_names;
    for (size_t i = 0; i < num_args; ++i)
      arg_names.push_back(fresh("arg" + std::to_string(i) + "_"));

    // Callee body with returns lowered.
    StmtId body = cloner_.clone(info.body);
    lower_returns(body, ret_name, label);

    // Bind the callee's parameters to the argument temporaries.
    StmtId inner = body;
    for (size_t i = num_args; i-- > 0;) {
      Stmt bind;
      bind.kind = StmtKind::Local;
      bind.loc = loc;
      bind.name = prog_.var(info.params[i]).name;
      bind.declared_type = prog_.var(info.params[i]).type;
      bind.e1 = make_var(arg_names[i], loc);
      bind.s1 = inner;
      inner = make_stmt(std::move(bind));
    }

    // The single-iteration labeled loop `return` breaks out of.
    Stmt trailing_break;
    trailing_break.kind = StmtKind::Break;
    trailing_break.loc = loc;
    trailing_break.label = label;
    Stmt loop_body;
    loop_body.kind = StmtKind::Block;
    loop_body.loc = loc;
    const StmtId loop_stmts[] = {inner, make_stmt(std::move(trailing_break))};
    loop_body.stmts = prog_.add_children(loop_stmts);
    Stmt loop;
    loop.kind = StmtKind::Loop;
    loop.loc = loc;
    loop.label = label;
    loop.s1 = make_stmt(std::move(loop_body));
    StmtId loop_id = make_stmt(std::move(loop));

    // loop; dst := __ret
    StmtId core[2] = {loop_id};
    size_t core_len = 1;
    if (dst.valid()) {
      Stmt assign;
      assign.kind = StmtKind::Assign;
      assign.loc = loc;
      assign.e1 = dst;
      assign.e2 = make_var(ret_name, loc);
      core[core_len++] = make_stmt(std::move(assign));
    }
    Stmt core_block;
    core_block.kind = StmtKind::Block;
    core_block.loc = loc;
    core_block.stmts = prog_.add_children(std::span(core, core_len));
    StmtId result = make_stmt(std::move(core_block));

    // Wrap in __ret and argument temporaries (arguments evaluate first, in
    // the caller's scope, so no callee name can capture them).
    if (dst.valid()) {
      Stmt ret_local;
      ret_local.kind = StmtKind::Local;
      ret_local.loc = loc;
      ret_local.name = ret_name;
      ret_local.declared_type = info.ret_type;
      ret_local.e1 = default_for(info.ret_type, loc);
      ret_local.s1 = result;
      result = make_stmt(std::move(ret_local));
    }
    for (size_t i = num_args; i-- > 0;) {
      Stmt arg_local;
      arg_local.kind = StmtKind::Local;
      arg_local.loc = loc;
      arg_local.name = arg_names[i];
      arg_local.declared_type = prog_.var(info.params[i]).type;
      arg_local.e1 = prog_.args(call)[i];
      arg_local.s1 = result;
      result = make_stmt(std::move(arg_local));
    }

    // The callee body itself may contain calls.
    stack.push_back(callee);
    rewrite_stmt(result, stack);
    stack.pop_back();
    return result;
  }

  /// If `e` is a Call, resolves its callee; returns true when handled.
  bool callee_of(ExprId e, ProcId& out) {
    const Expr& expr = prog_.expr(e);
    if (expr.kind != ExprKind::Call) return false;
    for (size_t i = 0; i < prog_.num_procs(); ++i) {
      ProcId pid(static_cast<uint32_t>(i));
      if (prog_.proc(pid).name == expr.name) {
        if (prog_.proc(pid).broken) {
          // Only reachable in contain mode; the error propagates brokenness
          // to the caller, so no half-parsed body is ever inlined.
          error(expr.loc, "call to procedure '" +
                              std::string(prog_.syms().name(expr.name)) +
                              "', which failed to parse");
          out = ProcId();
          return true;
        }
        out = pid;
        return true;
      }
    }
    error(expr.loc, "call to unknown procedure '" +
                        std::string(prog_.syms().name(expr.name)) + "'");
    out = ProcId();
    return true;
  }

  /// Overwrites statement `id` with `replacement`'s contents (keeping the
  /// original StmtId valid for the parent).
  void replace_with(StmtId id, StmtId replacement) {
    prog_.stmt(id) = prog_.stmt(replacement);
  }

  void rewrite_stmt(StmtId id, std::vector<ProcId>& stack) {
    if (!id.valid()) return;
    const Stmt snapshot = prog_.stmt(id);
    switch (snapshot.kind) {
      case StmtKind::ExprStmt: {
        ProcId callee;
        if (callee_of(snapshot.e1, callee)) {
          if (!callee.valid()) return;
          StmtId exp = expand(callee, prog_.expr(snapshot.e1), ExprId(),
                              snapshot.loc, stack);
          replace_with(id, exp);
        }
        return;
      }
      case StmtKind::Assign: {
        ProcId callee;
        if (callee_of(snapshot.e2, callee)) {
          if (!callee.valid()) return;
          StmtId exp = expand(callee, prog_.expr(snapshot.e2), snapshot.e1,
                              snapshot.loc, stack);
          replace_with(id, exp);
        }
        return;
      }
      case StmtKind::Local: {
        ProcId callee;
        if (callee_of(snapshot.e1, callee)) {
          if (!callee.valid()) return;
          // Guard against the initializer's arguments referring to an
          // outer variable this local is about to shadow.
          for (ExprId arg : prog_.args(prog_.expr(snapshot.e1))) {
            bool shadows = false;
            for_each_subexpr(prog_, arg, [&](ExprId sub) {
              if (prog_.expr(sub).kind == ExprKind::VarRef &&
                  prog_.expr(sub).name == snapshot.name)
                shadows = true;
            });
            if (shadows) {
              error(snapshot.loc,
                    "call argument refers to the variable the initializer "
                    "declares; rename one of them");
              return;
            }
          }
          TypeId ret = prog_.proc(callee).ret_type;
          ExprId dst = make_var(snapshot.name, snapshot.loc);
          StmtId exp = expand(callee, prog_.expr(snapshot.e1), dst,
                              snapshot.loc, stack);
          Stmt seq;
          seq.kind = StmtKind::Block;
          seq.loc = snapshot.loc;
          const StmtId seq_stmts[] = {exp, snapshot.s1};
          seq.stmts = prog_.add_children(seq_stmts);
          // Materialize all new nodes BEFORE taking a reference into the
          // arena (make_stmt/default_for may reallocate it).
          ExprId def = default_for(ret, snapshot.loc);
          StmtId seq_id = make_stmt(std::move(seq));
          Stmt& self = prog_.stmt(id);
          self.e1 = def;
          self.declared_type = ret;
          self.s1 = seq_id;
          rewrite_stmt(snapshot.s1, stack);
          return;
        }
        rewrite_stmt(snapshot.s1, stack);
        return;
      }
      case StmtKind::Block:
        // By index: expansions append to the child array.
        for (uint32_t i = 0; i < snapshot.stmts.count; ++i)
          rewrite_stmt(prog_.children(snapshot)[i], stack);
        return;
      case StmtKind::If:
        rewrite_stmt(snapshot.s1, stack);
        rewrite_stmt(snapshot.s2, stack);
        return;
      case StmtKind::Loop:
      case StmtKind::Synchronized:
        rewrite_stmt(snapshot.s1, stack);
        return;
      default:
        return;
    }
  }

  Program& prog_;
  DiagEngine& diags_;
  bool contain_;
  int counter_ = 0;
  bool ok_ = true;
  TreeCloner cloner_{prog_};
};

}  // namespace

bool inline_calls(Program& prog, DiagEngine& diags, bool contain) {
  return Inliner(prog, diags, contain).run();
}

}  // namespace synat::synl
