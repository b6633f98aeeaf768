#include "synat/synl/sema.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace synat::synl {

namespace {

class Resolver {
 public:
  Resolver(Program& prog, ProcId proc, DiagEngine& diags)
      : prog_(prog), proc_(proc), diags_(diags) {}

  void run() {
    ProcInfo& p = prog_.proc(proc_);
    p.locals.clear();
    decls_.reserve(16);  // deep enough for most procedures: one allocation
    push_scope();
    for (VarId v : p.params) declare(v);
    resolve_stmt(p.body);
    pop_scope();
  }

 private:
  struct LoopCtx {
    StmtId stmt;
    Symbol label;
  };

  void push_scope() { decls_.emplace_back(Symbol(), VarId()); }
  void pop_scope() {
    while (decls_.back().first.valid()) decls_.pop_back();
    decls_.pop_back();  // the scope's mark
  }

  void declare(VarId v) {
    Symbol name = prog_.var(v).name;
    for (auto it = decls_.rbegin(); it->first.valid(); ++it) {
      if (it->first != name) continue;
      diags_.error(prog_.var(v).loc,
                   "redeclaration of '" + std::string(prog_.syms().name(name)) +
                       "' in the same scope");
      it->second = v;  // the later declaration wins
      return;
    }
    decls_.emplace_back(name, v);
  }

  VarId lookup(Symbol name) const {
    // Innermost first: later declarations shadow earlier ones.
    for (auto it = decls_.rbegin(); it != decls_.rend(); ++it) {
      if (it->first.valid() && it->first == name) return it->second;
    }
    return prog_.find_global(name);
  }

  TypeId location_type(ExprId id) { return prog_.expr(id).type; }

  void require_ref(ExprId id, std::string_view what) {
    const Expr& e = prog_.expr(id);
    if (!e.type.valid()) return;
    TypeKind k = prog_.type(e.type).kind;
    if (k != TypeKind::Ref && k != TypeKind::Unknown && k != TypeKind::Null) {
      diags_.error(e.loc, std::string(what) + " requires a reference, got " +
                              prog_.type_str(e.type));
    }
  }

  /// Loose compatibility: Unknown matches anything, Null matches refs.
  bool compatible(TypeId a, TypeId b) const {
    if (!a.valid() || !b.valid()) return true;
    const TypeNode& ta = prog_.type(a);
    const TypeNode& tb = prog_.type(b);
    if (ta.kind == TypeKind::Unknown || tb.kind == TypeKind::Unknown) return true;
    if (ta.kind == TypeKind::Null) return tb.kind == TypeKind::Ref || tb.kind == TypeKind::Null;
    if (tb.kind == TypeKind::Null) return ta.kind == TypeKind::Ref;
    if (ta.kind != tb.kind) return false;
    if (ta.kind == TypeKind::Ref) return ta.cls == tb.cls;
    if (ta.kind == TypeKind::Array) return compatible(ta.elem, tb.elem);
    return true;
  }

  void resolve_expr(ExprId id) {
    if (!id.valid()) return;
    Expr& e = prog_.expr(id);
    switch (e.kind) {
      case ExprKind::IntLit:
        e.type = prog_.int_type();
        break;
      case ExprKind::BoolLit:
        e.type = prog_.bool_type();
        break;
      case ExprKind::NullLit:
        e.type = prog_.null_type();
        break;
      case ExprKind::VarRef: {
        e.var = lookup(e.name);
        if (!e.var.valid()) {
          diags_.error(e.loc, "undeclared variable '" +
                                  std::string(prog_.syms().name(e.name)) + "'");
          e.type = prog_.unknown_type();
        } else {
          e.type = prog_.var(e.var).type;
        }
        break;
      }
      case ExprKind::Field: {
        resolve_expr(e.a);
        require_ref(e.a, "field access");
        e.type = prog_.unknown_type();
        const Expr& base = prog_.expr(e.a);
        if (base.type.valid() && prog_.type(base.type).kind == TypeKind::Ref) {
          const ClassInfo& c = prog_.cls(prog_.type(base.type).cls);
          int idx = c.field_index(e.name);
          if (idx < 0) {
            diags_.error(e.loc, "class '" +
                                    std::string(prog_.syms().name(c.name)) +
                                    "' has no field '" +
                                    std::string(prog_.syms().name(e.name)) + "'");
          } else {
            e.type = c.fields[static_cast<size_t>(idx)].type;
          }
        }
        break;
      }
      case ExprKind::Index: {
        resolve_expr(e.a);
        resolve_expr(e.b);
        const Expr& base = prog_.expr(e.a);
        e.type = prog_.unknown_type();
        if (base.type.valid() && prog_.type(base.type).kind == TypeKind::Array) {
          e.type = prog_.type(base.type).elem;
        }
        if (prog_.expr(e.b).type.valid() &&
            prog_.type(prog_.expr(e.b).type).kind == TypeKind::Bool) {
          diags_.error(prog_.expr(e.b).loc, "array index must be an int");
        }
        break;
      }
      case ExprKind::Unary: {
        resolve_expr(e.a);
        e.type = e.un_op == UnOp::Not ? prog_.bool_type() : prog_.int_type();
        break;
      }
      case ExprKind::Binary: {
        resolve_expr(e.a);
        resolve_expr(e.b);
        switch (e.bin_op) {
          case BinOp::Add:
          case BinOp::Sub:
          case BinOp::Mul:
          case BinOp::Div:
          case BinOp::Mod:
            e.type = prog_.int_type();
            break;
          case BinOp::Eq:
          case BinOp::Ne:
            if (!compatible(prog_.expr(e.a).type, prog_.expr(e.b).type)) {
              diags_.error(e.loc, "comparison between incompatible types " +
                                      prog_.type_str(prog_.expr(e.a).type) +
                                      " and " +
                                      prog_.type_str(prog_.expr(e.b).type));
            }
            e.type = prog_.bool_type();
            break;
          default:
            e.type = prog_.bool_type();
            break;
        }
        break;
      }
      case ExprKind::LL: {
        resolve_expr(e.a);
        e.type = location_type(e.a);
        break;
      }
      case ExprKind::VL: {
        resolve_expr(e.a);
        e.type = prog_.bool_type();
        break;
      }
      case ExprKind::SC: {
        resolve_expr(e.a);
        resolve_expr(e.b);
        if (!compatible(location_type(e.a), prog_.expr(e.b).type)) {
          diags_.error(e.loc, "SC value type " +
                                  prog_.type_str(prog_.expr(e.b).type) +
                                  " does not match target type " +
                                  prog_.type_str(location_type(e.a)));
        }
        e.type = prog_.bool_type();
        break;
      }
      case ExprKind::CAS: {
        resolve_expr(e.a);
        resolve_expr(e.b);
        resolve_expr(e.c);
        if (!compatible(location_type(e.a), prog_.expr(e.b).type) ||
            !compatible(location_type(e.a), prog_.expr(e.c).type)) {
          diags_.error(e.loc, "CAS operand types do not match target type " +
                                  prog_.type_str(location_type(e.a)));
        }
        e.type = prog_.bool_type();
        break;
      }
      case ExprKind::New: {
        e.new_class = prog_.find_class(e.name);
        if (!e.new_class.valid()) {
          diags_.error(e.loc, "unknown class '" +
                                  std::string(prog_.syms().name(e.name)) + "'");
          e.type = prog_.unknown_type();
        } else {
          e.type = prog_.ref_type(e.new_class);
        }
        break;
      }
      case ExprKind::Call: {
        // Calls must have been eliminated by inline_calls before sema
        // (SYNL itself has no procedure calls).
        diags_.error(e.loc,
                     "procedure call survived to semantic analysis; run "
                     "inline_calls first (or the call site is not an "
                     "inlinable position)");
        // Sema adds no expressions, so the argument list stays put.
        for (ExprId arg : prog_.args(e)) resolve_expr(arg);
        prog_.expr(id).type = prog_.unknown_type();
        break;
      }
    }
  }

  void resolve_stmt(StmtId id) {
    if (!id.valid()) return;
    Stmt& s = prog_.stmt(id);
    switch (s.kind) {
      case StmtKind::Assign: {
        resolve_expr(s.e1);
        resolve_expr(s.e2);
        if (!compatible(prog_.expr(s.e1).type, prog_.expr(s.e2).type)) {
          diags_.error(s.loc, "assignment of " +
                                  prog_.type_str(prog_.expr(s.e2).type) +
                                  " to location of type " +
                                  prog_.type_str(prog_.expr(s.e1).type));
        }
        break;
      }
      case StmtKind::ExprStmt:
      case StmtKind::Assume:
      case StmtKind::Assert:
        resolve_expr(s.e1);
        break;
      case StmtKind::Block: {
        push_scope();
        // Sema adds no statements, so the child list stays put.
        for (StmtId child : prog_.children(s)) resolve_stmt(child);
        pop_scope();
        break;
      }
      case StmtKind::If: {
        resolve_expr(s.e1);
        StmtId s1 = s.s1, s2 = s.s2;
        resolve_stmt(s1);
        resolve_stmt(s2);
        break;
      }
      case StmtKind::Local: {
        resolve_expr(s.e1);
        // Infer the local's type from the annotation or the initializer.
        TypeId ty = s.declared_type;
        if ((!ty.valid() || prog_.type(ty).kind == TypeKind::Unknown) &&
            s.e1.valid()) {
          ty = prog_.expr(s.e1).type;
        }
        VarInfo v;
        v.name = s.name;
        v.kind = VarKind::Local;
        v.type = ty;
        v.proc = proc_;
        v.loc = s.loc;
        v.decl_stmt = id;
        VarId var = prog_.add_var(v);
        prog_.stmt(id).var = var;
        prog_.proc(proc_).locals.push_back(var);

        push_scope();
        declare(var);
        StmtId body = prog_.stmt(id).s1;
        resolve_stmt(body);
        pop_scope();
        break;
      }
      case StmtKind::Loop: {
        loops_.push_back({id, s.label});
        StmtId body = s.s1;
        resolve_stmt(body);
        loops_.pop_back();
        break;
      }
      case StmtKind::Return:
        resolve_expr(s.e1);
        break;
      case StmtKind::Break:
      case StmtKind::Continue: {
        StmtId target;
        if (s.label.valid()) {
          for (auto it = loops_.rbegin(); it != loops_.rend(); ++it) {
            if (it->label == s.label) {
              target = it->stmt;
              break;
            }
          }
          if (!target.valid()) {
            diags_.error(s.loc, "no enclosing loop labeled '" +
                                    std::string(prog_.syms().name(s.label)) + "'");
          }
        } else if (!loops_.empty()) {
          target = loops_.back().stmt;
        } else {
          diags_.error(s.loc, std::string(to_string(s.kind)) +
                                  " outside of a loop");
        }
        s.jump_target = target;
        break;
      }
      case StmtKind::Skip:
        break;
      case StmtKind::Synchronized: {
        resolve_expr(s.e1);
        StmtId body = s.s1;
        resolve_stmt(body);
        break;
      }
    }
  }

  Program& prog_;
  ProcId proc_;
  DiagEngine& diags_;
  /// Every declaration in scope, innermost last. An entry with an invalid
  /// symbol marks where a scope opens.
  std::vector<std::pair<Symbol, VarId>> decls_;
  std::vector<LoopCtx> loops_;
};

}  // namespace

void resolve_proc(Program& prog, ProcId proc, DiagEngine& diags) {
  Resolver(prog, proc, diags).run();
}

bool run_sema(Program& prog, DiagEngine& diags, bool contain) {
  size_t toplevel_before = diags.num_errors();
  // Duplicate procedure names: one error for every pair i < j of
  // procedures sharing a name, at j, in (i, j) order. `next_same[i]` links
  // each procedure to the next one with its name.
  const uint32_t num_procs = static_cast<uint32_t>(prog.num_procs());
  constexpr uint32_t kNone = UINT32_MAX;
  std::vector<uint32_t> next_same(num_procs, kNone);
  std::unordered_map<Symbol, uint32_t> last_with_name;
  for (uint32_t i = 0; i < num_procs; ++i) {
    auto [it, fresh] = last_with_name.try_emplace(prog.proc(ProcId(i)).name, i);
    if (!fresh) {
      next_same[it->second] = i;
      it->second = i;
    }
  }
  for (uint32_t i = 0; i < num_procs; ++i) {
    for (uint32_t j = next_same[i]; j != kNone; j = next_same[j]) {
      const ProcInfo& dup = prog.proc(ProcId(j));
      diags.error(dup.loc, "duplicate procedure '" +
                               std::string(prog.syms().name(dup.name)) + "'");
    }
  }
  // Duplicate globals/threadlocals.
  std::unordered_map<Symbol, SourceLoc> seen;
  for (VarId v : prog.globals()) {
    auto [it, fresh] = seen.emplace(prog.var(v).name, prog.var(v).loc);
    if (!fresh)
      diags.error(prog.var(v).loc,
                  "duplicate global '" +
                      std::string(prog.syms().name(prog.var(v).name)) + "'");
  }
  for (VarId v : prog.threadlocals()) {
    auto [it, fresh] = seen.emplace(prog.var(v).name, prog.var(v).loc);
    if (!fresh)
      diags.error(prog.var(v).loc,
                  "duplicate thread-local '" +
                      std::string(prog.syms().name(prog.var(v).name)) + "'");
  }

  bool toplevel_ok = diags.num_errors() == toplevel_before;

  for (size_t i = 0; i < prog.num_procs(); ++i) {
    ProcId pid(static_cast<uint32_t>(i));
    size_t before = diags.num_errors();
    resolve_proc(prog, pid, diags);
    if (contain && !prog.proc(pid).broken && diags.num_errors() != before) {
      // Contain the failure: stub the body and re-resolve so downstream
      // passes see a well-formed (empty) procedure.
      mark_proc_broken(prog, pid);
      resolve_proc(prog, pid, diags);
    }
  }
  return contain ? toplevel_ok : !diags.has_errors();
}

}  // namespace synat::synl
