#include "synat/synl/ast.h"

namespace synat::synl {

std::string_view to_string(UnOp op) {
  switch (op) {
    case UnOp::Not: return "!";
    case UnOp::Neg: return "-";
  }
  return "?";
}

std::string_view to_string(BinOp op) {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Mod: return "%";
    case BinOp::Eq: return "==";
    case BinOp::Ne: return "!=";
    case BinOp::Lt: return "<";
    case BinOp::Le: return "<=";
    case BinOp::Gt: return ">";
    case BinOp::Ge: return ">=";
    case BinOp::And: return "&&";
    case BinOp::Or: return "||";
  }
  return "?";
}

std::string_view to_string(StmtKind k) {
  switch (k) {
    case StmtKind::Assign: return "assign";
    case StmtKind::ExprStmt: return "expr";
    case StmtKind::Block: return "block";
    case StmtKind::If: return "if";
    case StmtKind::Local: return "local";
    case StmtKind::Loop: return "loop";
    case StmtKind::Return: return "return";
    case StmtKind::Break: return "break";
    case StmtKind::Continue: return "continue";
    case StmtKind::Skip: return "skip";
    case StmtKind::Synchronized: return "synchronized";
    case StmtKind::Assume: return "assume";
    case StmtKind::Assert: return "assert";
  }
  return "?";
}

std::string_view to_string(VarKind k) {
  switch (k) {
    case VarKind::Global: return "global";
    case VarKind::ThreadLocal: return "threadlocal";
    case VarKind::Param: return "param";
    case VarKind::Local: return "local";
  }
  return "?";
}

TypeId Program::ref_type(ClassId c) {
  if (auto it = ref_types_.find(c); it != ref_types_.end()) return it->second;
  return add_type({TypeKind::Ref, c, {}});
}

TypeId Program::array_type(TypeId elem) {
  if (auto it = array_types_.find(elem); it != array_types_.end())
    return it->second;
  return add_type({TypeKind::Array, {}, elem});
}

std::string Program::type_str(TypeId t) const {
  if (!t.valid()) return "<none>";
  const TypeNode& n = type(t);
  switch (n.kind) {
    case TypeKind::Unknown: return "?";
    case TypeKind::Int: return "int";
    case TypeKind::Bool: return "bool";
    case TypeKind::Null: return "null";
    case TypeKind::Ref: return std::string(syms_.name(cls(n.cls).name));
    case TypeKind::Array: return type_str(n.elem) + "[]";
  }
  return "?";
}

void mark_proc_broken(Program& prog, ProcId proc) {
  prog.proc(proc).broken = true;
  Stmt stub;
  stub.kind = StmtKind::Block;
  stub.loc = prog.proc(proc).loc;
  StmtId sid = prog.add_stmt(std::move(stub));
  prog.proc(proc).body = sid;
  prog.proc(proc).locals.clear();
}

ExprId TreeCloner::clone(ExprId id) {
  if (!id.valid()) return id;
  Expr e = prog_.expr(id);  // copy: the arena may grow below
  e.a = clone(e.a);
  e.b = clone(e.b);
  e.c = clone(e.c);
  const size_t mark = arg_stack_.size();
  for (uint32_t i = 0; i < e.args.count; ++i) {
    ExprId arg = clone(prog_.args(e)[i]);
    arg_stack_.push_back(arg);
  }
  e.args = prog_.add_args(std::span(arg_stack_).subspan(mark));
  arg_stack_.resize(mark);
  return prog_.add_expr(e);
}

StmtId TreeCloner::clone(StmtId id) {
  if (!id.valid()) return id;
  Stmt s = prog_.stmt(id);  // copy: the arena may grow below
  s.e1 = clone(s.e1);
  s.e2 = clone(s.e2);
  s.s1 = clone(s.s1);
  s.s2 = clone(s.s2);
  const size_t mark = stmt_stack_.size();
  for (uint32_t i = 0; i < s.stmts.count; ++i) {
    StmtId child = clone(prog_.children(s)[i]);
    stmt_stack_.push_back(child);
  }
  s.stmts = prog_.add_children(std::span(stmt_stack_).subspan(mark));
  stmt_stack_.resize(mark);
  return prog_.add_stmt(s);
}

}  // namespace synat::synl
