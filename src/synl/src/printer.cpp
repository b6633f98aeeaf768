#include "synat/synl/printer.h"

#include <charconv>
#include <string>

namespace synat::synl {

namespace {

int binop_prec(BinOp op) {
  switch (op) {
    case BinOp::Or: return 1;
    case BinOp::And: return 2;
    case BinOp::Eq:
    case BinOp::Ne: return 3;
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge: return 4;
    case BinOp::Add:
    case BinOp::Sub: return 5;
    case BinOp::Mul:
    case BinOp::Div:
    case BinOp::Mod: return 6;
  }
  return 0;
}

void print_expr_prec(const Program& prog, ExprId id, int parent_prec,
                     std::string& out) {
  const Expr& e = prog.expr(id);
  switch (e.kind) {
    case ExprKind::IntLit: {
      char buf[24];
      out.append(buf, std::to_chars(buf, buf + sizeof(buf), e.int_value).ptr);
      break;
    }
    case ExprKind::BoolLit:
      out += e.bool_value ? "true" : "false";
      break;
    case ExprKind::NullLit:
      out += "null";
      break;
    case ExprKind::VarRef:
      out += prog.syms().name(e.name);
      break;
    case ExprKind::Field:
      print_expr_prec(prog, e.a, 100, out);
      out += '.';
      out += prog.syms().name(e.name);
      break;
    case ExprKind::Index:
      print_expr_prec(prog, e.a, 100, out);
      out += '[';
      print_expr_prec(prog, e.b, 0, out);
      out += ']';
      break;
    case ExprKind::Unary:
      out += to_string(e.un_op);
      print_expr_prec(prog, e.a, 99, out);
      break;
    case ExprKind::Binary: {
      int prec = binop_prec(e.bin_op);
      bool parens = prec < parent_prec;
      if (parens) out += '(';
      print_expr_prec(prog, e.a, prec, out);
      out += ' ';
      out += to_string(e.bin_op);
      out += ' ';
      print_expr_prec(prog, e.b, prec + 1, out);
      if (parens) out += ')';
      break;
    }
    case ExprKind::LL:
      out += "LL(";
      print_expr_prec(prog, e.a, 0, out);
      out += ')';
      break;
    case ExprKind::VL:
      out += "VL(";
      print_expr_prec(prog, e.a, 0, out);
      out += ')';
      break;
    case ExprKind::SC:
      out += "SC(";
      print_expr_prec(prog, e.a, 0, out);
      out += ", ";
      print_expr_prec(prog, e.b, 0, out);
      out += ')';
      break;
    case ExprKind::CAS:
      out += "CAS(";
      print_expr_prec(prog, e.a, 0, out);
      out += ", ";
      print_expr_prec(prog, e.b, 0, out);
      out += ", ";
      print_expr_prec(prog, e.c, 0, out);
      out += ')';
      break;
    case ExprKind::New:
      out += "new ";
      out += prog.syms().name(e.name);
      break;
    case ExprKind::Call: {
      out += prog.syms().name(e.name);
      out += '(';
      std::span<const ExprId> args = prog.args(e);
      for (size_t i = 0; i < args.size(); ++i) {
        if (i) out += ", ";
        print_expr_prec(prog, args[i], 0, out);
      }
      out += ')';
      break;
    }
  }
}

/// Appends the rendering of `id`, or "<none>" for an absent expression.
void append_expr(const Program& prog, ExprId id, std::string& out) {
  if (id.valid()) {
    print_expr_prec(prog, id, 0, out);
  } else {
    out += "<none>";
  }
}

void append_type_prefix(const Program& prog, TypeId t, std::string& out) {
  std::string ty = prog.type_str(t);
  if (ty != "?") {
    out += ty;
    out += ' ';
  }
}

struct StmtPrinter {
  const Program& prog;
  const PrintOptions& opts;
  std::string& out;

  void pad(int indent) { out.append(static_cast<size_t>(indent), ' '); }
  void expr(ExprId id) { append_expr(prog, id, out); }

  void print(StmtId id, int indent) {
    const Stmt& s = prog.stmt(id);
    switch (s.kind) {
      case StmtKind::Assign:
        pad(indent);
        expr(s.e1);
        out += " := ";
        expr(s.e2);
        out += ";\n";
        break;
      case StmtKind::ExprStmt:
        pad(indent);
        expr(s.e1);
        out += ";\n";
        break;
      case StmtKind::Block:
        pad(indent);
        out += "{\n";
        for (StmtId child : prog.children(s))
          print(child, indent + opts.indent_width);
        pad(indent);
        out += "}\n";
        break;
      case StmtKind::If:
        pad(indent);
        out += "if (";
        expr(s.e1);
        out += ")\n";
        print_indented(s.s1, indent);
        if (s.s2.valid()) {
          pad(indent);
          out += "else\n";
          print_indented(s.s2, indent);
        }
        break;
      case StmtKind::Local:
        pad(indent);
        out += "local ";
        out += prog.syms().name(s.name);
        if (opts.show_types && s.var.valid()) {
          out += " : ";
          out += prog.type_str(prog.var(s.var).type);
        }
        out += " := ";
        expr(s.e1);
        out += " in\n";
        print_indented(s.s1, indent);
        break;
      case StmtKind::Loop:
        pad(indent);
        if (s.label.valid()) {
          out += prog.syms().name(s.label);
          out += ": ";
        }
        out += "loop\n";
        print_indented(s.s1, indent);
        break;
      case StmtKind::Return:
        pad(indent);
        out += "return";
        if (s.e1.valid()) {
          out += ' ';
          expr(s.e1);
        }
        out += ";\n";
        break;
      case StmtKind::Break:
        pad(indent);
        out += "break";
        if (s.label.valid()) {
          out += ' ';
          out += prog.syms().name(s.label);
        }
        out += ";\n";
        break;
      case StmtKind::Continue:
        pad(indent);
        out += "continue";
        if (s.label.valid()) {
          out += ' ';
          out += prog.syms().name(s.label);
        }
        out += ";\n";
        break;
      case StmtKind::Skip:
        pad(indent);
        out += "skip;\n";
        break;
      case StmtKind::Synchronized:
        pad(indent);
        out += "synchronized (";
        expr(s.e1);
        out += ")\n";
        print_indented(s.s1, indent);
        break;
      case StmtKind::Assume:
        pad(indent);
        out += "TRUE(";
        expr(s.e1);
        out += ");\n";
        break;
      case StmtKind::Assert:
        pad(indent);
        out += "assert(";
        expr(s.e1);
        out += ");\n";
        break;
    }
  }

  /// Child statements always print as indented sub-lines; blocks keep their
  /// own braces at the parent's indent so re-parsing is unambiguous.
  void print_indented(StmtId id, int indent) {
    if (prog.stmt(id).kind == StmtKind::Block) {
      print(id, indent);
    } else {
      print(id, indent + opts.indent_width);
    }
  }
};

void append_proc(const Program& prog, ProcId id, const PrintOptions& opts,
                 std::string& out) {
  const ProcInfo& p = prog.proc(id);
  out += "proc ";
  if (p.ret_type.valid()) append_type_prefix(prog, p.ret_type, out);
  out += prog.syms().name(p.name);
  out += '(';
  for (size_t i = 0; i < p.params.size(); ++i) {
    if (i) out += ", ";
    const VarInfo& v = prog.var(p.params[i]);
    append_type_prefix(prog, v.type, out);
    out += prog.syms().name(v.name);
  }
  out += ")\n";
  if (p.body.valid()) StmtPrinter{prog, opts, out}.print(p.body, 0);
}

}  // namespace

std::string print_expr(const Program& prog, ExprId id) {
  std::string out;
  append_expr(prog, id, out);
  return out;
}

std::string print_stmt(const Program& prog, StmtId id, const PrintOptions& opts,
                       int indent) {
  std::string out;
  if (id.valid()) StmtPrinter{prog, opts, out}.print(id, indent);
  return out;
}

std::string print_proc(const Program& prog, ProcId id, const PrintOptions& opts) {
  std::string out;
  append_proc(prog, id, opts, out);
  return out;
}

namespace {

/// Appends print_program's text to `out`; `proc_begin`, when given, gets
/// the offset of each procedure's text.
void append_program(const Program& prog, const PrintOptions& opts,
                    std::string& out, std::vector<size_t>* proc_begin) {
  for (size_t i = 0; i < prog.num_classes(); ++i) {
    const ClassInfo& c = prog.cls(ClassId(static_cast<uint32_t>(i)));
    if (!c.defined) continue;  // forward-reference stub
    out += "class ";
    out += prog.syms().name(c.name);
    out += " {\n";
    for (const FieldInfo& f : c.fields) {
      out += "  ";
      out += prog.type_str(f.type);
      out += ' ';
      out += prog.syms().name(f.name);
      out += ";\n";
    }
    out += "}\n";
  }
  for (VarId v : prog.globals()) {
    out += "global ";
    out += prog.type_str(prog.var(v).type);
    out += ' ';
    out += prog.syms().name(prog.var(v).name);
    out += ";\n";
  }
  for (VarId v : prog.threadlocals()) {
    out += "threadlocal ";
    out += prog.type_str(prog.var(v).type);
    out += ' ';
    out += prog.syms().name(prog.var(v).name);
    out += ";\n";
  }
  for (size_t i = 0; i < prog.num_procs(); ++i) {
    out += '\n';
    if (proc_begin != nullptr) proc_begin->push_back(out.size());
    append_proc(prog, ProcId(static_cast<uint32_t>(i)), opts, out);
  }
}

}  // namespace

std::string print_program(const Program& prog, const PrintOptions& opts) {
  std::string out;
  append_program(prog, opts, out, nullptr);
  return out;
}

void print_program(const Program& prog, ProgramText& out,
                   const PrintOptions& opts) {
  out.text.clear();
  out.proc_begin.clear();
  append_program(prog, opts, out.text, &out.proc_begin);
}

std::string stmt_head(const Program& prog, StmtId id) {
  const Stmt& s = prog.stmt(id);
  std::string out;
  switch (s.kind) {
    case StmtKind::Assign:
      append_expr(prog, s.e1, out);
      out += " := ";
      append_expr(prog, s.e2, out);
      return out;
    case StmtKind::ExprStmt:
      append_expr(prog, s.e1, out);
      return out;
    case StmtKind::Block:
      return "{...}";
    case StmtKind::If:
      out += "if (";
      append_expr(prog, s.e1, out);
      out += ')';
      return out;
    case StmtKind::Local:
      out += "local ";
      out += prog.syms().name(s.name);
      out += " := ";
      append_expr(prog, s.e1, out);
      out += " in";
      return out;
    case StmtKind::Loop:
      return "loop";
    case StmtKind::Return:
      out += "return";
      if (s.e1.valid()) {
        out += ' ';
        append_expr(prog, s.e1, out);
      }
      return out;
    case StmtKind::Break:
      return "break";
    case StmtKind::Continue:
      return "continue";
    case StmtKind::Skip:
      return "skip";
    case StmtKind::Synchronized:
      out += "synchronized (";
      append_expr(prog, s.e1, out);
      out += ')';
      return out;
    case StmtKind::Assume:
      out += "TRUE(";
      append_expr(prog, s.e1, out);
      out += ')';
      return out;
    case StmtKind::Assert:
      out += "assert(";
      append_expr(prog, s.e1, out);
      out += ')';
      return out;
  }
  return "?";
}

}  // namespace synat::synl
