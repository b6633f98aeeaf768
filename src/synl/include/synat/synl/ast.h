// SYNL abstract syntax (paper Table 1), arena-allocated.
//
// A Program owns flat vectors of Expr and Stmt nodes; ExprId / StmtId are
// indices into those vectors. Ids double as stable analysis keys (liveness
// sets, mover maps, CFG node payloads), and the arena makes the exceptional-
// variant generator's statement cloning cheap. A node's list of children
// (Call arguments, Block statements) is an IdRange into one of two side
// arrays the Program also owns, so nodes own no heap memory and copy as
// plain bytes; read the lists through Program::args and Program::children.
//
// Differences from the paper's abstract grammar, all syntax-level only:
//  - `while (e) s` is desugared by the parser into `loop { if (e) s else break; }`
//    so analyses only ever see unconditional loops, as the paper assumes.
//  - Loops may carry labels and `continue`/`break` may target them (the
//    paper's Section 6.3 pseudo-code uses `continue a2`).
//  - `TRUE(e)` (Assume) is a first-class statement; the paper introduces it
//    for exceptional variants and we also accept it in source.
//  - `assert(e)` exists for the model checker's property language.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "synat/support/diag.h"
#include "synat/support/source_loc.h"
#include "synat/support/symbol.h"

namespace synat::synl {

namespace detail {
template <class Tag>
struct Id {
  uint32_t idx = std::numeric_limits<uint32_t>::max();

  constexpr Id() = default;
  constexpr explicit Id(uint32_t i) : idx(i) {}
  constexpr bool valid() const { return idx != std::numeric_limits<uint32_t>::max(); }

  friend constexpr bool operator==(Id, Id) = default;
  friend constexpr auto operator<=>(Id, Id) = default;
};
}  // namespace detail

using ExprId = detail::Id<struct ExprTag>;
using StmtId = detail::Id<struct StmtTag>;
using VarId = detail::Id<struct VarTag>;
using ProcId = detail::Id<struct ProcTag>;
using ClassId = detail::Id<struct ClassTag>;
using TypeId = detail::Id<struct TypeTag>;

}  // namespace synat::synl

template <class Tag>
struct std::hash<synat::synl::detail::Id<Tag>> {
  size_t operator()(synat::synl::detail::Id<Tag> id) const noexcept {
    return std::hash<uint32_t>{}(id.idx);
  }
};

namespace synat::synl {

/// A node's child list: `count` ids from `begin` in one of the Program's
/// side arrays (arguments for an Expr, statements for a Stmt).
struct IdRange {
  uint32_t begin = 0;
  uint32_t count = 0;
};

// ---------------------------------------------------------------------------
// Types

enum class TypeKind : uint8_t {
  Unknown,  ///< not yet inferred / error recovery
  Int,
  Bool,
  Null,   ///< type of the `null` literal; compatible with any Ref
  Ref,    ///< reference to a class instance
  Array,  ///< array; element type in TypeNode::elem
};

struct TypeNode {
  TypeKind kind = TypeKind::Unknown;
  ClassId cls;   ///< valid iff kind == Ref
  TypeId elem;   ///< valid iff kind == Array
};

// ---------------------------------------------------------------------------
// Expressions

enum class ExprKind : uint8_t {
  IntLit,
  BoolLit,
  NullLit,
  VarRef,  ///< x
  Field,   ///< a.name
  Index,   ///< a[b]
  Unary,   ///< op a
  Binary,  ///< a op b
  LL,      ///< LL(a)
  VL,      ///< VL(a)
  SC,      ///< SC(a, b)
  CAS,     ///< CAS(a, b, c)
  New,     ///< new C
  Call,    ///< name(args...) — eliminated by the inliner before analysis
           ///< (the paper's language has no explicit calls; Section 1 says
           ///< internal procedures are inlined, which inline_calls does)
};

enum class UnOp : uint8_t { Not, Neg };
enum class BinOp : uint8_t { Add, Sub, Mul, Div, Mod, Eq, Ne, Lt, Le, Gt, Ge, And, Or };

std::string_view to_string(UnOp op);
std::string_view to_string(BinOp op);

struct Expr {
  ExprKind kind = ExprKind::IntLit;
  SourceLoc loc;
  ExprId a, b, c;      ///< operands; see ExprKind comments
  IdRange args;        ///< Call arguments; read through Program::args
  Symbol name;         ///< VarRef: variable; Field: field; New: class;
                       ///< Call: callee
  int64_t int_value = 0;
  bool bool_value = false;
  UnOp un_op = UnOp::Not;
  BinOp bin_op = BinOp::Add;

  // Filled by sema:
  VarId var;          ///< resolved declaration for VarRef
  TypeId type;        ///< static type of this expression
  ClassId new_class;  ///< resolved class for New
};

static_assert(std::is_trivially_copyable_v<Expr>);

/// True for the `Location` production of Table 1 (x | x.fd | x[e]).
constexpr bool is_location_kind(ExprKind k) {
  return k == ExprKind::VarRef || k == ExprKind::Field || k == ExprKind::Index;
}

// ---------------------------------------------------------------------------
// Statements

enum class StmtKind : uint8_t {
  Assign,        ///< e1 := e2
  ExprStmt,      ///< e1;   (sugar for `local dummy := e1 in skip`)
  Block,         ///< { stmts... }
  If,            ///< if (e1) s1 else s2   (s2 may be invalid)
  Local,         ///< local name := e1 in s1
  Loop,          ///< [label:] loop s1
  Return,        ///< return [e1]
  Break,         ///< break [label]
  Continue,      ///< continue [label]
  Skip,          ///< skip
  Synchronized,  ///< synchronized (e1) s1
  Assume,        ///< TRUE(e1)
  Assert,        ///< assert(e1)
};

std::string_view to_string(StmtKind k);

struct Stmt {
  StmtKind kind = StmtKind::Skip;
  SourceLoc loc;
  ExprId e1, e2;
  StmtId s1, s2;
  IdRange stmts;              ///< Block children; see Program::children
  Symbol label;               ///< Loop: own label; Break/Continue: target label
  Symbol name;                ///< Local: declared variable name
  TypeId declared_type;       ///< Local: optional annotation

  // Filled by sema:
  VarId var;           ///< Local: resolved variable
  StmtId jump_target;  ///< Break/Continue: enclosing (or labeled) Loop
};

static_assert(std::is_trivially_copyable_v<Stmt>);

// ---------------------------------------------------------------------------
// Declarations

struct FieldInfo {
  Symbol name;
  TypeId type;
};

struct ClassInfo {
  Symbol name;
  SourceLoc loc;
  bool defined = false;  ///< false for forward-reference stubs
  std::vector<FieldInfo> fields;

  /// Index into `fields`, or -1 if absent.
  int field_index(Symbol field) const {
    for (size_t i = 0; i < fields.size(); ++i)
      if (fields[i].name == field) return static_cast<int>(i);
    return -1;
  }
};

enum class VarKind : uint8_t {
  Global,       ///< shared between all threads
  ThreadLocal,  ///< one instance per thread, persists across procedure calls
  Param,        ///< procedure parameter
  Local,        ///< `local x := e in s`
};

std::string_view to_string(VarKind k);

struct VarInfo {
  Symbol name;
  VarKind kind = VarKind::Local;
  TypeId type;
  ProcId proc;      ///< owning procedure for Param/Local
  SourceLoc loc;
  StmtId decl_stmt; ///< the Local statement for VarKind::Local
};

struct ProcInfo {
  Symbol name;
  SourceLoc loc;
  std::vector<VarId> params;
  std::vector<VarId> locals;  ///< all Local declarations in the body
  StmtId body;
  TypeId ret_type;            ///< declared return type (may be invalid)

  /// Set by the exceptional-variant generator: the original procedure this
  /// variant specializes, and a human-readable variant tag ("Deq'2").
  ProcId variant_of;
  std::string variant_tag;

  /// Set by the error-recovering front end (parse_and_recover) when this
  /// procedure's declaration could not be processed; its body is an empty
  /// stub and no analysis result should be reported for it.
  bool broken = false;
};

// ---------------------------------------------------------------------------
// Program

class Program {
 public:
  Program() {
    // Pre-intern the canonical primitive types so they are shared.
    type_unknown_ = add_type({TypeKind::Unknown, {}, {}});
    type_int_ = add_type({TypeKind::Int, {}, {}});
    type_bool_ = add_type({TypeKind::Bool, {}, {}});
    type_null_ = add_type({TypeKind::Null, {}, {}});
  }
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;
  Program(Program&&) = default;
  Program& operator=(Program&&) = default;

  SymbolTable& syms() { return syms_; }
  const SymbolTable& syms() const { return syms_; }

  // -- node arenas ---------------------------------------------------------
  /// Sizes the node arrays once for a source of `tokens` tokens, so that
  /// parsing, inlining and variant generation seldom regrow them. Nodes
  /// per token after variant generation, on perfbench's generator (40 to
  /// 640 procedures, both alias modes) and on the corpus and examples:
  /// expressions 0.62-0.72 and 0.28-1.18, statements 0.36-0.42 and
  /// 0.28-0.87, block children 0.18-0.21 and 0.09-0.57. The factors cover
  /// every generated program; call arguments, which the inliner removes
  /// (at most 0.002 per token), are not reserved.
  void reserve_nodes(size_t tokens) {
    exprs_.reserve(tokens * 3 / 4);
    stmts_.reserve(tokens / 2);
    stmt_children_.reserve(tokens / 4);
  }
  ExprId add_expr(const Expr& e) {
    exprs_.push_back(e);
    return ExprId(static_cast<uint32_t>(exprs_.size() - 1));
  }
  StmtId add_stmt(const Stmt& s) {
    stmts_.push_back(s);
    return StmtId(static_cast<uint32_t>(stmts_.size() - 1));
  }
  /// Appends `ids` as a fresh range of the argument (child) array. `ids`
  /// must not point into that array: the append may reallocate it.
  IdRange add_args(std::span<const ExprId> ids) {
    return append_range(expr_args_, ids);
  }
  IdRange add_children(std::span<const StmtId> ids) {
    return append_range(stmt_children_, ids);
  }
  /// A Call's arguments and a Block's statements. The span is valid until
  /// the next add_args / add_children, so a walk that appends re-reads it
  /// by index.
  std::span<const ExprId> args(const Expr& e) const {
    return std::span<const ExprId>(expr_args_)
        .subspan(e.args.begin, e.args.count);
  }
  std::span<const StmtId> children(const Stmt& s) const {
    return std::span<const StmtId>(stmt_children_)
        .subspan(s.stmts.begin, s.stmts.count);
  }
  Expr& expr(ExprId id) {
    SYNAT_ASSERT(id.idx < exprs_.size(), "bad ExprId");
    return exprs_[id.idx];
  }
  const Expr& expr(ExprId id) const {
    SYNAT_ASSERT(id.idx < exprs_.size(), "bad ExprId");
    return exprs_[id.idx];
  }
  Stmt& stmt(StmtId id) {
    SYNAT_ASSERT(id.idx < stmts_.size(), "bad StmtId");
    return stmts_[id.idx];
  }
  const Stmt& stmt(StmtId id) const {
    SYNAT_ASSERT(id.idx < stmts_.size(), "bad StmtId");
    return stmts_[id.idx];
  }
  size_t num_exprs() const { return exprs_.size(); }
  size_t num_stmts() const { return stmts_.size(); }

  // -- types ---------------------------------------------------------------
  TypeId add_type(TypeNode t) {
    TypeId id(static_cast<uint32_t>(types_.size()));
    types_.push_back(t);
    // ref_type/array_type return the first node of a shape.
    if (t.kind == TypeKind::Ref) ref_types_.try_emplace(t.cls, id);
    if (t.kind == TypeKind::Array) array_types_.try_emplace(t.elem, id);
    return id;
  }
  const TypeNode& type(TypeId id) const {
    SYNAT_ASSERT(id.valid() && id.idx < types_.size(), "bad TypeId");
    return types_[id.idx];
  }
  TypeId unknown_type() const { return type_unknown_; }
  TypeId int_type() const { return type_int_; }
  TypeId bool_type() const { return type_bool_; }
  TypeId null_type() const { return type_null_; }
  TypeId ref_type(ClassId cls);
  TypeId array_type(TypeId elem);

  // -- declarations --------------------------------------------------------
  ClassId add_class(ClassInfo c) {
    ClassId id(static_cast<uint32_t>(classes_.size()));
    class_names_.try_emplace(c.name, id);
    classes_.push_back(std::move(c));
    return id;
  }
  /// The first class declared with `name`.
  ClassId find_class(Symbol name) const {
    auto it = class_names_.find(name);
    return it == class_names_.end() ? ClassId() : it->second;
  }
  ClassInfo& cls(ClassId id) {
    SYNAT_ASSERT(id.valid() && id.idx < classes_.size(), "bad ClassId");
    return classes_[id.idx];
  }
  const ClassInfo& cls(ClassId id) const {
    SYNAT_ASSERT(id.valid() && id.idx < classes_.size(), "bad ClassId");
    return classes_[id.idx];
  }
  size_t num_classes() const { return classes_.size(); }

  VarId add_var(VarInfo v) {
    vars_.push_back(std::move(v));
    return VarId(static_cast<uint32_t>(vars_.size() - 1));
  }
  VarInfo& var(VarId id) {
    SYNAT_ASSERT(id.valid() && id.idx < vars_.size(), "bad VarId");
    return vars_[id.idx];
  }
  const VarInfo& var(VarId id) const {
    SYNAT_ASSERT(id.valid() && id.idx < vars_.size(), "bad VarId");
    return vars_[id.idx];
  }
  size_t num_vars() const { return vars_.size(); }

  ProcId add_proc(ProcInfo p) {
    procs_.push_back(std::move(p));
    return ProcId(static_cast<uint32_t>(procs_.size() - 1));
  }
  ProcId find_proc(std::string_view name) const {
    Symbol s = syms_.lookup(name);
    for (size_t i = 0; i < procs_.size(); ++i)
      if (procs_[i].name == s) return ProcId(static_cast<uint32_t>(i));
    return ProcId();
  }
  ProcInfo& proc(ProcId id) {
    SYNAT_ASSERT(id.valid() && id.idx < procs_.size(), "bad ProcId");
    return procs_[id.idx];
  }
  const ProcInfo& proc(ProcId id) const {
    SYNAT_ASSERT(id.valid() && id.idx < procs_.size(), "bad ProcId");
    return procs_[id.idx];
  }
  size_t num_procs() const { return procs_.size(); }

  const std::vector<VarId>& globals() const { return globals_; }
  const std::vector<VarId>& threadlocals() const { return threadlocals_; }
  void add_global(VarId v) {
    globals_.push_back(v);
    global_names_[var(v).name] = v;
  }
  void add_threadlocal(VarId v) {
    threadlocals_.push_back(v);
    threadlocal_names_[var(v).name] = v;
  }
  /// Program-scope name resolution, shared by every procedure and variant:
  /// the last thread-local declared with `name`, else the last global.
  VarId find_global(Symbol name) const {
    if (auto it = threadlocal_names_.find(name); it != threadlocal_names_.end())
      return it->second;
    auto it = global_names_.find(name);
    return it == global_names_.end() ? VarId() : it->second;
  }

  /// True if `t` can hold a reference (Ref, Null or Unknown).
  bool is_ref_like(TypeId t) const {
    TypeKind k = type(t).kind;
    return k == TypeKind::Ref || k == TypeKind::Null || k == TypeKind::Unknown;
  }

  std::string type_str(TypeId t) const;

 private:
  template <class Id>
  static IdRange append_range(std::vector<Id>& arr, std::span<const Id> ids) {
    IdRange r{static_cast<uint32_t>(arr.size()),
              static_cast<uint32_t>(ids.size())};
    arr.insert(arr.end(), ids.begin(), ids.end());
    return r;
  }

  SymbolTable syms_;
  std::vector<Expr> exprs_;
  std::vector<Stmt> stmts_;
  std::vector<ExprId> expr_args_;      ///< Expr::args ranges
  std::vector<StmtId> stmt_children_;  ///< Stmt::stmts ranges
  std::vector<TypeNode> types_;
  std::vector<ClassInfo> classes_;
  std::vector<VarInfo> vars_;
  std::vector<ProcInfo> procs_;
  std::vector<VarId> globals_;
  std::vector<VarId> threadlocals_;
  // Name and shape indexes over the arenas above.
  std::unordered_map<Symbol, ClassId> class_names_;
  std::unordered_map<ClassId, TypeId> ref_types_;
  std::unordered_map<TypeId, TypeId> array_types_;
  std::unordered_map<Symbol, VarId> global_names_;
  std::unordered_map<Symbol, VarId> threadlocal_names_;
  TypeId type_unknown_, type_int_, type_bool_, type_null_;
};

/// Marks `proc` broken and replaces its body with an empty block. The
/// error-recovering front end calls this to contain a failure to one
/// procedure while keeping the Program well-formed for downstream passes.
void mark_proc_broken(Program& prog, ProcId proc);

/// Deep copies of expression and statement trees within one Program, for
/// the inliner and the exceptional-variant generator. A copy gets fresh
/// nodes, each created after its children, and fresh child ranges. Fields
/// sema fills are copied as they are, so a copied tree is resolved again.
class TreeCloner {
 public:
  explicit TreeCloner(Program& prog) : prog_(prog) {}

  ExprId clone(ExprId id);
  StmtId clone(StmtId id);

 private:
  Program& prog_;
  /// Child lists of the copies being built, innermost on top. Copying a
  /// child appends to the Program's side arrays, so the source list is
  /// re-read by index rather than held as a span.
  std::vector<ExprId> arg_stack_;
  std::vector<StmtId> stmt_stack_;
};

// ---------------------------------------------------------------------------
// Traversal helpers

/// Calls `fn(ExprId)` for `root` and every transitive sub-expression.
template <class Fn>
void for_each_subexpr(const Program& prog, ExprId root, Fn&& fn) {
  if (!root.valid()) return;
  fn(root);
  const Expr& e = prog.expr(root);
  for_each_subexpr(prog, e.a, fn);
  for_each_subexpr(prog, e.b, fn);
  for_each_subexpr(prog, e.c, fn);
  for (ExprId arg : prog.args(e)) for_each_subexpr(prog, arg, fn);
}

/// Calls `fn(StmtId)` for `root` and every statement nested inside it
/// (pre-order).
template <class Fn>
void for_each_stmt(const Program& prog, StmtId root, Fn&& fn) {
  if (!root.valid()) return;
  fn(root);
  const Stmt& s = prog.stmt(root);
  for_each_stmt(prog, s.s1, fn);
  for_each_stmt(prog, s.s2, fn);
  for (StmtId child : prog.children(s)) for_each_stmt(prog, child, fn);
}

/// Calls `fn(ExprId)` for every expression appearing directly in `root`
/// or any nested statement.
template <class Fn>
void for_each_expr_in_stmt(const Program& prog, StmtId root, Fn&& fn) {
  for_each_stmt(prog, root, [&](StmtId sid) {
    const Stmt& s = prog.stmt(sid);
    for_each_subexpr(prog, s.e1, fn);
    for_each_subexpr(prog, s.e2, fn);
  });
}

}  // namespace synat::synl
