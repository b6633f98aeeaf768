#include "synat/synl/parser.h"

#include "synat/synl/inline.h"
#include "synat/synl/lexer.h"
#include "synat/synl/sema.h"

namespace synat::synl {

namespace {

/// Binding power for binary operators; higher binds tighter.
int precedence(Tok t) {
  switch (t) {
    case Tok::OrOr: return 1;
    case Tok::AndAnd: return 2;
    case Tok::EqEq:
    case Tok::NotEq: return 3;
    case Tok::Lt:
    case Tok::Le:
    case Tok::Gt:
    case Tok::Ge: return 4;
    case Tok::Plus:
    case Tok::Minus: return 5;
    case Tok::Star:
    case Tok::Slash:
    case Tok::Percent: return 6;
    default: return 0;
  }
}

BinOp to_binop(Tok t) {
  switch (t) {
    case Tok::OrOr: return BinOp::Or;
    case Tok::AndAnd: return BinOp::And;
    case Tok::EqEq: return BinOp::Eq;
    case Tok::NotEq: return BinOp::Ne;
    case Tok::Lt: return BinOp::Lt;
    case Tok::Le: return BinOp::Le;
    case Tok::Gt: return BinOp::Gt;
    case Tok::Ge: return BinOp::Ge;
    case Tok::Plus: return BinOp::Add;
    case Tok::Minus: return BinOp::Sub;
    case Tok::Star: return BinOp::Mul;
    case Tok::Slash: return BinOp::Div;
    case Tok::Percent: return BinOp::Mod;
    default: SYNAT_ASSERT(false, "not a binary operator token");
  }
}

/// This thread's token buffer. A parser borrows it and gives it back, so a
/// thread that parses again keeps the capacity of the largest source it
/// lexed instead of allocating (and faulting in) a fresh block per parse.
/// Tokens view their source; nothing reads them after the parse.
thread_local std::vector<Token> token_buffer;

}  // namespace

Parser::Parser(std::string_view source, DiagEngine& diags)
    : diags_(diags), toks_(std::move(token_buffer)) {
  // Lexer errors land between base_errors_ and the first procedure, so they
  // always count as top-level (uncontainable).
  base_errors_ = diags.num_errors();
  Lexer::tokenize(source, diags, toks_);
  prog_.reserve_nodes(toks_.size());
}

Parser::~Parser() {
  // A parse nested in this one found the buffer taken and grew its own;
  // the thread keeps the larger.
  if (toks_.capacity() > token_buffer.capacity()) {
    toks_.clear();
    token_buffer.swap(toks_);
  }
}

/// RAII nesting counter for the recursive-descent entry points.
class Parser::DepthScope {
 public:
  explicit DepthScope(Parser& p) : p_(p) { ++p_.depth_; }
  ~DepthScope() { --p_.depth_; }
  bool exceeded() const { return p_.depth_ > kMaxDepth; }

 private:
  Parser& p_;
};

void Parser::report_deep_nesting() {
  if (depth_reported_) return;  // once per procedure is enough
  depth_reported_ = true;
  diags_.error(peek().loc, "nesting exceeds the parser depth limit (" +
                               std::to_string(kMaxDepth) + ")");
}

StmtId Parser::deep_nesting_stmt() {
  report_deep_nesting();
  Stmt s;
  s.kind = StmtKind::Skip;
  s.loc = advance().loc;  // always consume: callers must make progress
  return prog_.add_stmt(std::move(s));
}

const Token& Parser::peek(size_t ahead) const {
  size_t i = pos_ + ahead;
  if (i >= toks_.size()) i = toks_.size() - 1;  // End token
  return toks_[i];
}

const Token& Parser::advance() {
  const Token& t = toks_[pos_];
  if (pos_ + 1 < toks_.size()) ++pos_;
  return t;
}

bool Parser::match(Tok kind) {
  if (!check(kind)) return false;
  advance();
  return true;
}

const Token& Parser::expect(Tok kind, std::string_view what) {
  if (check(kind)) return advance();
  diags_.error(peek().loc, "expected " + std::string(to_string(kind)) + " " +
                               std::string(what) + ", found '" +
                               std::string(peek().text) + "'");
  return peek();  // do not consume; caller recovers
}

void Parser::sync_to_decl() {
  while (!check(Tok::End) && !check(Tok::KwProc) && !check(Tok::KwClass) &&
         !check(Tok::KwGlobal) && !check(Tok::KwThreadLocal)) {
    advance();
  }
}

void Parser::sync_to_stmt() {
  while (!check(Tok::End) && !check(Tok::Semi) && !check(Tok::RBrace) &&
         !check(Tok::KwProc) && !check(Tok::KwClass) && !check(Tok::KwGlobal) &&
         !check(Tok::KwThreadLocal)) {
    advance();
  }
  match(Tok::Semi);
}

// ---------------------------------------------------------------------------
// Declarations

Program Parser::parse_program() {
  while (!check(Tok::End)) {
    if (check(Tok::KwClass)) {
      parse_class();
    } else if (check(Tok::KwGlobal)) {
      parse_global(VarKind::Global);
    } else if (check(Tok::KwThreadLocal)) {
      parse_global(VarKind::ThreadLocal);
    } else if (check(Tok::KwProc)) {
      parse_proc();
    } else {
      diags_.error(peek().loc, "expected declaration, found '" +
                                   std::string(peek().text) + "'");
      advance();
      sync_to_decl();
    }
  }
  return std::move(prog_);
}

void Parser::parse_class() {
  SourceLoc loc = peek().loc;
  advance();  // class
  const Token& name = expect(Tok::Ident, "after 'class'");
  Symbol cname = intern(name);

  // Fields may reference this class (or ones declared later), which creates
  // forward-reference stubs; register (or claim) the entry up front.
  ClassId id = prog_.find_class(cname);
  if (id.valid() && prog_.cls(id).defined) {
    diags_.error(loc, "duplicate class '" + std::string(name.text) + "'");
  }
  if (!id.valid()) {
    ClassInfo stub;
    stub.name = cname;
    id = prog_.add_class(std::move(stub));
  }
  prog_.cls(id).loc = loc;
  prog_.cls(id).defined = true;

  expect(Tok::LBrace, "to open class body");
  while (!check(Tok::RBrace) && !check(Tok::End)) {
    TypeId ty = parse_type();
    const Token& field = expect(Tok::Ident, "field name");
    if (field.kind != Tok::Ident) {
      sync_to_decl();
      break;
    }
    Symbol fsym = intern(field);
    if (prog_.cls(id).field_index(fsym) >= 0) {
      diags_.error(field.loc, "duplicate field '" + std::string(field.text) + "'");
    }
    prog_.cls(id).fields.push_back({fsym, ty});
    expect(Tok::Semi, "after field");
  }
  expect(Tok::RBrace, "to close class body");
}

void Parser::parse_global(VarKind kind) {
  SourceLoc loc = peek().loc;
  advance();  // global / threadlocal
  TypeId ty = parse_type();
  const Token& name = expect(Tok::Ident, "variable name");
  VarInfo v;
  v.name = intern(name);
  v.kind = kind;
  v.type = ty;
  v.loc = loc;
  VarId id = prog_.add_var(v);
  if (kind == VarKind::Global) {
    prog_.add_global(id);
  } else {
    prog_.add_threadlocal(id);
  }
  expect(Tok::Semi, "after declaration");
}

bool Parser::looks_like_type() const {
  if (check(Tok::KwInt) || check(Tok::KwBool)) return true;
  // `Ident Ident` starts a typed parameter/field; a lone Ident does not.
  return check(Tok::Ident) && peek(1).kind == Tok::Ident;
}

TypeId Parser::parse_type() {
  TypeId base;
  if (match(Tok::KwInt)) {
    base = prog_.int_type();
  } else if (match(Tok::KwBool)) {
    base = prog_.bool_type();
  } else if (check(Tok::Ident)) {
    const Token& name = advance();
    Symbol sym = intern(name);
    ClassId cls = prog_.find_class(sym);
    if (!cls.valid()) {
      // Forward references to classes are allowed; create a stub now.
      ClassInfo stub;
      stub.name = sym;
      stub.loc = name.loc;
      cls = prog_.add_class(std::move(stub));
    }
    base = prog_.ref_type(cls);
  } else {
    diags_.error(peek().loc, "expected type, found '" + std::string(peek().text) + "'");
    return prog_.unknown_type();
  }
  while (check(Tok::LBracket) && peek(1).kind == Tok::RBracket) {
    advance();
    advance();
    base = prog_.array_type(base);
  }
  return base;
}

void Parser::parse_proc() {
  SourceLoc loc = peek().loc;
  advance();  // proc
  // Optional return type: `proc int Deq()` or `proc Deq()`.
  TypeId ret = prog_.unknown_type();
  if ((check(Tok::KwInt) || check(Tok::KwBool) ||
       (check(Tok::Ident) && peek(1).kind == Tok::Ident)) &&
      peek(1).kind != Tok::LParen) {
    ret = parse_type();
  }
  const Token& name = expect(Tok::Ident, "procedure name");
  if (name.kind != Tok::Ident) {
    // No name to attach a stub procedure to; count as a top-level error.
    sync_to_decl();
    return;
  }
  ProcInfo info;
  info.name = intern(name);
  info.loc = loc;
  info.ret_type = ret;
  ProcId id = prog_.add_proc(std::move(info));

  // From here on every error is contained: the procedure is stubbed out and
  // marked broken, and parsing resumes at the next declaration.
  depth_reported_ = false;
  size_t errors_before = diags_.num_errors();

  expect(Tok::LParen, "to open parameter list");
  std::vector<VarId> params;
  if (!check(Tok::RParen)) {
    do {
      TypeId ty = looks_like_type() ? parse_type() : prog_.unknown_type();
      const Token& pname = expect(Tok::Ident, "parameter name");
      VarInfo v;
      v.name = intern(pname);
      v.kind = VarKind::Param;
      v.type = ty;
      v.proc = id;
      v.loc = pname.loc;
      params.push_back(prog_.add_var(v));
    } while (match(Tok::Comma));
  }
  expect(Tok::RParen, "to close parameter list");
  prog_.proc(id).params = std::move(params);
  prog_.proc(id).body = parse_block();

  size_t grew = diags_.num_errors() - errors_before;
  if (grew != 0) {
    contained_errors_ += grew;
    mark_proc_broken(prog_, id);
    sync_to_decl();
  }
}

// ---------------------------------------------------------------------------
// Statements

StmtId Parser::parse_block() {
  SourceLoc loc = peek().loc;
  expect(Tok::LBrace, "to open block");
  IdRange stmts = parse_stmt_list();
  expect(Tok::RBrace, "to close block");
  Stmt s;
  s.kind = StmtKind::Block;
  s.loc = loc;
  s.stmts = stmts;
  return prog_.add_stmt(std::move(s));
}

IdRange Parser::parse_stmt_list() {
  // Nested blocks push above `mark` and pop back to it before returning.
  const size_t mark = stmt_stack_.size();
  while (!check(Tok::RBrace) && !check(Tok::End)) {
    if (check(Tok::KwLocal)) {
      bool consumed_rest = false;
      StmtId local = parse_local(&consumed_rest);
      stmt_stack_.push_back(local);
      if (consumed_rest) break;  // the rest of the block was folded in
    } else {
      size_t before = diags_.num_errors();
      StmtId stmt = parse_stmt();
      stmt_stack_.push_back(stmt);
      // After a malformed statement, resynchronize at a statement boundary
      // so one bad token does not cascade through the rest of the block.
      if (diags_.num_errors() != before) sync_to_stmt();
    }
  }
  IdRange out = prog_.add_children(std::span(stmt_stack_).subspan(mark));
  stmt_stack_.resize(mark);
  return out;
}

StmtId Parser::parse_local(bool* consumed_rest) {
  DepthScope depth(*this);  // the `;` form recurses via parse_stmt_list
  if (depth.exceeded()) return deep_nesting_stmt();
  SourceLoc loc = peek().loc;
  advance();  // local
  const Token& name = expect(Tok::Ident, "local variable name");
  TypeId ty = prog_.unknown_type();
  if (match(Tok::Colon)) ty = parse_type();
  expect(Tok::Assign, "in local declaration");
  ExprId init = parse_expr();

  Stmt s;
  s.kind = StmtKind::Local;
  s.loc = loc;
  s.name = intern(name);
  s.declared_type = ty;
  s.e1 = init;

  if (match(Tok::KwIn)) {
    s.s1 = parse_stmt();
  } else {
    // `local x := e;` — scope is the remainder of the enclosing block.
    expect(Tok::Semi, "after local declaration");
    Stmt body;
    body.kind = StmtKind::Block;
    body.loc = loc;
    if (consumed_rest == nullptr) {
      // Statement position (`if (c) local x := 1;`): there is no enclosing
      // block to scope over, so this form is malformed input, not an
      // internal invariant violation.
      diags_.error(loc,
                   "'local x := e;' is only allowed directly inside a block; "
                   "use 'local x := e in stmt'");
    } else {
      *consumed_rest = true;
      body.stmts = parse_stmt_list();
    }
    s.s1 = prog_.add_stmt(std::move(body));
  }
  return prog_.add_stmt(std::move(s));
}

StmtId Parser::parse_if() {
  SourceLoc loc = peek().loc;
  advance();  // if
  expect(Tok::LParen, "after 'if'");
  ExprId cond = parse_expr();
  expect(Tok::RParen, "after condition");
  StmtId then_s = parse_stmt();
  StmtId else_s;
  if (match(Tok::KwElse)) else_s = parse_stmt();
  Stmt s;
  s.kind = StmtKind::If;
  s.loc = loc;
  s.e1 = cond;
  s.s1 = then_s;
  s.s2 = else_s;
  return prog_.add_stmt(std::move(s));
}

StmtId Parser::parse_loop(Symbol label) {
  SourceLoc loc = peek().loc;
  advance();  // loop
  Stmt s;
  s.kind = StmtKind::Loop;
  s.loc = loc;
  s.label = label;
  s.s1 = parse_stmt();
  return prog_.add_stmt(std::move(s));
}

StmtId Parser::parse_while(Symbol label) {
  // while (e) s   ==>   loop { if (e) s else break; }
  SourceLoc loc = peek().loc;
  advance();  // while
  expect(Tok::LParen, "after 'while'");
  ExprId cond = parse_expr();
  expect(Tok::RParen, "after condition");
  StmtId body = parse_stmt();

  Stmt brk;
  brk.kind = StmtKind::Break;
  brk.loc = loc;
  StmtId brk_id = prog_.add_stmt(std::move(brk));

  Stmt iff;
  iff.kind = StmtKind::If;
  iff.loc = loc;
  iff.e1 = cond;
  iff.s1 = body;
  iff.s2 = brk_id;
  StmtId iff_id = prog_.add_stmt(std::move(iff));

  Stmt loop;
  loop.kind = StmtKind::Loop;
  loop.loc = loc;
  loop.label = label;
  loop.s1 = iff_id;
  return prog_.add_stmt(std::move(loop));
}

StmtId Parser::parse_stmt() {
  DepthScope depth(*this);
  if (depth.exceeded()) return deep_nesting_stmt();

  // Loop labels: `Ident : loop ...` / `Ident : while ...`.
  if (check(Tok::Ident) && peek(1).kind == Tok::Colon &&
      (peek(2).kind == Tok::KwLoop || peek(2).kind == Tok::KwWhile)) {
    Symbol label = intern(peek());
    advance();
    advance();
    return check(Tok::KwLoop) ? parse_loop(label) : parse_while(label);
  }

  switch (peek().kind) {
    case Tok::LBrace:
      return parse_block();
    case Tok::KwIf:
      return parse_if();
    case Tok::KwLoop:
      return parse_loop(Symbol());
    case Tok::KwWhile:
      return parse_while(Symbol());
    case Tok::KwLocal: {
      // `local ... in s` used in statement position (not directly in a
      // block); the `;` form is only meaningful inside a block.
      return parse_local(nullptr);
    }
    case Tok::KwReturn: {
      Stmt s;
      s.kind = StmtKind::Return;
      s.loc = advance().loc;
      if (!check(Tok::Semi)) s.e1 = parse_expr();
      expect(Tok::Semi, "after return");
      return prog_.add_stmt(std::move(s));
    }
    case Tok::KwBreak: {
      Stmt s;
      s.kind = StmtKind::Break;
      s.loc = advance().loc;
      if (check(Tok::Ident)) s.label = intern(advance());
      expect(Tok::Semi, "after break");
      return prog_.add_stmt(std::move(s));
    }
    case Tok::KwContinue: {
      Stmt s;
      s.kind = StmtKind::Continue;
      s.loc = advance().loc;
      if (check(Tok::Ident)) s.label = intern(advance());
      expect(Tok::Semi, "after continue");
      return prog_.add_stmt(std::move(s));
    }
    case Tok::KwSkip: {
      Stmt s;
      s.kind = StmtKind::Skip;
      s.loc = advance().loc;
      expect(Tok::Semi, "after skip");
      return prog_.add_stmt(std::move(s));
    }
    case Tok::KwSynchronized: {
      Stmt s;
      s.kind = StmtKind::Synchronized;
      s.loc = advance().loc;
      expect(Tok::LParen, "after 'synchronized'");
      s.e1 = parse_expr();
      expect(Tok::RParen, "after lock expression");
      s.s1 = parse_stmt();
      return prog_.add_stmt(std::move(s));
    }
    case Tok::KwAssume: {
      Stmt s;
      s.kind = StmtKind::Assume;
      s.loc = advance().loc;
      expect(Tok::LParen, "after 'TRUE'");
      s.e1 = parse_expr();
      expect(Tok::RParen, "after assumption");
      expect(Tok::Semi, "after TRUE(...)");
      return prog_.add_stmt(std::move(s));
    }
    case Tok::KwAssert: {
      Stmt s;
      s.kind = StmtKind::Assert;
      s.loc = advance().loc;
      expect(Tok::LParen, "after 'assert'");
      s.e1 = parse_expr();
      expect(Tok::RParen, "after assertion");
      expect(Tok::Semi, "after assert(...)");
      return prog_.add_stmt(std::move(s));
    }
    default:
      break;
  }

  // Assignment or expression statement.
  SourceLoc loc = peek().loc;
  ExprId e = parse_expr();
  if (check(Tok::Assign)) {
    advance();
    ExprId lhs = require_location(e, "assignment target");
    ExprId rhs = parse_expr();
    expect(Tok::Semi, "after assignment");
    Stmt s;
    s.kind = StmtKind::Assign;
    s.loc = loc;
    s.e1 = lhs;
    s.e2 = rhs;
    return prog_.add_stmt(std::move(s));
  }
  if (check(Tok::PlusPlus) || check(Tok::MinusMinus)) {
    // x++ / x--  ==>  x := x + 1 / x := x - 1
    BinOp op = check(Tok::PlusPlus) ? BinOp::Add : BinOp::Sub;
    advance();
    expect(Tok::Semi, "after increment");
    ExprId lhs = require_location(e, "increment target");
    Expr one;
    one.kind = ExprKind::IntLit;
    one.loc = loc;
    one.int_value = 1;
    ExprId one_id = prog_.add_expr(std::move(one));
    Expr add;
    add.kind = ExprKind::Binary;
    add.loc = loc;
    add.bin_op = op;
    add.a = e;
    add.b = one_id;
    ExprId add_id = prog_.add_expr(std::move(add));
    Stmt s;
    s.kind = StmtKind::Assign;
    s.loc = loc;
    s.e1 = lhs;
    s.e2 = add_id;
    return prog_.add_stmt(std::move(s));
  }
  expect(Tok::Semi, "after expression statement");
  Stmt s;
  s.kind = StmtKind::ExprStmt;
  s.loc = loc;
  s.e1 = e;
  return prog_.add_stmt(std::move(s));
}

ExprId Parser::require_location(ExprId e, std::string_view what) {
  if (!is_location_kind(prog_.expr(e).kind)) {
    diags_.error(prog_.expr(e).loc,
                 "expected a location (x, x.fd, x[e]) as " + std::string(what));
  }
  return e;
}

// ---------------------------------------------------------------------------
// Expressions

ExprId Parser::parse_expr() { return parse_binary(1); }

ExprId Parser::parse_binary(int min_prec) {
  ExprId lhs = parse_unary();
  while (true) {
    Tok op = peek().kind;
    int prec = precedence(op);
    if (prec < min_prec || prec == 0) return lhs;
    SourceLoc loc = advance().loc;
    ExprId rhs = parse_binary(prec + 1);  // left-associative
    Expr e;
    e.kind = ExprKind::Binary;
    e.loc = loc;
    e.bin_op = to_binop(op);
    e.a = lhs;
    e.b = rhs;
    lhs = prog_.add_expr(std::move(e));
  }
}

ExprId Parser::parse_unary() {
  // Every expression recursion cycle (unary chains, parenthesized and call
  // arguments via parse_primary) passes through here, so one guard bounds
  // expression depth.
  DepthScope depth(*this);
  if (depth.exceeded()) {
    report_deep_nesting();
    Expr e;
    e.kind = ExprKind::IntLit;
    e.loc = advance().loc;  // consume to guarantee progress
    return prog_.add_expr(std::move(e));
  }
  if (check(Tok::Not) || check(Tok::Minus)) {
    UnOp op = check(Tok::Not) ? UnOp::Not : UnOp::Neg;
    SourceLoc loc = advance().loc;
    ExprId operand = parse_unary();
    Expr e;
    e.kind = ExprKind::Unary;
    e.loc = loc;
    e.un_op = op;
    e.a = operand;
    return prog_.add_expr(std::move(e));
  }
  return parse_postfix();
}

ExprId Parser::parse_postfix() {
  ExprId base = parse_primary();
  while (true) {
    if (match(Tok::Dot)) {
      const Token& field = expect(Tok::Ident, "field name");
      Expr e;
      e.kind = ExprKind::Field;
      e.loc = field.loc;
      e.a = base;
      e.name = intern(field);
      base = prog_.add_expr(std::move(e));
    } else if (check(Tok::LBracket)) {
      SourceLoc loc = advance().loc;
      ExprId index = parse_expr();
      expect(Tok::RBracket, "after array index");
      Expr e;
      e.kind = ExprKind::Index;
      e.loc = loc;
      e.a = base;
      e.b = index;
      base = prog_.add_expr(std::move(e));
    } else {
      return base;
    }
  }
}

ExprId Parser::parse_primary() {
  const Token& tok = peek();
  switch (tok.kind) {
    case Tok::IntLit: {
      advance();
      Expr e;
      e.kind = ExprKind::IntLit;
      e.loc = tok.loc;
      e.int_value = tok.int_value;
      return prog_.add_expr(std::move(e));
    }
    case Tok::KwTrue:
    case Tok::KwFalse: {
      advance();
      Expr e;
      e.kind = ExprKind::BoolLit;
      e.loc = tok.loc;
      e.bool_value = tok.kind == Tok::KwTrue;
      return prog_.add_expr(std::move(e));
    }
    case Tok::KwNull: {
      advance();
      Expr e;
      e.kind = ExprKind::NullLit;
      e.loc = tok.loc;
      return prog_.add_expr(std::move(e));
    }
    case Tok::Ident: {
      advance();
      if (check(Tok::LParen)) {
        // Procedure call: name(args...). Eliminated by the inliner.
        advance();
        Expr e;
        e.kind = ExprKind::Call;
        e.loc = tok.loc;
        e.name = intern(tok);
        // Nested calls push above `mark` and pop back to it.
        const size_t mark = arg_stack_.size();
        if (!check(Tok::RParen)) {
          do {
            ExprId arg = parse_expr();
            arg_stack_.push_back(arg);
          } while (match(Tok::Comma));
        }
        expect(Tok::RParen, "to close call arguments");
        e.args = prog_.add_args(std::span(arg_stack_).subspan(mark));
        arg_stack_.resize(mark);
        return prog_.add_expr(std::move(e));
      }
      Expr e;
      e.kind = ExprKind::VarRef;
      e.loc = tok.loc;
      e.name = intern(tok);
      return prog_.add_expr(std::move(e));
    }
    case Tok::KwNew: {
      advance();
      const Token& cname = expect(Tok::Ident, "class name after 'new'");
      // Optional `()`.
      if (match(Tok::LParen)) expect(Tok::RParen, "after 'new C('");
      Expr e;
      e.kind = ExprKind::New;
      e.loc = tok.loc;
      e.name = intern(cname);
      return prog_.add_expr(std::move(e));
    }
    case Tok::KwLL:
    case Tok::KwVL: {
      advance();
      expect(Tok::LParen, "after LL/VL");
      ExprId loc_e = require_location(parse_expr(), "LL/VL operand");
      expect(Tok::RParen, "after LL/VL operand");
      Expr e;
      e.kind = tok.kind == Tok::KwLL ? ExprKind::LL : ExprKind::VL;
      e.loc = tok.loc;
      e.a = loc_e;
      return prog_.add_expr(std::move(e));
    }
    case Tok::KwSC: {
      advance();
      expect(Tok::LParen, "after SC");
      ExprId loc_e = require_location(parse_expr(), "SC target");
      expect(Tok::Comma, "between SC operands");
      ExprId val = parse_expr();
      expect(Tok::RParen, "after SC operands");
      Expr e;
      e.kind = ExprKind::SC;
      e.loc = tok.loc;
      e.a = loc_e;
      e.b = val;
      return prog_.add_expr(std::move(e));
    }
    case Tok::KwCAS: {
      advance();
      expect(Tok::LParen, "after CAS");
      ExprId loc_e = require_location(parse_expr(), "CAS target");
      expect(Tok::Comma, "between CAS operands");
      ExprId expected = parse_expr();
      expect(Tok::Comma, "between CAS operands");
      ExprId desired = parse_expr();
      expect(Tok::RParen, "after CAS operands");
      Expr e;
      e.kind = ExprKind::CAS;
      e.loc = tok.loc;
      e.a = loc_e;
      e.b = expected;
      e.c = desired;
      return prog_.add_expr(std::move(e));
    }
    case Tok::LParen: {
      advance();
      ExprId inner = parse_expr();
      expect(Tok::RParen, "to close parenthesized expression");
      return inner;
    }
    default: {
      diags_.error(tok.loc,
                   "expected expression, found '" + std::string(tok.text) + "'");
      advance();
      Expr e;
      e.kind = ExprKind::IntLit;
      e.loc = tok.loc;
      return prog_.add_expr(std::move(e));
    }
  }
}

Program parse_and_check(std::string_view source, DiagEngine& diags) {
  Parser parser(source, diags);
  Program prog = parser.parse_program();
  if (!diags.has_errors()) inline_calls(prog, diags);
  if (!diags.has_errors()) run_sema(prog, diags);
  return prog;
}

FrontEnd parse_and_recover(std::string_view source, DiagEngine& diags) {
  FrontEnd fe;
  Parser parser(source, diags);
  fe.prog = parser.parse_program();
  fe.contained = !parser.had_toplevel_errors();
  if (!fe.contained) return fe;
  if (!inline_calls(fe.prog, diags, /*contain=*/true)) fe.contained = false;
  if (fe.contained && !run_sema(fe.prog, diags, /*contain=*/true))
    fe.contained = false;
  return fe;
}

}  // namespace synat::synl
