// Recursive-descent parser for SYNL.
//
// Produces an unresolved AST; run sema (sema.h) afterwards to resolve names
// and types. `parse_program` is the usual entry point; it never throws on
// malformed input, it reports to the DiagEngine and recovers.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "synat/support/diag.h"
#include "synat/synl/ast.h"
#include "synat/synl/token.h"

namespace synat::synl {

class Parser {
 public:
  /// Lexes `source` into this thread's token buffer, which the parser
  /// holds until it is destroyed.
  Parser(std::string_view source, DiagEngine& diags);
  ~Parser();

  Parser(const Parser&) = delete;
  Parser& operator=(const Parser&) = delete;

  /// Parses a whole program (classes, globals, threadlocals, procedures).
  /// Errors inside a procedure's parameter list or body are contained: the
  /// procedure is kept with an empty stub body and ProcInfo::broken set, and
  /// parsing resumes at the next declaration.
  Program parse_program();

  /// True when any error could not be attributed to a single (now broken)
  /// procedure: lexer errors, malformed top-level declarations, or a `proc`
  /// with no name. Such a program is unusable even for degraded analysis.
  bool had_toplevel_errors() const {
    return diags_.num_errors() - base_errors_ > contained_errors_;
  }

 private:
  class DepthScope;

  const Token& peek(size_t ahead = 0) const;
  const Token& advance();
  bool check(Tok kind) const { return peek().kind == kind; }
  bool match(Tok kind);
  const Token& expect(Tok kind, std::string_view what);
  void sync_to_decl();
  void sync_to_stmt();
  void report_deep_nesting();
  StmtId deep_nesting_stmt();

  Symbol intern(const Token& tok) { return prog_.syms().intern(tok.text); }

  void parse_class();
  void parse_global(VarKind kind);
  void parse_proc();
  TypeId parse_type();
  bool looks_like_type() const;

  StmtId parse_stmt();
  StmtId parse_block();
  /// Parses statements until RBrace, handling `local x := e;` whose scope
  /// extends to the rest of the block, and returns them as a child range.
  IdRange parse_stmt_list();
  /// `consumed_rest` is null in statement position. Directly inside a
  /// block, `local x := e;` scopes over the rest of the block, which it
  /// parses, and sets *consumed_rest.
  StmtId parse_local(bool* consumed_rest);
  StmtId parse_if();
  StmtId parse_loop(Symbol label);
  StmtId parse_while(Symbol label);

  ExprId parse_expr();
  ExprId parse_binary(int min_prec);
  ExprId parse_unary();
  ExprId parse_postfix();
  ExprId parse_primary();
  ExprId require_location(ExprId e, std::string_view what);

  /// AST nesting bound; statements/expressions deeper than this are stubbed
  /// out with an error so pathological inputs cannot blow the C++ stack in
  /// the parser or any recursive pass downstream.
  static constexpr int kMaxDepth = 200;

  Program prog_;
  DiagEngine& diags_;
  std::vector<Token> toks_;
  /// Children of the blocks and calls being parsed, innermost on top; each
  /// list moves into the Program's side array when its node is complete.
  std::vector<StmtId> stmt_stack_;
  std::vector<ExprId> arg_stack_;
  size_t pos_ = 0;
  int depth_ = 0;
  bool depth_reported_ = false;     ///< reset per procedure
  size_t base_errors_ = 0;          ///< diags_.num_errors() at construction
  size_t contained_errors_ = 0;     ///< errors attributed to broken procs
};

/// Convenience: lex + parse + sema in one call. Returns the program even on
/// error (check diags.has_errors()).
Program parse_and_check(std::string_view source, DiagEngine& diags);

/// Result of the fault-tolerant front end (parse_and_recover).
struct FrontEnd {
  Program prog;
  /// True when every reported error was confined to procedures now marked
  /// ProcInfo::broken (their bodies are empty stubs). False means the file
  /// is unusable: lexer/top-level errors or duplicate declarations.
  bool contained = true;
};

/// Like parse_and_check, but failures inside one procedure (parse, inline,
/// or sema) do not poison the rest of the file: the procedure is stubbed
/// out and marked broken, and every other procedure is fully resolved. The
/// batch driver reports broken procedures as degraded instead of failing
/// the whole program.
FrontEnd parse_and_recover(std::string_view source, DiagEngine& diags);

}  // namespace synat::synl
