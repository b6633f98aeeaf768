// Pretty-printer: renders the AST back to parseable SYNL concrete syntax.
//
// print(parse(print(p))) == print(p) is a tested invariant (the printer is a
// fixpoint under re-parsing). Also provides single-expression/statement
// rendering used by annotated listings and diagnostics.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "synat/synl/ast.h"

namespace synat::synl {

struct PrintOptions {
  int indent_width = 2;
  /// Annotate each Local with its inferred type (`local x : T := e in`).
  bool show_types = false;
};

std::string print_expr(const Program& prog, ExprId id);
std::string print_stmt(const Program& prog, StmtId id,
                       const PrintOptions& opts = {}, int indent = 0);
std::string print_proc(const Program& prog, ProcId id,
                       const PrintOptions& opts = {});
std::string print_program(const Program& prog, const PrintOptions& opts = {});

/// print_program's text and where each procedure's text starts in it, so
/// one print serves a hash of the whole program and one of each procedure.
struct ProgramText {
  std::string text;
  std::vector<size_t> proc_begin;  ///< per procedure, in declaration order

  /// Procedure `i`'s text, equal to print_proc's: up to the '\n' that
  /// separates it from the next procedure, or to the end.
  std::string_view proc(size_t i) const {
    const size_t end =
        i + 1 < proc_begin.size() ? proc_begin[i + 1] - 1 : text.size();
    return std::string_view(text).substr(proc_begin[i], end - proc_begin[i]);
  }
};

/// Prints `prog` into `out`, reusing the capacity `out` already has.
void print_program(const Program& prog, ProgramText& out,
                   const PrintOptions& opts = {});

/// One-line rendering of a statement header (no nested bodies); used by the
/// annotated atomicity listings, e.g. `local t := LL(Tail) in`.
std::string stmt_head(const Program& prog, StmtId id);

}  // namespace synat::synl
