// The SYNL lexer before the table-driven rewrite: a test-only reference
// (see reference_lexer.cpp).
#pragma once

#include <string_view>
#include <vector>

#include "synat/support/diag.h"
#include "synat/synl/token.h"

namespace synat::synl::test_support {

class ReferenceLexer {
 public:
  /// `source` must outlive the token stream (tokens hold views into it).
  ReferenceLexer(std::string_view source, DiagEngine& diags);

  Token next();

  /// Lexes the whole buffer; the last token is Tok::End.
  static std::vector<Token> tokenize(std::string_view source, DiagEngine& diags);

 private:
  char peek(size_t ahead = 0) const;
  char advance();
  bool match(char expected);
  void skip_trivia();
  SourceLoc here() const { return {line_, col_}; }

  Token make(Tok kind, size_t begin, SourceLoc loc);
  Token lex_ident(SourceLoc loc);
  Token lex_number(SourceLoc loc);

  std::string_view src_;
  DiagEngine& diags_;
  size_t pos_ = 0;
  uint32_t line_ = 1;
  uint32_t col_ = 1;
};

}  // namespace synat::synl::test_support
