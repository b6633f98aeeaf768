// Hand-written lexer for SYNL. Comments are `//` to end of line.
//
// Each byte is read once: character classes come from a 256-entry table,
// keywords are matched by length, and a column is the byte offset from the
// start of its line. An integer literal beyond int64_t is an error.
#pragma once

#include <string_view>
#include <vector>

#include "synat/support/diag.h"
#include "synat/synl/token.h"

namespace synat::synl {

class Lexer {
 public:
  /// `source` must outlive the token stream (tokens hold views into it).
  Lexer(std::string_view source, DiagEngine& diags);

  Token next();

  /// Lexes the whole buffer; the last token is Tok::End.
  static std::vector<Token> tokenize(std::string_view source, DiagEngine& diags);
  /// The same into `out`, which is cleared first and keeps its capacity.
  static void tokenize(std::string_view source, DiagEngine& diags,
                       std::vector<Token>& out);

 private:
  void skip_trivia();
  bool match(char expected);
  /// Columns count bytes from the start of the line, from 1.
  SourceLoc here() const {
    return {line_, static_cast<uint32_t>(pos_ - line_start_ + 1)};
  }

  Token make(Tok kind, size_t begin, SourceLoc loc) const;
  Token lex_number(size_t begin, SourceLoc loc);

  std::string_view src_;
  DiagEngine& diags_;
  size_t pos_ = 0;
  size_t line_start_ = 0;  ///< offset of the current line's first byte
  uint32_t line_ = 1;
};

}  // namespace synat::synl
