#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "../support/reference_inputs.h"
#include "reference_lexer.h"
#include "synat/synl/lexer.h"
#include "synat/synl/parser.h"

namespace synat::synl {
namespace {

std::vector<Token> lex_ok(std::string_view src) {
  DiagEngine diags;
  auto toks = Lexer::tokenize(src, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.dump();
  return toks;
}

std::vector<Tok> kinds(std::string_view src) {
  std::vector<Tok> out;
  for (const Token& t : lex_ok(src)) out.push_back(t.kind);
  return out;
}

TEST(Lexer, EmptyInput) {
  auto toks = lex_ok("");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].kind, Tok::End);
}

TEST(Lexer, Keywords) {
  auto k = kinds("global threadlocal proc local in loop if else return");
  std::vector<Tok> expect = {Tok::KwGlobal, Tok::KwThreadLocal, Tok::KwProc,
                             Tok::KwLocal,  Tok::KwIn,          Tok::KwLoop,
                             Tok::KwIf,     Tok::KwElse,        Tok::KwReturn,
                             Tok::End};
  EXPECT_EQ(k, expect);
}

TEST(Lexer, Primitives) {
  auto k = kinds("LL SC VL CAS TRUE assume");
  std::vector<Tok> expect = {Tok::KwLL,     Tok::KwSC,     Tok::KwVL,
                             Tok::KwCAS,    Tok::KwAssume, Tok::KwAssume,
                             Tok::End};
  EXPECT_EQ(k, expect);
}

TEST(Lexer, IdentifiersWithPrimes) {
  // Variant names like Deq'2 lex as single identifiers.
  auto toks = lex_ok("Deq'2 next");
  EXPECT_EQ(toks[0].kind, Tok::Ident);
  EXPECT_EQ(toks[0].text, "Deq'2");
  EXPECT_EQ(toks[1].text, "next");
}

TEST(Lexer, Numbers) {
  auto toks = lex_ok("0 42 123456");
  EXPECT_EQ(toks[0].int_value, 0);
  EXPECT_EQ(toks[1].int_value, 42);
  EXPECT_EQ(toks[2].int_value, 123456);
}

TEST(Lexer, OperatorsMaximalMunch) {
  auto k = kinds(":= == != <= >= && || ++ -- < > = !");
  std::vector<Tok> expect = {Tok::Assign, Tok::EqEq,      Tok::NotEq,
                             Tok::Le,     Tok::Ge,        Tok::AndAnd,
                             Tok::OrOr,   Tok::PlusPlus,  Tok::MinusMinus,
                             Tok::Lt,     Tok::Gt,        Tok::Assign,
                             Tok::Not,    Tok::End};
  EXPECT_EQ(k, expect);
}

TEST(Lexer, CommentsSkipped) {
  auto k = kinds("x // comment until eol\n y");
  std::vector<Tok> expect = {Tok::Ident, Tok::Ident, Tok::End};
  EXPECT_EQ(k, expect);
}

TEST(Lexer, LineAndColumnTracking) {
  auto toks = lex_ok("a\n  b");
  EXPECT_EQ(toks[0].loc.line, 1u);
  EXPECT_EQ(toks[0].loc.column, 1u);
  EXPECT_EQ(toks[1].loc.line, 2u);
  EXPECT_EQ(toks[1].loc.column, 3u);
}

TEST(Lexer, UnknownCharacterReportsError) {
  DiagEngine diags;
  auto toks = Lexer::tokenize("a @ b", diags);
  EXPECT_TRUE(diags.has_errors());
  // Lexing recovers: both identifiers still come through.
  ASSERT_GE(toks.size(), 3u);
  EXPECT_EQ(toks[0].text, "a");
  EXPECT_EQ(toks[1].text, "b");
}

TEST(Lexer, BracketsAndPunctuation) {
  auto k = kinds("( ) { } [ ] ; , . :");
  std::vector<Tok> expect = {Tok::LParen,   Tok::RParen, Tok::LBrace,
                             Tok::RBrace,   Tok::LBracket, Tok::RBracket,
                             Tok::Semi,     Tok::Comma,  Tok::Dot,
                             Tok::Colon,    Tok::End};
  EXPECT_EQ(k, expect);
}

TEST(Lexer, IntegerLiteralOutOfRangeIsAnError) {
  DiagEngine diags;
  auto toks = Lexer::tokenize("x := 99999999999999999999999;", diags);
  ASSERT_EQ(diags.diagnostics().size(), 1u) << diags.dump();
  EXPECT_EQ(diags.diagnostics()[0].severity, Severity::Error);
  EXPECT_EQ(diags.diagnostics()[0].message, "integer literal out of range");
  EXPECT_EQ(diags.diagnostics()[0].loc, (SourceLoc{1, 6}));
  // Lexing recovers with the literal as a token of its own.
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[2].kind, Tok::IntLit);
  EXPECT_EQ(toks[2].text, "99999999999999999999999");
  EXPECT_EQ(toks[3].kind, Tok::Semi);

  // The largest int64_t lexes; one more is out of range.
  DiagEngine edge;
  toks = Lexer::tokenize("9223372036854775807 9223372036854775808", edge);
  EXPECT_EQ(toks[0].int_value, 9223372036854775807);
  ASSERT_EQ(edge.num_errors(), 1u);
  EXPECT_EQ(edge.diagnostics()[0].loc, (SourceLoc{1, 21}));

  // A lexer error is a top-level error: no procedure contains it.
  DiagEngine prog_diags;
  Parser parser("global int x; proc P() { x := 99999999999999999999999; }",
                prog_diags);
  parser.parse_program();
  EXPECT_TRUE(parser.had_toplevel_errors());
}

/// Inputs of the reference comparison: the reference inputs of the other
/// rewrites, then every fuzz-corpus seed.
std::vector<std::pair<std::string, std::string>> lexer_inputs() {
  std::vector<std::pair<std::string, std::string>> out =
      synat::test_support::reference_inputs();
  std::vector<std::filesystem::path> seeds;
  for (const auto& f :
       std::filesystem::directory_iterator(SYNAT_FUZZ_CORPUS_DIR))
    seeds.push_back(f.path());
  std::sort(seeds.begin(), seeds.end());
  for (const std::filesystem::path& f : seeds) {
    std::ifstream in(f, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    out.emplace_back(f.filename().string(), ss.str());
  }
  return out;
}

/// True when `src` has a run of 19 or more digits, which may be a literal
/// beyond int64_t: the reference lexer overflows on those.
bool may_overflow(std::string_view src) {
  size_t run = 0;
  for (char c : src) {
    run = c >= '0' && c <= '9' ? run + 1 : 0;
    if (run >= 19) return true;
  }
  return false;
}

void expect_same_tokens(const std::string& where, std::string_view src) {
  DiagEngine got_diags, want_diags;
  std::vector<Token> got = Lexer::tokenize(src, got_diags);
  std::vector<Token> want =
      test_support::ReferenceLexer::tokenize(src, want_diags);
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].kind, want[i].kind) << where << " token " << i;
    ASSERT_EQ(got[i].loc, want[i].loc) << where << " token " << i;
    ASSERT_EQ(got[i].text.data(), want[i].text.data())
        << where << " token " << i;
    ASSERT_EQ(got[i].text.size(), want[i].text.size())
        << where << " token " << i;
    ASSERT_EQ(got[i].int_value, want[i].int_value) << where << " token " << i;
  }
  const auto& gd = got_diags.diagnostics();
  const auto& wd = want_diags.diagnostics();
  ASSERT_EQ(gd.size(), wd.size()) << where;
  for (size_t i = 0; i < gd.size(); ++i) {
    EXPECT_EQ(gd[i].severity, wd[i].severity) << where << " diagnostic " << i;
    EXPECT_EQ(gd[i].loc, wd[i].loc) << where << " diagnostic " << i;
    EXPECT_EQ(gd[i].message, wd[i].message) << where << " diagnostic " << i;
  }
}

/// The table-driven lexer yields the reference lexer's tokens, locations
/// and diagnostics on the reference inputs, the fuzz seeds, and copies of
/// each with single bytes replaced at a fixed stride.
TEST(Lexer, MatchesTheReferenceLexer) {
  // Bytes that start, end or split tokens, comments and lines.
  constexpr char kReplacements[] = {'\n', ' ',  '/', '&',  '|',    ':',    '=',
                                    '9',  '_',  '\'', '@', '\0', '\x80', 'x'};
  constexpr size_t kStride = 61;
  size_t compared = 0;
  for (const auto& [name, source] : lexer_inputs()) {
    if (!may_overflow(source)) {
      expect_same_tokens(name, source);
      ++compared;
    }
    for (size_t k = 0; k < std::size(kReplacements); ++k) {
      std::string mutated = source;
      for (size_t i = k; i < mutated.size(); i += kStride)
        mutated[i] = kReplacements[k];
      if (may_overflow(mutated)) continue;
      expect_same_tokens(name + " with byte " + std::to_string(k) + " replaced",
                         mutated);
      ++compared;
    }
  }
  EXPECT_GT(compared, 1000u);
}

}  // namespace
}  // namespace synat::synl
