// The SYNL lexer as it was before the table-driven rewrite, kept only as
// the reference that Lexer.MatchesTheReferenceLexer compares the library's
// lexer with. It computes integer literals without a bound, so it must not
// see a literal beyond int64_t.
#include "reference_lexer.h"

#include <cctype>
#include <unordered_map>

namespace synat::synl::test_support {

namespace {

const std::unordered_map<std::string_view, Tok>& keywords() {
  static const std::unordered_map<std::string_view, Tok> kw = {
      {"global", Tok::KwGlobal},
      {"threadlocal", Tok::KwThreadLocal},
      {"thread_local", Tok::KwThreadLocal},
      {"class", Tok::KwClass},
      {"proc", Tok::KwProc},
      {"local", Tok::KwLocal},
      {"in", Tok::KwIn},
      {"loop", Tok::KwLoop},
      {"while", Tok::KwWhile},
      {"if", Tok::KwIf},
      {"else", Tok::KwElse},
      {"return", Tok::KwReturn},
      {"break", Tok::KwBreak},
      {"continue", Tok::KwContinue},
      {"skip", Tok::KwSkip},
      {"synchronized", Tok::KwSynchronized},
      {"new", Tok::KwNew},
      {"true", Tok::KwTrue},
      {"false", Tok::KwFalse},
      {"null", Tok::KwNull},
      {"LL", Tok::KwLL},
      {"SC", Tok::KwSC},
      {"VL", Tok::KwVL},
      {"CAS", Tok::KwCAS},
      {"TRUE", Tok::KwAssume},  // the paper's TRUE(e) assumption statement
      {"assume", Tok::KwAssume},
      {"assert", Tok::KwAssert},
      {"int", Tok::KwInt},
      {"bool", Tok::KwBool},
  };
  return kw;
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '\'';
}

}  // namespace

ReferenceLexer::ReferenceLexer(std::string_view source, DiagEngine& diags)
    : src_(source), diags_(diags) {}

char ReferenceLexer::peek(size_t ahead) const {
  return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
}

char ReferenceLexer::advance() {
  char c = src_[pos_++];
  if (c == '\n') {
    ++line_;
    col_ = 1;
  } else {
    ++col_;
  }
  return c;
}

bool ReferenceLexer::match(char expected) {
  if (peek() != expected) return false;
  advance();
  return true;
}

void ReferenceLexer::skip_trivia() {
  while (pos_ < src_.size()) {
    char c = peek();
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      advance();
    } else if (c == '/' && peek(1) == '/') {
      while (pos_ < src_.size() && peek() != '\n') advance();
    } else {
      break;
    }
  }
}

Token ReferenceLexer::make(Tok kind, size_t begin, SourceLoc loc) {
  return Token{kind, loc, src_.substr(begin, pos_ - begin), 0};
}

Token ReferenceLexer::lex_ident(SourceLoc loc) {
  size_t begin = pos_;
  while (pos_ < src_.size() && is_ident_char(peek())) advance();
  std::string_view text = src_.substr(begin, pos_ - begin);
  if (auto it = keywords().find(text); it != keywords().end()) {
    return Token{it->second, loc, text, 0};
  }
  return Token{Tok::Ident, loc, text, 0};
}

Token ReferenceLexer::lex_number(SourceLoc loc) {
  size_t begin = pos_;
  int64_t value = 0;
  while (pos_ < src_.size() && std::isdigit(static_cast<unsigned char>(peek()))) {
    value = value * 10 + (peek() - '0');
    advance();
  }
  Token t = make(Tok::IntLit, begin, loc);
  t.int_value = value;
  return t;
}

Token ReferenceLexer::next() {
  skip_trivia();
  SourceLoc loc = here();
  if (pos_ >= src_.size()) return Token{Tok::End, loc, {}, 0};

  char c = peek();
  if (is_ident_start(c)) return lex_ident(loc);
  if (std::isdigit(static_cast<unsigned char>(c))) return lex_number(loc);

  size_t begin = pos_;
  advance();
  switch (c) {
    case '(': return make(Tok::LParen, begin, loc);
    case ')': return make(Tok::RParen, begin, loc);
    case '{': return make(Tok::LBrace, begin, loc);
    case '}': return make(Tok::RBrace, begin, loc);
    case '[': return make(Tok::LBracket, begin, loc);
    case ']': return make(Tok::RBracket, begin, loc);
    case ';': return make(Tok::Semi, begin, loc);
    case ',': return make(Tok::Comma, begin, loc);
    case '.': return make(Tok::Dot, begin, loc);
    case ':':
      if (match('=')) return make(Tok::Assign, begin, loc);
      return make(Tok::Colon, begin, loc);
    case '+':
      if (match('+')) return make(Tok::PlusPlus, begin, loc);
      return make(Tok::Plus, begin, loc);
    case '-':
      if (match('-')) return make(Tok::MinusMinus, begin, loc);
      return make(Tok::Minus, begin, loc);
    case '*': return make(Tok::Star, begin, loc);
    case '/': return make(Tok::Slash, begin, loc);
    case '%': return make(Tok::Percent, begin, loc);
    case '=':
      if (match('=')) return make(Tok::EqEq, begin, loc);
      return make(Tok::Assign, begin, loc);  // accept '=' for ':='
    case '!':
      if (match('=')) return make(Tok::NotEq, begin, loc);
      return make(Tok::Not, begin, loc);
    case '<':
      if (match('=')) return make(Tok::Le, begin, loc);
      return make(Tok::Lt, begin, loc);
    case '>':
      if (match('=')) return make(Tok::Ge, begin, loc);
      return make(Tok::Gt, begin, loc);
    case '&':
      if (match('&')) return make(Tok::AndAnd, begin, loc);
      break;
    case '|':
      if (match('|')) return make(Tok::OrOr, begin, loc);
      break;
    default:
      break;
  }
  diags_.error(loc, "unexpected character '" + std::string(1, c) + "'");
  return next();
}

std::vector<Token> ReferenceLexer::tokenize(std::string_view source,
                                            DiagEngine& diags) {
  ReferenceLexer lexer(source, diags);
  std::vector<Token> out;
  while (true) {
    out.push_back(lexer.next());
    if (out.back().kind == Tok::End) return out;
  }
}

}  // namespace synat::synl::test_support
