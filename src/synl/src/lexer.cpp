#include "synat/synl/lexer.h"

#include <array>
#include <limits>

namespace synat::synl {

namespace {

// Character classes, one table lookup per byte. Only ASCII letters count
// as letters, as in the C locale.
enum : uint8_t {
  kSpace = 1,       ///< ' ', '\t', '\r' ('\n' also ends a line)
  kIdentStart = 2,  ///< letters and '_'
  kIdentRest = 4,   ///< letters, digits, '_' and '\''
  kDigit = 8,
};

constexpr std::array<uint8_t, 256> make_classes() {
  std::array<uint8_t, 256> t{};
  t[' '] = t['\t'] = t['\r'] = kSpace;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kIdentStart | kIdentRest;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kIdentStart | kIdentRest;
  t['_'] = kIdentStart | kIdentRest;
  t['\''] = kIdentRest;
  for (int c = '0'; c <= '9'; ++c) t[c] = kIdentRest | kDigit;
  return t;
}

constexpr std::array<uint8_t, 256> kClass = make_classes();

bool is(char c, uint8_t cls) {
  return (kClass[static_cast<unsigned char>(c)] & cls) != 0;
}

/// The keyword spelled `w`, or Tok::Ident.
Tok keyword(std::string_view w) {
  switch (w.size()) {
    case 2:
      if (w == "in") return Tok::KwIn;
      if (w == "if") return Tok::KwIf;
      if (w == "LL") return Tok::KwLL;
      if (w == "SC") return Tok::KwSC;
      if (w == "VL") return Tok::KwVL;
      break;
    case 3:
      if (w == "new") return Tok::KwNew;
      if (w == "int") return Tok::KwInt;
      if (w == "CAS") return Tok::KwCAS;
      break;
    case 4:
      if (w == "proc") return Tok::KwProc;
      if (w == "loop") return Tok::KwLoop;
      if (w == "else") return Tok::KwElse;
      if (w == "skip") return Tok::KwSkip;
      if (w == "true") return Tok::KwTrue;
      if (w == "null") return Tok::KwNull;
      if (w == "bool") return Tok::KwBool;
      if (w == "TRUE") return Tok::KwAssume;  // the paper's TRUE(e) assumption
      break;
    case 5:
      if (w == "local") return Tok::KwLocal;
      if (w == "class") return Tok::KwClass;
      if (w == "while") return Tok::KwWhile;
      if (w == "break") return Tok::KwBreak;
      if (w == "false") return Tok::KwFalse;
      break;
    case 6:
      if (w == "global") return Tok::KwGlobal;
      if (w == "return") return Tok::KwReturn;
      if (w == "assume") return Tok::KwAssume;
      if (w == "assert") return Tok::KwAssert;
      break;
    case 8:
      if (w == "continue") return Tok::KwContinue;
      break;
    case 11:
      if (w == "threadlocal") return Tok::KwThreadLocal;
      break;
    case 12:
      if (w == "thread_local") return Tok::KwThreadLocal;
      if (w == "synchronized") return Tok::KwSynchronized;
      break;
    default:
      break;
  }
  return Tok::Ident;
}

}  // namespace

std::string_view to_string(Tok t) {
  switch (t) {
    case Tok::End: return "<eof>";
    case Tok::Ident: return "identifier";
    case Tok::IntLit: return "integer";
    case Tok::KwGlobal: return "global";
    case Tok::KwThreadLocal: return "threadlocal";
    case Tok::KwClass: return "class";
    case Tok::KwProc: return "proc";
    case Tok::KwLocal: return "local";
    case Tok::KwIn: return "in";
    case Tok::KwLoop: return "loop";
    case Tok::KwWhile: return "while";
    case Tok::KwIf: return "if";
    case Tok::KwElse: return "else";
    case Tok::KwReturn: return "return";
    case Tok::KwBreak: return "break";
    case Tok::KwContinue: return "continue";
    case Tok::KwSkip: return "skip";
    case Tok::KwSynchronized: return "synchronized";
    case Tok::KwNew: return "new";
    case Tok::KwTrue: return "true";
    case Tok::KwFalse: return "false";
    case Tok::KwNull: return "null";
    case Tok::KwLL: return "LL";
    case Tok::KwSC: return "SC";
    case Tok::KwVL: return "VL";
    case Tok::KwCAS: return "CAS";
    case Tok::KwAssume: return "TRUE";
    case Tok::KwAssert: return "assert";
    case Tok::KwInt: return "int";
    case Tok::KwBool: return "bool";
    case Tok::LParen: return "(";
    case Tok::RParen: return ")";
    case Tok::LBrace: return "{";
    case Tok::RBrace: return "}";
    case Tok::LBracket: return "[";
    case Tok::RBracket: return "]";
    case Tok::Semi: return ";";
    case Tok::Comma: return ",";
    case Tok::Dot: return ".";
    case Tok::Colon: return ":";
    case Tok::Assign: return ":=";
    case Tok::Plus: return "+";
    case Tok::Minus: return "-";
    case Tok::Star: return "*";
    case Tok::Slash: return "/";
    case Tok::Percent: return "%";
    case Tok::EqEq: return "==";
    case Tok::NotEq: return "!=";
    case Tok::Lt: return "<";
    case Tok::Le: return "<=";
    case Tok::Gt: return ">";
    case Tok::Ge: return ">=";
    case Tok::AndAnd: return "&&";
    case Tok::OrOr: return "||";
    case Tok::Not: return "!";
    case Tok::PlusPlus: return "++";
    case Tok::MinusMinus: return "--";
  }
  return "?";
}

Lexer::Lexer(std::string_view source, DiagEngine& diags)
    : src_(source), diags_(diags) {}

void Lexer::skip_trivia() {
  while (pos_ < src_.size()) {
    char c = src_[pos_];
    if (c == '\n') {
      line_start_ = ++pos_;
      ++line_;
    } else if (is(c, kSpace)) {
      ++pos_;
    } else if (c == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '/') {
      size_t eol = src_.find('\n', pos_);  // the newline stays for the loop
      pos_ = eol == std::string_view::npos ? src_.size() : eol;
    } else {
      break;
    }
  }
}

bool Lexer::match(char expected) {
  if (pos_ >= src_.size() || src_[pos_] != expected) return false;
  ++pos_;
  return true;
}

Token Lexer::make(Tok kind, size_t begin, SourceLoc loc) const {
  return Token{kind, loc, src_.substr(begin, pos_ - begin), 0};
}

Token Lexer::lex_number(size_t begin, SourceLoc loc) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  int64_t value = 0;
  bool overflow = false;
  while (pos_ < src_.size() && is(src_[pos_], kDigit)) {
    int digit = src_[pos_++] - '0';
    if (value > (kMax - digit) / 10) {
      overflow = true;
    } else {
      value = value * 10 + digit;
    }
  }
  if (overflow) {
    diags_.error(loc, "integer literal out of range");
    value = 0;
  }
  Token t = make(Tok::IntLit, begin, loc);
  t.int_value = value;
  return t;
}

Token Lexer::next() {
  while (true) {
    skip_trivia();
    const size_t begin = pos_;
    const SourceLoc loc = here();
    if (pos_ >= src_.size()) return Token{Tok::End, loc, {}, 0};

    const char c = src_[pos_];
    if (is(c, kIdentStart)) {
      do {
        ++pos_;
      } while (pos_ < src_.size() && is(src_[pos_], kIdentRest));
      Token t = make(Tok::Ident, begin, loc);
      t.kind = keyword(t.text);
      return t;
    }
    if (is(c, kDigit)) return lex_number(begin, loc);
    ++pos_;
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
  }
}

std::vector<Token> Lexer::tokenize(std::string_view source, DiagEngine& diags) {
  std::vector<Token> out;
  tokenize(source, diags, out);
  return out;
}

void Lexer::tokenize(std::string_view source, DiagEngine& diags,
                     std::vector<Token>& out) {
  Lexer lexer(source, diags);
  out.clear();
  // SYNL sources run 4 to 5 bytes per token, so this rarely regrows.
  out.reserve(source.size() / 4 + 1);
  do {
    out.push_back(lexer.next());
  } while (out.back().kind != Tok::End);
}

}  // namespace synat::synl
