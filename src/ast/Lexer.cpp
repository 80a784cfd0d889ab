//===- ast/Lexer.cpp - MATLAB lexer ----------------------------------------===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ast/Lexer.h"

#include "support/Error.h"
#include "support/StringUtils.h"

#include <cstring>

#include <cctype>
#include <cstdlib>
#include <unordered_map>

using namespace majic;

const char *majic::tokKindName(TokKind K) {
  switch (K) {
  case TokKind::Eof:
    return "end of file";
  case TokKind::Newline:
    return "newline";
  case TokKind::Identifier:
    return "identifier";
  case TokKind::Number:
    return "number";
  case TokKind::String:
    return "string";
  case TokKind::KwFunction:
    return "'function'";
  case TokKind::KwIf:
    return "'if'";
  case TokKind::KwElseif:
    return "'elseif'";
  case TokKind::KwElse:
    return "'else'";
  case TokKind::KwEnd:
    return "'end'";
  case TokKind::KwFor:
    return "'for'";
  case TokKind::KwWhile:
    return "'while'";
  case TokKind::KwBreak:
    return "'break'";
  case TokKind::KwContinue:
    return "'continue'";
  case TokKind::KwReturn:
    return "'return'";
  case TokKind::KwClear:
    return "'clear'";
  case TokKind::LParen:
    return "'('";
  case TokKind::RParen:
    return "')'";
  case TokKind::LBracket:
    return "'['";
  case TokKind::RBracket:
    return "']'";
  case TokKind::Comma:
    return "','";
  case TokKind::Semi:
    return "';'";
  case TokKind::Colon:
    return "':'";
  case TokKind::Assign:
    return "'='";
  case TokKind::Plus:
    return "'+'";
  case TokKind::Minus:
    return "'-'";
  case TokKind::Star:
    return "'*'";
  case TokKind::Slash:
    return "'/'";
  case TokKind::Backslash:
    return "'\\'";
  case TokKind::Caret:
    return "'^'";
  case TokKind::DotStar:
    return "'.*'";
  case TokKind::DotSlash:
    return "'./'";
  case TokKind::DotBackslash:
    return "'.\\'";
  case TokKind::DotCaret:
    return "'.^'";
  case TokKind::Quote:
    return "transpose";
  case TokKind::DotQuote:
    return "'.''";
  case TokKind::Lt:
    return "'<'";
  case TokKind::Le:
    return "'<='";
  case TokKind::Gt:
    return "'>'";
  case TokKind::Ge:
    return "'>='";
  case TokKind::EqEq:
    return "'=='";
  case TokKind::NotEq:
    return "'~='";
  case TokKind::Amp:
    return "'&'";
  case TokKind::Pipe:
    return "'|'";
  case TokKind::AmpAmp:
    return "'&&'";
  case TokKind::PipePipe:
    return "'||'";
  case TokKind::Tilde:
    return "'~'";
  }
  majic_unreachable("invalid token kind");
}

namespace {

class LexerImpl {
public:
  LexerImpl(std::string_view Source, uint32_t FileId, Diagnostics &Diags)
      : Src(Source), FileId(FileId), Diags(Diags) {}

  std::vector<Token> run();

private:
  SourceLoc loc() const { return {FileId, Line, Col}; }

  char peek(size_t Ahead = 0) const {
    return Pos + Ahead < Src.size() ? Src[Pos + Ahead] : '\0';
  }

  char advance() {
    char Ch = Src[Pos++];
    if (Ch == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
    return Ch;
  }

  void push(TokKind K, SourceLoc Loc) {
    Token T;
    T.Kind = K;
    T.Loc = Loc;
    T.SpaceBefore = PendingSpace;
    PendingSpace = false;
    Toks.push_back(std::move(T));
  }

  /// True if the previous token allows a postfix quote (transpose).
  bool quoteIsTranspose() const {
    if (Toks.empty())
      return false;
    // Whitespace before the quote means string context: [a ' '] etc.
    switch (Toks.back().Kind) {
    case TokKind::Identifier:
    case TokKind::Number:
    case TokKind::RParen:
    case TokKind::RBracket:
    case TokKind::Quote:
    case TokKind::DotQuote:
    case TokKind::KwEnd:
      return !PendingSpace;
    default:
      return false;
    }
  }

  void lexNumber();
  void lexIdentifier();
  void lexString();

  std::string_view Src;
  uint32_t FileId;
  Diagnostics &Diags;
  size_t Pos = 0;
  uint32_t Line = 1, Col = 1;
  bool PendingSpace = false;
  std::vector<Token> Toks;
};

void LexerImpl::lexNumber() {
  SourceLoc Loc = loc();
  std::string Digits;
  while (std::isdigit(static_cast<unsigned char>(peek())))
    Digits += advance();
  // A '.' begins a fraction only if not an operator like '.*' or '..'.
  if (peek() == '.' && std::isdigit(static_cast<unsigned char>(peek(1)))) {
    Digits += advance();
    while (std::isdigit(static_cast<unsigned char>(peek())))
      Digits += advance();
  } else if (peek() == '.' && !std::strchr("*/\\^'.", peek(1))) {
    Digits += advance(); // trailing '.': "3." is a valid literal
  }
  if (peek() == 'e' || peek() == 'E') {
    char Next = peek(1);
    if (std::isdigit(static_cast<unsigned char>(Next)) ||
        ((Next == '+' || Next == '-') &&
         std::isdigit(static_cast<unsigned char>(peek(2))))) {
      Digits += advance(); // e
      if (peek() == '+' || peek() == '-')
        Digits += advance();
      while (std::isdigit(static_cast<unsigned char>(peek())))
        Digits += advance();
    }
  }
  bool Imag = false;
  if (peek() == 'i' || peek() == 'j') {
    // Imaginary suffix only when not followed by more identifier chars.
    char After = peek(1);
    if (!std::isalnum(static_cast<unsigned char>(After)) && After != '_') {
      advance();
      Imag = true;
    }
  }
  Token T;
  T.Kind = TokKind::Number;
  T.Loc = Loc;
  T.NumValue = std::strtod(Digits.c_str(), nullptr);
  T.IsImaginary = Imag;
  T.SpaceBefore = PendingSpace;
  PendingSpace = false;
  Toks.push_back(std::move(T));
}

void LexerImpl::lexIdentifier() {
  SourceLoc Loc = loc();
  std::string Name;
  while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_')
    Name += advance();

  static const std::unordered_map<std::string, TokKind> Keywords = {
      {"function", TokKind::KwFunction}, {"if", TokKind::KwIf},
      {"elseif", TokKind::KwElseif},     {"else", TokKind::KwElse},
      {"end", TokKind::KwEnd},           {"for", TokKind::KwFor},
      {"while", TokKind::KwWhile},       {"break", TokKind::KwBreak},
      {"continue", TokKind::KwContinue}, {"return", TokKind::KwReturn},
      {"clear", TokKind::KwClear},
  };
  auto It = Keywords.find(Name);
  Token T;
  T.Kind = It == Keywords.end() ? TokKind::Identifier : It->second;
  T.Loc = Loc;
  T.Text = std::move(Name);
  T.SpaceBefore = PendingSpace;
  PendingSpace = false;
  Toks.push_back(std::move(T));
}

void LexerImpl::lexString() {
  SourceLoc Loc = loc();
  advance(); // opening quote
  std::string S;
  while (true) {
    char Ch = peek();
    if (Ch == '\0' || Ch == '\n') {
      Diags.error(Loc, "unterminated string literal");
      break;
    }
    advance();
    if (Ch == '\'') {
      if (peek() == '\'') { // '' is an escaped quote
        S += '\'';
        advance();
        continue;
      }
      break;
    }
    S += Ch;
  }
  Token T;
  T.Kind = TokKind::String;
  T.Loc = Loc;
  T.Text = std::move(S);
  T.SpaceBefore = PendingSpace;
  PendingSpace = false;
  Toks.push_back(std::move(T));
}

// Invariant: no state crosses a newline. A comment and a string stop at it,
// a continuation swallows it, and the only look-back, quoteIsTranspose,
// reads a string at a line's first quote whether the token before is a
// Newline or the line follows a continuation (PendingSpace). Lexing each
// line alone therefore gives this lex's kinds and texts, which the
// snooper's header scan relies on; a construct that spans lines (a block
// comment, say) must break Lexer.EachLineAloneLexesAsInTheWhole first.
std::vector<Token> LexerImpl::run() {
  while (Pos < Src.size()) {
    char Ch = peek();
    SourceLoc Loc = loc();

    if (Ch == ' ' || Ch == '\t' || Ch == '\r') {
      advance();
      PendingSpace = true;
      continue;
    }
    if (Ch == '\n') {
      advance();
      push(TokKind::Newline, Loc);
      continue;
    }
    if (Ch == '%') { // comment to end of line
      while (peek() && peek() != '\n')
        advance();
      continue;
    }
    if (Ch == '.' && peek(1) == '.' && peek(2) == '.') {
      // Line continuation: swallow through the newline.
      while (peek() && peek() != '\n')
        advance();
      if (peek() == '\n')
        advance();
      PendingSpace = true;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(Ch)) ||
        (Ch == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
      lexNumber();
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(Ch)) || Ch == '_') {
      lexIdentifier();
      continue;
    }
    if (Ch == '\'') {
      if (quoteIsTranspose()) {
        advance();
        push(TokKind::Quote, Loc);
      } else {
        lexString();
      }
      continue;
    }

    advance();
    switch (Ch) {
    case '(':
      push(TokKind::LParen, Loc);
      break;
    case ')':
      push(TokKind::RParen, Loc);
      break;
    case '[':
      push(TokKind::LBracket, Loc);
      break;
    case ']':
      push(TokKind::RBracket, Loc);
      break;
    case ',':
      push(TokKind::Comma, Loc);
      break;
    case ';':
      push(TokKind::Semi, Loc);
      break;
    case ':':
      push(TokKind::Colon, Loc);
      break;
    case '+':
      push(TokKind::Plus, Loc);
      break;
    case '-':
      push(TokKind::Minus, Loc);
      break;
    case '*':
      push(TokKind::Star, Loc);
      break;
    case '/':
      push(TokKind::Slash, Loc);
      break;
    case '\\':
      push(TokKind::Backslash, Loc);
      break;
    case '^':
      push(TokKind::Caret, Loc);
      break;
    case '=':
      if (peek() == '=') {
        advance();
        push(TokKind::EqEq, Loc);
      } else {
        push(TokKind::Assign, Loc);
      }
      break;
    case '<':
      if (peek() == '=') {
        advance();
        push(TokKind::Le, Loc);
      } else {
        push(TokKind::Lt, Loc);
      }
      break;
    case '>':
      if (peek() == '=') {
        advance();
        push(TokKind::Ge, Loc);
      } else {
        push(TokKind::Gt, Loc);
      }
      break;
    case '~':
      if (peek() == '=') {
        advance();
        push(TokKind::NotEq, Loc);
      } else {
        push(TokKind::Tilde, Loc);
      }
      break;
    case '&':
      if (peek() == '&') {
        advance();
        push(TokKind::AmpAmp, Loc);
      } else {
        push(TokKind::Amp, Loc);
      }
      break;
    case '|':
      if (peek() == '|') {
        advance();
        push(TokKind::PipePipe, Loc);
      } else {
        push(TokKind::Pipe, Loc);
      }
      break;
    case '.':
      switch (peek()) {
      case '*':
        advance();
        push(TokKind::DotStar, Loc);
        break;
      case '/':
        advance();
        push(TokKind::DotSlash, Loc);
        break;
      case '\\':
        advance();
        push(TokKind::DotBackslash, Loc);
        break;
      case '^':
        advance();
        push(TokKind::DotCaret, Loc);
        break;
      case '\'':
        advance();
        push(TokKind::DotQuote, Loc);
        break;
      default:
        Diags.error(Loc, "unexpected character '.'");
        break;
      }
      break;
    default:
      Diags.error(Loc, format("unexpected character '%c'", Ch));
      break;
    }
  }
  Token T;
  T.Kind = TokKind::Eof;
  T.Loc = loc();
  Toks.push_back(std::move(T));
  return std::move(Toks);
}

} // namespace

std::vector<Token> majic::lex(std::string_view Source, uint32_t FileId,
                              Diagnostics &Diags) {
  return LexerImpl(Source, FileId, Diags).run();
}
