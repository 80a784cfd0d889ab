//===- ast/Lexer.h - MATLAB lexer ------------------------------*- C++ -*-===//
//
// Part of the MaJIC reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MATLAB lexer. Newlines are significant (statement and matrix-row
/// separators) and each token records whether whitespace preceded it, which
/// the parser needs to resolve the classic [1 -2] vs [1 - 2] ambiguity.
/// The quote character is disambiguated here: after an identifier, a number,
/// a closing bracket or another transpose it is the transpose operator;
/// anywhere else it opens a string literal.
///
/// The lexer carries no state across a newline: a comment or a string ends
/// at it, a `...` continuation swallows it, there are no block comments, and
/// a line's first quote opens a string whatever came before. So lexing each
/// line of a buffer alone gives the kinds and texts the whole buffer's lex
/// gives it (SourceSnooper::definedNames relies on this).
///
//===----------------------------------------------------------------------===//

#ifndef MAJIC_AST_LEXER_H
#define MAJIC_AST_LEXER_H

#include "support/Diagnostics.h"
#include "support/SourceLoc.h"

#include <string>
#include <string_view>
#include <vector>

namespace majic {

enum class TokKind : uint8_t {
  Eof,
  Newline,
  Identifier,
  Number, // carries NumValue / IsImaginary
  String,

  // Keywords.
  KwFunction,
  KwIf,
  KwElseif,
  KwElse,
  KwEnd,
  KwFor,
  KwWhile,
  KwBreak,
  KwContinue,
  KwReturn,
  KwClear,

  // Punctuation.
  LParen,
  RParen,
  LBracket,
  RBracket,
  Comma,
  Semi,
  Colon,
  Assign, // =

  // Operators.
  Plus,
  Minus,
  Star,     // *
  Slash,    // /
  Backslash,
  Caret,    // ^
  DotStar,  // .*
  DotSlash, // ./
  DotBackslash,
  DotCaret,     // .^
  Quote,        // ' as transpose
  DotQuote,     // .'
  Lt,
  Le,
  Gt,
  Ge,
  EqEq,
  NotEq, // ~=
  Amp,
  Pipe,
  AmpAmp,
  PipePipe,
  Tilde, // ~
};

const char *tokKindName(TokKind K);

struct Token {
  TokKind Kind = TokKind::Eof;
  SourceLoc Loc;
  std::string Text;         // identifier / string contents
  double NumValue = 0;      // number
  bool IsImaginary = false; // 2i / 2j
  bool SpaceBefore = false; // whitespace (not newline) immediately before
};

/// Tokenizes one buffer. Errors are reported to \p Diags; lexing continues
/// after errors so the parser can report more issues.
std::vector<Token> lex(std::string_view Source, uint32_t FileId,
                       Diagnostics &Diags);

} // namespace majic

#endif // MAJIC_AST_LEXER_H
