#include "minic/lexer.h"

#include <cctype>
#include <cstdint>
#include <map>

#include "support/error.h"
#include "support/strings.h"

namespace amdrel::minic {

std::string_view token_kind_name(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEof: return "end of file";
    case TokenKind::kIdentifier: return "identifier";
    case TokenKind::kIntLiteral: return "integer literal";
    case TokenKind::kKwInt: return "'int'";
    case TokenKind::kKwVoid: return "'void'";
    case TokenKind::kKwConst: return "'const'";
    case TokenKind::kKwIf: return "'if'";
    case TokenKind::kKwElse: return "'else'";
    case TokenKind::kKwWhile: return "'while'";
    case TokenKind::kKwDo: return "'do'";
    case TokenKind::kKwFor: return "'for'";
    case TokenKind::kKwReturn: return "'return'";
    case TokenKind::kKwBreak: return "'break'";
    case TokenKind::kKwContinue: return "'continue'";
    case TokenKind::kLParen: return "'('";
    case TokenKind::kRParen: return "')'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kLBracket: return "'['";
    case TokenKind::kRBracket: return "']'";
    case TokenKind::kComma: return "','";
    case TokenKind::kSemicolon: return "';'";
    case TokenKind::kAssign: return "'='";
    case TokenKind::kPlusAssign: return "'+='";
    case TokenKind::kMinusAssign: return "'-='";
    case TokenKind::kStarAssign: return "'*='";
    case TokenKind::kSlashAssign: return "'/='";
    case TokenKind::kPercentAssign: return "'%='";
    case TokenKind::kAmpAssign: return "'&='";
    case TokenKind::kPipeAssign: return "'|='";
    case TokenKind::kCaretAssign: return "'^='";
    case TokenKind::kShlAssign: return "'<<='";
    case TokenKind::kShrAssign: return "'>>='";
    case TokenKind::kPlusPlus: return "'++'";
    case TokenKind::kMinusMinus: return "'--'";
    case TokenKind::kPlus: return "'+'";
    case TokenKind::kMinus: return "'-'";
    case TokenKind::kStar: return "'*'";
    case TokenKind::kSlash: return "'/'";
    case TokenKind::kPercent: return "'%'";
    case TokenKind::kAmp: return "'&'";
    case TokenKind::kPipe: return "'|'";
    case TokenKind::kCaret: return "'^'";
    case TokenKind::kTilde: return "'~'";
    case TokenKind::kBang: return "'!'";
    case TokenKind::kAmpAmp: return "'&&'";
    case TokenKind::kPipePipe: return "'||'";
    case TokenKind::kShl: return "'<<'";
    case TokenKind::kShr: return "'>>'";
    case TokenKind::kEq: return "'=='";
    case TokenKind::kNe: return "'!='";
    case TokenKind::kLt: return "'<'";
    case TokenKind::kLe: return "'<='";
    case TokenKind::kGt: return "'>'";
    case TokenKind::kGe: return "'>='";
  }
  return "?";
}

namespace {

const std::map<std::string, TokenKind>& keywords() {
  static const std::map<std::string, TokenKind> map = {
      {"int", TokenKind::kKwInt},       {"void", TokenKind::kKwVoid},
      {"const", TokenKind::kKwConst},   {"if", TokenKind::kKwIf},
      {"else", TokenKind::kKwElse},     {"while", TokenKind::kKwWhile},
      {"do", TokenKind::kKwDo},         {"for", TokenKind::kKwFor},
      {"return", TokenKind::kKwReturn}, {"break", TokenKind::kKwBreak},
      {"continue", TokenKind::kKwContinue},
  };
  return map;
}

class Lexer {
 public:
  explicit Lexer(const std::string& source) : src_(source) {}

  std::vector<Token> run() {
    std::vector<Token> tokens;
    while (true) {
      skip_whitespace_and_comments();
      Token token;
      token.loc = loc_;
      if (at_end()) {
        token.kind = TokenKind::kEof;
        tokens.push_back(token);
        return tokens;
      }
      const char c = peek();
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        lex_identifier(token);
      } else if (std::isdigit(static_cast<unsigned char>(c))) {
        lex_number(token);
      } else {
        lex_operator(token);
      }
      tokens.push_back(std::move(token));
    }
  }

 private:
  bool at_end() const { return pos_ >= src_.size(); }
  char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }
  char advance() {
    const char c = src_[pos_++];
    if (c == '\n') {
      loc_.line++;
      loc_.column = 1;
    } else {
      loc_.column++;
    }
    return c;
  }
  bool match(char expected) {
    if (at_end() || peek() != expected) return false;
    advance();
    return true;
  }

  void skip_whitespace_and_comments() {
    while (!at_end()) {
      const char c = peek();
      if (std::isspace(static_cast<unsigned char>(c))) {
        advance();
      } else if (c == '/' && peek(1) == '/') {
        while (!at_end() && peek() != '\n') advance();
      } else if (c == '/' && peek(1) == '*') {
        const SourceLoc start = loc_;
        advance();
        advance();
        while (!(peek() == '*' && peek(1) == '/')) {
          require(!at_end(), "lexer: unterminated block comment at line ",
                  start.line);
          advance();
        }
        advance();
        advance();
      } else {
        return;
      }
    }
  }

  void lex_identifier(Token& token) {
    std::string text;
    while (!at_end() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                         peek() == '_')) {
      text.push_back(advance());
    }
    const auto it = keywords().find(text);
    token.kind = it == keywords().end() ? TokenKind::kIdentifier : it->second;
    token.text = std::move(text);
  }

  void lex_number(Token& token) {
    std::string text;
    int base = 10;
    if (peek() == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
      advance();
      advance();
      base = 16;
      while (!at_end() &&
             std::isxdigit(static_cast<unsigned char>(peek()))) {
        text.push_back(advance());
      }
      require(!text.empty(),
              "lexer: bad hex literal at line ", token.loc.line);
    } else {
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        text.push_back(advance());
      }
    }
    // Check the bound after every digit: the value is at most 2^31 - 1
    // before each step, so it never overflows however long the literal.
    std::int64_t value = 0;
    for (const char c : text) {
      const int digit = std::isdigit(static_cast<unsigned char>(c))
                            ? c - '0'
                            : std::tolower(static_cast<unsigned char>(c)) -
                                  'a' + 10;
      value = value * base + digit;
      require(value <= 0x7fffffffLL,
              "lexer: integer literal out of 32-bit range at line ",
              token.loc.line);
    }
    token.kind = TokenKind::kIntLiteral;
    token.int_value = value;
    token.text = std::move(text);
  }

  void lex_operator(Token& token) {
    const char c = advance();
    auto set = [&](TokenKind kind) { token.kind = kind; };
    switch (c) {
      case '(': set(TokenKind::kLParen); break;
      case ')': set(TokenKind::kRParen); break;
      case '{': set(TokenKind::kLBrace); break;
      case '}': set(TokenKind::kRBrace); break;
      case '[': set(TokenKind::kLBracket); break;
      case ']': set(TokenKind::kRBracket); break;
      case ',': set(TokenKind::kComma); break;
      case ';': set(TokenKind::kSemicolon); break;
      case '~': set(TokenKind::kTilde); break;
      case '+':
        set(match('=') ? TokenKind::kPlusAssign
                       : (match('+') ? TokenKind::kPlusPlus : TokenKind::kPlus));
        break;
      case '-':
        set(match('=') ? TokenKind::kMinusAssign
                       : (match('-') ? TokenKind::kMinusMinus
                                     : TokenKind::kMinus));
        break;
      case '*':
        set(match('=') ? TokenKind::kStarAssign : TokenKind::kStar);
        break;
      case '/':
        set(match('=') ? TokenKind::kSlashAssign : TokenKind::kSlash);
        break;
      case '%':
        set(match('=') ? TokenKind::kPercentAssign : TokenKind::kPercent);
        break;
      case '&':
        set(match('&') ? TokenKind::kAmpAmp
                       : (match('=') ? TokenKind::kAmpAssign
                                     : TokenKind::kAmp));
        break;
      case '|':
        set(match('|') ? TokenKind::kPipePipe
                       : (match('=') ? TokenKind::kPipeAssign
                                     : TokenKind::kPipe));
        break;
      case '^':
        set(match('=') ? TokenKind::kCaretAssign : TokenKind::kCaret);
        break;
      case '!':
        set(match('=') ? TokenKind::kNe : TokenKind::kBang);
        break;
      case '=':
        set(match('=') ? TokenKind::kEq : TokenKind::kAssign);
        break;
      case '<':
        if (match('<')) {
          set(match('=') ? TokenKind::kShlAssign : TokenKind::kShl);
        } else {
          set(match('=') ? TokenKind::kLe : TokenKind::kLt);
        }
        break;
      case '>':
        if (match('>')) {
          set(match('=') ? TokenKind::kShrAssign : TokenKind::kShr);
        } else {
          set(match('=') ? TokenKind::kGe : TokenKind::kGt);
        }
        break;
      default:
        fail(cat("lexer: unexpected character '", std::string(1, c),
                 "' at line ", token.loc.line, ", column ",
                 token.loc.column - 1));
    }
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  SourceLoc loc_;
};

}  // namespace

std::vector<Token> tokenize(const std::string& source) {
  return Lexer(source).run();
}

}  // namespace amdrel::minic
