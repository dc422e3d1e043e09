#include "minic/parser.h"

#include "minic/lexer.h"
#include "support/error.h"
#include "support/strings.h"

namespace amdrel::minic {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Program run() {
    Program program;
    while (!check(TokenKind::kEof)) {
      parse_top_level(program);
    }
    return program;
  }

 private:
  // ---- token helpers ---------------------------------------------------
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool check(TokenKind kind) const { return peek().kind == kind; }
  bool match(TokenKind kind) {
    if (!check(kind)) return false;
    ++pos_;
    return true;
  }
  const Token& advance() { return tokens_[pos_++]; }
  const Token& expect(TokenKind kind, const char* context) {
    if (!check(kind)) {
      error_here(cat("expected ", token_kind_name(kind), " in ", context,
                     ", got ", token_kind_name(peek().kind)));
    }
    return advance();
  }
  [[noreturn]] void error_here(const std::string& message) const {
    fail(cat("parse error at line ", peek().loc.line, ", column ",
             peek().loc.column, ": ", message));
  }

  // ---- declarations ----------------------------------------------------
  void parse_top_level(Program& program) {
    const bool is_const = match(TokenKind::kKwConst);
    if (check(TokenKind::kKwVoid) ||
        (check(TokenKind::kKwInt) && peek(1).kind == TokenKind::kIdentifier &&
         peek(2).kind == TokenKind::kLParen)) {
      require(!is_const, "parse error at line ", peek().loc.line,
              ": functions cannot be const");
      program.functions.push_back(parse_function());
    } else {
      program.globals.push_back(parse_decl(is_const));
    }
  }

  FuncDecl parse_function() {
    FuncDecl func;
    func.loc = peek().loc;
    if (match(TokenKind::kKwVoid)) {
      func.returns_value = false;
    } else {
      expect(TokenKind::kKwInt, "function declaration");
      func.returns_value = true;
    }
    func.name = expect(TokenKind::kIdentifier, "function declaration").text;
    expect(TokenKind::kLParen, "function declaration");
    if (!check(TokenKind::kRParen)) {
      do {
        func.params.push_back(parse_param());
      } while (match(TokenKind::kComma));
    }
    expect(TokenKind::kRParen, "function declaration");
    func.body = parse_block();
    return func;
  }

  ParamDecl parse_param() {
    ParamDecl param;
    param.loc = peek().loc;
    expect(TokenKind::kKwInt, "parameter");
    param.name = expect(TokenKind::kIdentifier, "parameter").text;
    while (match(TokenKind::kLBracket)) {
      param.is_array = true;
      if (check(TokenKind::kIntLiteral)) {
        param.dims.push_back(advance().int_value);
      } else {
        require(param.dims.empty(),
                "parse error at line ", param.loc.line,
                ": only the first dimension of an array parameter may "
                "be omitted");
        param.dims.push_back(0);  // "any length", 1-D only
      }
      expect(TokenKind::kRBracket, "parameter");
    }
    if (param.is_array && param.dims.size() == 1 && param.dims[0] == 0) {
      param.dims.clear();
    }
    return param;
  }

  /// Parses "int name (= expr | [N]... (= {list})?) ;" — `const`/`int`
  /// keywords already consumed by the caller up to `is_const`.
  StmtPtr parse_decl(bool is_const) {
    expect(TokenKind::kKwInt, "declaration");
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kDecl;
    stmt->is_const = is_const;
    stmt->loc = peek().loc;
    stmt->name = expect(TokenKind::kIdentifier, "declaration").text;
    while (match(TokenKind::kLBracket)) {
      const Token& size = expect(TokenKind::kIntLiteral, "array size");
      require(size.int_value > 0, "parse error at line ", size.loc.line,
              ": array size must be positive");
      stmt->dims.push_back(size.int_value);
      expect(TokenKind::kRBracket, "declaration");
    }
    if (match(TokenKind::kAssign)) {
      if (stmt->dims.empty()) {
        stmt->value = parse_expr();
      } else {
        expect(TokenKind::kLBrace, "array initializer");
        if (!check(TokenKind::kRBrace)) {
          do {
            stmt->init_list.push_back(parse_init_constant());
          } while (match(TokenKind::kComma));
        }
        expect(TokenKind::kRBrace, "array initializer");
      }
    }
    expect(TokenKind::kSemicolon, "declaration");
    return stmt;
  }

  std::int64_t parse_init_constant() {
    const bool negative = match(TokenKind::kMinus);
    const Token& literal = expect(TokenKind::kIntLiteral, "array initializer");
    return negative ? -literal.int_value : literal.int_value;
  }

  // ---- statements --------------------------------------------------------
  StmtPtr parse_block() {
    auto block = std::make_unique<Stmt>();
    block->kind = Stmt::Kind::kBlock;
    block->loc = peek().loc;
    expect(TokenKind::kLBrace, "block");
    while (!check(TokenKind::kRBrace)) {
      require(!check(TokenKind::kEof), "parse error: unterminated block");
      block->body.push_back(parse_statement());
    }
    expect(TokenKind::kRBrace, "block");
    return block;
  }

  StmtPtr parse_statement() {
    switch (peek().kind) {
      case TokenKind::kLBrace:
        return parse_block();
      case TokenKind::kKwConst: {
        advance();
        return parse_decl(/*is_const=*/true);
      }
      case TokenKind::kKwInt:
        return parse_decl(/*is_const=*/false);
      case TokenKind::kKwIf:
        return parse_if();
      case TokenKind::kKwWhile:
        return parse_while();
      case TokenKind::kKwDo:
        return parse_do_while();
      case TokenKind::kKwFor:
        return parse_for();
      case TokenKind::kKwReturn: {
        auto stmt = std::make_unique<Stmt>();
        stmt->kind = Stmt::Kind::kReturn;
        stmt->loc = advance().loc;
        if (!check(TokenKind::kSemicolon)) stmt->value = parse_expr();
        expect(TokenKind::kSemicolon, "return statement");
        return stmt;
      }
      case TokenKind::kKwBreak: {
        auto stmt = std::make_unique<Stmt>();
        stmt->kind = Stmt::Kind::kBreak;
        stmt->loc = advance().loc;
        expect(TokenKind::kSemicolon, "break statement");
        return stmt;
      }
      case TokenKind::kKwContinue: {
        auto stmt = std::make_unique<Stmt>();
        stmt->kind = Stmt::Kind::kContinue;
        stmt->loc = advance().loc;
        expect(TokenKind::kSemicolon, "continue statement");
        return stmt;
      }
      default: {
        StmtPtr stmt = parse_assign_or_expr();
        expect(TokenKind::kSemicolon, "statement");
        return stmt;
      }
    }
  }

  StmtPtr parse_if() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kIf;
    stmt->loc = advance().loc;  // 'if'
    expect(TokenKind::kLParen, "if condition");
    stmt->cond = parse_expr();
    expect(TokenKind::kRParen, "if condition");
    stmt->then_stmt = parse_statement();
    if (match(TokenKind::kKwElse)) stmt->else_stmt = parse_statement();
    return stmt;
  }

  StmtPtr parse_while() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kWhile;
    stmt->loc = advance().loc;  // 'while'
    expect(TokenKind::kLParen, "while condition");
    stmt->cond = parse_expr();
    expect(TokenKind::kRParen, "while condition");
    stmt->body_stmt = parse_statement();
    return stmt;
  }

  StmtPtr parse_do_while() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kDoWhile;
    stmt->loc = advance().loc;  // 'do'
    stmt->body_stmt = parse_statement();
    expect(TokenKind::kKwWhile, "do-while");
    expect(TokenKind::kLParen, "do-while condition");
    stmt->cond = parse_expr();
    expect(TokenKind::kRParen, "do-while condition");
    expect(TokenKind::kSemicolon, "do-while");
    return stmt;
  }

  StmtPtr parse_for() {
    auto stmt = std::make_unique<Stmt>();
    stmt->kind = Stmt::Kind::kFor;
    stmt->loc = advance().loc;  // 'for'
    expect(TokenKind::kLParen, "for header");
    if (!match(TokenKind::kSemicolon)) {
      if (check(TokenKind::kKwInt)) {
        stmt->for_init = parse_decl(/*is_const=*/false);  // eats ';'
      } else {
        stmt->for_init = parse_assign_or_expr();
        expect(TokenKind::kSemicolon, "for header");
      }
    }
    if (!check(TokenKind::kSemicolon)) stmt->cond = parse_expr();
    expect(TokenKind::kSemicolon, "for header");
    if (!check(TokenKind::kRParen)) stmt->for_step = parse_assign_or_expr();
    expect(TokenKind::kRParen, "for header");
    stmt->body_stmt = parse_statement();
    return stmt;
  }

  /// assignment | compound assignment | ++/-- | expression statement
  StmtPtr parse_assign_or_expr() {
    ExprPtr first = parse_expr();
    auto stmt = std::make_unique<Stmt>();
    stmt->loc = first->loc;

    auto compound_of = [](TokenKind kind) -> std::optional<BinaryOp> {
      switch (kind) {
        case TokenKind::kPlusAssign: return BinaryOp::kAdd;
        case TokenKind::kMinusAssign: return BinaryOp::kSub;
        case TokenKind::kStarAssign: return BinaryOp::kMul;
        case TokenKind::kSlashAssign: return BinaryOp::kDiv;
        case TokenKind::kPercentAssign: return BinaryOp::kMod;
        case TokenKind::kAmpAssign: return BinaryOp::kAnd;
        case TokenKind::kPipeAssign: return BinaryOp::kOr;
        case TokenKind::kCaretAssign: return BinaryOp::kXor;
        case TokenKind::kShlAssign: return BinaryOp::kShl;
        case TokenKind::kShrAssign: return BinaryOp::kShr;
        default: return std::nullopt;
      }
    };

    if (check(TokenKind::kAssign)) {
      advance();
      stmt->kind = Stmt::Kind::kAssign;
      stmt->target = std::move(first);
      stmt->value = parse_expr();
      return stmt;
    }
    if (const auto op = compound_of(peek().kind)) {
      advance();
      stmt->kind = Stmt::Kind::kAssign;
      stmt->target = std::move(first);
      stmt->compound = op;
      stmt->value = parse_expr();
      return stmt;
    }
    if (check(TokenKind::kPlusPlus) || check(TokenKind::kMinusMinus)) {
      const bool increment = advance().kind == TokenKind::kPlusPlus;
      stmt->kind = Stmt::Kind::kAssign;
      stmt->target = std::move(first);
      stmt->compound = increment ? BinaryOp::kAdd : BinaryOp::kSub;
      auto one = std::make_unique<Expr>();
      one->kind = Expr::Kind::kIntLit;
      one->value = 1;
      one->loc = stmt->loc;
      stmt->value = std::move(one);
      return stmt;
    }
    stmt->kind = Stmt::Kind::kExpr;
    stmt->value = std::move(first);
    return stmt;
  }

  // ---- expressions (precedence climbing) ---------------------------------
  ExprPtr parse_expr() { return parse_logical_or(); }

  ExprPtr make_binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
    auto expr = std::make_unique<Expr>();
    expr->kind = Expr::Kind::kBinary;
    expr->bin_op = op;
    expr->loc = lhs->loc;
    expr->lhs = std::move(lhs);
    expr->rhs = std::move(rhs);
    return expr;
  }

  ExprPtr parse_logical_or() {
    ExprPtr lhs = parse_logical_and();
    while (match(TokenKind::kPipePipe)) {
      lhs = make_binary(BinaryOp::kLogicalOr, std::move(lhs),
                        parse_logical_and());
    }
    return lhs;
  }

  ExprPtr parse_logical_and() {
    ExprPtr lhs = parse_bit_or();
    while (match(TokenKind::kAmpAmp)) {
      lhs = make_binary(BinaryOp::kLogicalAnd, std::move(lhs), parse_bit_or());
    }
    return lhs;
  }

  ExprPtr parse_bit_or() {
    ExprPtr lhs = parse_bit_xor();
    while (match(TokenKind::kPipe)) {
      lhs = make_binary(BinaryOp::kOr, std::move(lhs), parse_bit_xor());
    }
    return lhs;
  }

  ExprPtr parse_bit_xor() {
    ExprPtr lhs = parse_bit_and();
    while (match(TokenKind::kCaret)) {
      lhs = make_binary(BinaryOp::kXor, std::move(lhs), parse_bit_and());
    }
    return lhs;
  }

  ExprPtr parse_bit_and() {
    ExprPtr lhs = parse_equality();
    while (match(TokenKind::kAmp)) {
      lhs = make_binary(BinaryOp::kAnd, std::move(lhs), parse_equality());
    }
    return lhs;
  }

  ExprPtr parse_equality() {
    ExprPtr lhs = parse_relational();
    while (check(TokenKind::kEq) || check(TokenKind::kNe)) {
      const BinaryOp op = advance().kind == TokenKind::kEq ? BinaryOp::kEq
                                                           : BinaryOp::kNe;
      lhs = make_binary(op, std::move(lhs), parse_relational());
    }
    return lhs;
  }

  ExprPtr parse_relational() {
    ExprPtr lhs = parse_shift();
    while (true) {
      BinaryOp op;
      if (check(TokenKind::kLt)) op = BinaryOp::kLt;
      else if (check(TokenKind::kLe)) op = BinaryOp::kLe;
      else if (check(TokenKind::kGt)) op = BinaryOp::kGt;
      else if (check(TokenKind::kGe)) op = BinaryOp::kGe;
      else return lhs;
      advance();
      lhs = make_binary(op, std::move(lhs), parse_shift());
    }
  }

  ExprPtr parse_shift() {
    ExprPtr lhs = parse_additive();
    while (check(TokenKind::kShl) || check(TokenKind::kShr)) {
      const BinaryOp op = advance().kind == TokenKind::kShl ? BinaryOp::kShl
                                                            : BinaryOp::kShr;
      lhs = make_binary(op, std::move(lhs), parse_additive());
    }
    return lhs;
  }

  ExprPtr parse_additive() {
    ExprPtr lhs = parse_multiplicative();
    while (check(TokenKind::kPlus) || check(TokenKind::kMinus)) {
      const BinaryOp op = advance().kind == TokenKind::kPlus ? BinaryOp::kAdd
                                                             : BinaryOp::kSub;
      lhs = make_binary(op, std::move(lhs), parse_multiplicative());
    }
    return lhs;
  }

  ExprPtr parse_multiplicative() {
    ExprPtr lhs = parse_unary();
    while (true) {
      BinaryOp op;
      if (check(TokenKind::kStar)) op = BinaryOp::kMul;
      else if (check(TokenKind::kSlash)) op = BinaryOp::kDiv;
      else if (check(TokenKind::kPercent)) op = BinaryOp::kMod;
      else return lhs;
      advance();
      lhs = make_binary(op, std::move(lhs), parse_unary());
    }
  }

  ExprPtr parse_unary() {
    UnaryOp op;
    if (match(TokenKind::kMinus)) op = UnaryOp::kNeg;
    else if (match(TokenKind::kTilde)) op = UnaryOp::kBitNot;
    else if (match(TokenKind::kBang)) op = UnaryOp::kLogicalNot;
    else if (match(TokenKind::kPlus)) return parse_unary();  // unary +
    else return parse_postfix();
    auto expr = std::make_unique<Expr>();
    expr->kind = Expr::Kind::kUnary;
    expr->un_op = op;
    expr->loc = peek().loc;
    expr->lhs = parse_unary();
    return expr;
  }

  ExprPtr parse_postfix() {
    if (check(TokenKind::kIntLiteral)) {
      auto expr = std::make_unique<Expr>();
      expr->kind = Expr::Kind::kIntLit;
      const Token& token = advance();
      expr->value = token.int_value;
      expr->loc = token.loc;
      return expr;
    }
    if (match(TokenKind::kLParen)) {
      ExprPtr inner = parse_expr();
      expect(TokenKind::kRParen, "parenthesized expression");
      return inner;
    }
    if (check(TokenKind::kIdentifier)) {
      const Token& token = advance();
      if (match(TokenKind::kLParen)) {
        auto call = std::make_unique<Expr>();
        call->kind = Expr::Kind::kCall;
        call->name = token.text;
        call->loc = token.loc;
        if (!check(TokenKind::kRParen)) {
          do {
            call->args.push_back(parse_expr());
          } while (match(TokenKind::kComma));
        }
        expect(TokenKind::kRParen, "call");
        return call;
      }
      if (check(TokenKind::kLBracket)) {
        auto index = std::make_unique<Expr>();
        index->kind = Expr::Kind::kIndex;
        index->name = token.text;
        index->loc = token.loc;
        while (match(TokenKind::kLBracket)) {
          index->indices.push_back(parse_expr());
          expect(TokenKind::kRBracket, "array index");
        }
        return index;
      }
      auto ref = std::make_unique<Expr>();
      ref->kind = Expr::Kind::kVarRef;
      ref->name = token.text;
      ref->loc = token.loc;
      return ref;
    }
    error_here(cat("unexpected ", token_kind_name(peek().kind),
                   " in expression"));
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

Program parse(const std::string& source) {
  return Parser(tokenize(source)).run();
}

}  // namespace amdrel::minic
