#include "minic/frontend.h"

#include <gtest/gtest.h>

#include <string>

#include "interp/interpreter.h"
#include "minic/lexer.h"
#include "minic/lowering.h"
#include "minic/parser.h"
#include "minic/sema.h"
#include "support/error.h"

namespace amdrel::minic {
namespace {

// ---- lexer -----------------------------------------------------------------

TEST(LexerTest, TokenizesOperatorsAndKeywords) {
  const auto tokens = tokenize("int x = 0x1F + 42 << 2; // comment\n");
  ASSERT_GE(tokens.size(), 9u);
  EXPECT_EQ(tokens[0].kind, TokenKind::kKwInt);
  EXPECT_EQ(tokens[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[1].text, "x");
  EXPECT_EQ(tokens[2].kind, TokenKind::kAssign);
  EXPECT_EQ(tokens[3].kind, TokenKind::kIntLiteral);
  EXPECT_EQ(tokens[3].int_value, 0x1F);
  EXPECT_EQ(tokens[5].int_value, 42);
  EXPECT_EQ(tokens[6].kind, TokenKind::kShl);
  EXPECT_EQ(tokens.back().kind, TokenKind::kEof);
}

TEST(LexerTest, DistinguishesCompoundOperators) {
  const auto tokens = tokenize("a += b <<= c >= d >> e && f & g");
  EXPECT_EQ(tokens[1].kind, TokenKind::kPlusAssign);
  EXPECT_EQ(tokens[3].kind, TokenKind::kShlAssign);
  EXPECT_EQ(tokens[5].kind, TokenKind::kGe);
  EXPECT_EQ(tokens[7].kind, TokenKind::kShr);
  EXPECT_EQ(tokens[9].kind, TokenKind::kAmpAmp);
  EXPECT_EQ(tokens[11].kind, TokenKind::kAmp);
}

TEST(LexerTest, TracksLineNumbers) {
  const auto tokens = tokenize("int\nx\n=\n1;");
  EXPECT_EQ(tokens[0].loc.line, 1);
  EXPECT_EQ(tokens[1].loc.line, 2);
  EXPECT_EQ(tokens[3].loc.line, 4);
}

TEST(LexerTest, BlockCommentsAndNesting) {
  const auto tokens = tokenize("a /* x \n y */ b");
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
  EXPECT_THROW(tokenize("/* unterminated"), Error);
}

TEST(LexerTest, RejectsStrayCharacters) {
  EXPECT_THROW(tokenize("int $x;"), Error);
  EXPECT_THROW(tokenize("int x = 99999999999;"), Error);  // > int32
}

// Literals past int64 must fail like any other out-of-range literal,
// not with std::out_of_range from the conversion.
void expect_out_of_range(const std::string& source) {
  try {
    tokenize(source);
    ADD_FAILURE() << "no error for " << source;
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "lexer: integer literal out of 32-bit range at line 2");
  }
}

TEST(LexerTest, RejectsLiteralsPastInt64) {
  expect_out_of_range("\nint x = 99999999999999999999;");
  expect_out_of_range("\nint x = 0x10000000000000000;");
  expect_out_of_range("\nint x = 0xFFFFFFFFFFFFFFFFFFFF;");
  expect_out_of_range("\nint x = 2147483648;");
  expect_out_of_range("\nint x = 0x80000000;");
}

TEST(LexerTest, AcceptsInt32Bounds) {
  const auto tokens =
      tokenize("2147483647 0x7fffffff 0x7FFFFFFF 000000000000000000000042 0");
  EXPECT_EQ(tokens[0].int_value, 2147483647);
  EXPECT_EQ(tokens[1].int_value, 0x7fffffff);
  EXPECT_EQ(tokens[2].int_value, 0x7fffffff);
  EXPECT_EQ(tokens[3].int_value, 42);
  EXPECT_EQ(tokens[3].text, "000000000000000000000042");
  EXPECT_EQ(tokens[4].int_value, 0);
}

// ---- parser ----------------------------------------------------------------

TEST(ParserTest, ParsesFunctionAndGlobals) {
  const Program program = parse(R"(
    int counter;
    const int table[3] = {1, -2, 3};
    int main() { return counter + table[1]; }
  )");
  ASSERT_EQ(program.globals.size(), 2u);
  EXPECT_EQ(program.globals[0]->name, "counter");
  EXPECT_TRUE(program.globals[1]->is_const);
  EXPECT_EQ(program.globals[1]->init_list,
            (std::vector<std::int64_t>{1, -2, 3}));
  ASSERT_EQ(program.functions.size(), 1u);
  EXPECT_EQ(program.functions[0].name, "main");
  EXPECT_TRUE(program.functions[0].returns_value);
}

TEST(ParserTest, PrecedenceMulBeforeAdd) {
  const Program program = parse("int main() { return 1 + 2 * 3; }");
  const Stmt& ret = *program.functions[0].body->body[0];
  ASSERT_EQ(ret.kind, Stmt::Kind::kReturn);
  EXPECT_EQ(ret.value->bin_op, BinaryOp::kAdd);
  EXPECT_EQ(ret.value->rhs->bin_op, BinaryOp::kMul);
}

TEST(ParserTest, ParsesControlFlow) {
  const Program program = parse(R"(
    void f(int n) {
      for (int i = 0; i < n; i++) {
        if (i % 2 == 0 && i != 4) { continue; }
        else { break; }
      }
      while (n > 0) { n--; }
      do { n++; } while (n < 3);
    }
    int main() { f(3); return 0; }
  )");
  EXPECT_EQ(program.functions.size(), 2u);
  const Stmt& body = *program.functions[0].body;
  EXPECT_EQ(body.body[0]->kind, Stmt::Kind::kFor);
  EXPECT_EQ(body.body[1]->kind, Stmt::Kind::kWhile);
  EXPECT_EQ(body.body[2]->kind, Stmt::Kind::kDoWhile);
}

TEST(ParserTest, TwoDimensionalArrays) {
  const Program program = parse(R"(
    int m[4][8];
    int main() { m[1][2] = m[0][0] + 1; return 0; }
  )");
  EXPECT_EQ(program.globals[0]->dims, (std::vector<std::int64_t>{4, 8}));
}

TEST(ParserTest, SyntaxErrorsCarryLocation) {
  try {
    parse("int main() { return 1 +; }");
    FAIL() << "expected parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
  EXPECT_THROW(parse("int main() { int a[0]; }"), Error);
  EXPECT_THROW(parse("int main() {"), Error);
}

// ---- sema ------------------------------------------------------------------

void expect_sema_error(const std::string& source, const char* fragment) {
  try {
    Program program = parse(source);
    check_program(program);
    FAIL() << "expected semantic error containing '" << fragment << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << e.what();
  }
}

TEST(SemaTest, AcceptsWellFormedProgram) {
  Program program = parse(R"(
    const int kTaps[4] = {1, 2, 3, 4};
    int acc;
    int mac(int x[], int n) {
      int sum = 0;
      for (int i = 0; i < n; i++) { sum += x[i] * kTaps[i & 3]; }
      return sum;
    }
    int samples[16];
    int main() { acc = mac(samples, 16); return acc; }
  )");
  EXPECT_NO_THROW(check_program(program));
}

TEST(SemaTest, UndeclaredAndRedeclared) {
  expect_sema_error("int main() { return y; }", "undeclared");
  expect_sema_error("int main() { int x; int x; return 0; }",
                    "redeclaration");
}

TEST(SemaTest, ConstViolations) {
  expect_sema_error(
      "const int t[2] = {1,2}; int main() { t[0] = 3; return 0; }",
      "const");
  expect_sema_error("int main() { const int c = 1; c = 2; return 0; }",
                    "const");
  expect_sema_error("int main() { const int c; return c; }", "initializer");
}

TEST(SemaTest, ArrayMisuse) {
  expect_sema_error("int a[4]; int main() { return a; }", "scalar");
  expect_sema_error("int x; int main() { return x[0]; }", "not an array");
  expect_sema_error("int m[2][2]; int main() { return m[1]; }", "index");
  expect_sema_error("int a[4]; int main() { a = 3; return 0; }", "array");
}

TEST(SemaTest, CallChecks) {
  expect_sema_error("int main() { return f(); }", "undefined function");
  expect_sema_error(
      "int f(int a) { return a; } int main() { return f(); }",
      "argument");
  expect_sema_error(
      "void f() {} int main() { return f(); }", "void");
  expect_sema_error(
      "int f(int a[]) { return a[0]; } int main() { return f(3); }",
      "array");
}

// An int a[] parameter hides its argument's dimensions, so passing it on
// to a parameter that declares dimensions is rejected in sema rather
// than read with the wrong shape (or failing in lowering).
TEST(SemaTest, UnknownLengthArrayCannotReachDeclaredDimensions) {
  expect_sema_error(R"(
    int m[2][4];
    int g(int b[4][2]) { return b[1][1]; }
    int f(int a[]) { return g(a); }
    int main() { m[0][3] = 5; return f(m); }
  )", "array argument 1 of 'g' has unknown dimensions");
  expect_sema_error(R"(
    int v[8];
    int g(int b[4][2]) { return b[1][1]; }
    int f(int a[]) { return g(a); }
    int main() { v[3] = 5; return f(v); }
  )", "array argument 1 of 'g' has unknown dimensions");
  Program program = parse(R"(
    int v[8];
    int g(int b[]) { return b[3]; }
    int f(int a[]) { return g(a); }
    int main() { v[3] = 5; return f(v); }
  )");
  EXPECT_NO_THROW(check_program(program));
}

TEST(SemaTest, RecursionRejected) {
  expect_sema_error(
      "int f(int n) { return f(n - 1); } int main() { return f(3); }",
      "recursion");
  expect_sema_error(R"(
    int g(int n);
    int g(int n) { return h(n); }
    int h(int n) { return g(n); }
    int main() { return g(1); }
  )", "");  // either redefinition (forward decl unsupported) or recursion
}

TEST(SemaTest, BreakOutsideLoop) {
  expect_sema_error("int main() { break; return 0; }", "loop");
}

TEST(SemaTest, MissingMain) {
  expect_sema_error("int f() { return 1; }", "main");
  Program program = parse("int f() { return 1; }");
  EXPECT_NO_THROW(check_program(program, /*require_main=*/false));
}

TEST(SemaTest, ReturnValueMismatch) {
  expect_sema_error("void f() { return 3; } int main() { f(); return 0; }",
                    "void");
  expect_sema_error("int f() { return; } int main() { return f(); }",
                    "return");
}

// ---- lowering --------------------------------------------------------------

TEST(LoweringTest, ProducesValidTac) {
  const ir::TacProgram tac = compile(R"(
    int out[8];
    int scale(int v, int s) { return (v * s) >> 4; }
    int main() {
      for (int i = 0; i < 8; i++) { out[i] = scale(i, 3); }
      return out[7];
    }
  )");
  EXPECT_NO_THROW(tac.validate());
  EXPECT_GT(tac.blocks.size(), 3u);   // loop structure present
  EXPECT_EQ(tac.arrays.size(), 1u);
  EXPECT_EQ(tac.arrays[0].name, "out");
}

TEST(LoweringTest, InliningDuplicatesCallees) {
  const ir::TacProgram once = compile(R"(
    int sq(int v) { return v * v; }
    int main() { return sq(3); }
  )");
  const ir::TacProgram twice = compile(R"(
    int sq(int v) { return v * v; }
    int main() { return sq(3) + sq(4); }
  )");
  auto count_muls = [](const ir::TacProgram& tac) {
    int muls = 0;
    for (const auto& block : tac.blocks) {
      for (const auto& instr : block.body) {
        muls += instr.op == ir::OpKind::kMul;
      }
    }
    return muls;
  };
  EXPECT_EQ(count_muls(once), 1);
  EXPECT_EQ(count_muls(twice), 2);
}

// `!x` lowers to cmpeq(x, 0). The zero's register is numbered before the
// operand's, whatever order the compiler evaluates call arguments in.
TEST(LoweringTest, LogicalNotNumbersItsZeroFirst) {
  const ir::TacProgram tac = compile(
      "int main() { int x = 1; int y = 2; return !(x + y); }\n", "not.mc");
  EXPECT_EQ(tac.to_string(), R"(program not.mc (regs: 8)
bb0.entry:  ; id 0 (entry)
  %0:main.ret = 0
  %2 = 1
  %1:x = %2
  %4 = 2
  %3:y = %4
  %5 = 0
  %6 = add %1:x, %3:y
  %7 = cmpeq %6, %5
  %0:main.ret = %7
  jmp bb1
bb1.program_exit:  ; id 1
  ret %0:main.ret
)");
}

TEST(LoweringTest, TwoDimIndexingEmitsAddressArithmetic) {
  const ir::TacProgram tac = compile(R"(
    int m[4][8];
    int main() { return m[2][5]; }
  )");
  int muls = 0;
  for (const auto& block : tac.blocks) {
    for (const auto& instr : block.body) muls += instr.op == ir::OpKind::kMul;
  }
  EXPECT_EQ(muls, 1);  // row * 8
}

// Inlined callees follow C's lexical scoping: a global a callee reads is
// the global, even where the call site shadows its name with a local.
std::int32_t run_main(const std::string& source) {
  return interp::Interpreter(compile(source)).run().return_value;
}

TEST(LoweringTest, CalleeReadsGlobalShadowedByCallerScalar) {
  EXPECT_EQ(run_main(R"(
    int g = 5;
    int f() { return g; }
    int main() { int g = 100; return f(); }
  )"), 5);
}

TEST(LoweringTest, NestedCalleeReadsGlobalShadowedByItsCaller) {
  EXPECT_EQ(run_main(R"(
    int g = 5;
    int h() { return g; }
    int f() { int g = 40; return h(); }
    int main() { return f(); }
  )"), 5);
}

TEST(LoweringTest, CalleeReadsGlobalScalarShadowedByCallerArray) {
  EXPECT_EQ(run_main(R"(
    int n = 7;
    int f() { return n; }
    int main() { int n[4]; n[0] = 1; return f(); }
  )"), 7);
}

TEST(LoweringTest, CalleeReadsGlobalArrayShadowedByCallerArray) {
  EXPECT_EQ(run_main(R"(
    int t[2];
    int f() { return t[1]; }
    int main() { t[1] = 9; int t[2]; t[1] = 3; return f() * 10 + t[1]; }
  )"), 93);
}

TEST(LoweringTest, ArgumentsMayInlineTheSameCallee) {
  EXPECT_EQ(run_main(R"(
    int a[2];
    int f(int x, int y) { return x - y; }
    int g(int v[], int k) { return v[0] * k; }
    int main() { a[0] = 3; return f(10, f(4, 1)) + g(a, g(a, 2)); }
  )"), 25);
}

// A global's initializer may call a function that reads a later global;
// lowering must refuse that loudly instead of reading an empty slot.
TEST(LoweringTest, GlobalInitializerReadingALaterGlobalRaisesError) {
  EXPECT_THROW(compile(R"(
    int h = f();
    int g = 3;
    int f() { return g; }
    int main() { return h; }
  )"), Error);
  EXPECT_THROW(compile(R"(
    int h = f();
    int t[2];
    int f() { return t[1]; }
    int main() { return h; }
  )"), Error);
}

TEST(LoweringTest, UncheckedProgramRaisesError) {
  const Program unchecked = parse("int g; int main() { return g; }");
  EXPECT_THROW(lower(unchecked), Error);
  Program checked = parse("int g; int main() { return g; }");
  check_program(checked);
  EXPECT_NO_THROW(lower(checked));
}

TEST(LoweringTest, LocalArraysGetUniqueSymbols) {
  const ir::TacProgram tac = compile(R"(
    void f() { int tmp[4]; tmp[0] = 1; }
    void g() { int tmp[4]; tmp[1] = 2; }
    int main() { f(); g(); return 0; }
  )");
  ASSERT_EQ(tac.arrays.size(), 2u);
  EXPECT_NE(tac.arrays[0].name, tac.arrays[1].name);
}

}  // namespace
}  // namespace amdrel::minic
