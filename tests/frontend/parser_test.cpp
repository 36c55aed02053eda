#include "frontend/parser.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

namespace asipfb::fe {
namespace {

TranslationUnit parse_ok(std::string_view src) {
  DiagnosticEngine diags;
  auto unit = parse(src, diags);
  EXPECT_FALSE(diags.has_errors())
      << (diags.has_errors() ? diags.diagnostics()[0].to_string() : "");
  return unit;
}

bool parse_fails(std::string_view src) {
  DiagnosticEngine diags;
  (void)parse(src, diags);
  return diags.has_errors();
}

TEST(Parser, GlobalScalarAndArray) {
  const auto unit = parse_ok("int a; float b[10];");
  ASSERT_EQ(unit.globals.size(), 2u);
  EXPECT_EQ(unit.globals[0].name, "a");
  EXPECT_FALSE(unit.globals[0].is_array);
  EXPECT_EQ(unit.globals[1].name, "b");
  EXPECT_TRUE(unit.globals[1].is_array);
  EXPECT_EQ(unit.globals[1].array_size, 10);
  EXPECT_EQ(unit.globals[1].type, ir::Type::F32);
}

TEST(Parser, GlobalInitializerList) {
  const auto unit = parse_ok("float h[3] = { 0.1, -0.5, 2.0 };");
  ASSERT_EQ(unit.globals.size(), 1u);
  EXPECT_EQ(unit.globals[0].init.size(), 3u);
  EXPECT_EQ(unit.globals[0].init[1]->kind, ExprKind::Unary);
}

TEST(Parser, FunctionWithParams) {
  const auto unit = parse_ok("int f(int a, float b) { return a; }");
  ASSERT_EQ(unit.functions.size(), 1u);
  const auto& fn = unit.functions[0];
  EXPECT_EQ(fn.name, "f");
  EXPECT_EQ(fn.return_type, ir::Type::I32);
  ASSERT_EQ(fn.params.size(), 2u);
  EXPECT_EQ(fn.params[0].first, "a");
  EXPECT_EQ(fn.params[1].second, ir::Type::F32);
}

TEST(Parser, VoidFunctionAndEmptyParamList) {
  const auto unit = parse_ok("void f() {} void g(void) {}");
  ASSERT_EQ(unit.functions.size(), 2u);
  EXPECT_EQ(unit.functions[0].return_type, ir::Type::Void);
  EXPECT_TRUE(unit.functions[1].params.empty());
}

TEST(Parser, PrecedenceMulBeforeAdd) {
  const auto unit = parse_ok("int f() { return 1 + 2 * 3; }");
  const Stmt& ret = *unit.functions[0].body->body[0];
  ASSERT_EQ(ret.kind, StmtKind::Return);
  const Expr& top = *ret.expr;
  ASSERT_EQ(top.kind, ExprKind::Binary);
  EXPECT_EQ(top.op, Tok::Plus);
  EXPECT_EQ(top.children[1]->op, Tok::Star);
}

TEST(Parser, PrecedenceShiftVsCompare) {
  // a << b < c parses as (a << b) < c.
  const auto unit = parse_ok("int f(int a, int b, int c) { return a << b < c; }");
  const Expr& top = *unit.functions[0].body->body[0]->expr;
  EXPECT_EQ(top.op, Tok::Lt);
  EXPECT_EQ(top.children[0]->op, Tok::Shl);
}

TEST(Parser, ParenthesesOverridePrecedence) {
  const auto unit = parse_ok("int f() { return (1 + 2) * 3; }");
  const Expr& top = *unit.functions[0].body->body[0]->expr;
  EXPECT_EQ(top.op, Tok::Star);
  EXPECT_EQ(top.children[0]->op, Tok::Plus);
}

TEST(Parser, AssignmentRightAssociative) {
  const auto unit = parse_ok("int f(int a, int b) { a = b = 1; return a; }");
  const Expr& top = *unit.functions[0].body->body[0]->expr;
  ASSERT_EQ(top.kind, ExprKind::Assign);
  EXPECT_EQ(top.children[1]->kind, ExprKind::Assign);
}

TEST(Parser, ElseBindsToNearestIf) {
  const auto unit =
      parse_ok("int f(int a) { if (a) if (a) return 1; else return 2; return 3; }");
  const Stmt& outer = *unit.functions[0].body->body[0];
  ASSERT_EQ(outer.kind, StmtKind::If);
  EXPECT_EQ(outer.body.size(), 1u) << "outer if has no else";
  const Stmt& inner = *outer.body[0];
  ASSERT_EQ(inner.kind, StmtKind::If);
  EXPECT_EQ(inner.body.size(), 2u) << "inner if owns the else";
}

TEST(Parser, ForWithDeclInit) {
  const auto unit = parse_ok("int f() { for (int i = 0; i < 3; i++) {} return 0; }");
  const Stmt& loop = *unit.functions[0].body->body[0];
  ASSERT_EQ(loop.kind, StmtKind::For);
  ASSERT_NE(loop.init_stmt, nullptr);
  EXPECT_EQ(loop.init_stmt->kind, StmtKind::Decl);
  EXPECT_NE(loop.expr, nullptr);
  EXPECT_NE(loop.expr2, nullptr);
}

TEST(Parser, ForAllPartsOptional) {
  const auto unit = parse_ok("int f() { for (;;) { break; } return 0; }");
  const Stmt& loop = *unit.functions[0].body->body[0];
  EXPECT_EQ(loop.init_stmt, nullptr);
  EXPECT_EQ(loop.expr, nullptr);
  EXPECT_EQ(loop.expr2, nullptr);
}

TEST(Parser, CastExpression) {
  const auto unit = parse_ok("float f(int a) { return (float)a; }");
  const Expr& top = *unit.functions[0].body->body[0]->expr;
  ASSERT_EQ(top.kind, ExprKind::Cast);
  EXPECT_EQ(top.cast_type, ir::Type::F32);
}

TEST(Parser, IndexAndCallPostfix) {
  const auto unit = parse_ok("int a[5]; int f() { return a[f() + 1]; }");
  const Expr& top = *unit.functions[0].body->body[0]->expr;
  ASSERT_EQ(top.kind, ExprKind::Index);
  EXPECT_EQ(top.name, "a");
  EXPECT_EQ(top.children[0]->kind, ExprKind::Binary);
}

TEST(Parser, PrefixAndPostfixIncDec) {
  const auto unit = parse_ok("int f(int a) { ++a; a--; return a; }");
  const Expr& pre = *unit.functions[0].body->body[0]->expr;
  EXPECT_TRUE(pre.is_prefix);
  const Expr& post = *unit.functions[0].body->body[1]->expr;
  EXPECT_FALSE(post.is_prefix);
  EXPECT_EQ(post.op, Tok::MinusMinus);
}

TEST(Parser, UnaryOperators) {
  const auto unit = parse_ok("int f(int a) { return -a + !a + ~a; }");
  EXPECT_EQ(unit.functions.size(), 1u);
}

TEST(Parser, ErrorMissingSemicolon) {
  EXPECT_TRUE(parse_fails("int f() { return 1 }"));
}

TEST(Parser, ErrorAssignToRvalue) {
  EXPECT_TRUE(parse_fails("int f() { 1 = 2; return 0; }"));
}

TEST(Parser, ErrorVoidGlobal) {
  EXPECT_TRUE(parse_fails("void x;"));
}

TEST(Parser, ErrorUnbalancedParens) {
  EXPECT_TRUE(parse_fails("int f() { return (1 + 2; }"));
}

TEST(Parser, EmptyStatementAllowed) {
  EXPECT_FALSE(parse_fails("int f() { ;;; return 0; }"));
}

// --- AST depth bound ----------------------------------------------------------
// Each 100,000-level shape below used to overflow the stack (in the parser
// itself, or in the walkers after it); now each is one located diagnostic.

std::string repeat(std::string_view text, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += text;
  return out;
}

/// `int main() { <prologue> return <expr>; }`, built by appends (GCC 12
/// flags operator+ chains with a false -Wrestrict).
std::string main_returning(std::string_view prologue, std::string_view expr) {
  std::string out = "int main() { int x; ";
  out += prologue;
  out += " return ";
  out += expr;
  out += "; }";
  return out;
}

std::string nested_parens(int n) {
  std::string expr = repeat("(", n);
  expr += "1";
  expr += repeat(")", n);
  return main_returning("x = 1;", expr);
}

std::string sum_of_ones(int terms) {
  std::string out = "1";
  out += repeat("+1", terms - 1);
  return out;
}

std::string long_sum(int terms) {
  return main_returning("x = 1;", sum_of_ones(terms));
}

std::string nested_ifs(int n) {
  std::string prologue = "x = 1; ";
  prologue += repeat("if (x) ", n);
  prologue += "x = 2;";
  return main_returning(prologue, "x");
}

void expect_too_deep(const std::string& src) {
  DiagnosticEngine diags;
  const auto unit = parse(src, diags);
  ASSERT_EQ(diags.diagnostics().size(), 1u);
  const Diagnostic& d = diags.diagnostics()[0];
  EXPECT_NE(d.message.find("maximum AST depth"), std::string::npos)
      << d.to_string();
  EXPECT_EQ(d.loc.line, 1);
  EXPECT_GT(d.loc.column, 1) << "the diagnostic points into the nesting";
  EXPECT_TRUE(unit.functions.empty());
}

TEST(Parser, HundredThousandNestedParensAreDiagnosed) {
  expect_too_deep(nested_parens(100000));
}

TEST(Parser, HundredThousandTermSumIsDiagnosed) {
  // A left-associative chain: parse_binary's loop builds it without deep
  // recursion, so only the per-node count catches it.
  expect_too_deep(long_sum(100000));
}

TEST(Parser, HundredThousandNestedIfsAreDiagnosed) {
  expect_too_deep(nested_ifs(100000));
}

TEST(Parser, NestingWellInsideTheBoundParses) {
  (void)parse_ok(nested_parens(400));
  (void)parse_ok(long_sum(400));
  (void)parse_ok(nested_ifs(400));
}

TEST(Parser, ChainDepthsAddUpAcrossParentheses) {
  // Two 300-term chains: each fits alone, but nesting one as the first
  // operand of the other puts its leaves 600 levels down.
  (void)parse_ok(long_sum(300));
  std::string expr = "(";
  expr += sum_of_ones(300);
  expr += ")";
  expr += repeat("+1", 299);
  expect_too_deep(main_returning("x = 1;", expr));
}

}  // namespace
}  // namespace asipfb::fe
