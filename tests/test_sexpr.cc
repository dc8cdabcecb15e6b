/** Tests for the S-expression reader/printer and arena. */

#include <gtest/gtest.h>

#include "sexpr/printer.h"
#include "sexpr/reader.h"
#include "sexpr/sexpr.h"
#include "support/panic.h"

namespace mxl {
namespace {

class SexprTest : public ::testing::Test
{
  protected:
    SxArena arena;

    Sx *read(const std::string &s) { return readOne(arena, s); }
    std::string rt(const std::string &s) { return printSx(read(s)); }
};

TEST_F(SexprTest, NestingIsBoundedNotAStackOverflow)
{
    // 100k open parens used to recurse the reader off the host stack.
    EXPECT_THROW(readAll(arena, std::string(100000, '(')), MxlError);
    try {
        readAll(arena, std::string(kMaxReadDepth + 1, '(') +
                           std::string(kMaxReadDepth + 1, ')'));
        ADD_FAILURE() << "nesting past the bound was accepted";
    } catch (const MxlError &e) {
        EXPECT_EQ(e.kind, MxlError::Kind::Fatal);
        EXPECT_NE(std::string(e.what()).find("nested deeper"),
                  std::string::npos);
    }
    // Quotes nest too; the bound itself is accepted.
    EXPECT_THROW(readAll(arena, std::string(100000, '\'') + "x"), MxlError);
    EXPECT_EQ(readAll(arena, std::string(kMaxReadDepth, '(') +
                                 std::string(kMaxReadDepth, ')'))
                  .size(),
              1u);
}

TEST_F(SexprTest, Integers)
{
    EXPECT_EQ(read("42")->ival, 42);
    EXPECT_EQ(read("-17")->ival, -17);
    EXPECT_EQ(read("+5")->ival, 5);
    EXPECT_TRUE(read("0")->isInt());
}

TEST_F(SexprTest, Symbols)
{
    EXPECT_TRUE(read("foo")->isSym("foo"));
    EXPECT_TRUE(read("set-cdr!")->isSym());
    EXPECT_TRUE(read("*global*")->isSym());
    EXPECT_TRUE(read("-")->isSym("-"));
    EXPECT_TRUE(read("1+x")->isSym()); // not a number
}

TEST_F(SexprTest, SymbolInterning)
{
    EXPECT_EQ(read("abc"), arena.sym("abc"));
    EXPECT_EQ(arena.sym("abc"), arena.sym("abc"));
    EXPECT_NE(arena.sym("abc"), arena.sym("abd"));
}

TEST_F(SexprTest, NilAndT)
{
    EXPECT_TRUE(read("nil")->isNil());
    EXPECT_TRUE(read("()")->isNil());
    EXPECT_EQ(read("t"), arena.t());
}

TEST_F(SexprTest, Lists)
{
    Sx *l = read("(a b c)");
    EXPECT_EQ(listLength(l), 3);
    EXPECT_TRUE(listNth(l, 0)->isSym("a"));
    EXPECT_TRUE(listNth(l, 2)->isSym("c"));
}

TEST_F(SexprTest, NestedLists)
{
    EXPECT_EQ(rt("(a (b (c d)) e)"), "(a (b (c d)) e)");
}

TEST_F(SexprTest, DottedPairs)
{
    Sx *p = read("(a . b)");
    EXPECT_TRUE(p->car->isSym("a"));
    EXPECT_TRUE(p->cdr->isSym("b"));
    EXPECT_EQ(rt("(a . b)"), "(a . b)");
    EXPECT_EQ(rt("(a b . c)"), "(a b . c)");
}

TEST_F(SexprTest, Quote)
{
    EXPECT_EQ(rt("'x"), "(quote x)");
    EXPECT_EQ(rt("'(1 2)"), "(quote (1 2))");
    EXPECT_EQ(rt("''x"), "(quote (quote x))");
}

TEST_F(SexprTest, Strings)
{
    Sx *s = read("\"hello world\"");
    EXPECT_TRUE(s->isStr());
    EXPECT_EQ(s->text, "hello world");
    EXPECT_EQ(rt("\"hi\""), "\"hi\"");
    EXPECT_EQ(read("\"a\\nb\"")->text, "a\nb");
    EXPECT_EQ(read("\"q\\\"q\"")->text, "q\"q");
}

TEST_F(SexprTest, Comments)
{
    auto forms = readAll(arena, "; header\n(a) ; trailing\n(b)\n");
    ASSERT_EQ(forms.size(), 2u);
    EXPECT_TRUE(forms[0]->car->isSym("a"));
}

TEST_F(SexprTest, MultipleTopLevelForms)
{
    auto forms = readAll(arena, "1 2 (3 4)");
    ASSERT_EQ(forms.size(), 3u);
    EXPECT_EQ(forms[1]->ival, 2);
}

TEST_F(SexprTest, Errors)
{
    EXPECT_THROW(read("(a b"), MxlError);     // unterminated
    EXPECT_THROW(read(")"), MxlError);        // stray paren
    EXPECT_THROW(read("\"abc"), MxlError);    // unterminated string
    EXPECT_THROW(read(""), MxlError);         // nothing
    EXPECT_THROW(readOne(arena, "a b"), MxlError); // trailing form
    EXPECT_THROW(read("(a . b c)"), MxlError); // malformed dot
}

TEST_F(SexprTest, ListHelpers)
{
    Sx *l = read("(1 2 3 4)");
    auto v = listElems(l);
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[3]->ival, 4);
    EXPECT_THROW(listLength(read("(a . b)")), MxlError);
}

TEST_F(SexprTest, ArenaBuilders)
{
    Sx *l = arena.list({arena.num(1), arena.sym("x")});
    EXPECT_EQ(printSx(l), "(1 x)");
    EXPECT_EQ(printSx(arena.list({})), "nil");
    EXPECT_EQ(printSx(arena.cons(arena.num(1), arena.num(2))), "(1 . 2)");
}

TEST_F(SexprTest, PrinterAtoms)
{
    EXPECT_EQ(printSx(arena.num(-7)), "-7");
    EXPECT_EQ(printSx(arena.sym("sym")), "sym");
    EXPECT_EQ(printSx(arena.nil()), "nil");
}

} // namespace
} // namespace mxl
