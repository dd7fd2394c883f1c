#include "util/strings.h"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

namespace procmine {
namespace {

TEST(SplitTest, BasicSplit) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, EmptyInputYieldsOneEmptyField) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(SplitWhitespaceTest, DropsEmptyFields) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(JoinTest, Joins) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(TrimTest, TrimsBothEnds) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim("hi"), "hi");
  EXPECT_EQ(Trim(" \t\n "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("procmine", "proc"));
  EXPECT_FALSE(StartsWith("proc", "procmine"));
  EXPECT_TRUE(EndsWith("file.log", ".log"));
  EXPECT_FALSE(EndsWith("log", "file.log"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(ParseInt64Test, ParsesValidIntegers) {
  EXPECT_EQ(*ParseInt64("0"), 0);
  EXPECT_EQ(*ParseInt64("-17"), -17);
  EXPECT_EQ(*ParseInt64("9223372036854775807"), INT64_MAX);
}

TEST(ParseInt64Test, RejectsMalformed) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("x12").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());
}

TEST(ParseInt64Test, KeepsStrtollDialect) {
  // The from_chars rewrite must keep the old strtoll-style acceptance:
  // leading whitespace and an optional '+' sign are fine, trailing junk
  // and a bare or doubled sign are not.
  EXPECT_EQ(*ParseInt64("  42"), 42);
  EXPECT_EQ(*ParseInt64("+7"), 7);
  EXPECT_EQ(*ParseInt64("\t-3"), -3);
  EXPECT_FALSE(ParseInt64("+-5").ok());
  EXPECT_FALSE(ParseInt64("+").ok());
  EXPECT_FALSE(ParseInt64("42 ").ok());
  EXPECT_FALSE(ParseInt64("   ").ok());
}

TEST(ParseInt64Test, RejectsOverflow) {
  Result<int64_t> r = ParseInt64("92233720368547758080");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(ParseDoubleTest, ParsesValidDoubles) {
  EXPECT_DOUBLE_EQ(*ParseDouble("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("-3"), -3.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("1e-3"), 1e-3);
}

TEST(ParseDoubleTest, RejectsMalformed) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("1..2").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%05.2f", 3.14159), "03.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrFormatTest, HandlesLongOutput) {
  std::string long_str(1000, 'a');
  EXPECT_EQ(StrFormat("%s", long_str.c_str()).size(), 1000u);
}

}  // namespace
}  // namespace procmine
