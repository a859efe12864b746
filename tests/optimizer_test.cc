#include <gtest/gtest.h>

#include "lang/interpreter.h"
#include "lang/parser.h"
#include "tests/test_util.h"

namespace tabular::lang {
namespace {

using core::Table;
using core::TabularDatabase;
using ::tabular::testing::N;

Program MustParse(const char* src) {
  auto r = ParseProgram(src);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

// ---------------------------------------------------------------------------
// drop statement (the translators end each scratch table's life with one)
// ---------------------------------------------------------------------------

TEST(DropTest, RemovesNamedTables) {
  TabularDatabase db;
  db.Add(Table::Parse({{"!T", "!A"}, {"#", "1"}}));
  db.Add(Table::Parse({{"!T", "!A"}, {"#", "2"}}));
  db.Add(Table::Parse({{"!U", "!A"}, {"#", "3"}}));
  ASSERT_TRUE(RunProgram(MustParse("drop T;"), &db).ok());
  EXPECT_FALSE(db.HasTableNamed(N("T")));
  EXPECT_TRUE(db.HasTableNamed(N("U")));
}

TEST(DropTest, MissingNameIsANoOp) {
  TabularDatabase db;
  db.Add(Table::Parse({{"!U", "!A"}}));
  ASSERT_TRUE(RunProgram(MustParse("drop Nothing;"), &db).ok());
  EXPECT_EQ(db.size(), 1u);
}

TEST(DropTest, ParsesAndPrints) {
  Program p = MustParse("drop T;");
  EXPECT_EQ(p.ToString(), "drop T;\n");
  auto reparsed = ParseProgram(p.ToString());
  ASSERT_TRUE(reparsed.ok());
}

}  // namespace
}  // namespace tabular::lang
