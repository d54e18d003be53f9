#include "src/common/string_util.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace pcor {
namespace {

TEST(StringUtilTest, Format) {
  EXPECT_EQ(strings::Format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strings::Format("%.2f", 1.005), "1.00");
}

TEST(StringUtilTest, HumanDuration) {
  EXPECT_EQ(strings::HumanDuration(0.5), "500ms");
  EXPECT_EQ(strings::HumanDuration(1.5), "1.5s");
  EXPECT_EQ(strings::HumanDuration(61.0), "1m 01.0s");
  EXPECT_EQ(strings::HumanDuration(3700.0), "1h 1m");
}

TEST(StringUtilTest, ParseSizeOr) {
  EXPECT_EQ(strings::ParseSizeOr("42", 0), 42u);
  EXPECT_EQ(strings::ParseSizeOr("bad", 7), 7u);
  EXPECT_EQ(strings::ParseSizeOr("", 7), 7u);
  EXPECT_EQ(strings::ParseSizeOr("12x", 7), 7u);
}

TEST(StringUtilTest, ParseDoubleOr) {
  EXPECT_DOUBLE_EQ(strings::ParseDoubleOr("2.5", 0), 2.5);
  EXPECT_DOUBLE_EQ(strings::ParseDoubleOr("nope", 1.25), 1.25);
}

TEST(StringUtilTest, EnvOverrides) {
  ::setenv("PCOR_TEST_ENV_SIZE", "99", 1);
  EXPECT_EQ(strings::EnvSizeOr("PCOR_TEST_ENV_SIZE", 1), 99u);
  ::unsetenv("PCOR_TEST_ENV_SIZE");
  EXPECT_EQ(strings::EnvSizeOr("PCOR_TEST_ENV_SIZE", 1), 1u);
  ::setenv("PCOR_TEST_ENV_DBL", "0.125", 1);
  EXPECT_DOUBLE_EQ(strings::EnvDoubleOr("PCOR_TEST_ENV_DBL", 9.0), 0.125);
  ::unsetenv("PCOR_TEST_ENV_DBL");
}

}  // namespace
}  // namespace pcor
