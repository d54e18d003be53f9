#include "src/data/schema.h"

#include <gtest/gtest.h>

namespace pcor {
namespace {

Schema MakeSchema() {
  Schema s;
  s.AddAttribute("Jobtitle", {"CEO", "MedicalDoctor", "Lawyer"}).CheckOK();
  s.AddAttribute("City", {"Montreal", "Ottawa", "Toronto"}).CheckOK();
  s.AddAttribute("District", {"Business", "Historic", "Diplomatic"})
      .CheckOK();
  s.SetMetricName("Salary");
  return s;
}

TEST(SchemaTest, BasicShape) {
  Schema s = MakeSchema();
  EXPECT_EQ(s.num_attributes(), 3u);
  EXPECT_EQ(s.total_values(), 9u);
  EXPECT_EQ(s.metric_name(), "Salary");
  EXPECT_EQ(s.attribute(1).name, "City");
  EXPECT_EQ(s.attribute(1).domain_size(), 3u);
}

TEST(SchemaTest, ValueOffsetsArePrefixSums) {
  Schema s = MakeSchema();
  EXPECT_EQ(s.value_offset(0), 0u);
  EXPECT_EQ(s.value_offset(1), 3u);
  EXPECT_EQ(s.value_offset(2), 6u);
}

TEST(SchemaTest, RejectsEmptyDomain) {
  Schema s;
  EXPECT_TRUE(s.AddAttribute("X", {}).IsInvalidArgument());
}

TEST(SchemaTest, RejectsDuplicateAttribute) {
  Schema s;
  ASSERT_TRUE(s.AddAttribute("X", {"a"}).ok());
  EXPECT_EQ(s.AddAttribute("X", {"b"}).code(), StatusCode::kAlreadyExists);
}

TEST(SchemaTest, RejectsDuplicateDomainValue) {
  Schema s;
  EXPECT_TRUE(s.AddAttribute("X", {"a", "a"}).IsInvalidArgument());
}

TEST(SchemaTest, AttributeIndexLookup) {
  Schema s = MakeSchema();
  EXPECT_EQ(*s.AttributeIndex("District"), 2u);
  EXPECT_TRUE(s.AttributeIndex("Nope").status().IsNotFound());
}

TEST(SchemaTest, BitToAttributeValueMapsTheWholeVector) {
  Schema s = MakeSchema();
  size_t attr = 99, value = 99;
  ASSERT_TRUE(s.BitToAttributeValue(0, &attr, &value).ok());
  EXPECT_EQ(attr, 0u);
  EXPECT_EQ(value, 0u);
  ASSERT_TRUE(s.BitToAttributeValue(5, &attr, &value).ok());
  EXPECT_EQ(attr, 1u);
  EXPECT_EQ(value, 2u);
  ASSERT_TRUE(s.BitToAttributeValue(8, &attr, &value).ok());
  EXPECT_EQ(attr, 2u);
  EXPECT_EQ(value, 2u);
  EXPECT_TRUE(s.BitToAttributeValue(9, &attr, &value).IsOutOfRange());
}

TEST(SchemaTest, ValueCode) {
  Schema s = MakeSchema();
  EXPECT_EQ(*s.ValueCode(0, "Lawyer"), 2u);
  EXPECT_TRUE(s.ValueCode(0, "Plumber").status().IsNotFound());
  EXPECT_TRUE(s.ValueCode(7, "CEO").status().IsOutOfRange());
}

TEST(SchemaTest, Equality) {
  EXPECT_TRUE(MakeSchema() == MakeSchema());
  Schema other = MakeSchema();
  other.SetMetricName("Other");
  EXPECT_FALSE(MakeSchema() == other);
}

}  // namespace
}  // namespace pcor
