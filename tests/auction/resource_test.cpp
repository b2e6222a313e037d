#include "auction/resource.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/ensure.hpp"

namespace decloud::auction {
namespace {

TEST(ResourceSchema, BuiltinCriticalResources) {
  ResourceSchema schema;
  EXPECT_EQ(schema.find("cpu"), ResourceSchema::kCpu);
  EXPECT_EQ(schema.find("memory"), ResourceSchema::kMemory);
  EXPECT_EQ(schema.find("disk"), ResourceSchema::kDisk);
}

TEST(ResourceSchema, CustomTypesExtendTheSpace) {
  ResourceSchema schema;
  const ResourceId latency = schema.intern("latency");
  const ResourceId sgx = schema.intern("sgx");
  EXPECT_GT(latency, ResourceSchema::kDisk);
  EXPECT_NE(latency, sgx);
  EXPECT_EQ(schema.name(sgx), "sgx");
  EXPECT_EQ(schema.find("unknown"), std::nullopt);
}

TEST(ResourceVector, SetGetHas) {
  ResourceVector v;
  EXPECT_TRUE(v.empty());
  v.set(2, 5.0);
  v.set(0, 1.0);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_TRUE(v.has(0));
  EXPECT_TRUE(v.has(2));
  EXPECT_FALSE(v.has(1));
  EXPECT_DOUBLE_EQ(v.get(2), 5.0);
  EXPECT_DOUBLE_EQ(v.get(1), 0.0);  // absent reads as 0
}

TEST(ResourceVector, SetOverwritesExisting) {
  ResourceVector v;
  v.set(3, 1.0);
  v.set(3, 9.0);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_DOUBLE_EQ(v.get(3), 9.0);
}

TEST(ResourceVector, EntriesStaySortedByType) {
  ResourceVector v;
  v.set(5, 1.0);
  v.set(1, 2.0);
  v.set(3, 3.0);
  const auto& e = v.entries();
  ASSERT_EQ(e.size(), 3u);
  EXPECT_EQ(e[0].type, 1u);
  EXPECT_EQ(e[1].type, 3u);
  EXPECT_EQ(e[2].type, 5u);
}

TEST(ResourceVector, ConstructorSortsAndValidates) {
  ResourceVector v({{5, 1.0}, {1, 2.0}});
  EXPECT_EQ(v.entries()[0].type, 1u);
  EXPECT_THROW(ResourceVector({{1, 1.0}, {1, 2.0}}), precondition_error);  // duplicate
  EXPECT_THROW(ResourceVector({{1, -1.0}}), precondition_error);           // negative
}

TEST(ResourceVector, NegativeAmountRejected) {
  ResourceVector v;
  EXPECT_THROW(v.set(0, -0.5), precondition_error);
}

TEST(ResourceVector, NonFiniteAmountRejected) {
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    ResourceVector v;
    EXPECT_THROW(v.set(0, bad), precondition_error) << bad;
    EXPECT_THROW(ResourceVector({{0, bad}}), precondition_error) << bad;
  }
}

TEST(ResourceVector, ZeroAmountStillDeclaresType) {
  ResourceVector v;
  v.set(4, 0.0);
  EXPECT_TRUE(v.has(4));
  EXPECT_DOUBLE_EQ(v.get(4), 0.0);
}

TEST(ResourceVector, Norm2) {
  ResourceVector v;
  v.set(0, 3.0);
  v.set(1, 4.0);
  EXPECT_DOUBLE_EQ(v.norm2(), 5.0);
  EXPECT_DOUBLE_EQ(ResourceVector{}.norm2(), 0.0);
}

TEST(ResourceVector, TypesListsSortedIds) {
  ResourceVector v;
  v.set(7, 1.0);
  v.set(2, 1.0);
  EXPECT_EQ(v.types(), (std::vector<ResourceId>{2, 7}));
}

TEST(ResourceVector, Equality) {
  ResourceVector a;
  a.set(0, 1.0);
  ResourceVector b;
  b.set(0, 1.0);
  EXPECT_EQ(a, b);
  b.set(1, 2.0);
  EXPECT_NE(a, b);
}

TEST(TypeSets, CommonTypes) {
  ResourceVector a;
  a.set(0, 1.0);
  a.set(1, 1.0);
  a.set(5, 1.0);
  ResourceVector b;
  b.set(1, 2.0);
  b.set(5, 2.0);
  b.set(9, 2.0);
  EXPECT_EQ(common_types(a, b), (std::vector<ResourceId>{1, 5}));
}

TEST(TypeSets, UnionAndIntersect) {
  const std::vector<ResourceId> a = {0, 2, 4};
  const std::vector<ResourceId> b = {1, 2, 3, 4};
  EXPECT_EQ(union_types(a, b), (std::vector<ResourceId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(intersect_types(a, b), (std::vector<ResourceId>{2, 4}));
  EXPECT_TRUE(intersect_types(a, std::vector<ResourceId>{}).empty());
}

}  // namespace
}  // namespace decloud::auction
