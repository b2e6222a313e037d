#include "auction/bid.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/ensure.hpp"
#include "test_helpers.hpp"

namespace decloud::auction {
namespace {

using test::OfferBuilder;
using test::RequestBuilder;

TEST(RequestValidation, DefaultBuilderIsValid) {
  EXPECT_NO_THROW(validate(RequestBuilder(1).build()));
}

TEST(RequestValidation, NegativeBidRejected) {
  EXPECT_THROW(validate(RequestBuilder(1).bid(-0.01).build()), precondition_error);
}

TEST(RequestValidation, NonFiniteValuesRejected) {
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(validate(RequestBuilder(1).bid(bad).build()), precondition_error) << bad;
    Request r = RequestBuilder(1).build();
    r.reputation = bad;
    EXPECT_THROW(validate(r), precondition_error) << bad;
    r = RequestBuilder(1).build();
    r.location = Location{bad, 0.0};
    EXPECT_THROW(validate(r), precondition_error) << bad;
    r.location = Location{0.0, bad};
    EXPECT_THROW(validate(r), precondition_error) << bad;
  }
}

TEST(RequestValidation, ZeroBidAllowed) {
  // Constraint (12) allows zero valuations.
  EXPECT_NO_THROW(validate(RequestBuilder(1).bid(0.0).build()));
}

TEST(RequestValidation, EmptyResourcesRejected) {
  Request r = RequestBuilder(1).build();
  r.resources = ResourceVector{};
  EXPECT_THROW(validate(r), precondition_error);
}

TEST(RequestValidation, InvertedWindowRejected) {
  EXPECT_THROW(validate(RequestBuilder(1).window(100, 50).duration(10).build()),
               precondition_error);
}

TEST(RequestValidation, NonPositiveDurationRejected) {
  EXPECT_THROW(validate(RequestBuilder(1).duration(0).build()), precondition_error);
  EXPECT_THROW(validate(RequestBuilder(1).duration(-5).build()), precondition_error);
}

TEST(RequestValidation, DurationBeyondWindowRejected) {
  EXPECT_THROW(validate(RequestBuilder(1).window(0, 100).duration(101).build()),
               precondition_error);
}

TEST(RequestValidation, DurationEqualToWindowAllowed) {
  // d_r = t_r^+ − t_r^-: "the container must be run from t_r^- to t_r^+".
  EXPECT_NO_THROW(validate(RequestBuilder(1).window(0, 100).duration(100).build()));
}

TEST(RequestValidation, SignificanceRange) {
  EXPECT_NO_THROW(
      validate(RequestBuilder(1).significance(ResourceSchema::kCpu, 1.0).build()));
  EXPECT_NO_THROW(
      validate(RequestBuilder(1).significance(ResourceSchema::kCpu, 0.5).build()));
  EXPECT_THROW(validate(RequestBuilder(1).significance(ResourceSchema::kCpu, 1.5).build()),
               precondition_error);
  Request zero_sig = RequestBuilder(1).build();
  zero_sig.significance.set(ResourceSchema::kCpu, 0.0);
  EXPECT_THROW(validate(zero_sig), precondition_error);
}

TEST(RequestValidation, SignificanceForUndeclaredResourceRejected) {
  ResourceSchema schema;
  const ResourceId sgx = schema.intern("sgx");
  EXPECT_THROW(validate(RequestBuilder(1).significance(sgx, 0.5).build()), precondition_error);
}

TEST(Request, SignificanceDefaultsToStrict) {
  const Request r = RequestBuilder(1).significance(ResourceSchema::kCpu, 0.4).build();
  EXPECT_DOUBLE_EQ(r.significance_of(ResourceSchema::kCpu), 0.4);
  EXPECT_DOUBLE_EQ(r.significance_of(ResourceSchema::kMemory), 1.0);  // default σ = 1
  EXPECT_FALSE(r.is_strict(ResourceSchema::kCpu));
  EXPECT_TRUE(r.is_strict(ResourceSchema::kMemory));
}

TEST(OfferValidation, DefaultBuilderIsValid) {
  EXPECT_NO_THROW(validate(OfferBuilder(1).build()));
}

TEST(OfferValidation, NegativeBidRejected) {
  EXPECT_THROW(validate(OfferBuilder(1).bid(-1.0).build()), precondition_error);
}

TEST(OfferValidation, NonFiniteValuesRejected) {
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(validate(OfferBuilder(1).bid(bad).build()), precondition_error) << bad;
    Offer o = OfferBuilder(1).build();
    o.min_reputation = bad;
    EXPECT_THROW(validate(o), precondition_error) << bad;
    o = OfferBuilder(1).build();
    o.location = Location{bad, 0.0};
    EXPECT_THROW(validate(o), precondition_error) << bad;
    o.location = Location{0.0, bad};
    EXPECT_THROW(validate(o), precondition_error) << bad;
  }
}

TEST(OfferValidation, EmptyResourcesRejected) {
  Offer o = OfferBuilder(1).build();
  o.resources = ResourceVector{};
  EXPECT_THROW(validate(o), precondition_error);
}

TEST(OfferValidation, EmptyWindowRejected) {
  EXPECT_THROW(validate(OfferBuilder(1).window(100, 100).build()), precondition_error);
  EXPECT_THROW(validate(OfferBuilder(1).window(100, 50).build()), precondition_error);
}

TEST(Offer, WindowLength) {
  EXPECT_EQ(OfferBuilder(1).window(100, 400).build().window_length(), 300);
}

TEST(Location, Equality) {
  EXPECT_EQ((Location{1.0, 2.0}), (Location{1.0, 2.0}));
  EXPECT_NE((Location{1.0, 2.0}), (Location{2.0, 1.0}));
}

}  // namespace
}  // namespace decloud::auction
