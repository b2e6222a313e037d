#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include "common/ensure.hpp"
#include "fault/injector.hpp"

namespace decloud::fault {
namespace {

TEST(FaultPlan, KindNamesRoundTrip) {
  for (const FaultKind kind : kFaultKinds) {
    const auto parsed = parse_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_kind("no_such_fault").has_value());
  EXPECT_FALSE(parse_kind("").has_value());
}

TEST(FaultPlan, ParsesFieldsAndDefaults) {
  const FaultPlan plan = FaultPlan::parse(
      "withhold_reveal:p=0.5:rounds=0-9;dishonest_vote:index=1;"
      "reject_ingest:attempts=2");
  ASSERT_EQ(plan.rules.size(), 3u);

  const FaultRule& withhold = plan.rules[0];
  EXPECT_EQ(withhold.kind, FaultKind::kWithholdReveal);
  EXPECT_DOUBLE_EQ(withhold.probability, 0.5);
  EXPECT_EQ(withhold.round_lo, 0u);
  EXPECT_EQ(withhold.round_hi, 9u);
  EXPECT_EQ(withhold.shard_lo, 0u);
  EXPECT_EQ(withhold.shard_hi, UINT64_MAX);  // omitted → everywhere

  const FaultRule& vote = plan.rules[1];
  EXPECT_EQ(vote.kind, FaultKind::kDishonestVote);
  EXPECT_DOUBLE_EQ(vote.probability, 1.0);  // omitted → always
  EXPECT_EQ(vote.index_lo, 1u);
  EXPECT_EQ(vote.index_hi, 1u);  // single value → point window

  const FaultRule& reject = plan.rules[2];
  EXPECT_EQ(reject.kind, FaultKind::kRejectIngest);
  EXPECT_EQ(reject.attempt_lo, 2u);
  EXPECT_EQ(reject.attempt_hi, 2u);
}

TEST(FaultPlan, EmptySpecIsTheEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("  ;; ").empty());
  EXPECT_EQ(FaultPlan::parse("").canonical(), "");
}

TEST(FaultPlan, CanonicalRoundTrips) {
  const FaultPlan plan = FaultPlan::parse(
      "withhold_reveal:p=0.25:rounds=1-3:index=0-2;"
      "reject_ingest:shards=1;crash_at_site:attempts=0:index=100");
  const std::string canon = plan.canonical();
  const FaultPlan replay = FaultPlan::parse(canon);
  EXPECT_EQ(replay.canonical(), canon);  // fixed point
  ASSERT_EQ(replay.rules.size(), plan.rules.size());
  EXPECT_DOUBLE_EQ(replay.rules[0].probability, 0.25);
  EXPECT_EQ(replay.rules[0].round_hi, 3u);
  EXPECT_EQ(replay.rules[1].shard_lo, 1u);
  EXPECT_EQ(replay.rules[2].kind, FaultKind::kCrashAtSite);
  EXPECT_EQ(replay.rules[2].index_lo, 100u);
  EXPECT_EQ(canon.find("payload"), std::string::npos);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("no_such_fault"), precondition_error);
  EXPECT_THROW(FaultPlan::parse("withhold_reveal:p=1.5"), precondition_error);
  EXPECT_THROW(FaultPlan::parse("withhold_reveal:p=-0.1"), precondition_error);
  EXPECT_THROW(FaultPlan::parse("withhold_reveal:p=nope"), precondition_error);
  EXPECT_THROW(FaultPlan::parse("withhold_reveal:rounds=5-2"), precondition_error);
  EXPECT_THROW(FaultPlan::parse("withhold_reveal:frequency=2"), precondition_error);
  EXPECT_THROW(FaultPlan::parse("withhold_reveal:rounds"), precondition_error);
  EXPECT_THROW(FaultPlan::parse("withhold_reveal:index=1x"), precondition_error);
  // Retired: no hook point reads these, so a plan naming them would
  // never fire.
  EXPECT_THROW(FaultPlan::parse("drop_message:p=1"), precondition_error);
  EXPECT_THROW(FaultPlan::parse("delay_message:p=1"), precondition_error);
  EXPECT_THROW(FaultPlan::parse("withhold_reveal:payload=500"), precondition_error);
}

TEST(FaultRule, WindowsAreInclusiveOnEveryCoordinate) {
  FaultRule rule;
  rule.kind = FaultKind::kRejectIngest;
  rule.round_lo = 2;
  rule.round_hi = 4;
  rule.shard_lo = 1;
  rule.shard_hi = 1;
  rule.index_lo = 0;
  rule.index_hi = 10;
  rule.attempt_lo = 0;
  rule.attempt_hi = 0;
  EXPECT_TRUE(rule.matches(FaultKind::kRejectIngest, {2, 1, 0, 0}));
  EXPECT_TRUE(rule.matches(FaultKind::kRejectIngest, {4, 1, 10, 0}));
  EXPECT_FALSE(rule.matches(FaultKind::kRejectIngest, {5, 1, 0, 0}));   // round past hi
  EXPECT_FALSE(rule.matches(FaultKind::kRejectIngest, {1, 1, 0, 0}));   // round below lo
  EXPECT_FALSE(rule.matches(FaultKind::kRejectIngest, {3, 0, 0, 0}));   // wrong shard
  EXPECT_FALSE(rule.matches(FaultKind::kRejectIngest, {3, 1, 11, 0}));  // index past hi
  EXPECT_FALSE(rule.matches(FaultKind::kRejectIngest, {3, 1, 0, 1}));   // attempt past hi
  EXPECT_FALSE(rule.matches(FaultKind::kCrashAtSite, {3, 1, 0, 0}));    // wrong kind
}

TEST(FaultInjector, NullInjectorNeverFires) {
  const FaultInjector null;
  EXPECT_FALSE(null.active());
  EXPECT_FALSE(null.fires(FaultKind::kWithholdReveal, {}));
}

TEST(FaultInjector, CertainRuleFiresExactlyInsideItsWindow) {
  const FaultInjector injector(FaultPlan::parse("dishonest_vote:index=1:rounds=0-5"), 7);
  EXPECT_TRUE(injector.active());
  for (std::uint64_t round = 0; round <= 5; ++round) {
    EXPECT_TRUE(injector.fires(FaultKind::kDishonestVote, {round, 0, 1, 0}));
    EXPECT_FALSE(injector.fires(FaultKind::kDishonestVote, {round, 0, 0, 0}));
    EXPECT_FALSE(injector.fires(FaultKind::kDishonestVote, {round, 0, 2, 0}));
  }
  EXPECT_FALSE(injector.fires(FaultKind::kDishonestVote, {6, 0, 1, 0}));
  EXPECT_FALSE(injector.fires(FaultKind::kWithholdReveal, {0, 0, 1, 0}));
}

TEST(FaultInjector, ZeroProbabilityNeverFires) {
  const FaultInjector injector(FaultPlan::parse("reject_ingest:p=0"), 1);
  EXPECT_TRUE(injector.active());  // a plan exists, it just never lands
  for (std::uint64_t i = 0; i < 500; ++i) {
    EXPECT_FALSE(injector.fires(FaultKind::kRejectIngest, {0, 0, i, 0}));
  }
}

TEST(FaultInjector, ProbabilityControlsTheFiringRate) {
  const FaultInjector injector(FaultPlan::parse("reject_ingest:p=0.3"), 11);
  std::size_t fired = 0;
  constexpr std::uint64_t kSites = 4000;
  for (std::uint64_t i = 0; i < kSites; ++i) {
    if (injector.fires(FaultKind::kRejectIngest, {0, 0, i, 0})) ++fired;
  }
  EXPECT_GT(fired, kSites / 5);      // well above 0
  EXPECT_LT(fired, 2 * kSites / 5);  // well below 1
}

TEST(FaultInjector, DecisionsArePureFunctionsOfSeedAndSite) {
  const FaultPlan plan = FaultPlan::parse("withhold_reveal:p=0.5;reject_ingest:p=0.5");
  const FaultInjector a(plan, 42);
  const FaultInjector b(plan, 42);
  const FaultInjector other_seed(plan, 43);
  std::size_t divergences = 0;
  for (std::uint64_t round = 0; round < 8; ++round) {
    for (std::uint64_t shard = 0; shard < 4; ++shard) {
      for (std::uint64_t index = 0; index < 16; ++index) {
        const FaultSite site{round, shard, index, 0};
        for (const FaultKind kind : {FaultKind::kWithholdReveal, FaultKind::kRejectIngest}) {
          EXPECT_EQ(a.fires(kind, site), b.fires(kind, site));
          if (a.fires(kind, site) != other_seed.fires(kind, site)) ++divergences;
        }
      }
    }
  }
  EXPECT_GT(divergences, 0u);  // the seed is load-bearing
}

TEST(FaultInjector, LaterRulesFireWhereEarlierOnesMiss) {
  // A matching rule whose coin misses does not end the search: the next
  // matching rule gets its own coin.
  const FaultInjector injector(
      FaultPlan::parse("reject_ingest:p=0:index=0-4;reject_ingest:index=3-9"), 3);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(injector.fires(FaultKind::kRejectIngest, {0, 0, i, 0}));
  }
  for (std::uint64_t i = 3; i <= 9; ++i) {
    EXPECT_TRUE(injector.fires(FaultKind::kRejectIngest, {0, 0, i, 0}));
  }
  EXPECT_FALSE(injector.fires(FaultKind::kRejectIngest, {0, 0, 10, 0}));
  EXPECT_FALSE(injector.fires(FaultKind::kWithholdReveal, {0, 0, 5, 0}));  // no rule
}

}  // namespace
}  // namespace decloud::fault
