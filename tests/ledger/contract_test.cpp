#include "ledger/contract.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace decloud::ledger {
namespace {

/// A snapshot + result with two matches (clients 1 and 2, provider 5).
struct Fixture {
  auction::MarketSnapshot snapshot;
  auction::RoundResult result;
  AgreementContract contract;
  std::vector<ContractId> ids;

  Fixture() {
    for (std::uint64_t i = 1; i <= 2; ++i) {
      auction::Request r;
      r.id = RequestId(i);
      r.client = ClientId(i);
      r.resources.set(auction::ResourceSchema::kCpu, 1.0);
      r.window_end = 7200;
      r.duration = 3600;
      r.bid = 2.0;
      snapshot.requests.push_back(r);
    }
    auction::Offer o;
    o.id = OfferId(5);
    o.provider = ProviderId(5);
    o.resources.set(auction::ResourceSchema::kCpu, 4.0);
    o.window_end = 86400;
    o.bid = 0.5;
    snapshot.offers.push_back(o);

    for (std::size_t i = 0; i < 2; ++i) {
      auction::Match m;
      m.request = i;
      m.offer = 0;
      m.payment = 1.0;
      result.matches.push_back(m);
    }
    result.payment_by_request = {1.0, 1.0};
    result.revenue_by_offer = {2.0};
    ids = contract.register_allocation(0, snapshot, result);
  }
};

TEST(AgreementContract, RegistrationCreatesProposedAgreements) {
  Fixture f;
  ASSERT_EQ(f.ids.size(), 2u);
  const auto a = f.contract.find(f.ids[0]);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->state, AgreementState::kProposed);
  EXPECT_EQ(a->client, ClientId(1));
  EXPECT_EQ(a->provider, ProviderId(5));
  EXPECT_DOUBLE_EQ(a->payment, 1.0);
  EXPECT_FALSE(a->requires_tee);
}

TEST(AgreementContract, AcceptActivates) {
  Fixture f;
  EXPECT_TRUE(f.contract.accept(f.ids[0], ClientId(1)));
  EXPECT_EQ(f.contract.find(f.ids[0])->state, AgreementState::kActive);
}

TEST(AgreementContract, AcceptByWrongClientRejected) {
  // "the client's ID is associated with the particular provider" check.
  Fixture f;
  EXPECT_FALSE(f.contract.accept(f.ids[0], ClientId(2)));
  EXPECT_EQ(f.contract.find(f.ids[0])->state, AgreementState::kProposed);
}

TEST(AgreementContract, UnknownContractRejected) {
  Fixture f;
  EXPECT_FALSE(f.contract.accept(ContractId(999), ClientId(1)));
  EXPECT_FALSE(f.contract.find(ContractId(999)).has_value());
}

TEST(AgreementContract, DoubleAcceptRejected) {
  Fixture f;
  EXPECT_TRUE(f.contract.accept(f.ids[0], ClientId(1)));
  EXPECT_FALSE(f.contract.accept(f.ids[0], ClientId(1)));
}

TEST(AgreementContract, DenyMarksAndFlagsResubmission) {
  Fixture f;
  EXPECT_TRUE(f.contract.deny(f.ids[0], ClientId(1)));
  EXPECT_EQ(f.contract.find(f.ids[0])->state, AgreementState::kDenied);
}

TEST(AgreementContract, DenyAfterAcceptRejected) {
  Fixture f;
  EXPECT_TRUE(f.contract.accept(f.ids[0], ClientId(1)));
  EXPECT_FALSE(f.contract.deny(f.ids[0], ClientId(1)));
}

TEST(AgreementContract, CompleteRequiresActiveAndProvider) {
  Fixture f;
  EXPECT_FALSE(f.contract.complete(f.ids[0], ProviderId(5)));  // still proposed
  EXPECT_TRUE(f.contract.accept(f.ids[0], ClientId(1)));
  EXPECT_FALSE(f.contract.complete(f.ids[0], ProviderId(4)));  // wrong provider
  EXPECT_TRUE(f.contract.complete(f.ids[0], ProviderId(5)));
  EXPECT_EQ(f.contract.find(f.ids[0])->state, AgreementState::kCompleted);
}

TEST(AgreementContract, TeeRequirementDetected) {
  Fixture f;
  auction::ResourceSchema schema;
  const auto sgx = schema.intern("sgx");
  f.snapshot.requests[0].resources.set(sgx, 1.0);
  AgreementContract c2;
  const auto ids = c2.register_allocation(1, f.snapshot, f.result, sgx);
  EXPECT_TRUE(c2.find(ids[0])->requires_tee);
  EXPECT_FALSE(c2.find(ids[1])->requires_tee);
}

TEST(Reputation, StartsAtInitial) {
  ReputationRegistry rep;
  EXPECT_DOUBLE_EQ(rep.score(ClientId(1)), 1.0);
  EXPECT_EQ(rep.consecutive_denials(ClientId(1)), 0u);
}

TEST(Reputation, SuccessiveDenialsCompound) {
  // "reputational penalty for successive rejections": the second denial in
  // a row costs more than the first.
  ReputationRegistry rep;
  rep.record_deny(ClientId(1));
  const double after_one = rep.score(ClientId(1));
  EXPECT_NEAR(after_one, 0.8, 1e-12);
  rep.record_deny(ClientId(1));
  const double after_two = rep.score(ClientId(1));
  EXPECT_NEAR(after_two, 0.8 * 0.64, 1e-12);  // factor² on the second strike
  // The second strike removes more score than a plain single-factor hit
  // would (0.288 lost vs 0.16): successive rejections compound.
  EXPECT_GT(after_one - after_two, after_one - 0.8 * after_one - 1e-12);
  EXPECT_EQ(rep.consecutive_denials(ClientId(1)), 2u);
}

TEST(Reputation, AcceptResetsStreakAndRecovers) {
  ReputationRegistry rep;
  rep.record_deny(ClientId(1));
  rep.record_deny(ClientId(1));
  rep.record_accept(ClientId(1));
  EXPECT_EQ(rep.consecutive_denials(ClientId(1)), 0u);
  EXPECT_GT(rep.score(ClientId(1)), 0.8 * 0.64);
}

TEST(Reputation, ScoreCappedAtMax) {
  ReputationRegistry rep;
  for (int i = 0; i < 50; ++i) rep.record_accept(ClientId(1));
  EXPECT_DOUBLE_EQ(rep.score(ClientId(1)), 1.0);
}

TEST(Reputation, ClientsAreIndependent) {
  ReputationRegistry rep;
  rep.record_deny(ClientId(1));
  EXPECT_LT(rep.score(ClientId(1)), 1.0);
  EXPECT_DOUBLE_EQ(rep.score(ClientId(2)), 1.0);
}

// Property-style edge cases: the score must stay inside [0, max_score]
// and behave predictably at its boundaries under any penalty sequence.
TEST(Reputation, ScoreIsClampedToZeroUnderAnyPenaltyBarrage) {
  ReputationRegistry registry;
  const ClientId pariah(1);
  for (int i = 0; i < 200; ++i) {
    (i % 2 == 0) ? registry.record_deny(pariah) : registry.record_withhold(pariah);
    const double s = registry.score(pariah);
    EXPECT_GE(s, 0.0) << "after penalty " << i;
    EXPECT_LE(s, 1.0) << "after penalty " << i;
  }
  // Denormal-or-zero by now; a further penalty at the floor must not
  // underflow or go negative.
  registry.record_withhold(pariah);
  EXPECT_GE(registry.score(pariah), 0.0);
}

TEST(Reputation, RepeatedDenialsInOneRoundCompoundByStreakLength) {
  ReputationRegistry registry;
  const ClientId flake(2);
  // Streak arithmetic: the k-th consecutive denial multiplies by
  // 0.8^k, so three denials in one round cost 0.8^(1+2+3).
  registry.record_deny(flake);
  EXPECT_DOUBLE_EQ(registry.score(flake), 0.8);
  registry.record_deny(flake);
  EXPECT_DOUBLE_EQ(registry.score(flake), 0.8 * 0.8 * 0.8);
  registry.record_deny(flake);
  EXPECT_DOUBLE_EQ(registry.score(flake), 0.8 * 0.8 * 0.8 * 0.8 * 0.8 * 0.8);
  EXPECT_EQ(registry.consecutive_denials(flake), 3u);
}

TEST(Reputation, WithholdPenaltyHasNoStreakEscalation) {
  ReputationRegistry registry;
  const ClientId client(4);
  registry.record_withhold(client);
  registry.record_withhold(client);
  registry.record_withhold(client);
  // Flat multiplicative hits: 0.5^3, not 0.5^(1+2+3).
  EXPECT_DOUBLE_EQ(registry.score(client), 0.125);
  EXPECT_EQ(registry.consecutive_denials(client), 0u);  // not a denial
  // A later denial starts its streak from one.
  registry.record_deny(client);
  EXPECT_DOUBLE_EQ(registry.score(client), 0.125 * 0.8);
}

TEST(Reputation, WithholdFlowsThroughTheContract) {
  AgreementContract contract;
  const ClientId address(99);
  contract.penalize_withhold(address);
  EXPECT_DOUBLE_EQ(contract.reputation().score(address), 0.5);
}

TEST(Reputation, ContractRecordsThroughAcceptDeny) {
  Fixture f;
  f.contract.deny(f.ids[0], ClientId(1));
  EXPECT_LT(f.contract.reputation().score(ClientId(1)), 1.0);
  f.contract.accept(f.ids[1], ClientId(2));
  EXPECT_DOUBLE_EQ(f.contract.reputation().score(ClientId(2)), 1.0);  // capped
}

}  // namespace
}  // namespace decloud::ledger
