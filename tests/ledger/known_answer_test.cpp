// Known-answer pins for the consensus bytes: the sealed-bid digest (the
// Merkle leaf), a signature, a mined block hash and the canonical outcome
// of seeded market rounds with and without faults.  The byte-identity
// oracles elsewhere compare two runs of the same build; these values are
// fixed constants, so an encoding change that shifts every run alike
// (a digest layout, a signing nonce, a header field) fails here.
#include <gtest/gtest.h>

#include <string>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/pow.hpp"
#include "fault/injector.hpp"
#include "ledger/codec.hpp"
#include "ledger/market.hpp"

namespace decloud::ledger {
namespace {

std::string hex(const crypto::Digest& d) { return to_hex({d.data(), d.size()}); }

SealedBid fixed_seal(std::uint64_t id) {
  Rng rng(id);
  const crypto::KeyPair signer = crypto::generate_keypair(rng);
  crypto::SymmetricKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i + id);
  crypto::Nonce nonce{};
  nonce[0] = 9;
  auction::Request r;
  r.id = RequestId(id);
  r.client = ClientId(id);
  r.resources.set(auction::ResourceSchema::kCpu, 1.0);
  r.window_end = 7200;
  r.duration = 3600;
  r.bid = 1.5;
  return seal_bid(BidKind::kRequest, encode_request(r), key, nonce, signer);
}

// Three seeded rounds through a MarketOrchestrator with 3 verifiers, a
// 2/3 quorum and one re-mine; returns the SHA-256 of the concatenated
// outcome_json lines.
std::string market_transcript_sha(const fault::FaultInjector* injector) {
  MarketConfig mc;
  mc.consensus.difficulty_bits = 8;
  mc.consensus.quorum = 2.0 / 3.0;
  mc.consensus.max_remine_attempts = 1;
  mc.num_verifiers = 3;
  MarketOrchestrator market(mc);
  market.attach({.faults = injector});
  std::string transcript;
  for (std::uint64_t round = 0; round < 3; ++round) {
    for (std::uint64_t i = 0; i < 4; ++i) {
      auction::Request r;
      r.id = RequestId(round * 10 + i);
      r.client = ClientId(round * 10 + i);
      r.submitted = static_cast<Time>(round * 100 + i);
      r.resources.set(auction::ResourceSchema::kCpu, 1.0 + static_cast<double>(i % 2));
      r.window_end = 1'000'000;
      r.duration = 3600;
      r.bid = 2.0 + static_cast<double>(i);
      market.submit(r);
    }
    for (std::uint64_t i = 0; i < 2; ++i) {
      auction::Offer o;
      o.id = OfferId(round * 10 + i);
      o.provider = ProviderId(round * 10 + i);
      o.submitted = static_cast<Time>(round * 100 + i);
      o.resources.set(auction::ResourceSchema::kCpu, 4.0);
      o.window_end = 2'000'000;
      o.bid = 0.2 + 0.1 * static_cast<double>(i);
      market.submit(o);
    }
    transcript += outcome_json(market.run_round(static_cast<Time>(round * 600)));
    transcript += '\n';
  }
  return hex(crypto::Sha256::hash(transcript));
}

TEST(KnownAnswer, SealedBidDigest) {
  EXPECT_EQ(hex(fixed_seal(1).digest()),
            "a849af88e6cb9cc91b4f9aa0a03de6ae6a9bea2a7cf89d674f157e1f53d1b515");
}

TEST(KnownAnswer, Signature) {
  const crypto::PrivateKey key{.x = 0x0123456789abcdefULL % crypto::kFieldPrime};
  const std::string message = "decloud";
  const crypto::Signature sig = crypto::sign(
      key, {reinterpret_cast<const std::uint8_t*>(message.data()), message.size()});
  EXPECT_EQ(sig.r, 1244189695762847898u);
  EXPECT_EQ(sig.s, 1911719352774780572u);
}

TEST(KnownAnswer, MinedPreambleHash) {
  BlockPreamble p;
  p.header.height = 3;
  p.header.prev_hash[0] = 0x42;
  p.header.timestamp = 1000;
  p.sealed_bids = {fixed_seal(1), fixed_seal(2), fixed_seal(3)};
  p.header.bids_root = bids_merkle_root(p.sealed_bids);
  const auto hb = p.header.bytes();
  p.pow = *crypto::solve_pow({hb.data(), hb.size()}, 8);
  EXPECT_EQ(p.pow.nonce, 152u);
  EXPECT_EQ(hex(p.hash()), "00a9eef2e58e6806558185bbedec2f99a00abdf71d3c9955a32a3633d5cb9b44");
}

TEST(KnownAnswer, CleanMarketRounds) {
  EXPECT_EQ(market_transcript_sha(nullptr),
            "e5bba46057a91f2eb5476c983a6c9a298c0535f61aaf180c32199ecf8364a8aa");
}

TEST(KnownAnswer, FaultedMarketRounds) {
  const fault::FaultInjector injector(
      fault::FaultPlan::parse("corrupt_sealed_bid:index=1;withhold_reveal:rounds=1:attempts=0;"
                              "dishonest_vote:index=1;corrupt_allocation:rounds=2:attempts=0"),
      5);
  EXPECT_EQ(market_transcript_sha(&injector),
            "bb058eb3901a27599cf1a64b3e47c6d55127c3eda15211216ef1c617c82ae4d6");
}

}  // namespace
}  // namespace decloud::ledger
