// Ledger-level properties: sealed-bid confidentiality, verification
// soundness, codec totality over random bids.
#include <gtest/gtest.h>

#include <algorithm>

#include "ledger/codec.hpp"
#include "ledger/contract.hpp"
#include "ledger/miner.hpp"
#include "ledger/participant.hpp"
#include "market_fixtures.hpp"

namespace decloud::ledger {
namespace {

using auction::property::random_market;

class LedgerSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LedgerSweep, CodecRoundtripsRandomBids) {
  Rng rng(GetParam());
  const auto market = random_market(rng);
  for (const auto& r : market.requests) {
    const auto decoded = decode_request(encode_request(r));
    EXPECT_EQ(decoded.resources, r.resources);
    EXPECT_DOUBLE_EQ(decoded.bid, r.bid);
    EXPECT_EQ(decoded.duration, r.duration);
  }
  for (const auto& o : market.offers) {
    const auto decoded = decode_offer(encode_offer(o));
    EXPECT_EQ(decoded.resources, o.resources);
    EXPECT_DOUBLE_EQ(decoded.bid, o.bid);
  }
}

TEST_P(LedgerSweep, SealedBidsLeakNoPlaintextBytes) {
  // ChaCha20 output must not contain the plaintext as a substring — a
  // sanity check that the bids are truly sealed until key disclosure.
  Rng rng(GetParam() * 13);
  Participant wallet(rng);
  const auto market = random_market(rng);
  for (const auto& r : market.requests) {
    const auto plaintext = encode_request(r);
    const SealedBid bid = wallet.submit_request(r, rng);
    const auto it = std::search(bid.ciphertext.begin(), bid.ciphertext.end(),
                                plaintext.begin() + 1, plaintext.end());
    EXPECT_EQ(it, bid.ciphertext.end());
  }
}

TEST_P(LedgerSweep, FullRoundVerifiesAndTamperingIsCaught) {
  Rng rng(GetParam() * 29);
  const auto market = random_market(rng);

  ConsensusParams params{.difficulty_bits = 8};
  Miner producer(params);
  Participant wallet(rng);

  std::vector<SealedBid> bids;
  for (const auto& r : market.requests) bids.push_back(wallet.submit_request(r, rng));
  for (const auto& o : market.offers) bids.push_back(wallet.submit_offer(o, rng));

  const RoundState state = producer.mine_preamble(std::move(bids), crypto::Digest{}, 0, 1);
  const BlockPreamble& preamble = state.preamble();
  const auto reveals = wallet.on_preamble(preamble);
  ASSERT_EQ(reveals.size(), market.requests.size() + market.offers.size());

  const ReputationRegistry registry;
  const BlockBody body = producer.compute_body(state, reveals, registry).body;
  EXPECT_TRUE(producer.verify_body(preamble, body, registry));

  // Any single-byte tamper in the allocation is caught.
  BlockBody tampered = body;
  if (!tampered.allocation.empty()) {
    tampered.allocation[tampered.allocation.size() / 2] ^= 0x40;
    EXPECT_FALSE(producer.verify_body(preamble, tampered, registry));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LedgerSweep, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace decloud::ledger
