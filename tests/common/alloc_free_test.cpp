// The per-bid check and hash path makes no heap allocation: a passing
// DECLOUD_*_MSG check or audit::check builds no message, and the sealed-bid
// payload, the signature nonce and challenge, the PoW pre-image and the
// block header are hashed from stack encodings streamed field by field
// (DESIGN.md §3d).
//
// This executable replaces the global operator new/delete with counting
// versions, so it is its own test binary: every allocation the code under
// test makes between two reads of the counter is seen.
// declint:allow-file(naked-new) — the replaced allocator is the instrument.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common/audit.hpp"
#include "common/ensure.hpp"
#include "common/rng.hpp"
#include "crypto/hmac.hpp"
#include "crypto/pow.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signature.hpp"
#include "ledger/block.hpp"
#include "ledger/sealed_bid.hpp"

namespace {

// Single-threaded binary: a plain counter is enough.
std::size_t g_allocations = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t n, std::align_val_t align) {
  ++g_allocations;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) { return counted_alloc(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace decloud {
namespace {

/// Heap allocations made while `fn` runs.
template <class Fn>
std::size_t allocations(Fn&& fn) {
  const std::size_t before = g_allocations;
  fn();
  return g_allocations - before;
}

constexpr int kRepeats = 10'000;

// Read through a volatile so no check below is decided at compile time.
volatile int g_bound = kRepeats;

TEST(AllocFree, CounterSeesAllocations) {
  EXPECT_GT(allocations([] { std::vector<int> v(1000, 7); EXPECT_EQ(v.size(), 1000u); }), 0u);
}

TEST(AllocFree, PassingChecksBuildNoMessage) {
  const int bound = g_bound;
  const std::size_t n = allocations([bound] {
    for (int i = 0; i < kRepeats; ++i) {
      DECLOUD_EXPECTS_MSG(i < bound, "a literal detail longer than any small-string buffer");
      DECLOUD_ENSURES_MSG(i < bound, "a literal detail longer than any small-string buffer");
      DECLOUD_EXPECTS_MSG(i < bound, "index " + std::to_string(i) + " is past the bound");
      DECLOUD_ENSURES_MSG(i < bound, "index " + std::to_string(i) + " is past the bound");
      DECLOUD_EXPECTS(i < bound);
      DECLOUD_ENSURES(i < bound);
    }
  });
  EXPECT_EQ(n, 0u);
}

TEST(AllocFree, PassingAuditCheckBuildsNoMessage) {
  const int bound = g_bound;
  const std::size_t n = allocations([bound] {
    for (int i = 0; i < kRepeats; ++i) {
      audit::check(i < bound, "a literal detail longer than any small-string buffer");
    }
  });
  EXPECT_EQ(n, 0u);
  try {
    audit::check(bound < 0, "bound is not negative");
    FAIL() << "should have thrown";
  } catch (const audit::audit_error& e) {
    EXPECT_STREQ(e.what(), "mechanism audit failed: bound is not negative");
  }
}

TEST(AllocFree, FailingCheckCarriesExpressionDetailAndFile) {
  const int bound = g_bound;
  try {
    DECLOUD_EXPECTS_MSG(bound < 0, "bound " + std::to_string(bound) + " is not negative");
    FAIL() << "should have thrown";
  } catch (const precondition_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bound < 0"), std::string::npos) << what;
    EXPECT_NE(what.find("bound 10000 is not negative"), std::string::npos) << what;
    EXPECT_NE(what.find("alloc_free_test.cpp:"), std::string::npos) << what;
  }
  try {
    DECLOUD_ENSURES_MSG(bound == 0, "a literal detail");
    FAIL() << "should have thrown";
  } catch (const invariant_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("invariant failed: bound == 0 — a literal detail"), std::string::npos)
        << what;
    EXPECT_NE(what.find("alloc_free_test.cpp:"), std::string::npos) << what;
  }
}

TEST(AllocFree, Sha256UpdateAndFinish) {
  std::vector<std::uint8_t> data(300);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i);
  crypto::Digest acc{};
  const std::size_t n = allocations([&] {
    for (std::size_t len = 0; len <= data.size(); ++len) {
      crypto::Sha256 h;
      h.update({data.data(), len / 3});
      h.update({data.data() + len / 3, len - len / 3});
      const crypto::Digest d = h.finish();
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] ^= d[i];
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_NE(acc, crypto::Digest{});
}

struct SignedBid {
  crypto::KeyPair signer;
  ledger::SealedBid bid;
};

SignedBid make_bid() {
  Rng rng(3);
  SignedBid s{crypto::generate_keypair(rng), {}};
  crypto::SymmetricKey key{};
  key[0] = 1;
  crypto::Nonce nonce{};
  nonce[0] = 2;
  const std::vector<std::uint8_t> plaintext(120, 0x5a);
  s.bid = ledger::seal_bid(ledger::BidKind::kRequest, plaintext, key, nonce, s.signer);
  return s;
}

TEST(AllocFree, HmacSignAndVerify) {
  const SignedBid s = make_bid();
  const std::vector<std::uint8_t> key(40, 0x0b);
  const std::vector<std::uint8_t> long_key(100, 0x0c);  // hashed down to a block
  const std::span<const std::uint8_t> msg(s.bid.ciphertext);
  bool ok = true;
  const std::size_t n = allocations([&] {
    ok = ok && crypto::hmac_sha256(key, msg) != crypto::hmac_sha256(long_key, msg);
    const crypto::Signature sig = crypto::sign(s.signer.priv, msg);
    ok = ok && crypto::verify(s.signer.pub, msg, sig);
    ok = ok && s.signer.pub.fingerprint() != crypto::Digest{};
  });
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(ok);
}

TEST(AllocFree, SealedBidDigestAndVerify) {
  const SignedBid s = make_bid();
  crypto::Digest digest{};
  bool verified = false;
  const std::size_t n = allocations([&] {
    digest = s.bid.digest();
    verified = ledger::verify_sealed_bid(s.bid);
  });
  EXPECT_EQ(n, 0u);
  EXPECT_NE(digest, crypto::Digest{});
  EXPECT_TRUE(verified);
}

TEST(AllocFree, HeaderHashingAndPow) {
  ledger::BlockHeader header;
  header.height = 7;
  header.prev_hash[0] = 0x42;
  header.timestamp = 600;
  header.bids_root[0] = 0x17;
  const auto bytes = header.bytes();
  const crypto::PowSolution solution = *crypto::solve_pow({bytes.data(), bytes.size()}, 6);
  bool ok = false;
  const std::size_t n = allocations([&] {
    const auto hb = header.bytes();
    const crypto::Digest d = crypto::pow_digest({hb.data(), hb.size()}, solution.nonce);
    ok = d == solution.digest && crypto::verify_pow({hb.data(), hb.size()}, 6, solution) &&
         crypto::Sha256::hash({hb.data(), hb.size()}) != d;
  });
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(ok);
}

}  // namespace
}  // namespace decloud
