// Shared builders for auction tests: terse construction of well-formed
// requests and offers, plus a one-call best-offer query.
#pragma once

#include <vector>

#include "auction/bid.hpp"
#include "auction/candidate_index.hpp"
#include "auction/config.hpp"
#include "auction/resource.hpp"
#include "auction/score_matrix.hpp"

namespace decloud::auction::test {

/// Fluent request builder with sane defaults: 1 cpu / 4 GB / 10 GB, window
/// [0, 7200], duration 3600, bid 1.0.
class RequestBuilder {
 public:
  explicit RequestBuilder(std::uint64_t id) {
    r_.id = RequestId(id);
    r_.client = ClientId(id);
    r_.submitted = static_cast<Time>(id);
    r_.resources.set(ResourceSchema::kCpu, 1.0);
    r_.resources.set(ResourceSchema::kMemory, 4.0);
    r_.resources.set(ResourceSchema::kDisk, 10.0);
    r_.window_start = 0;
    r_.window_end = 7200;
    r_.duration = 3600;
    r_.bid = 1.0;
  }

  RequestBuilder& client(std::uint64_t c) { r_.client = ClientId(c); return *this; }
  RequestBuilder& submitted(Time t) { r_.submitted = t; return *this; }
  RequestBuilder& cpu(double v) { r_.resources.set(ResourceSchema::kCpu, v); return *this; }
  RequestBuilder& memory(double v) { r_.resources.set(ResourceSchema::kMemory, v); return *this; }
  RequestBuilder& disk(double v) { r_.resources.set(ResourceSchema::kDisk, v); return *this; }
  RequestBuilder& resource(ResourceId k, double v) { r_.resources.set(k, v); return *this; }
  RequestBuilder& significance(ResourceId k, double s) { r_.significance.set(k, s); return *this; }
  RequestBuilder& window(Time lo, Time hi) { r_.window_start = lo; r_.window_end = hi; return *this; }
  RequestBuilder& duration(Seconds d) { r_.duration = d; return *this; }
  RequestBuilder& bid(Money b) { r_.bid = b; return *this; }
  RequestBuilder& location(double x, double y) { r_.location = Location{x, y}; return *this; }

  [[nodiscard]] Request build() const { return r_; }
  operator Request() const { return r_; }  // NOLINT(google-explicit-constructor)

 private:
  Request r_;
};

/// Fluent offer builder with defaults: 4 cpu / 16 GB / 100 GB, window
/// [0, 86400], bid 1.0.
class OfferBuilder {
 public:
  explicit OfferBuilder(std::uint64_t id) {
    o_.id = OfferId(id);
    o_.provider = ProviderId(id);
    o_.submitted = static_cast<Time>(id);
    o_.resources.set(ResourceSchema::kCpu, 4.0);
    o_.resources.set(ResourceSchema::kMemory, 16.0);
    o_.resources.set(ResourceSchema::kDisk, 100.0);
    o_.window_start = 0;
    o_.window_end = 86400;
    o_.bid = 1.0;
  }

  OfferBuilder& provider(std::uint64_t p) { o_.provider = ProviderId(p); return *this; }
  OfferBuilder& submitted(Time t) { o_.submitted = t; return *this; }
  OfferBuilder& cpu(double v) { o_.resources.set(ResourceSchema::kCpu, v); return *this; }
  OfferBuilder& memory(double v) { o_.resources.set(ResourceSchema::kMemory, v); return *this; }
  OfferBuilder& disk(double v) { o_.resources.set(ResourceSchema::kDisk, v); return *this; }
  OfferBuilder& resource(ResourceId k, double v) { o_.resources.set(k, v); return *this; }
  OfferBuilder& window(Time lo, Time hi) { o_.window_start = lo; o_.window_end = hi; return *this; }
  OfferBuilder& bid(Money b) { o_.bid = b; return *this; }
  OfferBuilder& location(double x, double y) { o_.location = Location{x, y}; return *this; }

  [[nodiscard]] Offer build() const { return o_; }
  operator Offer() const { return o_; }  // NOLINT(google-explicit-constructor)

 private:
  Offer o_;
};

/// best_r of request `r` through the production path: a CandidateIndex
/// built fresh over `s`.
inline std::vector<std::size_t> index_best_offers(const MarketSnapshot& s, std::size_t r,
                                                  const AuctionConfig& cfg) {
  CandidateIndex::Scratch scratch;
  return CandidateIndex(s).best_offers(r, cfg, scratch);
}

}  // namespace decloud::auction::test
