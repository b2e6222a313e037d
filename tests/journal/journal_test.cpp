// Unit coverage for the flight recorder core (DESIGN.md §3j): wire-format
// roundtrips, bounded-ring drop-oldest semantics, the JSONL export shape
// journal_query greps, the derived telemetry sink, and the append/decode
// precondition walls.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/ensure.hpp"
#include "journal/journal.hpp"
#include "journal/wire.hpp"
#include "obs/sink.hpp"

namespace decloud::journal {
namespace {

Event make(EventKind kind, std::uint64_t epoch, std::uint64_t a = 0, std::uint64_t b = 0,
           std::uint64_t c = 0, double x = 0.0, double y = 0.0) {
  return Event{kind, 0, epoch, a, b, c, x, y};
}

TEST(Journal, AppendStampsDenseSequencePerRing) {
  Journal journal(3, 8);
  journal.append(0, make(EventKind::kEpochClose, 1));
  journal.append(1, make(EventKind::kIngestAdmitted, 1));
  journal.append(0, make(EventKind::kEpochClose, 2));
  journal.append(2, make(EventKind::kIngestRejected, 1));

  const std::vector<Event> control = journal.events(0);
  ASSERT_EQ(control.size(), 2u);
  EXPECT_EQ(control[0].seq, 0u);
  EXPECT_EQ(control[1].seq, 1u);
  EXPECT_EQ(journal.events(1)[0].seq, 0u);  // per-ring clocks, not global
  EXPECT_EQ(journal.events(2)[0].seq, 0u);
  EXPECT_EQ(journal.total_events(), 4u);
}

TEST(Journal, EncodeDecodeRoundTripsByteExactly) {
  Journal journal(2, 16);
  journal.append(0, make(EventKind::kEpochClose, 3, 0, 60));
  journal.append(1, make(EventKind::kTradeStruck, 7, 4, 9, 0, 0.064615771817023326,
                         0.00040572962714523181));
  journal.append(1, make(EventKind::kBlockMined, 7, 12, 5, 3, 119.13878463764385));
  journal.append(1, make(EventKind::kResidueAbandoned, 8, 2, 1));

  const std::vector<std::uint8_t> bytes = journal.encode();
  ASSERT_GE(bytes.size(), 6u);
  EXPECT_EQ(bytes[0], 'D');
  EXPECT_EQ(bytes[1], 'C');
  EXPECT_EQ(bytes[2], 'J');
  EXPECT_EQ(bytes[3], '1');

  const Journal decoded = Journal::decode(bytes);
  EXPECT_EQ(decoded.num_rings(), journal.num_rings());
  EXPECT_EQ(decoded.capacity(), journal.capacity());
  // Re-encoding the decoded journal must reproduce the input bit-for-bit —
  // the doubles above are not representable in fewer than 17 digits, so
  // this catches any lossy path through the codec.
  EXPECT_EQ(decoded.encode(), bytes);

  const std::vector<Event> ring1 = decoded.events(1);
  ASSERT_EQ(ring1.size(), 3u);
  EXPECT_EQ(ring1[0].kind, EventKind::kTradeStruck);
  EXPECT_EQ(ring1[0].seq, 0u);
  EXPECT_EQ(ring1[0].epoch, 7u);
  EXPECT_EQ(ring1[0].a, 4u);
  EXPECT_EQ(ring1[0].x, 0.064615771817023326);
  EXPECT_EQ(ring1[0].y, 0.00040572962714523181);
  EXPECT_EQ(ring1[1].x, 119.13878463764385);
  EXPECT_EQ(ring1[2].kind, EventKind::kResidueAbandoned);
}

TEST(Journal, RingOverflowDropsOldestAndCountsDrops) {
  Journal journal(1, 4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    journal.append(0, make(EventKind::kIngestAdmitted, i));
  }
  EXPECT_EQ(journal.size(0), 4u);
  EXPECT_EQ(journal.dropped(0), 6u);

  // The tail survives: seqs 6..9, oldest first, epochs matching.
  const std::vector<Event> events = journal.events(0);
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 6u + i);
    EXPECT_EQ(events[i].epoch, 6u + i);
  }

  // The drop count and the tail's first_seq survive the wire format too —
  // a truncated journal decodes as honestly truncated.
  const Journal decoded = Journal::decode(journal.encode());
  EXPECT_EQ(decoded.dropped(0), 6u);
  EXPECT_EQ(decoded.events(0)[0].seq, 6u);
  EXPECT_EQ(decoded.encode(), journal.encode());
}

TEST(Journal, ExportJsonlShape) {
  Journal journal(2, 4);
  journal.append(0, make(EventKind::kEpochClose, 1, 0, 16));
  journal.append(1, make(EventKind::kTradeStruck, 2, 3, 5, 0, 0.25, 0.125));

  const std::string jsonl = journal.export_jsonl();
  EXPECT_EQ(jsonl,
            "{\"ring\":0,\"kind\":\"ring_header\",\"dropped\":0,\"first_seq\":0,\"events\":1}\n"
            "{\"ring\":0,\"seq\":0,\"kind\":\"epoch_close\",\"epoch\":1,\"a\":0,\"b\":16,"
            "\"c\":0}\n"
            "{\"ring\":1,\"kind\":\"ring_header\",\"dropped\":0,\"first_seq\":0,\"events\":1}\n"
            "{\"ring\":1,\"seq\":0,\"kind\":\"trade_struck\",\"epoch\":2,\"a\":3,\"b\":5,"
            "\"c\":0,\"x\":0.25,\"y\":0.125}\n");
}

TEST(Journal, KindNamesAreUniqueAndStable) {
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    const char* name = kind_name(static_cast<EventKind>(k));
    ASSERT_NE(name, nullptr);
    for (std::size_t j = 0; j < k; ++j) {
      EXPECT_STRNE(name, kind_name(static_cast<EventKind>(j)));
    }
  }
  EXPECT_STREQ(kind_name(EventKind::kTradeStruck), "trade_struck");
  EXPECT_EQ(kind_doubles(EventKind::kTradeStruck), 2u);
  EXPECT_EQ(kind_doubles(EventKind::kBlockMined), 1u);
  EXPECT_EQ(kind_doubles(EventKind::kEpochClose), 0u);
}

TEST(Journal, TelemetrySinkDerivesEconomicAggregates) {
  Journal journal(3, 16);  // control + 2 shards
  journal.append(0, make(EventKind::kEpochClose, 1, 0, 8));
  journal.append(0, make(EventKind::kEpochClose, 2, 2, 0));
  // Shard 0: two requests + one offer admitted, two trades, residue.
  journal.append(1, make(EventKind::kIngestAdmitted, 0, /*is_offer=*/0, 0, 1));
  journal.append(1, make(EventKind::kIngestAdmitted, 0, /*is_offer=*/0, 1, 1));
  journal.append(1, make(EventKind::kIngestAdmitted, 0, /*is_offer=*/1, 2, 1));
  journal.append(1, make(EventKind::kTradeStruck, 1, 0, 0, 0, 0.5, 2.0));
  journal.append(1, make(EventKind::kTradeStruck, 1, 1, 0, 0, 0.25, 6.0));
  journal.append(1, make(EventKind::kBlockMined, 1, 0, 2, 2, 3.5));
  journal.append(1, make(EventKind::kResidueCarried, 1, 3,
                         static_cast<std::uint64_t>(CarryCause::kUnmatched)));
  // Shard 1: no trades, one abandonment.
  journal.append(2, make(EventKind::kResidueAbandoned, 1, 2, 1));

  obs::MetricsSink sink = telemetry_sink(journal);
  EXPECT_EQ(sink.label(), "journal");
  const std::string json = sink.metrics().to_json();

  obs::MetricsRegistry& m = sink.metrics();
  EXPECT_EQ(m.counter("journal.events").value(), 10u);
  EXPECT_EQ(m.counter("journal.residue_abandoned").value(), 3u);
  EXPECT_EQ(m.counter("journal.shard0.trades").value(), 2u);
  EXPECT_EQ(m.counter("journal.shard0.residue_carried").value(), 3u);
  EXPECT_EQ(m.counter("journal.shard1.residue_abandoned").value(), 3u);
  EXPECT_EQ(m.gauge("journal.welfare").value(), 3.5);
  // 2 trades over 2 admitted requests.
  EXPECT_EQ(m.gauge("journal.allocation_rate").value(), 1.0);
  // All trades on one shard of one trading shard: full concentration.
  EXPECT_EQ(m.gauge("journal.trading_shards").value(), 1.0);
  EXPECT_EQ(m.gauge("journal.trade_concentration").value(), 1.0);
  // Clearing-price dispersion histogram saw both unit prices.
  EXPECT_NE(json.find("journal.clearing_price"), std::string::npos) << json;
  EXPECT_NE(json.find("journal.welfare_per_block"), std::string::npos) << json;
  // Closes, trades, blocks, carried residue and admitted ingests are
  // counted where they happen, journal on or off; the telemetry sink has
  // no twin of them.
  for (const char* twin :
       {"\"journal.epoch_closes\"", "\"journal.trades\"", "\"journal.blocks_mined\"",
        "\"journal.residue_carried\"", "\"journal.ingest_admitted\""}) {
    EXPECT_EQ(json.find(twin), std::string::npos) << twin;
  }
}

TEST(Journal, TelemetryAllocationRateTakesDenialsBack) {
  Journal journal(2, 16);  // control + 1 shard
  journal.append(1, make(EventKind::kIngestAdmitted, 0, /*is_offer=*/0, 0, 1));
  journal.append(1, make(EventKind::kIngestAdmitted, 0, /*is_offer=*/0, 1, 1));
  journal.append(1, make(EventKind::kTradeStruck, 1, 0, 0, 0, 0.5, 2.0));
  journal.append(1, make(EventKind::kTradeStruck, 1, 1, 0, 0, 0.25, 6.0));
  journal.append(1, make(EventKind::kTradeDenied, 1, 0, 1));

  obs::MetricsSink sink = telemetry_sink(journal);
  // Two struck, one denied: one standing trade over two admitted requests.
  EXPECT_EQ(sink.metrics().gauge("journal.allocation_rate").value(), 0.5);
}

TEST(Journal, AppendAndDecodePreconditions) {
  EXPECT_THROW(Journal(0, 8), precondition_error);
  EXPECT_THROW(Journal(2, 0), precondition_error);

  Journal journal(2, 4);
  EXPECT_THROW(journal.append(2, make(EventKind::kEpochClose, 1)), precondition_error);
  EXPECT_THROW(journal.append(0, make(static_cast<EventKind>(200), 1)), precondition_error);
  EXPECT_THROW(journal.size(5), precondition_error);
  EXPECT_THROW(journal.events(5), precondition_error);

  // Malformed buffers fail loudly with the structured decode error (a
  // caller mixing up files gets a parse diagnostic, not a crashed
  // invariant), never misparse.
  EXPECT_THROW(Journal::decode({}), wire::decode_error);
  const std::vector<std::uint8_t> bad_magic = {'X', 'C', 'J', '1', 1, 4, 2};
  EXPECT_THROW(Journal::decode(bad_magic), wire::decode_error);
  std::vector<std::uint8_t> truncated = journal.encode();
  journal.append(0, make(EventKind::kTradeStruck, 1, 0, 0, 0, 1.0, 2.0));
  truncated = journal.encode();
  truncated.resize(truncated.size() - 3);  // cut into the trailing doubles
  EXPECT_THROW(Journal::decode(truncated), wire::decode_error);
  std::vector<std::uint8_t> trailing = journal.encode();
  trailing.push_back(0);
  EXPECT_THROW(Journal::decode(trailing), wire::decode_error);
}

}  // namespace
}  // namespace decloud::journal
