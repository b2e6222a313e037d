#include "journal/journal.hpp"

#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <utility>

#include "common/byte_buffer.hpp"
#include "common/ensure.hpp"
#include "journal/wire.hpp"
#include "stats/histogram.hpp"

namespace decloud::journal {
namespace {

using wire::read_varint;
using wire::write_varint;

// Wire magic: "DCJ1" + a version byte.  The magic pins byte order and
// format family; the version gates incompatible schema changes.  Varint /
// CRC primitives live in journal/wire.hpp, shared with the WAL's "DCW1"
// format.
constexpr std::uint8_t kMagic[4] = {'D', 'C', 'J', '1'};
constexpr std::uint8_t kVersion = 1;

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace

const char* kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kIngestAdmitted: return "ingest_admitted";
    case EventKind::kIngestRejected: return "ingest_rejected";
    case EventKind::kIngestDeferred: return "ingest_deferred";
    case EventKind::kRetryAdmitted: return "retry_admitted";
    case EventKind::kRetryDropped: return "retry_dropped";
    case EventKind::kEpochClose: return "epoch_close";
    case EventKind::kTradeStruck: return "trade_struck";
    case EventKind::kTradeReduced: return "trade_reduced";
    case EventKind::kTradeDenied: return "trade_denied";
    case EventKind::kBlockMined: return "block_mined";
    case EventKind::kBlockRejected: return "block_rejected";
    case EventKind::kBlockRemined: return "block_remined";
    case EventKind::kFaultFired: return "fault_fired";
    case EventKind::kReputationPenalty: return "reputation_penalty";
    case EventKind::kResidueCarried: return "residue_carried";
    case EventKind::kResidueAbandoned: return "residue_abandoned";
  }
  DECLOUD_EXPECTS_MSG(false, "unknown journal event kind");
  return "";
}

std::size_t kind_doubles(EventKind kind) {
  switch (kind) {
    case EventKind::kTradeStruck: return 2;  // payment, Eq. 20 unit price
    case EventKind::kBlockMined: return 1;   // round welfare
    default: return 0;
  }
}

Journal::Journal(std::size_t num_rings, std::size_t capacity) : capacity_(capacity) {
  DECLOUD_EXPECTS_MSG(num_rings >= 1, "journal needs at least the control ring");
  DECLOUD_EXPECTS_MSG(capacity > 0, "journal ring capacity must be positive");
  rings_.reserve(num_rings);
  for (std::size_t i = 0; i < num_rings; ++i) rings_.push_back(std::make_unique<Ring>());
}

void Journal::append(std::size_t ring, Event event) {
  DECLOUD_EXPECTS_MSG(ring < rings_.size(), "journal ring index out of range");
  DECLOUD_EXPECTS_MSG(static_cast<std::size_t>(event.kind) < kNumEventKinds,
                      "journal event kind out of range");
  Ring& r = *rings_[ring];
  const std::lock_guard<dsched::mutex> lock(r.mutex);
  event.seq = r.next_seq++;
  if (r.buf.size() < capacity_) {
    r.buf.push_back(event);
    ++r.count;
  } else if (r.count < capacity_) {
    r.buf[(r.head + r.count) % capacity_] = event;
    ++r.count;
  } else {
    // Full: overwrite the oldest slot — the tail is the recent history.
    r.buf[r.head] = event;
    r.head = (r.head + 1) % capacity_;
    ++r.dropped;
  }
  DECLOUD_ENSURES_MSG(r.count <= capacity_, "journal ring overflowed its bound");
}

std::size_t Journal::size(std::size_t ring) const {
  DECLOUD_EXPECTS(ring < rings_.size());
  const Ring& r = *rings_[ring];
  const std::lock_guard<dsched::mutex> lock(r.mutex);
  return r.count;
}

std::uint64_t Journal::dropped(std::size_t ring) const {
  DECLOUD_EXPECTS(ring < rings_.size());
  const Ring& r = *rings_[ring];
  const std::lock_guard<dsched::mutex> lock(r.mutex);
  return r.dropped;
}

std::vector<Event> Journal::events(std::size_t ring) const {
  DECLOUD_EXPECTS(ring < rings_.size());
  const Ring& r = *rings_[ring];
  const std::lock_guard<dsched::mutex> lock(r.mutex);
  std::vector<Event> out;
  out.reserve(r.count);
  for (std::size_t i = 0; i < r.count; ++i) out.push_back(r.buf[(r.head + i) % capacity_]);
  return out;
}

std::size_t Journal::total_events() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < rings_.size(); ++i) total += size(i);
  return total;
}

std::vector<std::uint8_t> Journal::encode() const {
  ByteWriter w;
  for (const std::uint8_t b : kMagic) w.write_u8(b);
  w.write_u8(kVersion);
  write_varint(w, capacity_);
  write_varint(w, rings_.size());
  for (std::size_t ring = 0; ring < rings_.size(); ++ring) {
    const std::vector<Event> events = this->events(ring);
    const std::uint64_t drops = dropped(ring);
    const std::uint64_t first_seq = events.empty() ? 0 : events.front().seq;
    write_varint(w, drops);
    write_varint(w, first_seq);
    write_varint(w, events.size());
    for (const Event& e : events) {
      // seq is implicit (first_seq + position): rings assign dense
      // sequence numbers, so encoding them would only add bytes.
      w.write_u8(static_cast<std::uint8_t>(e.kind));
      write_varint(w, e.epoch);
      write_varint(w, e.a);
      write_varint(w, e.b);
      write_varint(w, e.c);
      const std::size_t doubles = kind_doubles(e.kind);
      if (doubles >= 1) w.write_double(e.x);
      if (doubles >= 2) w.write_double(e.y);
    }
  }
  return std::move(w).take();
}

Journal Journal::decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  for (const std::uint8_t expected : kMagic) {
    wire::check(wire::read_u8(r) == expected, "journal magic mismatch");
  }
  wire::check(wire::read_u8(r) == kVersion, "journal version mismatch");
  const std::uint64_t capacity = read_varint(r);
  const std::uint64_t num_rings = read_varint(r);
  wire::check(capacity > 0 && num_rings >= 1, "journal header invalid");
  // A corrupt ring count must not drive a huge up-front allocation: each
  // non-empty ring needs at least 3 header bytes, so bound by remaining().
  wire::check(num_rings <= r.remaining(), "journal ring count exceeds input size");
  Journal journal(static_cast<std::size_t>(num_rings), static_cast<std::size_t>(capacity));
  for (std::size_t ring = 0; ring < num_rings; ++ring) {
    Ring& dst = *journal.rings_[ring];
    dst.dropped = read_varint(r);
    const std::uint64_t first_seq = read_varint(r);
    const std::uint64_t count = read_varint(r);
    wire::check(count <= capacity, "journal ring count exceeds capacity");
    wire::check(count <= r.remaining(), "journal ring count exceeds input size");
    dst.next_seq = first_seq;
    for (std::uint64_t i = 0; i < count; ++i) {
      Event e;
      const std::uint8_t kind = wire::read_u8(r);
      wire::check(kind < kNumEventKinds, "journal event kind out of range");
      e.kind = static_cast<EventKind>(kind);
      e.epoch = read_varint(r);
      e.a = read_varint(r);
      e.b = read_varint(r);
      e.c = read_varint(r);
      const std::size_t doubles = kind_doubles(e.kind);
      if (doubles >= 1) e.x = wire::read_double(r);
      if (doubles >= 2) e.y = wire::read_double(r);
      e.seq = dst.next_seq++;
      dst.buf.push_back(e);
      ++dst.count;
    }
  }
  wire::check(r.exhausted(), "journal has trailing bytes");
  return journal;
}

std::string Journal::export_jsonl() const {
  DECLOUD_EXPECTS_MSG(!rings_.empty(), "journal has no rings to export");
  std::string out;
  char buf[192];
  for (std::size_t ring = 0; ring < rings_.size(); ++ring) {
    const std::vector<Event> events = this->events(ring);
    const std::uint64_t drops = dropped(ring);
    const std::uint64_t first_seq = events.empty() ? 0 : events.front().seq;
    std::snprintf(buf, sizeof buf,
                  "{\"ring\":%zu,\"kind\":\"ring_header\",\"dropped\":%" PRIu64
                  ",\"first_seq\":%" PRIu64 ",\"events\":%zu}\n",
                  ring, drops, first_seq, events.size());
    out += buf;
    for (const Event& e : events) {
      std::snprintf(buf, sizeof buf,
                    "{\"ring\":%zu,\"seq\":%" PRIu64 ",\"kind\":\"%s\",\"epoch\":%" PRIu64
                    ",\"a\":%" PRIu64 ",\"b\":%" PRIu64 ",\"c\":%" PRIu64,
                    ring, e.seq, kind_name(e.kind), e.epoch, e.a, e.b, e.c);
      out += buf;
      const std::size_t doubles = kind_doubles(e.kind);
      if (doubles >= 1) {
        out += ",\"x\":";
        append_double(out, e.x);
      }
      if (doubles >= 2) {
        out += ",\"y\":";
        append_double(out, e.y);
      }
      out += "}\n";
    }
  }
  return out;
}

obs::MetricsSink telemetry_sink(const Journal& journal) {
  obs::MetricsSink sink("journal");
  obs::MetricsRegistry& m = sink.metrics();

  // Fixed ring order; within a ring events are already oldest-first, so
  // every accumulation below is a deterministic left fold.
  std::uint64_t total = 0;
  std::uint64_t drops = 0;
  std::uint64_t requests_admitted = 0;
  std::uint64_t trades = 0;
  std::uint64_t denied = 0;
  double welfare = 0.0;
  std::size_t trading_shards = 0;
  std::uint64_t max_shard_trades = 0;
  stats::Histogram& price = m.histogram("journal.clearing_price", 0.0, 8.0, 32);
  stats::Histogram& block_welfare = m.histogram("journal.welfare_per_block", 0.0, 64.0, 16);
  stats::Histogram& block_trades = m.histogram("journal.trades_per_block", 0.0, 64.0, 16);

  for (std::size_t ring = 0; ring < journal.num_rings(); ++ring) {
    std::uint64_t shard_trades = 0;
    std::uint64_t shard_carried = 0;
    std::uint64_t shard_abandoned = 0;
    for (const Event& e : journal.events(ring)) {
      ++total;
      switch (e.kind) {
        case EventKind::kIngestAdmitted:
        case EventKind::kRetryAdmitted:
          if (e.a == 0) ++requests_admitted;
          break;
        case EventKind::kTradeStruck:
          ++trades;
          ++shard_trades;
          price.add(e.y);
          break;
        case EventKind::kTradeDenied:
          ++denied;  // the client took the trade back: it does not stand
          break;
        case EventKind::kTradeReduced:
          m.counter("journal.trades_reduced").add(e.a);
          break;
        case EventKind::kBlockMined:
          welfare += e.x;
          block_welfare.add(e.x);
          block_trades.add(static_cast<double>(e.b));
          break;
        case EventKind::kFaultFired:
          m.counter("journal.faults_fired").add();
          break;
        case EventKind::kReputationPenalty:
          m.counter("journal.penalties").add();
          break;
        case EventKind::kResidueCarried:
          shard_carried += e.a;
          break;
        case EventKind::kResidueAbandoned:
          shard_abandoned += e.a + e.b;
          break;
        // Counted where they happen, journal on or off: ingests
        // (engine.bids_drained), ingest refusals and retries
        // (engine.bids_*), closes (engine.epochs) and blocks
        // (ledger.blocks_*, fault.blocks_remined).
        case EventKind::kIngestRejected:
        case EventKind::kIngestDeferred:
        case EventKind::kRetryDropped:
        case EventKind::kEpochClose:
        case EventKind::kBlockRejected:
        case EventKind::kBlockRemined:
          break;
      }
    }
    drops += journal.dropped(ring);
    if (ring != Journal::kControlRing) {
      // Per-shard liquidity-fragmentation counters: where trades happen
      // and where residue piles up (ROADMAP item 3's raw signal).
      char name[64];
      const std::size_t shard = ring - 1;
      std::snprintf(name, sizeof name, "journal.shard%zu.trades", shard);
      m.counter(name).add(shard_trades);
      std::snprintf(name, sizeof name, "journal.shard%zu.residue_carried", shard);
      m.counter(name).add(shard_carried);
      std::snprintf(name, sizeof name, "journal.shard%zu.residue_abandoned", shard);
      m.counter(name).add(shard_abandoned);
      if (shard_trades > 0) ++trading_shards;
      if (shard_trades > max_shard_trades) max_shard_trades = shard_trades;
      m.counter("journal.residue_abandoned").add(shard_abandoned);
    }
  }

  m.counter("journal.events").add(total);
  m.counter("journal.dropped").add(drops);
  m.gauge("journal.welfare").set(welfare);
  // Standing trades over admitted requests, as the report's
  // requests_allocated / requests_submitted: a denied trade was struck but
  // never executed.  Ring drops can take a struck event and keep its
  // denial, hence the floor.
  const std::uint64_t standing = trades > denied ? trades - denied : 0;
  m.gauge("journal.allocation_rate")
      .set(requests_admitted == 0
               ? 0.0
               : static_cast<double>(standing) / static_cast<double>(requests_admitted));
  m.gauge("journal.trading_shards").set(static_cast<double>(trading_shards));
  // Share of all trades struck on the busiest shard: 1/num_shards when
  // liquidity spreads evenly, → 1.0 as it concentrates.
  m.gauge("journal.trade_concentration")
      .set(trades == 0 ? 0.0
                       : static_cast<double>(max_shard_trades) / static_cast<double>(trades));
  return sink;
}

}  // namespace decloud::journal
