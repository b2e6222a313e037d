#include "wal/durable/durable.hpp"

#include "common/ensure.hpp"
#include "journal/wire.hpp"
#include "ledger/codec.hpp"
#include "stream/stream_driver.hpp"

namespace decloud::wal {
namespace {

namespace wire = journal::wire;

/// Recovered chain tips must agree with whatever block fingerprints the
/// dead process managed to log.  A missing entry is fine (the crash beat
/// the block append); a disagreeing digest means replay diverged.
void verify_block_fingerprints(const engine::MarketEngine& engine, const WalContents& contents) {
  for (std::size_t s = 0; s < engine.num_shards(); ++s) {
    const ledger::Blockchain& chain = engine.shard_market(s).protocol().chain();
    const auto it = contents.blocks.find({s, chain.height()});
    wire::check(it == contents.blocks.end() || it->second == chain.tip_hash(),
                "recovered chain tip disagrees with the WAL block fingerprint");
  }
}

/// Feeds every logged input back through the market.  A drive logs the
/// trace's bids in trace order, each as its codec bytes, and then at most
/// one flush; a log of any other shape or content did not come from a
/// drive of this trace and is refused before it can skew the report.  A
/// crash during the post-flush drain discards the partial drain work:
/// replay rebuilds the post-flush state and the resumed drain re-runs the
/// whole (deterministic) tail, re-logging identical block fingerprints
/// (load_wal tolerates the equal duplicates).
void replay(stream::StreamingMarket& market, const WalContents& contents,
            const engine::TraceStream& trace, DriveProgress& progress) {
  const std::size_t n_req = trace.snapshot.requests.size();
  for (const Record& record : contents.inputs) {
    switch (record.kind) {
      case RecordKind::kBid: {
        wire::check(progress.done < trace.order.size(),
                    "wal logs a bid past the end of the trace");
        const std::size_t i = trace.order[progress.done];
        const bool is_offer = i >= n_req;
        const std::vector<std::uint8_t> expected =
            is_offer ? ledger::encode_offer(trace.snapshot.offers[i - n_req])
                     : ledger::encode_request(trace.snapshot.requests[i]);
        wire::check(record.is_offer == is_offer && record.payload == expected,
                    "wal logs a bid unlike the trace bid at its position");
        progress.count(stream::submit_trace_bid(market, trace, progress.done).engine.admitted());
        ++progress.done;
        break;
      }
      case RecordKind::kFlush:
        wire::check(progress.done == trace.order.size() && !progress.flushed,
                    "wal logs a flush before the end of the trace or twice");
        (void)market.flush();
        progress.flushed = true;
        break;
      case RecordKind::kBlockAppend:
        break;  // outputs, never in contents.inputs
    }
  }
}

}  // namespace

std::uint64_t config_fingerprint(std::string_view canonical) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : canonical) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

DurableLog::DurableLog(stream::StreamingMarket& market, const engine::TraceStream& trace,
                       const DurableOptions& opts)
    : market_(market) {
  DECLOUD_EXPECTS_MSG(!opts.wal_dir.empty(), "durable drive needs a WAL directory");
  engine::MarketEngine& engine = market_.market_engine();
  const WalWriter::Options wal_options{opts.wal_dir, engine.num_shards(), opts.fingerprint,
                                       opts.sync};
  if (!opts.recover) {
    writer_ = WalWriter::create(wal_options);
  } else {
    const WalContents contents = load_wal(opts.wal_dir, engine.num_shards(), opts.fingerprint);
    replay(market_, contents, trace, resume_);
    verify_block_fingerprints(engine, contents);
    writer_ = WalWriter::attach(wal_options, contents.valid_bytes, contents.next_input_seq);
  }
  engine.set_wal_writer(writer_.get());
  market_.set_wal_writer(writer_.get());
  engine.set_crash_injector(opts.crash);
}

DurableLog::~DurableLog() {
  market_.market_engine().set_wal_writer(nullptr);
  market_.set_wal_writer(nullptr);
  market_.market_engine().set_crash_injector(nullptr);
}

}  // namespace decloud::wal
