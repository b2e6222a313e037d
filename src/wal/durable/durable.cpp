#include "wal/durable/durable.hpp"

#include <optional>
#include <utility>

#include "common/ensure.hpp"
#include "journal/wire.hpp"
#include "ledger/codec.hpp"
#include "wal/snapshot.hpp"

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

/// Restores the latest snapshot (if any) into `market` and `progress`;
/// returns its watermark — the first input_seq it does not cover.
std::uint64_t restore_latest_snapshot(stream::StreamingMarket& market, std::size_t trace_size,
                                      const DurableOptions& opts, DriveProgress& progress) {
  const std::optional<std::string> path = find_latest_snapshot(opts.wal_dir);
  if (!path) return 0;
  const SnapshotFile snap = read_snapshot(*path, opts.fingerprint);
  ByteReader r(snap.payload);
  const std::uint64_t watermark = wire::read_u64(r);
  progress.done = wire::read_u64(r);
  progress.admitted = wire::read_u64(r);
  progress.rejected = wire::read_u64(r);
  wire::check(wire::read_u64(r) == trace_size,
              "snapshot workload size differs from the configured run");
  progress.flushed = wire::read_u8(r) != 0;
  market.market_engine().restore_state(r);
  market.scheduler().restore_state(r);
  market.restore_state(r);
  wire::check(r.exhausted(), "snapshot payload has trailing bytes");
  return watermark;
}

/// Feeds the logged inputs from `watermark` on back through the market.
/// A crash during the post-flush drain discards the partial drain work:
/// replay rebuilds the post-flush state and the resumed drain re-runs the
/// whole (deterministic) tail, re-logging identical block fingerprints
/// (load_wal tolerates the equal duplicates).
void replay_tail(stream::StreamingMarket& market, const WalContents& contents,
                 std::uint64_t watermark, DriveProgress& progress) {
  for (const Record& record : contents.inputs) {
    if (record.input_seq < watermark) continue;
    switch (record.kind) {
      case RecordKind::kBid: {
        const stream::StreamAdmission admission =
            record.is_offer ? market.submit(ledger::decode_offer(record.payload))
                            : market.submit(ledger::decode_request(record.payload));
        progress.count(admission.engine.admitted());
        ++progress.done;
        break;
      }
      case RecordKind::kFlush:
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

DurableLog::DurableLog(stream::StreamingMarket& market, std::size_t trace_size,
                       DurableOptions opts)
    : market_(market), opts_(std::move(opts)), trace_size_(trace_size) {
  DECLOUD_EXPECTS_MSG(!opts_.wal_dir.empty(), "durable drive needs a WAL directory");
  engine::MarketEngine& engine = market_.market_engine();
  DECLOUD_EXPECTS_MSG(!engine.config().market.reuse_candidate_index,
                      "durable mode requires reuse_candidate_index = false (snapshots do not "
                      "carry the producer's index cache)");

  const WalWriter::Options wal_options{opts_.wal_dir, engine.num_shards(), opts_.fingerprint,
                                       opts_.sync};
  if (!opts_.recover) {
    writer_ = WalWriter::create(wal_options);
  } else {
    const WalContents contents = load_wal(opts_.wal_dir, engine.num_shards(), opts_.fingerprint);
    const std::uint64_t watermark =
        restore_latest_snapshot(market_, trace_size_, opts_, resume_);
    replay_tail(market_, contents, watermark, resume_);
    verify_block_fingerprints(engine, contents);
    writer_ = WalWriter::attach(wal_options, contents.valid_bytes, contents.next_input_seq);
  }
  engine.set_wal_writer(writer_.get());
  market_.set_wal_writer(writer_.get());
  engine.set_crash_injector(opts_.crash);
}

DurableLog::~DurableLog() {
  market_.market_engine().set_wal_writer(nullptr);
  market_.set_wal_writer(nullptr);
  market_.market_engine().set_crash_injector(nullptr);
}

void DurableLog::on_close(const DriveProgress& progress) {
  DECLOUD_EXPECTS(progress.done <= trace_size_);
  const std::uint64_t closes = market_.micro_epochs();
  if (opts_.snapshot_every == 0 || closes % opts_.snapshot_every != 0) return;
  ByteWriter w;
  w.write_u64(writer_->next_input_seq());
  w.write_u64(progress.done);
  w.write_u64(progress.admitted);
  w.write_u64(progress.rejected);
  w.write_u64(trace_size_);
  w.write_u8(progress.flushed ? 1 : 0);
  market_.market_engine().encode_state(w);
  market_.scheduler().encode_state(w);
  market_.encode_state(w);
  write_snapshot(opts_.wal_dir, closes, w.bytes(), opts_.fingerprint, opts_.crash);
}

}  // namespace decloud::wal
