// journal_query — query/diff front end for the market flight recorder.
//
// Reads a binary journal written by `engine_driver --journal-out` (format:
// src/journal/journal.hpp) and either summarizes it, exports it as JSONL,
// or byte-diffs two journals:
//
//   journal_query run.journal                 per-kind counts + economics
//   journal_query run.journal --jsonl         one JSON object per event
//   journal_query run.journal --jsonl --ring 2 --kind trade_struck
//   journal_query run.journal --epoch 17      only events of epoch 17
//   journal_query --diff a.journal b.journal  exit 0 iff byte-identical
//
//   --jsonl        JSONL export instead of the summary
//   --ring N       only ring N (0 = control, s+1 = shard s)
//   --kind NAME    only events of this kind (names from kind_name())
//   --epoch N      only events stamped with logical epoch N
//   --diff A B     byte-compare two journals; exit 0 when identical,
//                  exit 1 with the first differing offset otherwise —
//                  the kill-and-recover oracle ROADMAP item 5's WAL
//                  replay will assert with.
//
// A failed write of the summary or the --jsonl export prints
// "journal_query: cannot write stdout" and exits 1.
//
// Filters compose (AND).  The summary of a filtered view recomputes the
// aggregates over the surviving events only.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "journal/journal.hpp"

namespace {

using namespace decloud;

/// Whole-file read; returns false (with a message) on I/O failure.
bool read_file(const char* path, std::vector<std::uint8_t>& out) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "journal_query: cannot open %s\n", path);
    return false;
  }
  std::uint8_t buf[65536];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.insert(out.end(), buf, buf + n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "journal_query: read error on %s\n", path);
  return ok;
}

struct Filter {
  std::size_t ring = SIZE_MAX;     ///< SIZE_MAX = any ring
  int kind = -1;                   ///< -1 = any kind
  std::uint64_t epoch = UINT64_MAX;  ///< UINT64_MAX = any epoch

  [[nodiscard]] bool matches(std::size_t event_ring, const journal::Event& e) const {
    if (ring != SIZE_MAX && event_ring != ring) return false;
    if (kind >= 0 && static_cast<int>(e.kind) != kind) return false;
    if (epoch != UINT64_MAX && e.epoch != epoch) return false;
    return true;
  }
};

/// Validates the parsed command line; the entry-point contract the
/// determinism lint pins (`main` is a registered entry).
bool validate_args(const char* journal_path, const char* diff_a, const char* diff_b) {
  if (diff_a != nullptr || diff_b != nullptr) {
    if (diff_a == nullptr || diff_b == nullptr) {
      std::fprintf(stderr, "journal_query: --diff needs two paths\n");
      return false;
    }
    return true;
  }
  if (journal_path == nullptr) {
    std::fprintf(stderr,
                 "usage: journal_query JOURNAL [--jsonl] [--ring N] [--kind NAME] [--epoch N]\n"
                 "       journal_query --diff A B\n");
    return false;
  }
  return true;
}

int diff_journals(const char* path_a, const char* path_b) {
  std::vector<std::uint8_t> a, b;
  if (!read_file(path_a, a) || !read_file(path_b, b)) return 2;
  const std::size_t limit = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < limit; ++i) {
    if (a[i] != b[i]) {
      std::printf("differ at offset %zu (0x%02x vs 0x%02x)\n", i, a[i], b[i]);
      return 1;
    }
  }
  if (a.size() != b.size()) {
    std::printf("differ in length (%zu vs %zu bytes, common prefix identical)\n", a.size(),
                b.size());
    return 1;
  }
  std::printf("identical (%zu bytes)\n", a.size());
  return 0;
}

void print_summary(const journal::Journal& journal, const Filter& filter) {
  std::uint64_t kind_counts[journal::kNumEventKinds] = {};
  std::uint64_t total = 0;
  std::uint64_t trades = 0;
  double welfare = 0.0;
  double payments = 0.0;
  double price_sum = 0.0;
  double price_min = 0.0;
  double price_max = 0.0;
  std::uint64_t carried = 0;
  std::uint64_t abandoned = 0;
  for (std::size_t ring = 0; ring < journal.num_rings(); ++ring) {
    for (const journal::Event& e : journal.events(ring)) {
      if (!filter.matches(ring, e)) continue;
      ++total;
      ++kind_counts[static_cast<std::size_t>(e.kind)];
      switch (e.kind) {
        case journal::EventKind::kTradeStruck:
          payments += e.x;
          price_sum += e.y;
          if (trades == 0 || e.y < price_min) price_min = e.y;
          if (trades == 0 || e.y > price_max) price_max = e.y;
          ++trades;
          break;
        case journal::EventKind::kBlockMined: welfare += e.x; break;
        case journal::EventKind::kResidueCarried: carried += e.a; break;
        case journal::EventKind::kResidueAbandoned: abandoned += e.a + e.b; break;
        default: break;
      }
    }
  }
  std::printf("rings: %zu  capacity: %zu  events: %" PRIu64 "\n", journal.num_rings(),
              journal.capacity(), total);
  std::uint64_t drops = 0;
  for (std::size_t ring = 0; ring < journal.num_rings(); ++ring) drops += journal.dropped(ring);
  if (drops > 0) std::printf("dropped (ring overflow): %" PRIu64 "\n", drops);
  for (std::size_t k = 0; k < journal::kNumEventKinds; ++k) {
    if (kind_counts[k] == 0) continue;
    std::printf("  %-20s %" PRIu64 "\n",
                journal::kind_name(static_cast<journal::EventKind>(k)), kind_counts[k]);
  }
  std::printf("welfare: %.17g  payments: %.17g\n", welfare, payments);
  if (trades > 0) {
    std::printf("clearing price: mean %.17g  min %.17g  max %.17g\n",
                price_sum / static_cast<double>(trades), price_min, price_max);
  }
  std::printf("residue: carried %" PRIu64 "  abandoned %" PRIu64 "\n", carried, abandoned);
}

void print_jsonl(const journal::Journal& journal, const Filter& filter) {
  // Reuse the canonical exporter when nothing filters, so the CLI output
  // is byte-identical to Journal::export_jsonl (tests pin this); filtered
  // views re-emit per event in the same shape minus the ring headers.
  const bool unfiltered =
      filter.ring == SIZE_MAX && filter.kind < 0 && filter.epoch == UINT64_MAX;
  if (unfiltered) {
    const std::string out = journal.export_jsonl();
    std::fwrite(out.data(), 1, out.size(), stdout);  // main checks ferror(stdout)
    return;
  }
  for (std::size_t ring = 0; ring < journal.num_rings(); ++ring) {
    for (const journal::Event& e : journal.events(ring)) {
      if (!filter.matches(ring, e)) continue;
      std::printf("{\"ring\":%zu,\"seq\":%" PRIu64 ",\"kind\":\"%s\",\"epoch\":%" PRIu64
                  ",\"a\":%" PRIu64 ",\"b\":%" PRIu64 ",\"c\":%" PRIu64,
                  ring, e.seq, journal::kind_name(e.kind), e.epoch, e.a, e.b, e.c);
      const std::size_t doubles = journal::kind_doubles(e.kind);
      if (doubles >= 1) std::printf(",\"x\":%.17g", e.x);
      if (doubles >= 2) std::printf(",\"y\":%.17g", e.y);
      std::printf("}\n");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const char* journal_path = nullptr;
  const char* diff_a = nullptr;
  const char* diff_b = nullptr;
  bool jsonl = false;
  Filter filter;

  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "journal_query: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--jsonl") == 0) {
      jsonl = true;
    } else if (std::strcmp(argv[i], "--ring") == 0) {
      filter.ring = std::strtoul(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--epoch") == 0) {
      filter.epoch = std::strtoull(next(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--kind") == 0) {
      const char* name = next();
      filter.kind = -1;
      for (std::size_t k = 0; k < journal::kNumEventKinds; ++k) {
        if (std::strcmp(name, journal::kind_name(static_cast<journal::EventKind>(k))) == 0) {
          filter.kind = static_cast<int>(k);
          break;
        }
      }
      if (filter.kind < 0) {
        std::fprintf(stderr, "journal_query: unknown --kind %s\n", name);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--diff") == 0) {
      diff_a = next();
      diff_b = next();
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "journal_query: unknown option %s\n", argv[i]);
      return 2;
    } else if (journal_path == nullptr) {
      journal_path = argv[i];
    } else {
      std::fprintf(stderr, "journal_query: more than one journal given (use --diff A B)\n");
      return 2;
    }
  }

  if (!validate_args(journal_path, diff_a, diff_b)) return 2;
  if (diff_a != nullptr) return diff_journals(diff_a, diff_b);

  std::vector<std::uint8_t> bytes;
  if (!read_file(journal_path, bytes)) return 2;
  try {
    const journal::Journal journal = journal::Journal::decode(bytes);
    if (jsonl) {
      print_jsonl(journal, filter);
    } else {
      print_summary(journal, filter);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "journal_query: malformed journal %s: %s\n", journal_path, e.what());
    return 2;
  }
  // stdio keeps a failed write's error on the stream, so one flush and
  // ferror check covers every write of the summary or the export.
  if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0) {
    std::fprintf(stderr, "journal_query: cannot write stdout\n");
    return 1;
  }
  return 0;
}
