// declint — DeCloud's repo-specific static checker.
//
// The mechanism's provable properties (DSIC, strong budget balance,
// individual rationality) and the ledger's collective verification both
// hinge on every miner re-deriving byte-identical allocations.  That makes
// determinism a *repo invariant*, not a style preference — and most ways to
// break it (hash-order iteration, ambient clocks, platform RNGs, data races
// hidden behind naked ownership) compile silently.  This tool is a
// token-level scan over src/, tests/ and bench/ that rejects those
// constructs before they reach review.
//
// Design constraints:
//   * self-contained: one translation unit, standard library only, builds
//     with the project toolchain — no LLVM/libclang dependency;
//   * token-level, not AST-level: comments, strings and raw strings are
//     stripped, so the rules cannot be fooled by literals, but deliberately
//     clever code can evade them — declint is a tripwire, not a prover;
//   * every rule is declared in kRules below and can be suppressed locally
//     with `// declint:allow(<rule>)` (same line or the line below) or for
//     a whole file with `// declint:allow-file(<rule>)`.
//
// Exit status: 0 when clean, 1 when findings exist (2 on usage/IO errors).
// `--fix-dry-run` prints the suggested remediation for every finding and
// always exits 0 — it is a report, not a gate.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------------------
// Rule table.
// ---------------------------------------------------------------------------

struct Rule {
  std::string_view id;
  std::string_view summary;
  std::string_view fix_hint;
};

constexpr Rule kRules[] = {
    {"wallclock",
     "wall-clock reads (time(), std::chrono::system_clock, ...) are forbidden outside bench "
     "timing: block evidence, not the host clock, drives the mechanism",
     "thread simulated `Time now` through the call chain, or move the timing into bench/"},
    {"wallclock-outside-obs",
     "std::chrono::steady_clock outside src/obs/: obs::SteadyClock (src/obs/clock.hpp) is the "
     "single sanctioned wall-clock read, injected as obs::Clock so tests can fake time — this "
     "covers bench/ too; no blanket exemptions",
     "take an obs::Clock* (SteadyClock in production, FakeClock in tests) instead of reading "
     "std::chrono::steady_clock directly"},
    {"ambient-rng",
     "ambient randomness (rand, srand, std::random_device, ...) is forbidden outside "
     "common/rng: miners must re-derive identical streams from block evidence",
     "seed a decloud::Rng from the block evidence (common/rng.hpp) instead"},
    {"unordered-iter",
     "iterating an unordered container in a deterministic module (src/auction, src/engine, "
     "src/ledger, src/stream, src/journal, src/wal): hash order is not stable across platforms "
     "or runs",
     "iterate a sorted key vector, or switch the container to std::map/std::vector"},
    {"float-reduce",
     "std::reduce / std::transform_reduce over money or welfare in economics code: "
     "unspecified operand grouping makes floating-point sums non-reproducible",
     "use an ordered loop or std::accumulate (left fold) so the sum order is fixed"},
    {"naked-new",
     "naked new/delete: ownership must be expressed with containers or smart pointers "
     "(make_unique) so sanitizer runs stay leak-free",
     "replace with std::make_unique / std::vector; `= delete` of special members is fine"},
    {"omp-pragma",
     "#pragma omp: OpenMP scheduling is nondeterministic; all parallelism goes through "
     "common/thread_pool's deterministic static chunking",
     "use decloud::ThreadPool / run_chunked (common/thread_pool.hpp)"},
    {"raw-sync-primitive",
     "raw std sync primitive (std::mutex, std::condition_variable, std::atomic, std::thread, "
     "std::this_thread, ...) outside src/dsched/: concurrency must go through the dsched "
     "wrappers so the systematic interleaving explorer can drive every schedule",
     "use dsched::mutex / dsched::condition_variable / dsched::atomic<T> / dsched::thread "
     "(src/dsched/sync.hpp) — zero-overhead std aliases unless DECLOUD_DSCHED=ON"},
    {"entry-ensure",
     "public mechanism entry point lacks an ENSURE-style check (DECLOUD_EXPECTS / "
     "DECLOUD_ENSURES / validate / audit): preconditions must fail loudly at the boundary",
     "add a DECLOUD_EXPECTS(...) precondition (common/ensure.hpp) at the top of the function"},
};

const Rule* find_rule(std::string_view id) {
  for (const Rule& r : kRules) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

// Public mechanism entry points that must carry an ENSURE-style check.
// Matched by path *suffix* so the table works from any checkout root (and
// so the seeded fixture tree can exercise the rule).  A listed function
// that cannot be found in its file is itself a finding — the table must
// not rot.
struct EntryPoint {
  std::string_view file_suffix;
  std::string_view qualified_name;
};

constexpr EntryPoint kEntryPoints[] = {
    {"src/auction/mechanism.cpp", "DeCloudAuction::run"},
    {"src/auction/candidate_index.cpp", "CandidateIndex::CandidateIndex"},
    {"src/auction/candidate_index.cpp", "CandidateIndex::best_offers"},
    {"src/auction/pricing.cpp", "price_cluster"},
    {"src/auction/trade_reduction.cpp", "determine_price"},
    {"src/auction/miniauction.cpp", "select_roots"},
    {"src/auction/miniauction.cpp", "create_mini_auctions"},
    {"src/auction/economics.cpp", "compute_economics"},
    {"src/auction/mcafee.cpp", "mcafee_auction"},
    {"src/auction/mcafee.cpp", "sbba_auction"},
    {"src/auction/verify.cpp", "verify_invariants"},
    {"src/engine/engine.cpp", "MarketEngine::submit_bid"},
    {"src/engine/engine.cpp", "MarketEngine::run_shard_epoch"},
    {"src/engine/engine.cpp", "MarketEngine::report"},
    {"src/engine/epoch_scheduler.cpp", "EpochScheduler::run"},
    {"src/engine/shard_router.cpp", "ShardRouter::route"},
    {"src/ledger/market.cpp", "MarketOrchestrator::run_round"},
    {"src/ledger/market.cpp", "MarketOrchestrator::deny_agreement"},
    {"src/ledger/protocol.cpp", "LedgerProtocol::run_round"},
    {"src/fault/fault.cpp", "FaultPlan::parse"},
    {"src/fault/injector.cpp", "FaultInjector::fires"},
    {"src/stream/streaming_market.cpp", "StreamingMarket::submit"},
    {"src/stream/streaming_market.cpp", "StreamingMarket::close_micro_epoch"},
    {"src/stream/stream_driver.cpp", "drive_trace_stream"},
    {"src/journal/journal.cpp", "Journal::append"},
    {"src/journal/journal.cpp", "Journal::export_jsonl"},
    {"src/wal/wal.cpp", "read_segment"},
    {"src/wal/wal.cpp", "load_wal"},
    {"src/wal/wal.cpp", "WalWriter::append_bid"},
    {"src/wal/wal.cpp", "WalWriter::append_block"},
    {"src/wal/durable/durable.cpp", "DurableLog::DurableLog"},
    {"tools/journal_query/journal_query.cpp", "main"},
};

// ---------------------------------------------------------------------------
// Lexer: comments/strings stripped, pragmas kept, suppressions recorded.
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind { kIdent, kPunct, kNumber, kPragma };
  Kind kind = Kind::kPunct;
  std::string text;
  int line = 1;
};

struct FileScan {
  std::string path;  // forward-slash, relative to the scan root
  std::vector<Token> tokens;
  std::map<int, std::set<std::string>> allow;  // line -> suppressed rule ids
  std::set<std::string> allow_file;
};

// Parses "declint:allow(a, b)" / "declint:allow-file(a)" out of a comment.
void record_directives(FileScan& scan, const std::string& comment, int line) {
  static constexpr std::string_view kAllow = "declint:allow(";
  static constexpr std::string_view kAllowFile = "declint:allow-file(";
  for (const auto& [needle, file_wide] :
       {std::pair{kAllowFile, true}, std::pair{kAllow, false}}) {
    std::size_t pos = 0;
    while ((pos = comment.find(needle, pos)) != std::string::npos) {
      // "declint:allow-file(" also contains "declint:allow" as a prefix of a
      // different directive; the exact-match find above keeps them apart
      // because the shorter needle requires '(' right after "allow".
      pos += needle.size();
      const std::size_t close = comment.find(')', pos);
      if (close == std::string::npos) break;
      std::stringstream ids(comment.substr(pos, close - pos));
      std::string id;
      while (std::getline(ids, id, ',')) {
        const auto b = id.find_first_not_of(" \t");
        const auto e = id.find_last_not_of(" \t");
        if (b == std::string::npos) continue;
        id = id.substr(b, e - b + 1);
        if (file_wide) {
          scan.allow_file.insert(id);
        } else {
          // A directive covers its own line and the next one, so it can sit
          // at the end of the offending line or alone on the line above.
          scan.allow[line].insert(id);
          scan.allow[line + 1].insert(id);
        }
      }
      pos = close;
    }
  }
}

bool is_ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool is_ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

FileScan lex_file(const fs::path& file, const std::string& rel_path) {
  FileScan scan;
  scan.path = rel_path;
  std::ifstream in(file, std::ios::binary);
  std::string src((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

  int line = 1;
  std::size_t i = 0;
  const std::size_t n = src.size();
  bool at_line_start = true;  // only whitespace seen so far on this line

  auto advance_newline = [&](char c) {
    if (c == '\n') {
      ++line;
      at_line_start = true;
    }
  };

  while (i < n) {
    const char c = src[i];
    // Line comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      std::size_t end = src.find('\n', i);
      if (end == std::string::npos) end = n;
      record_directives(scan, src.substr(i, end - i), line);
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const std::size_t end = src.find("*/", i + 2);
      const std::size_t stop = end == std::string::npos ? n : end + 2;
      record_directives(scan, src.substr(i, stop - i), line);
      for (std::size_t j = i; j < stop; ++j) advance_newline(src[j]);
      i = stop;
      continue;
    }
    // Raw string literal.
    if (c == 'R' && i + 1 < n && src[i + 1] == '"') {
      std::size_t d = i + 2;
      while (d < n && src[d] != '(') ++d;
      // Built by append (not operator+) to sidestep a GCC 12 -Wrestrict
      // false positive on the temporary-chaining form.
      std::string close = ")";
      close.append(src, i + 2, d - (i + 2));
      close += '"';
      std::size_t end = src.find(close, d);
      end = end == std::string::npos ? n : end + close.size();
      for (std::size_t j = i; j < end; ++j) advance_newline(src[j]);
      i = end;
      at_line_start = false;
      continue;
    }
    // String / char literal.
    if (c == '"' || c == '\'') {
      const char quote = c;
      std::size_t j = i + 1;
      while (j < n && src[j] != quote) {
        if (src[j] == '\\') ++j;
        ++j;
      }
      i = j < n ? j + 1 : n;
      at_line_start = false;
      continue;
    }
    // Preprocessor directive (only at line start).
    if (c == '#' && at_line_start) {
      std::string directive;
      while (i < n) {
        std::size_t end = src.find('\n', i);
        if (end == std::string::npos) end = n;
        directive.append(src, i, end - i);
        const bool continued = !directive.empty() && directive.back() == '\\';
        i = end < n ? end + 1 : n;
        ++line;
        if (!continued) break;
        directive.pop_back();
      }
      at_line_start = true;
      if (directive.find("pragma") != std::string::npos) {
        scan.tokens.push_back({Token::Kind::kPragma, directive, line - 1});
      }
      continue;
    }
    if (c == '\n') {
      advance_newline(c);
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    at_line_start = false;
    // Identifier.
    if (is_ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && is_ident_char(src[j])) ++j;
      scan.tokens.push_back({Token::Kind::kIdent, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Number (loose: good enough for token matching).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t j = i + 1;
      while (j < n && (is_ident_char(src[j]) || src[j] == '.' || src[j] == '\'')) ++j;
      scan.tokens.push_back({Token::Kind::kNumber, src.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Punctuation; '::' and '->' matter for the rules, keep them fused.
    if (c == ':' && i + 1 < n && src[i + 1] == ':') {
      scan.tokens.push_back({Token::Kind::kPunct, "::", line});
      i += 2;
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '>') {
      scan.tokens.push_back({Token::Kind::kPunct, "->", line});
      i += 2;
      continue;
    }
    scan.tokens.push_back({Token::Kind::kPunct, std::string(1, c), line});
    ++i;
  }
  return scan;
}

// ---------------------------------------------------------------------------
// Findings and helpers.
// ---------------------------------------------------------------------------

struct Finding {
  std::string path;
  int line = 0;
  std::string rule;
  std::string message;
};

bool path_contains(const std::string& path, std::string_view needle) {
  return path.find(needle) != std::string::npos;
}

bool in_deterministic_module(const std::string& path) {
  return path_contains(path, "src/auction/") || path_contains(path, "src/engine/") ||
         path_contains(path, "src/ledger/") || path_contains(path, "src/fault/") ||
         path_contains(path, "src/stream/") || path_contains(path, "src/journal/") ||
         path_contains(path, "src/wal/");
}

bool in_economics_code(const std::string& path) {
  return in_deterministic_module(path) || path_contains(path, "src/stats/");
}

/// Index of the matching closer for the opener at `open`, or tokens.size().
std::size_t match_balanced(const std::vector<Token>& toks, std::size_t open,
                           std::string_view open_text, std::string_view close_text) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kPunct) continue;
    if (toks[i].text == open_text) ++depth;
    if (toks[i].text == close_text && --depth == 0) return i;
  }
  return toks.size();
}

class Linter {
 public:
  void scan(const FileScan& f) {
    check_wallclock(f);
    check_wallclock_outside_obs(f);
    check_ambient_rng(f);
    check_unordered_iteration(f);
    check_float_reduce(f);
    check_naked_new(f);
    check_omp(f);
    check_raw_sync(f);
    check_entry_points(f);
  }

  /// Unordered-container identifiers a header contributes to its sibling
  /// .cpp (e.g. economics.hpp's index-map members, iterated — or not — in
  /// economics.cpp).
  static std::set<std::string> unordered_idents(const FileScan& f) {
    std::set<std::string> idents;
    const auto& t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::Kind::kIdent) continue;
      if (t[i].text != "unordered_map" && t[i].text != "unordered_set" &&
          t[i].text != "unordered_multimap" && t[i].text != "unordered_multiset") {
        continue;
      }
      // Skip the template argument list, then take the declared name.
      std::size_t j = i + 1;
      if (j < t.size() && t[j].text == "<") {
        int depth = 0;
        for (; j < t.size(); ++j) {
          if (t[j].text == "<") ++depth;
          if (t[j].text == ">" && --depth == 0) {
            ++j;
            break;
          }
        }
      }
      while (j < t.size() && (t[j].text == "&" || t[j].text == "*" || t[j].text == "const")) ++j;
      if (j < t.size() && t[j].kind == Token::Kind::kIdent) idents.insert(t[j].text);
    }
    return idents;
  }

  void set_sibling_idents(std::set<std::string> idents) { sibling_idents_ = std::move(idents); }

  std::vector<Finding> take_findings() { return std::move(findings_); }

 private:
  void report(const FileScan& f, int line, std::string_view rule, std::string message) {
    if (f.allow_file.count(std::string(rule))) return;
    const auto it = f.allow.find(line);
    if (it != f.allow.end() && it->second.count(std::string(rule))) return;
    findings_.push_back({f.path, line, std::string(rule), std::move(message)});
  }

  void check_wallclock(const FileScan& f) {
    if (path_contains(f.path, "bench/")) return;  // bench timing is the allowlist
    // steady_clock is NOT here: it has its own stricter rule
    // (wallclock-outside-obs) with no bench exemption.
    static const std::set<std::string> kClocks = {
        "system_clock", "high_resolution_clock", "gettimeofday",
        "clock_gettime", "localtime", "gmtime", "mktime"};
    const auto& t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::Kind::kIdent) continue;
      if (kClocks.count(t[i].text)) {
        report(f, t[i].line, "wallclock", "wall-clock source '" + t[i].text + "'");
        continue;
      }
      // `time(...)` as a free call — but not `.time(`, `->time(`, or a
      // declaration `Time time(...)`.
      if (t[i].text == "time" && i + 1 < t.size() && t[i + 1].text == "(") {
        const bool member_or_decl =
            i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->" ||
                      t[i - 1].kind == Token::Kind::kIdent);
        if (!member_or_decl) report(f, t[i].line, "wallclock", "call to time()");
      }
    }
  }

  void check_wallclock_outside_obs(const FileScan& f) {
    // Unlike check_wallclock there is no bench/ exemption: bench timing
    // goes through obs::SteadyClock too, so the allowlist is one directory.
    if (path_contains(f.path, "src/obs/")) return;
    for (const Token& tok : f.tokens) {
      if (tok.kind == Token::Kind::kIdent && tok.text == "steady_clock") {
        report(f, tok.line, "wallclock-outside-obs",
               "steady_clock read outside src/obs/ (use an injected obs::Clock)");
      }
    }
  }

  void check_ambient_rng(const FileScan& f) {
    if (path_contains(f.path, "common/rng")) return;  // the one sanctioned wrapper
    static const std::set<std::string> kAmbient = {"rand", "srand", "random_device", "drand48",
                                                   "lrand48", "random_shuffle"};
    for (const Token& tok : f.tokens) {
      if (tok.kind == Token::Kind::kIdent && kAmbient.count(tok.text)) {
        report(f, tok.line, "ambient-rng", "ambient randomness '" + tok.text + "'");
      }
    }
  }

  void check_unordered_iteration(const FileScan& f) {
    if (!in_deterministic_module(f.path)) return;
    std::set<std::string> idents = unordered_idents(f);
    idents.insert(sibling_idents_.begin(), sibling_idents_.end());

    const auto& t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::Kind::kIdent) continue;
      // Range-for whose range expression names an unordered container.
      if (t[i].text == "for" && i + 1 < t.size() && t[i + 1].text == "(") {
        const std::size_t close = match_balanced(t, i + 1, "(", ")");
        // Find the top-level ':' separating declaration from range.
        std::size_t colon = 0;
        int depth = 0;
        for (std::size_t j = i + 1; j < close; ++j) {
          if (t[j].text == "(" || t[j].text == "<" || t[j].text == "[") ++depth;
          if (t[j].text == ")" || t[j].text == ">" || t[j].text == "]") --depth;
          if (t[j].text == ":" && depth == 1) {
            colon = j;
            break;
          }
        }
        if (colon == 0) continue;  // classic for loop
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (t[j].kind == Token::Kind::kIdent &&
              (idents.count(t[j].text) || t[j].text.rfind("unordered_", 0) == 0)) {
            report(f, t[j].line, "unordered-iter",
                   "range-for over unordered container '" + t[j].text + "'");
            break;
          }
        }
      }
      // Explicit iteration start on a tracked container.  (`.end()` alone
      // is fine — `it != m.end()` lookups do not observe hash order.)
      if ((t[i].text == "begin" || t[i].text == "cbegin") && i >= 2 && i + 1 < t.size() &&
          t[i + 1].text == "(" && (t[i - 1].text == "." || t[i - 1].text == "->") &&
          t[i - 2].kind == Token::Kind::kIdent && idents.count(t[i - 2].text)) {
        report(f, t[i].line, "unordered-iter",
               "iterator walk of unordered container '" + t[i - 2].text + "'");
      }
    }
  }

  void check_float_reduce(const FileScan& f) {
    if (!in_economics_code(f.path)) return;
    const auto& t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::Kind::kIdent) continue;
      if (t[i].text != "reduce" && t[i].text != "transform_reduce") continue;
      const bool is_std_call = i >= 2 && t[i - 1].text == "::" && t[i - 2].text == "std";
      if (is_std_call) {
        report(f, t[i].line, "float-reduce", "std::" + t[i].text + " in economics code");
      }
    }
  }

  void check_naked_new(const FileScan& f) {
    const auto& t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::Kind::kIdent) continue;
      if (t[i].text == "new") {
        report(f, t[i].line, "naked-new", "naked 'new'");
      } else if (t[i].text == "delete") {
        // `= delete` (deleted special member) is idiomatic and allowed.
        if (i > 0 && t[i - 1].text == "=") continue;
        report(f, t[i].line, "naked-new", "naked 'delete'");
      }
    }
  }

  void check_omp(const FileScan& f) {
    for (const Token& tok : f.tokens) {
      if (tok.kind == Token::Kind::kPragma && tok.text.find("omp") != std::string::npos) {
        report(f, tok.line, "omp-pragma", "OpenMP pragma");
      }
    }
  }

  void check_raw_sync(const FileScan& f) {
    // src/dsched/ is the one sanctioned home for raw primitives: the
    // wrappers live there, and the scheduler itself must not be a model.
    if (path_contains(f.path, "src/dsched/")) return;
    // Lock adapters (lock_guard, unique_lock, scoped_lock) are NOT
    // flagged: they are templated over the mutex type and work on
    // dsched::mutex unchanged.  memory_order constants are fine too.
    static const std::set<std::string> kRawSync = {
        "mutex",        "timed_mutex",          "recursive_mutex",
        "shared_mutex", "recursive_timed_mutex", "shared_timed_mutex",
        "condition_variable", "condition_variable_any",
        "atomic",       "atomic_flag",          "atomic_bool",
        "atomic_ref",   "thread",               "jthread",
        "this_thread",  "counting_semaphore",   "binary_semaphore",
        "latch",        "barrier"};
    const auto& t = f.tokens;
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
      if (t[i].kind != Token::Kind::kIdent || t[i].text != "std") continue;
      if (t[i + 1].text != "::") continue;
      if (t[i + 2].kind != Token::Kind::kIdent || !kRawSync.count(t[i + 2].text)) continue;
      report(f, t[i + 2].line, "raw-sync-primitive",
             "raw 'std::" + t[i + 2].text + "' outside src/dsched/");
    }
  }

  void check_entry_points(const FileScan& f) {
    for (const EntryPoint& ep : kEntryPoints) {
      if (f.path.size() < ep.file_suffix.size() ||
          f.path.compare(f.path.size() - ep.file_suffix.size(), ep.file_suffix.size(),
                         ep.file_suffix) != 0) {
        continue;
      }
      check_one_entry(f, ep);
    }
  }

  static bool is_ensure_token(const std::string& text) {
    static const std::set<std::string> kExact = {"expects", "ensures"};
    // "check" covers journal::wire::check, the shared codec's throwing
    // precondition used at every WAL/snapshot decode boundary.
    return kExact.count(text) > 0 || text.rfind("DECLOUD_EXPECTS", 0) == 0 ||
           text.rfind("DECLOUD_ENSURES", 0) == 0 || text.rfind("validate", 0) == 0 ||
           text.rfind("audit", 0) == 0 || text.rfind("check", 0) == 0;
  }

  void check_one_entry(const FileScan& f, const EntryPoint& ep) {
    // Split "Class::name" into parts.
    std::vector<std::string> parts;
    {
      std::string name(ep.qualified_name);
      std::size_t pos = 0, sep = 0;
      while ((sep = name.find("::", pos)) != std::string::npos) {
        parts.push_back(name.substr(pos, sep - pos));
        pos = sep + 2;
      }
      parts.push_back(name.substr(pos));
    }

    const auto& t = f.tokens;
    bool found_definition = false;
    for (std::size_t i = 0; i + 2 * parts.size() - 1 < t.size(); ++i) {
      // Match ident (:: ident)* '('.
      bool match = true;
      std::size_t j = i;
      for (std::size_t p = 0; p < parts.size(); ++p) {
        if (p > 0) {
          if (t[j].text != "::") {
            match = false;
            break;
          }
          ++j;
        }
        if (t[j].kind != Token::Kind::kIdent || t[j].text != parts[p]) {
          match = false;
          break;
        }
        ++j;
      }
      if (!match || j >= t.size() || t[j].text != "(") continue;

      const std::size_t close = match_balanced(t, j, "(", ")");
      // Skip trailing qualifiers up to the body (or bail at a declaration).
      std::size_t k = close + 1;
      std::size_t body_open = 0;
      while (k < t.size()) {
        if (t[k].text == "{") {
          body_open = k;
          break;
        }
        if (t[k].text == ";" || t[k].text == "=") break;  // declaration / deleted
        ++k;
      }
      if (body_open == 0) continue;
      found_definition = true;

      const std::size_t body_close = match_balanced(t, body_open, "{", "}");
      bool has_check = false;
      for (std::size_t b = body_open; b < body_close; ++b) {
        if (t[b].kind == Token::Kind::kIdent && is_ensure_token(t[b].text)) {
          has_check = true;
          break;
        }
      }
      if (!has_check) {
        report(f, t[i].line, "entry-ensure",
               "entry point '" + std::string(ep.qualified_name) + "' has no ENSURE-style check");
      }
      i = body_open;  // keep scanning: overloads must each carry a check
    }
    if (!found_definition) {
      report(f, 1, "entry-ensure",
             "entry point '" + std::string(ep.qualified_name) +
                 "' listed in the declint table was not found in this file");
    }
  }

  std::set<std::string> sibling_idents_;
  std::vector<Finding> findings_;
};

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

bool is_cpp_source(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

int usage() {
  std::fprintf(stderr,
               "usage: declint [--root DIR] [--fix-dry-run] [--list-rules] [SCAN_DIR...]\n"
               "  Scans SCAN_DIRs (default: src tests bench) under DIR (default: cwd)\n"
               "  and exits non-zero when any rule fires.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  std::vector<std::string> scan_dirs;
  bool fix_dry_run = false;

  for (int a = 1; a < argc; ++a) {
    const std::string_view arg = argv[a];
    if (arg == "--root") {
      if (++a >= argc) return usage();
      root = argv[a];
    } else if (arg == "--fix-dry-run") {
      fix_dry_run = true;
    } else if (arg == "--list-rules") {
      for (const Rule& r : kRules) {
        std::printf("%-16s %.*s\n", std::string(r.id).c_str(),
                    static_cast<int>(r.summary.size()), r.summary.data());
      }
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      scan_dirs.emplace_back(arg);
    }
  }
  if (scan_dirs.empty()) scan_dirs = {"src", "tests", "bench"};

  // Collect files in sorted order so output (and exit paths) are stable.
  std::vector<fs::path> files;
  for (const std::string& dir : scan_dirs) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) {
      std::fprintf(stderr, "declint: no such directory: %s\n", base.string().c_str());
      return 2;
    }
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (entry.is_regular_file() && is_cpp_source(entry.path())) files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<Finding> findings;
  for (const fs::path& file : files) {
    const std::string rel = fs::relative(file, root).generic_string();
    FileScan scan = lex_file(file, rel);
    Linter linter;
    // A .cpp sees the unordered members its own header declares.
    if (file.extension() == ".cpp") {
      fs::path header = file;
      header.replace_extension(".hpp");
      if (fs::exists(header)) {
        linter.set_sibling_idents(
            Linter::unordered_idents(lex_file(header, header.generic_string())));
      }
    }
    linter.scan(scan);
    for (Finding& fd : linter.take_findings()) findings.push_back(std::move(fd));
  }

  for (const Finding& fd : findings) {
    std::printf("%s:%d: [%s] %s\n", fd.path.c_str(), fd.line, fd.rule.c_str(),
                fd.message.c_str());
    if (fix_dry_run) {
      const Rule* rule = find_rule(fd.rule);
      std::printf("    fix: %.*s\n", static_cast<int>(rule->fix_hint.size()),
                  rule->fix_hint.data());
    }
  }
  if (!findings.empty()) {
    std::printf("declint: %zu finding%s across %zu file%s%s\n", findings.size(),
                findings.size() == 1 ? "" : "s",
                [&] {
                  std::set<std::string> fs_;
                  for (const auto& fd : findings) fs_.insert(fd.path);
                  return fs_.size();
                }(),
                findings.size() == 1 ? "" : "s",
                fix_dry_run ? " (dry run: not failing the build)" : "");
  } else {
    std::printf("declint: clean (%zu files)\n", files.size());
  }
  return findings.empty() || fix_dry_run ? 0 : 1;
}
