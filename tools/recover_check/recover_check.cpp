// recover_check: kill-and-recover byte-identity harness (DESIGN.md §3k).
//
// For each scenario it runs the engine driver four ways:
//
//   1. reference  — uninterrupted, WAL on, no crash plan;
//   2. crash      — same config plus a crash_at_site plan, expected to die
//                   with fault::kCrashExitCode (a plan that never fires is
//                   a scenario bug and fails the check);
//   3. recover    — --recover over the crashed WAL, possibly at a
//                   DIFFERENT thread count, expected to exit 0;
//   4. re-recover — --recover again over the now-complete WAL, proving
//                   recovery is idempotent.
//
// and byte-compares summary, journal, and metrics files of runs 3 and 4
// against run 1.  Any difference, wrong exit status, or driver error is a
// failure; the process exit code is the number of failing scenarios.
//
// usage: recover_check <engine_driver> <workdir> [--quick]
//
// --quick drops the hardware-concurrency thread sweep (CI's -j1/-j2 grid
// covers it) to keep local runs fast.
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

constexpr int kCrashExitCode = 86;  // fault::kCrashExitCode

struct Scenario {
  std::string name;
  std::string flags;        // mode/workload flags shared by every run
  std::string crash_plan;   // crash_at_site spec for run 2
  std::size_t crash_threads = 2;
  std::size_t recover_threads = 1;
};

/// Runs `command`, returns its exit status (-1 when it died on a signal).
int run(const std::string& command) {
  const int status = std::system(command.c_str());
  if (status == -1) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return -1;
}

bool same_bytes(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  if (!fa || !fb) return false;
  std::ostringstream sa;
  std::ostringstream sb;
  sa << fa.rdbuf();
  sb << fb.rdbuf();
  return sa.str() == sb.str();
}

/// Output-file flags plus stdout redirect for one run labelled `tag`.
std::string outputs(const std::string& dir, const std::string& tag) {
  return " --journal-out " + dir + "/" + tag + ".journal --metrics-out " + dir + "/" + tag +
         ".metrics > " + dir + "/" + tag + ".summary";
}

bool compare_outputs(const std::string& dir, const std::string& name, const std::string& want,
                     const std::string& got) {
  bool ok = true;
  for (const char* kind : {"summary", "journal", "metrics"}) {
    const std::string a = dir + "/" + want + "." + kind;
    const std::string b = dir + "/" + got + "." + kind;
    if (!same_bytes(a, b)) {
      std::fprintf(stderr, "recover_check: %s: %s %s differs from %s\n", name.c_str(), got.c_str(),
                   kind, want.c_str());
      ok = false;
    }
  }
  return ok;
}

bool run_scenario(const std::string& driver, const std::string& workdir, const Scenario& s) {
  const std::string dir = workdir + "/" + s.name;
  (void)run("rm -rf " + dir + " && mkdir -p " + dir);
  const std::string wal = dir + "/wal";
  bool ok = true;

  // 1. Uninterrupted reference (its own WAL dir keeps run 2's separate).
  const std::string ref = driver + " " + s.flags + " --threads " +
                          std::to_string(s.crash_threads) + " --wal-dir " + dir + "/walref" +
                          outputs(dir, "ref");
  if (const int rc = run(ref); rc != 0) {
    std::fprintf(stderr, "recover_check: %s: reference run exited %d\n", s.name.c_str(), rc);
    return false;
  }

  // 2. Crash run: must die at the injected site.
  const std::string crash = driver + " " + s.flags + " --threads " +
                            std::to_string(s.crash_threads) + " --wal-dir " + wal +
                            " --crash-plan '" + s.crash_plan + "'" + outputs(dir, "crash") +
                            " 2>/dev/null";
  if (const int rc = run(crash); rc != kCrashExitCode) {
    std::fprintf(stderr,
                 "recover_check: %s: crash run exited %d, want %d (plan '%s' never fired?)\n",
                 s.name.c_str(), rc, kCrashExitCode, s.crash_plan.c_str());
    return false;
  }

  // 3. Recover at a different thread count; outputs must match run 1.
  const std::string recover = driver + " " + s.flags + " --threads " +
                              std::to_string(s.recover_threads) + " --wal-dir " + wal +
                              " --recover" + outputs(dir, "recover");
  if (const int rc = run(recover); rc != 0) {
    std::fprintf(stderr, "recover_check: %s: recover run exited %d\n", s.name.c_str(), rc);
    return false;
  }
  ok = compare_outputs(dir, s.name, "ref", "recover") && ok;

  // 4. Recover AGAIN over the completed WAL: replay-to-end, same bytes.
  const std::string again = driver + " " + s.flags + " --threads " +
                            std::to_string(s.crash_threads) + " --wal-dir " + wal + " --recover" +
                            outputs(dir, "rerecover");
  if (const int rc = run(again); rc != 0) {
    std::fprintf(stderr, "recover_check: %s: double-recover run exited %d\n", s.name.c_str(), rc);
    return false;
  }
  ok = compare_outputs(dir, s.name, "ref", "rerecover") && ok;

  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: recover_check <engine_driver> <workdir> [--quick]\n");
    return 2;
  }
  const std::string driver = argv[1];
  const std::string workdir = argv[2];
  bool quick = false;
  for (int i = 3; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  // Two close spacings of the one bid-count trigger: batch_* closes every
  // 60 bids, stream_* every 50.
  const std::string batch = "--shards 4 --requests 240 --bids-per-epoch 60 --seed 7";
  const std::string stream = "--bids-per-epoch 50 --shards 4 --requests 240 --seed 7";
  const std::string chaos =
      " --fault-plan 'withhold_reveal:p=0.2;dishonest_vote:p=0.25;deny_agreement:p=0.2;"
      "reject_ingest:p=0.1' --fault-seed 42";

  // Site ids: 0 after-bid-append, 2 mid-epoch, 3 after-block-append (1
  // and 4 are reserved: closes are not WAL inputs and recovery writes no
  // snapshots).
  std::vector<Scenario> scenarios = {
      {"batch_bid", batch, "crash_at_site:attempts=0:index=100", 2, 1},
      {"batch_midepoch", batch, "crash_at_site:attempts=2:index=2:shards=1", 1, 2},
      {"batch_block", batch, "crash_at_site:attempts=3:index=1", 2, 2},
      {"batch_chaos_bid", batch + chaos, "crash_at_site:attempts=0:index=150", 2, 1},
      {"batch_chaos_midepoch", batch + chaos, "crash_at_site:attempts=2:index=2:shards=1", 1, 2},
      {"stream_bid", stream, "crash_at_site:attempts=0:index=150", 2, 1},
      {"stream_block", stream, "crash_at_site:attempts=3:index=1", 2, 2},
      {"stream_chaos_bid", stream + chaos, "crash_at_site:attempts=0:index=150", 2, 1},
      {"stream_chaos_block", stream + chaos, "crash_at_site:attempts=3:index=1", 1, 2},
  };
  if (!quick) {
    const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    scenarios.push_back({"batch_hw", batch, "crash_at_site:attempts=0:index=100", hw, 1});
    scenarios.push_back({"stream_hw", stream + chaos, "crash_at_site:attempts=0:index=200", 1, hw});
  }

  int failures = 0;
  for (const Scenario& s : scenarios) {
    const bool ok = run_scenario(driver, workdir, s);
    std::printf("%-22s %s\n", s.name.c_str(), ok ? "ok" : "FAIL");
    if (!ok) ++failures;
  }
  if (failures == 0) {
    std::printf("recover_check: all %zu scenarios byte-identical\n", scenarios.size());
  } else {
    std::printf("recover_check: %d scenario(s) FAILED\n", failures);
  }
  return failures;
}
