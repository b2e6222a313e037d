// dsched_explore — runs, replays, and delta-minimizes dsched schedule
// explorations over the named models in src/dsched/models.cpp
// (DESIGN.md §3i).  Only built when the tree is configured with
// -DDECLOUD_DSCHED=ON.
//
//   dsched_explore --list
//   dsched_explore --model queue_admission                 # model defaults
//   dsched_explore --model stream_2shard --mode pct --seed 42 --schedules 10000
//   dsched_explore --model queue_admission --replay 'dsched1;...'
//   dsched_explore --model queue_admission --replay @cert.txt --minimize
//
// Exit status: 0 when every requested exploration is green, 1 on a model
// failure (certificate printed), 2 on usage errors.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "dsched/models.hpp"
#include "dsched/scheduler.hpp"

namespace {

using decloud::dsched::ModelSpec;
using decloud::dsched::Options;
using decloud::dsched::RunResult;

int usage(const std::string& error) {
  if (!error.empty()) std::cerr << "dsched_explore: " << error << "\n";
  std::cerr << "usage: dsched_explore --list\n"
            << "       dsched_explore --model <name> [--mode exhaustive|pct] [--seed N]\n"
            << "                      [--schedules N] [--max-steps N] [--no-sleep-sets]\n"
            << "                      [--replay <certificate|@file>] [--minimize]\n"
            << "                      [--cert-out <file>]\n";
  return 2;
}

std::string load_certificate(const std::string& arg) {
  if (arg.empty() || arg[0] != '@') return arg;
  std::ifstream in(arg.substr(1));
  if (!in) throw std::runtime_error("cannot read certificate file " + arg.substr(1));
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) text.pop_back();
  return text;
}

void print_result(const std::string& name, const Options& options, const RunResult& result) {
  std::cout << "model " << name << ": " << (result.failed ? "FAIL" : "ok") << "\n"
            << "  schedules " << result.schedules << ", pruned " << result.pruned
            << ", last-steps " << result.steps << ", max-threads " << result.max_threads
            << "\n"
            << "  complete " << (result.complete ? "true" : "false") << ", trace-hash 0x"
            << std::hex << result.trace_hash << std::dec << "\n";
  if (options.mode == Options::Mode::kPct) std::cout << "  seed " << options.seed << "\n";
  if (result.failed) {
    std::cout << "  failure: " << result.failure << "\n"
              << "  certificate: " << result.certificate << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  bool list = false;
  bool do_minimize = false;
  std::string model_name;
  std::string replay_arg;
  std::string cert_out;
  Options overrides;
  bool have_mode = false;
  bool have_seed = false;
  bool have_schedules = false;
  bool have_max_steps = false;
  bool no_sleep_sets = false;

  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& a = args[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= args.size()) throw std::runtime_error("missing value for " + a);
        return args[++i];
      };
      if (a == "--list") {
        list = true;
      } else if (a == "--model") {
        model_name = value();
      } else if (a == "--mode") {
        const std::string m = value();
        if (m == "exhaustive") {
          overrides.mode = Options::Mode::kExhaustive;
        } else if (m == "pct") {
          overrides.mode = Options::Mode::kPct;
        } else {
          return usage("unknown mode " + m);
        }
        have_mode = true;
      } else if (a == "--seed") {
        overrides.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--schedules") {
        overrides.max_schedules = std::stoull(value());
        have_schedules = true;
      } else if (a == "--max-steps") {
        overrides.max_steps = std::stoull(value());
        have_max_steps = true;
      } else if (a == "--no-sleep-sets") {
        no_sleep_sets = true;
      } else if (a == "--replay") {
        replay_arg = value();
      } else if (a == "--minimize") {
        do_minimize = true;
      } else if (a == "--cert-out") {
        cert_out = value();
      } else {
        return usage("unknown argument " + a);
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }

  if (list) {
    for (const ModelSpec& m : decloud::dsched::models()) {
      std::cout << m.name << " — " << m.description << "\n";
    }
    return 0;
  }
  if (model_name.empty()) return usage("--model (or --list) is required");
  const ModelSpec* spec = decloud::dsched::find_model(model_name);
  if (spec == nullptr) return usage("unknown model " + model_name + " (see --list)");

  Options options = spec->options;
  if (have_mode) options.mode = overrides.mode;
  if (have_seed) options.seed = overrides.seed;
  if (have_schedules) options.max_schedules = overrides.max_schedules;
  if (have_max_steps) options.max_steps = overrides.max_steps;
  if (no_sleep_sets) options.sleep_sets = false;

  const auto body = spec->make_body();
  RunResult result;
  try {
    if (!replay_arg.empty()) {
      const std::string certificate = load_certificate(replay_arg);
      result = decloud::dsched::replay(certificate, body);
      print_result(model_name + " (replay)", options, result);
      if (result.failed && do_minimize) {
        const std::string minimized = decloud::dsched::minimize(certificate, spec->make_body());
        std::cout << "  minimized: " << minimized << "\n";
        result.certificate = minimized;
      }
    } else {
      result = decloud::dsched::explore(options, body);
      print_result(model_name, options, result);
      if (result.failed && do_minimize) {
        const std::string minimized =
            decloud::dsched::minimize(result.certificate, spec->make_body());
        std::cout << "  minimized: " << minimized << "\n";
        result.certificate = minimized;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "dsched_explore: " << e.what() << "\n";
    return 2;
  }

  if (result.failed && !cert_out.empty()) {
    std::ofstream out(cert_out);
    out << result.certificate << "\n";
  }
  return result.failed ? 1 : 0;
}
