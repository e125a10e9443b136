/// perfbench: runs one workload of the repository benchmark and prints
/// every metric it measured.
///
/// Usage: perfbench --workload dag_cold|tree_batch|serve_mix --seed N
///                  --seconds S --trace 0|1 --workdir DIR [--digests FILE]
///
/// Output: "# ..." lines for people (sizing, environment, latency
/// summaries, mismatches), one "metric <name> <value> <unit>" line per
/// metric, and last a "result" line with attempted/failed/correct.
/// perfbench/run.py turns these into the benchmark's result object.
/// Exits 1 when any output was wrong, 2 on a usage or set-up error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/cpu.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

std::string arg(int argc, char** argv, const std::string& name,
                const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == name) return argv[i + 1];
  }
  return fallback;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string env_or_unset(const char* name) {
  const char* value = std::getenv(name);
  return value == nullptr ? "unset" : value;
}

/// The digest committed for (workload, seed), or "" when none is.
std::string committed_digest(const std::string& path,
                             const std::string& workload,
                             std::uint64_t seed) {
  if (path.empty()) return "";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  const adtp::JsonValue doc = adtp::parse_json(text.str());
  if (!doc.has(workload)) return "";
  const adtp::JsonValue& per_seed = doc.at(workload);
  const std::string key = std::to_string(seed);
  return per_seed.has(key) ? per_seed.at(key).as_string() : "";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Config config;
  try {
    config.workload = arg(argc, argv, "--workload", "");
    config.seed = std::stoull(arg(argc, argv, "--seed", "1"));
    config.seconds = std::stod(arg(argc, argv, "--seconds", "10"));
    config.trace = arg(argc, argv, "--trace", "0") == "1";
    config.workdir = arg(argc, argv, "--workdir", "");
    config.expected_digest = committed_digest(
        arg(argc, argv, "--digests", ""), config.workload, config.seed);
    if (config.workdir.empty() || config.seconds <= 0) {
      throw std::runtime_error("--workdir and --seconds > 0 are required");
    }
    std::filesystem::create_directories(config.workdir);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }

  std::cout << "# env cores=" << std::thread::hardware_concurrency()
            << " cpu=\"" << cpu_model()
            << "\" simd=" << adtp::to_string(adtp::active_simd_level())
            << " ADTP_THREADS=" << env_or_unset("ADTP_THREADS")
            << " ADTP_SIMD=" << env_or_unset("ADTP_SIMD") << '\n';

  Outcome out;
  try {
    if (config.workload == "dag_cold") {
      out = run_dag_cold(config);
    } else if (config.workload == "tree_batch") {
      out = run_tree_batch(config);
    } else if (config.workload == "serve_mix") {
      out = run_serve_mix(config);
    } else {
      std::cerr << "perfbench: unknown workload '" << config.workload
                << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << config.workload << " failed: " << e.what()
              << '\n';
    return 2;
  }

  if (!config.expected_digest.empty() &&
      out.digest != config.expected_digest) {
    out.mismatch("reference digest " + out.digest + " != committed " +
                 config.expected_digest);
  }
  if (config.trace) {
    Tracer::instance().write(
        config.workdir / ("trace-" + config.workload + "-" +
                          std::to_string(config.seed) + ".json"),
        200000);
  }

  std::cout << "# " << config.workload << " seed " << config.seed
            << " reference digest " << out.digest
            << (config.expected_digest.empty() ? " (none committed)"
                                               : " (committed)")
            << '\n';
  for (const std::string& note : out.notes) std::cout << "# " << note << '\n';
  for (const Metric& m : out.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    std::cout << "metric " << m.name << ' ' << value << ' ' << m.unit << '\n';
  }
  std::cout << "result attempted " << out.attempted << " failed "
            << out.failed << " correct " << (out.correct ? 1 : 0)
            << std::endl;
  return out.correct && out.failed == 0 ? 0 : 1;
}
