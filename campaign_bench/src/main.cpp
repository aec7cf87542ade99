// campaign_bench: times fault campaigns from netlist file to report JSON.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --server PATH --work DIR [--scale full|toy]
//   campaign_bench --check-gate --work DIR
//
// Prints a host fingerprint line, one summary line per timing, and as its
// last line the result object {"correct","attempted","failed","metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1.  Exits 1 when a pass fails the correctness gate.  run.py
// builds this program and supplies --server and --work; see README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "engine/net.hpp"
#include "engine/remote_executor.hpp"
#include "logic/simd.hpp"

namespace campaign_bench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool check_gate = false;
  Scale scale = Scale::kFull;
  std::string server;
  std::string work;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--check-gate") {
      a->check_gate = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      a->workload = argv[++i];
    } else if (arg == "--seed") {
      a->seed = std::stoull(argv[++i]);
    } else if (arg == "--seconds") {
      a->seconds = std::stod(argv[++i]);
    } else if (arg == "--trace") {
      a->trace = std::string(argv[++i]) == "1";
    } else if (arg == "--server") {
      a->server = argv[++i];
    } else if (arg == "--work") {
      a->work = argv[++i];
    } else if (arg == "--scale") {
      const std::string v = argv[++i];
      if (v != "full" && v != "toy") return false;
      a->scale = v == "toy" ? Scale::kToy : Scale::kFull;
    } else {
      return false;
    }
  }
  return !a->work.empty() && (a->check_gate || !a->workload.empty());
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void print_host() {
  std::printf(
      "{\"host\":{\"nproc\":%u,\"simd\":\"%s\",\"compiler\":\"%s\","
      "\"build_type\":\"%s\"}}\n",
      std::thread::hardware_concurrency(),
      logic::simd::backend_name(logic::simd::active_backend()),
      compiler().c_str(), CAMPAIGN_BENCH_BUILD_TYPE);
}

void print_timing(const char* name, const std::vector<Pass>& passes,
                  double Pass::*field) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(p.*field);
  if (v.empty()) return;
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  std::printf("%s: median %.6f s over %zu passes (min %.6f, max %.6f)\n",
              name, median(v), v.size(), *lo, *hi);
}

void print_result(bool correct, const Measurement& m,
                  const Metrics& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(m.attempted_shards) +
                    ", \"failed\": " + std::to_string(m.failed_shards) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::cout << out << std::endl;
}

// Self-test of the correctness gate: an unchanged pass is accepted, a
// one-byte perturbation of its stable JSON and a report carrying a shard
// error are both rejected.
int check_gate(const std::string& work) {
  Session s;
  if (!make_workload("fiveclass_random", Scale::kToy, &s.workload)) return 2;
  s.work_dir = work;
  s.files = write_netlists(s.workload, work);
  const Pass ref = run_pass(s, PassKind::kReference, nullptr);
  const Pass pass = run_pass(s, PassKind::kPlain, nullptr);
  std::string perturbed = pass.stable_json;
  const std::size_t digit = perturbed.find_first_of("0123456789");
  perturbed[digit] = perturbed[digit] == '9' ? '8' : '9';
  engine::CampaignReport failed = pass.report;
  failed.error = "injected shard failure";

  const bool accepts = gate(pass.report, pass.stable_json,
                            ref.stable_json).empty();
  const std::string perturbed_why =
      gate(pass.report, perturbed, ref.stable_json);
  const std::string failed_why =
      gate(failed, pass.stable_json, ref.stable_json);
  std::printf("gate accepts an identical report: %s\n",
              accepts ? "yes" : "NO");
  std::printf("gate rejects a perturbed report: %s\n",
              perturbed_why.empty() ? "NO" : perturbed_why.c_str());
  std::printf("gate rejects a report with a shard error: %s\n",
              failed_why.empty() ? "NO" : failed_why.c_str());
  return accepts && !perturbed_why.empty() && !failed_why.empty() ? 0 : 1;
}

// Scrapes every server's `stats` after the run and prints its counters;
// returns the context-cache hit fraction over all servers (0 if none).
double scrape_servers(const std::vector<std::string>& endpoints) {
  std::uint64_t hits = 0, misses = 0;
  for (const std::string& ep : endpoints) {
    engine::ServerStats stats;
    std::string error;
    if (!engine::query_server_stats(ep, 5.0, &stats, &error)) {
      std::cerr << "campaign_bench: stats of " << ep << " failed: " << error
                << "\n";
      continue;
    }
    const auto count = [&](const char* name) -> unsigned long long {
      const auto* c = stats.metrics.find_counter(name);
      return c != nullptr ? c->value : 0;
    };
    hits += count("server.cache_hits");
    misses += count("server.cache_misses");
    std::printf(
        "{\"server\":\"%s\",\"uptime_s\":%.3f,\"shards_served\":%llu,"
        "\"cache_hits\":%llu,\"cache_misses\":%llu}\n",
        ep.c_str(), stats.uptime_s, count("server.shards_served"),
        count("server.cache_hits"), count("server.cache_misses"));
  }
  return hits + misses > 0
             ? static_cast<double>(hits) / static_cast<double>(hits + misses)
             : 0.0;
}

int run(const Args& a) {
  if (a.check_gate) return check_gate(a.work);
  Session s;
  if (!make_workload(a.workload, a.scale, &s.workload)) {
    std::cerr << "campaign_bench: unknown workload '" << a.workload << "'\n";
    return 2;
  }
  s.seed = a.seed;
  s.work_dir = a.work;
  print_host();
  s.files = write_netlists(s.workload, a.work);

  // Loopback shard servers start before any timing, quiet (one INFO line
  // per shard otherwise), and are killed and reaped by their destructors
  // on every exit path out of this function, exceptions included.
  std::vector<std::unique_ptr<engine::net::LocalServerProcess>> servers;
  for (int i = 0; i < s.workload.servers; ++i) {
    servers.push_back(std::make_unique<engine::net::LocalServerProcess>(
        a.server, std::vector<std::string>{"--log-level", "warn"}));
    if (!servers.back()->ok()) {
      std::cerr << "campaign_bench: shard server failed to start: "
                << servers.back()->error() << "\n";
      return 2;
    }
    s.endpoints.push_back(servers.back()->endpoint());
  }

  Measurement m;
  Metrics metrics =
      a.trace ? layer_metrics(s, a.seconds,
                              a.work + "/" + a.workload + ".trace.json", m)
              : end_to_end_metrics(s, a.seconds, m);
  const double hit_frac = scrape_servers(s.endpoints);
  if (a.trace)
    metrics["remote.context_cache_hit_frac"] = {hit_frac, "fraction"};
  print_timing("campaign_s", m.plain, &Pass::campaign_s);
  print_timing("setup_s", m.plain, &Pass::setup_s);
  print_timing("traced campaign_s", m.traced, &Pass::campaign_s);
  const bool correct = m.first_failure.empty();
  if (!correct)
    std::printf("correctness gate FAILED: %s\n", m.first_failure.c_str());
  print_result(correct, m, metrics);
  return correct ? 0 : 1;
}

}  // namespace

Metrics end_to_end_metrics(const Session& s, double seconds,
                           Measurement& m) {
  Pass ref;
  if (!reference_pass(s, &ref, m)) return {};
  m = measure(s, ref.stable_json, seconds, false, nullptr);

  double fault_patterns = 0.0;
  int patterns = 0;
  for (const engine::JobReport& job : ref.report.jobs) {
    fault_patterns += static_cast<double>(job.totals().sampled) *
                      static_cast<double>(job.pattern_count);
    patterns += job.pattern_count;
  }
  std::vector<double> campaign, setup, rss;
  for (const Pass& p : m.plain) {
    campaign.push_back(p.campaign_s);
    setup.push_back(p.setup_s);
    rss.push_back(p.peak_rss_mb);
  }
  const engine::ClassStats totals = ref.report.totals();
  const double campaign_s = median(campaign);
  return {
      {"campaign_s", {campaign_s, "s"}},
      {"setup_s", {median(setup), "s"}},
      {"fault_patterns_per_s", {fault_patterns / campaign_s, "1/s"}},
      {"peak_rss_mb", {median(rss), "MB"}},
      {"fault_coverage",
       {static_cast<double>(totals.detected) /
            static_cast<double>(totals.sampled),
        "fraction"}},
      {"test_patterns", {static_cast<double>(patterns), "count"}},
  };
}

}  // namespace campaign_bench

int main(int argc, char** argv) {
  campaign_bench::Args args;
  try {
    if (!campaign_bench::parse_args(argc, argv, &args)) {
      std::cerr << "usage: campaign_bench --workload NAME --seed N "
                   "--seconds S --trace 0|1 --server PATH --work DIR "
                   "[--scale full|toy]\n"
                   "       campaign_bench --check-gate --work DIR\n";
      return 2;
    }
    std::filesystem::create_directories(args.work);
    return campaign_bench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "campaign_bench: " << e.what() << "\n";
    return 2;
  }
}
