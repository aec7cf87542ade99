// Per-connection context on the remote backend: a job's (circuit, pattern
// set) crosses each connection once, the other shards of that job travel
// as context-less work documents, and the campaign stays byte-identical
// to the inline reference.  Every test spawns its own servers, so their
// counters belong to this binary alone and can be pinned exactly.  The
// last two cases send hostile context-less frames by hand: each must
// cost one counted bad request and one connection, never the server.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/campaign.hpp"
#include "engine/net.hpp"
#include "engine/remote_executor.hpp"
#include "engine/shard_io.hpp"
#include "logic/benchmarks.hpp"
#include "remote_test_util.hpp"

namespace cpsinw::engine {
namespace {

/// Two jobs with several shards each.
CampaignSpec two_job_spec() {
  CampaignSpec spec;
  spec.jobs.push_back({"c17", logic::c17()});
  spec.jobs.push_back({"alu_array_2", logic::alu_array(2)});
  spec.patterns.kind = PatternSourceSpec::Kind::kRandom;
  spec.patterns.random_count = 32;
  spec.shard_size = 8;
  spec.threads = 1;
  spec.executor.backend = ExecutorBackend::kInline;
  return spec;
}

/// Stable campaign JSON (telemetry left out: it is runtime-dependent).
std::string stable_json(CampaignReport report) {
  report.emit_telemetry = false;
  return report.to_json();
}

/// One counter from a live server's `stats` snapshot (0 when absent).
std::uint64_t server_counter(const std::string& endpoint,
                             const std::string& name) {
  ServerStats stats;
  std::string error;
  EXPECT_TRUE(query_server_stats(endpoint, 10.0, &stats, &error))
      << endpoint << ": " << error;
  const telemetry::CounterValue* c = stats.metrics.find_counter(name);
  return c != nullptr ? c->value : 0;
}

std::uint64_t report_counter(const CampaignReport& report,
                             const std::string& name) {
  const telemetry::CounterValue* c = report.telemetry.find_counter(name);
  return c != nullptr ? c->value : 0;
}

/// Connections a server accepted between two scrapes of
/// `server.connections`, less the second scrape's own.
std::uint64_t connections_since(const std::string& endpoint,
                                std::uint64_t before) {
  return server_counter(endpoint, "server.connections") - before - 1;
}

TEST(RemoteSession, ContextTravelsOncePerConnectionPerJob) {
  net::LocalServerProcess server(test_util::server_path());
  ASSERT_TRUE(server.ok()) << server.error();
  const CampaignReport reference = run_campaign(two_job_spec());
  ASSERT_TRUE(reference.ok()) << reference.error;
  ASSERT_GT(reference.timing.shard_count, 4)
      << "each job must span several shards";

  const std::uint64_t before =
      server_counter(server.endpoint(), "server.connections");
  CampaignSpec spec = two_job_spec();
  spec.executor.backend = ExecutorBackend::kRemote;
  spec.executor.endpoints = {server.endpoint()};
  spec.emit_telemetry = true;
  const CampaignReport report = run_campaign(spec);
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_EQ(stable_json(report), stable_json(reference));

  // One thread, one endpoint: one connection, each job's context sent on
  // it once, and a compile (cache miss) only for those two documents.
  EXPECT_EQ(report_counter(report, "remote.context_sends"), 2u);
  EXPECT_EQ(connections_since(server.endpoint(), before), 1u);
  const std::uint64_t served =
      server_counter(server.endpoint(), "server.shards_served");
  EXPECT_EQ(served, static_cast<std::uint64_t>(report.timing.shard_count));
  EXPECT_EQ(server_counter(server.endpoint(), "server.cache_misses"), 2u);
  EXPECT_EQ(server_counter(server.endpoint(), "server.cache_hits"),
            served - 2);
}

TEST(RemoteSession, TwoEndpointsStayIdenticalAndSendEachContextOnce) {
  net::LocalServerProcess a(test_util::server_path());
  net::LocalServerProcess b(test_util::server_path());
  ASSERT_TRUE(a.ok()) << a.error();
  ASSERT_TRUE(b.ok()) << b.error();
  const CampaignReport reference = run_campaign(two_job_spec());

  const std::uint64_t before_a =
      server_counter(a.endpoint(), "server.connections");
  const std::uint64_t before_b =
      server_counter(b.endpoint(), "server.connections");
  CampaignSpec spec = two_job_spec();
  spec.executor.backend = ExecutorBackend::kRemote;
  spec.executor.endpoints = {a.endpoint(), b.endpoint()};
  spec.threads = 2;
  spec.emit_telemetry = true;
  const CampaignReport report = run_campaign(spec);
  ASSERT_TRUE(report.ok()) << report.error;
  EXPECT_EQ(stable_json(report), stable_json(reference));

  const std::uint64_t connections = connections_since(a.endpoint(), before_a) +
                                    connections_since(b.endpoint(), before_b);
  const std::uint64_t sends = report_counter(report, "remote.context_sends");
  EXPECT_GE(sends, spec.jobs.size());
  EXPECT_LE(sends, connections * spec.jobs.size());
}

/// A shard of c17's line stuck-at universe and the options to run it.
struct WorkFixture {
  logic::Circuit ckt = logic::c17();
  std::vector<logic::Pattern> patterns;
  std::vector<CampaignFault> universe;
  Shard shard;
  ShardExecOptions options;

  WorkFixture() {
    FaultModelSelection models;
    models.polarity = models.stuck_open = models.stuck_on = false;
    universe = build_universe(ckt, models);
    const std::size_t pis = ckt.primary_inputs().size();
    for (unsigned v = 0; v < 8; ++v) {
      logic::Pattern p(pis);
      for (std::size_t i = 0; i < pis; ++i)
        p[i] = logic::from_bool((v >> (i % 3)) & 1u);
      patterns.push_back(std::move(p));
    }
    shard.end = universe.size();
  }
};

/// Sends one frame on `fd` and reads the reply; false when the server
/// closed the connection without one.
bool exchange(int fd, const std::string& request, std::string* reply) {
  std::string error;
  EXPECT_TRUE(
      net::send_frame(fd, request, net::deadline_after(10.0), &error))
      << error;
  return net::recv_frame(fd, reply, net::deadline_after(10.0),
                         net::kMaxFrameBytes, &error);
}

int connect_to(const net::LocalServerProcess& server) {
  std::string error;
  const int fd = net::connect_endpoint(net::parse_endpoint(server.endpoint()),
                                       net::deadline_after(10.0), &error);
  EXPECT_GE(fd, 0) << error;
  return fd;
}

TEST(RemoteSession, ContextlessFrameOnAFreshConnectionIsABadRequest) {
  net::LocalServerProcess server(test_util::server_path());
  ASSERT_TRUE(server.ok()) << server.error();
  const WorkFixture fx;
  const std::uint64_t before =
      server_counter(server.endpoint(), "server.bad_requests");

  const int fd = connect_to(server);
  ASSERT_GE(fd, 0);
  std::string reply;
  EXPECT_FALSE(exchange(
      fd, serialize_contextless_shard_input(fx.universe, fx.shard, fx.options),
      &reply));
  ::close(fd);

  // The server still answers, and counted exactly this one request.
  EXPECT_EQ(server_counter(server.endpoint(), "server.bad_requests"),
            before + 1);
}

TEST(RemoteSession, ContextlessFaultPastTheInstalledCircuitIsABadRequest) {
  net::LocalServerProcess server(test_util::server_path());
  ASSERT_TRUE(server.ok()) << server.error();
  const WorkFixture fx;
  const std::uint64_t before =
      server_counter(server.endpoint(), "server.bad_requests");

  const int fd = connect_to(server);
  ASSERT_GE(fd, 0);
  std::string reply;
  ASSERT_TRUE(exchange(fd,
                       serialize_shard_input(fx.ckt, fx.patterns, fx.universe,
                                             fx.shard, fx.options),
                       &reply));
  EXPECT_EQ(check_shard_result(parse_shard_result(reply), fx.shard), "");

  // Valid for some larger circuit, but not for the installed c17.
  std::vector<CampaignFault> hostile = {fx.universe.front()};
  hostile[0].fault.site = faults::FaultSite::kNet;
  hostile[0].fault.net = fx.ckt.net_count() + 100;
  Shard one = fx.shard;
  one.end = 1;
  EXPECT_FALSE(exchange(
      fd, serialize_contextless_shard_input(hostile, one, fx.options),
      &reply));
  ::close(fd);

  EXPECT_EQ(server_counter(server.endpoint(), "server.bad_requests"),
            before + 1);
}

}  // namespace
}  // namespace cpsinw::engine
