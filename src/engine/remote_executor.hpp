// The distributed (kRemote) shard-executor backend: dispatches a
// campaign's universe slices across a configured list of
// cpsinw_shard_server endpoints over TCP, speaking the same shard_io v1
// JSON documents, one net-framed request/response per shard.  Running
// the servers on the campaign's own host (net::LocalServerProcess) is how
// a campaign gets process isolation without a second host.
//
// Connections stay open for one run(): they open lazily, are parked per
// endpoint between exchanges, and close when run() returns.  A server
// keeps the context (circuit + patterns) last sent in full on each
// connection, so a job's context crosses a connection once and its other
// shards travel as context-less documents.  A connection is reused only
// after a fully checked reply; any failure closes it.
//
// Scheduling policy (none of it can affect the answer — slots are filled
// in canonical order upstream):
//   * shards are handed to the pool threads in canonical order, and an
//     exchange prefers an idle connection that already holds its job's
//     context;
//   * bounded in-flight shards per endpoint (`remote_max_in_flight`),
//     least-loaded endpoint first;
//   * per-attempt wall-clock timeout (`worker_timeout_s`) covering the
//     connect (when the attempt opens a connection), send, and receive;
//   * retry-on-another-endpoint failover: a shard that fails on one
//     endpoint is retried on each remaining endpoint before its slot is
//     placeholder-filled;
//   * dead-endpoint quarantine: `remote_quarantine_failures` consecutive
//     failures retire an endpoint for the rest of the campaign, so a
//     downed host costs a few timeouts, not one per shard.
#pragma once

#include <memory>
#include <string>

#include "engine/executor.hpp"
#include "engine/shard_io.hpp"

namespace cpsinw::engine {

/// Builds the kRemote backend (called by make_shard_executor).
/// @throws std::invalid_argument on an empty endpoint list, a malformed
///   `host:port` entry, a non-positive worker_timeout_s, or a
///   non-positive remote_max_in_flight / remote_quarantine_failures
[[nodiscard]] std::unique_ptr<ShardExecutor> make_remote_executor(
    const ExecutorSpec& spec, int threads);

/// Scrapes a live cpsinw_shard_server: one connection, one framed
/// `stats` request, one parsed snapshot.  `endpoint` is a "host:port"
/// string.  Returns true and fills `*out` on success; false with the
/// failure text in `*error` otherwise (never throws on I/O or protocol
/// problems).
[[nodiscard]] bool query_server_stats(const std::string& endpoint,
                                      double timeout_s, ServerStats* out,
                                      std::string* error);

}  // namespace cpsinw::engine
