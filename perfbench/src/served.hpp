// The served phase: a 2-shard IngestGateway on loopback receives an
// open-loop replay of the workload's capture prefix (syslog over UDP, LSPs
// over TCP) at a fixed offered rate, while one keep-alive HTTP client
// issues /healthz and /links on a fixed schedule against an HttpServer
// whose snapshot function is the gateway's snapshot_engines handshake.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "src/net/gateway.hpp"
#include "src/net/replay.hpp"

namespace perfbench {

struct ServeConfig {
  double rate = 0;          // offered events per second
  bool traced = false;
  std::string scratch_dir;  // where the traced run saves a snapshot
};

struct ServeResult {
  std::string error;  // non-empty: the phase could not run

  // End to end.
  double cpu_us_per_event = 0;
  std::vector<double> lag_ms;    // per /healthz answer
  std::vector<double> query_ms;  // per /links answer, from its due time
  std::uint64_t queries = 0;
  std::uint64_t non_200 = 0;
  std::uint64_t datagrams_dropped = 0;  // sent, never applied
  std::uint64_t frames_missing = 0;     // sent, never applied
  bool digest_match = false;

  // Per layer.
  netfail::net::GatewayCounters counters;
  netfail::net::ReplayStats replay;
  std::uint64_t events_delivered = 0;
  double replay_late_ms_end = 0;
  double shard_skew = 0;
  double lsp_broadcast_factor = 0;
  double net_allocs_per_event = 0;
  double stop_ms = 0;
  std::vector<double> snapshot_engines_ms;
  std::vector<double> handle_links_ms;
  double allocs_per_links_query = 0;
  double allocs_per_healthz_query = 0;
  double bytes_per_links_query = 0;
  double snapshot_save_ms = 0;
  double snapshot_bytes = 0;
};

ServeResult run_served(const Inputs& in, const ServeConfig& config);

}  // namespace perfbench
