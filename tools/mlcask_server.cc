// mlcask_server — hosts one storage shard as a standalone OS process.
//
// Binds a SocketTransportServer on the given endpoint and pumps every
// request frame through a StorageEngineService over the chosen backend
// engine. Point `ConnectCluster` (or the fig11 bench's --socket mode) at N
// of these and the sharded deployment is truly multi-process: same wire
// format, same routing, same 2PC as the in-process loopback cluster.
//
//   mlcask_server --endpoint unix:/tmp/shard0.sock [--backend forkbase]
//   mlcask_server --endpoint tcp:127.0.0.1:7070    [--backend localdir]
//
// Prints "READY <endpoint>" on stdout once accepting (with the real port
// when an ephemeral tcp: port was requested) — launchers may wait for that
// line or simply poll-connect. Exits cleanly on SIGINT/SIGTERM.
//
// Chaos knobs:
//   --fault-spec SPEC   deterministic fault injection (see FaultSpec::Parse
//                       for the grammar, e.g. "seed=7,drop=0.05,kill_after=40");
//                       the normalized spec is echoed on the READY line so
//                       launchers and CI logs record exactly what ran
//   --data-dir DIR      durable forkbase backend: every acknowledged write
//                       is checkpointed into DIR and restored on restart
//                       (the substrate for kill -9 / recovery drills)

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "service/merge_frontend.h"
#include "service/merge_service.h"
#include "storage/fault_injector.h"
#include "storage/forkbase_engine.h"
#include "storage/local_dir_engine.h"
#include "storage/persistence.h"
#include "storage/remote_engine.h"
#include "storage/socket_transport.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleStop(int) { g_stop = 1; }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --endpoint <unix:/path | tcp:host:port> "
               "[--backend forkbase|localdir] [--workers N] "
               "[--chunk-threshold BYTES] [--chunk-cache BYTES] "
               "[--max-queued-jobs N] [--max-queued-bytes BYTES] "
               "[--fault-spec SPEC] [--data-dir DIR] "
               "[--serve-merge] [--merge-workers N] "
               "[--tenant-weights a=2,b=1] [--stats-interval SECONDS]\n",
               argv0);
  return 2;
}

/// Parses "tenant=weight,tenant=weight" into MergeServiceOptions weights.
bool ParseTenantWeights(const char* spec,
                        std::map<std::string, uint64_t>* weights) {
  std::string entry;
  for (const char* p = spec;; ++p) {
    if (*p != ',' && *p != '\0') {
      entry.push_back(*p);
      continue;
    }
    if (!entry.empty()) {
      const size_t eq = entry.find('=');
      if (eq == std::string::npos || eq == 0) return false;
      (*weights)[entry.substr(0, eq)] =
          std::strtoull(entry.c_str() + eq + 1, nullptr, 10);
      entry.clear();
    }
    if (*p == '\0') break;
  }
  return true;
}

/// One parseable live-stats record: the observability line saturation runs
/// tail while the bench is still driving load.
void PrintStatsLine(const std::string& endpoint,
                    const mlcask::storage::SocketTransportServer& server,
                    const mlcask::service::MergeService* merge) {
  std::string line = "STATS " + endpoint;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                " connections=%llu shed_jobs=%llu expired_jobs=%llu",
                static_cast<unsigned long long>(server.connections_accepted()),
                static_cast<unsigned long long>(server.shed_jobs()),
                static_cast<unsigned long long>(server.expired_jobs()));
  line += buf;
  if (merge != nullptr) {
    const auto stats = merge->stats();
    std::snprintf(
        buf, sizeof(buf),
        " sessions_open=%zu queued_batches=%zu completed=%llu failed=%llu "
        "shed=%llu expired=%llu coalesced=%llu",
        stats.sessions_open, stats.queued_batches,
        static_cast<unsigned long long>(stats.completed),
        static_cast<unsigned long long>(stats.failed),
        static_cast<unsigned long long>(stats.shed),
        static_cast<unsigned long long>(stats.expired),
        static_cast<unsigned long long>(stats.coalesced));
    line += buf;
    if (!stats.tenant_batches.empty()) {
      line += " tenants=";
      bool first = true;
      for (const auto& [tenant, batches] : stats.tenant_batches) {
        if (!first) line += ",";
        first = false;
        line += tenant + ":" + std::to_string(batches);
      }
    }
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mlcask;
  std::string endpoint_spec;
  std::string backend = "forkbase";
  std::string fault_spec;
  std::string data_dir;
  bool serve_merge = false;
  unsigned stats_interval_s = 0;
  storage::SocketTransportServer::Options server_options;
  service::MergeServiceOptions merge_options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--endpoint") == 0) {
      endpoint_spec = value("--endpoint");
    } else if (std::strncmp(arg, "--endpoint=", 11) == 0) {
      endpoint_spec = arg + 11;
    } else if (std::strcmp(arg, "--backend") == 0) {
      backend = value("--backend");
    } else if (std::strncmp(arg, "--backend=", 10) == 0) {
      backend = arg + 10;
    } else if (std::strcmp(arg, "--workers") == 0) {
      server_options.worker_threads =
          static_cast<size_t>(std::strtoull(value("--workers"), nullptr, 10));
    } else if (std::strncmp(arg, "--workers=", 10) == 0) {
      server_options.worker_threads =
          static_cast<size_t>(std::strtoull(arg + 10, nullptr, 10));
    } else if (std::strcmp(arg, "--chunk-threshold") == 0) {
      server_options.chunk_threshold = static_cast<size_t>(
          std::strtoull(value("--chunk-threshold"), nullptr, 10));
    } else if (std::strncmp(arg, "--chunk-threshold=", 18) == 0) {
      server_options.chunk_threshold =
          static_cast<size_t>(std::strtoull(arg + 18, nullptr, 10));
    } else if (std::strcmp(arg, "--chunk-cache") == 0) {
      server_options.chunk_cache_bytes = static_cast<size_t>(
          std::strtoull(value("--chunk-cache"), nullptr, 10));
    } else if (std::strncmp(arg, "--chunk-cache=", 14) == 0) {
      server_options.chunk_cache_bytes =
          static_cast<size_t>(std::strtoull(arg + 14, nullptr, 10));
    } else if (std::strcmp(arg, "--max-queued-jobs") == 0) {
      server_options.max_queued_jobs = static_cast<size_t>(
          std::strtoull(value("--max-queued-jobs"), nullptr, 10));
    } else if (std::strncmp(arg, "--max-queued-jobs=", 18) == 0) {
      server_options.max_queued_jobs =
          static_cast<size_t>(std::strtoull(arg + 18, nullptr, 10));
    } else if (std::strcmp(arg, "--max-queued-bytes") == 0) {
      server_options.max_queued_bytes = static_cast<size_t>(
          std::strtoull(value("--max-queued-bytes"), nullptr, 10));
    } else if (std::strncmp(arg, "--max-queued-bytes=", 19) == 0) {
      server_options.max_queued_bytes =
          static_cast<size_t>(std::strtoull(arg + 19, nullptr, 10));
    } else if (std::strcmp(arg, "--fault-spec") == 0) {
      fault_spec = value("--fault-spec");
    } else if (std::strncmp(arg, "--fault-spec=", 13) == 0) {
      fault_spec = arg + 13;
    } else if (std::strcmp(arg, "--data-dir") == 0) {
      data_dir = value("--data-dir");
    } else if (std::strncmp(arg, "--data-dir=", 11) == 0) {
      data_dir = arg + 11;
    } else if (std::strcmp(arg, "--serve-merge") == 0) {
      serve_merge = true;
    } else if (std::strcmp(arg, "--merge-workers") == 0) {
      merge_options.worker_threads = static_cast<size_t>(
          std::strtoull(value("--merge-workers"), nullptr, 10));
    } else if (std::strncmp(arg, "--merge-workers=", 16) == 0) {
      merge_options.worker_threads =
          static_cast<size_t>(std::strtoull(arg + 16, nullptr, 10));
    } else if (std::strcmp(arg, "--tenant-weights") == 0) {
      if (!ParseTenantWeights(value("--tenant-weights"),
                              &merge_options.tenant_weights)) {
        std::fprintf(stderr, "bad --tenant-weights (want a=2,b=1)\n");
        return 2;
      }
    } else if (std::strncmp(arg, "--tenant-weights=", 17) == 0) {
      if (!ParseTenantWeights(arg + 17, &merge_options.tenant_weights)) {
        std::fprintf(stderr, "bad --tenant-weights (want a=2,b=1)\n");
        return 2;
      }
    } else if (std::strcmp(arg, "--stats-interval") == 0) {
      stats_interval_s = static_cast<unsigned>(
          std::strtoul(value("--stats-interval"), nullptr, 10));
    } else if (std::strncmp(arg, "--stats-interval=", 17) == 0) {
      stats_interval_s =
          static_cast<unsigned>(std::strtoul(arg + 17, nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return Usage(argv[0]);
    }
  }
  if (endpoint_spec.empty()) return Usage(argv[0]);

  std::unique_ptr<storage::StorageEngine> engine;
  if (!data_dir.empty()) {
    if (backend != "forkbase") {
      std::fprintf(stderr, "--data-dir requires the forkbase backend\n");
      return 2;
    }
    auto durable = storage::DurableForkBaseEngine::Open(data_dir);
    if (!durable.ok()) {
      std::fprintf(stderr, "cannot open data dir: %s\n",
                   durable.status().ToString().c_str());
      return 1;
    }
    engine = *std::move(durable);
  } else if (backend == "forkbase") {
    engine = std::make_unique<storage::ForkBaseEngine>();
  } else if (backend == "localdir") {
    engine = std::make_unique<storage::LocalDirEngine>();
  } else {
    std::fprintf(stderr, "unknown backend '%s' (forkbase|localdir)\n",
                 backend.c_str());
    return 2;
  }

  std::shared_ptr<storage::FaultInjector> injector;
  if (!fault_spec.empty()) {
    auto parsed = storage::FaultSpec::Parse(fault_spec);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad --fault-spec: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    injector = std::make_shared<storage::FaultInjector>(*parsed);
    // Transport-level faults come from the server options below; engine-
    // level faults (injected disk-full) need the backend wrapped.
    engine = std::make_unique<storage::FaultyEngine>(std::move(engine),
                                                     injector);
    server_options.injector = injector;
  }
  storage::StorageEngineService service(std::move(engine));

  // --serve-merge promotes this process from a storage shard to a full
  // merge endpoint: service opcodes peel off to the merge front end, all
  // other traffic (storage RPCs) flows to the storage service on the same
  // connection.
  std::unique_ptr<service::MergeService> merge_service;
  std::unique_ptr<service::MergeFrontend> merge_frontend;
  if (serve_merge) {
    merge_service = std::make_unique<service::MergeService>(merge_options);
    merge_frontend =
        std::make_unique<service::MergeFrontend>(merge_service.get());
    Status started = merge_service->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "merge service start failed: %s\n",
                   started.ToString().c_str());
      return 1;
    }
  }

  auto server =
      storage::SocketTransportServer::Bind(endpoint_spec, server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "bind failed: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  Status serving = (*server)->Serve(
      [&service, &merge_frontend](std::string_view request) {
        if (merge_frontend != nullptr &&
            service::MergeFrontend::Handles(request)) {
          return merge_frontend->Handle(request);
        }
        return service.Handle(request);
      });
  if (!serving.ok()) {
    std::fprintf(stderr, "serve failed: %s\n", serving.ToString().c_str());
    return 1;
  }

  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleStop);
  if (injector != nullptr) {
    // The normalized spec on the READY line makes every chaos run
    // self-describing: the log alone reproduces the schedule.
    std::printf("READY %s fault-spec=%s\n", (*server)->endpoint().c_str(),
                injector->spec().ToString().c_str());
  } else {
    std::printf("READY %s\n", (*server)->endpoint().c_str());
  }
  std::fflush(stdout);

  // --stats-interval N prints a STATS line every N seconds while serving,
  // so saturation runs are observable live rather than only at STOPPED.
  unsigned ticks_since_stats = 0;
  const unsigned ticks_per_stats = stats_interval_s * 20;  // 50 ms ticks
  while (!g_stop) {
    ::usleep(50 * 1000);
    if (ticks_per_stats > 0 && ++ticks_since_stats >= ticks_per_stats) {
      ticks_since_stats = 0;
      PrintStatsLine((*server)->endpoint(), **server, merge_service.get());
    }
  }
  // Drain order: stop the merge service first (queued sessions resolve,
  // submits reject typed) while the socket server still answers polls, then
  // take the transport down.
  if (merge_service != nullptr) (void)merge_service->Stop();
  (*server)->Shutdown();
  // Final stats line, SIGINT and SIGTERM alike: one parseable record of the
  // shard's whole life for launchers, CI logs, and operators tailing the
  // output — connection totals plus the overload ledger (what was shed at
  // admission, what expired in queue, how deep the queue ever got).
  std::printf(
      "STOPPED %s connections=%llu shed_jobs=%llu expired_jobs=%llu "
      "peak_queued_jobs=%llu peak_queued_bytes=%llu replay_hits=%llu",
      (*server)->endpoint().c_str(),
      static_cast<unsigned long long>((*server)->connections_accepted()),
      static_cast<unsigned long long>((*server)->shed_jobs()),
      static_cast<unsigned long long>((*server)->expired_jobs()),
      static_cast<unsigned long long>((*server)->peak_queued_jobs()),
      static_cast<unsigned long long>((*server)->peak_queued_bytes()),
      static_cast<unsigned long long>(service.replay_hits()));
  if (merge_service != nullptr) {
    const auto stats = merge_service->stats();
    std::printf(
        " merge_submitted=%llu merge_completed=%llu merge_failed=%llu "
        "merge_cancelled=%llu merge_shed=%llu merge_expired=%llu "
        "merge_coalesced=%llu merge_replay_hits=%llu",
        static_cast<unsigned long long>(stats.submitted),
        static_cast<unsigned long long>(stats.completed),
        static_cast<unsigned long long>(stats.failed),
        static_cast<unsigned long long>(stats.cancelled),
        static_cast<unsigned long long>(stats.shed),
        static_cast<unsigned long long>(stats.expired),
        static_cast<unsigned long long>(stats.coalesced),
        static_cast<unsigned long long>(stats.replay_hits));
  }
  std::printf("\n");
  std::fflush(stdout);
  return 0;
}
