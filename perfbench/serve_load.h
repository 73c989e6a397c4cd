#ifndef PERFBENCH_SERVE_LOAD_H_
#define PERFBENCH_SERVE_LOAD_H_

// Client side of the serving stage: a generator with two writer connections
// (one session each, sliding-window ingest with removals) and one open-loop
// reader connection, all talking to an adbscan_server child process.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/dbscan_types.h"
#include "geom/dataset.h"
#include "serve/wire.h"

namespace perfbench {

struct StreamSpec {
  // One stream per writer; writer w owns session w and inserts stream w in
  // order, so point k of a stream gets global id k in its session.
  std::vector<const adbscan::Dataset*> streams;
  // Once a session holds this many live points, every Ingest batch also
  // removes as many of its oldest ids as it inserts.
  size_t window = 0;
  uint64_t seed = 1;  // reader id choice
  adbscan::DbscanParams params;
  double rho = 0.001;
};

struct StreamResult {
  bool transport_ok = true;
  std::string error;
  uint64_t total_ops = 0;  // inserts + removes
  double wall_s = 0.0;     // first send until the last Flush returned
  std::vector<double> query_ms;  // from each query's due time
  std::vector<double> late_ms;   // send time minus due time
  std::vector<double> ingest_rtt_ms;
  std::vector<double> flush_ms;  // each writer's final Flush
  uint64_t max_pending_ops = 0;
  uint64_t backpressure_rejects = 0;
  std::vector<adbscan::serve::SnapshotResp> snapshots;  // one per session
};

// Runs one stream of `spec` against the server on `port`. Sessions are
// created at the start and dropped after their final Snapshot.
StreamResult RunStream(int port, const StreamSpec& spec);

// Survivors of stream `s` once fully streamed: the points whose ids were
// never removed, in id order.
adbscan::Dataset Survivors(const StreamSpec& spec, size_t s);

// An adbscan_server child process.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Starts the server and waits until it publishes its port.
  bool Start(const std::string& binary, const std::string& work_dir,
             int threads, bool traced, std::string* error);
  // SIGTERM and reap; returns true iff it exited cleanly.
  bool Stop();
  int port() const { return port_; }
  // Peak resident set of the last stopped server, read just before Stop.
  double peak_rss_mb() const { return peak_rss_mb_; }
  const std::string& metrics_path() const { return metrics_path_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  double peak_rss_mb_ = 0.0;
  std::string metrics_path_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_LOAD_H_
