#include "serve_load.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <thread>

#include "serve/client.h"
#include "util.h"
#include "util/rng.h"

namespace perfbench {

using adbscan::Dataset;
using adbscan::serve::ErrorCode;
using adbscan::serve::WireClient;

namespace {

constexpr size_t kBatch = 1024;  // points per Ingest
constexpr double kQueryRateHz = 1000.0;  // open loop, alternating sessions
constexpr size_t kQueryIds = 64;

void Sleep(double seconds) {
  if (seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

// Ids removed once the first `n` points of a stream have gone in; replays
// the writer's rule.
size_t RemovedAfter(const StreamSpec& spec, size_t n) {
  size_t inserted = 0, removed = 0;
  while (inserted < n) {
    const size_t take = std::min(kBatch, n - inserted);
    if (inserted - removed >= spec.window) removed += take;
    inserted += take;
  }
  return removed;
}

}  // namespace

Dataset Survivors(const StreamSpec& spec, size_t s) {
  const Dataset& d = *spec.streams[s];
  std::vector<double> coords(d.coords().begin() +
                                 RemovedAfter(spec, d.size()) * d.dim(),
                             d.coords().end());
  return Dataset(d.dim(), std::move(coords));
}

StreamResult RunStream(int port, const StreamSpec& spec) {
  const size_t sessions = spec.streams.size();
  StreamResult result;
  std::mutex mu;  // guards result across the generator threads
  auto fail = [&](const std::string& what) {
    std::lock_guard<std::mutex> lk(mu);
    if (result.transport_ok) result.error = what;
    result.transport_ok = false;
  };

  std::vector<uint64_t> session_ids(sessions, 0);
  std::vector<WireClient> writers(sessions);
  for (size_t s = 0; s < sessions; ++s) {
    std::string error;
    ErrorCode code{};
    adbscan::serve::CreateReq req;
    req.dim = static_cast<uint32_t>(spec.streams[s]->dim());
    req.eps = spec.params.eps;
    req.min_pts = static_cast<uint32_t>(spec.params.min_pts);
    req.rho = spec.rho;
    if (!writers[s].Connect(port, &error) ||
        !writers[s].Create(req, &session_ids[s], &code, &error)) {
      fail("create: " + error);
      return result;
    }
  }
  WireClient reader;
  {
    std::string error;
    if (!reader.Connect(port, &error)) {
      fail("reader connect: " + error);
      return result;
    }
  }

  std::atomic<size_t> writers_done{0};
  std::vector<double> end_times(sessions, 0.0);
  const double t0 = NowSeconds();

  auto writer_main = [&](size_t s) {
    const Dataset& data = *spec.streams[s];
    const int dim = data.dim();
    WireClient& client = writers[s];
    std::vector<double> rtt;
    uint64_t max_pending = 0, rejects = 0, ops = 0;
    size_t inserted = 0, removed = 0;
    std::string error;
    ErrorCode code{};
    bool ok = true;
    while (ok && inserted < data.size()) {
      adbscan::serve::IngestReq req;
      req.session = session_ids[s];
      req.dim = static_cast<uint32_t>(dim);
      const size_t take = std::min(kBatch, data.size() - inserted);
      const double* first = data.point(inserted);
      req.coords.assign(first, first + take * dim);
      const size_t live = inserted - removed;
      if (live >= spec.window) {
        for (size_t k = 0; k < take; ++k) {
          req.removes.push_back(static_cast<uint32_t>(removed + k));
        }
      }
      adbscan::serve::IngestResp resp;
      const double sent = NowSeconds();
      if (!client.Ingest(req, &resp, &code, &error)) {
        if (code == ErrorCode::kBackpressure) {
          ++rejects;
          Sleep(0.001);
          continue;
        }
        fail("ingest: " + error);
        ok = false;
        break;
      }
      rtt.push_back((NowSeconds() - sent) * 1e3);
      max_pending = std::max(max_pending, resp.pending_ops);
      if (resp.first_id != inserted) {
        fail("ingest: unexpected first_id");
        ok = false;
        break;
      }
      inserted += take;
      removed += req.removes.size();
      ops += take + req.removes.size();
    }
    adbscan::serve::FlushResp flush;
    const double flush_start = NowSeconds();
    if (ok && !client.Flush(session_ids[s], &flush, &code, &error)) {
      fail("flush: " + error);
      ok = false;
    }
    const double now = NowSeconds();
    std::lock_guard<std::mutex> lk(mu);
    end_times[s] = now;
    if (ok) result.flush_ms.push_back((now - flush_start) * 1e3);
    result.ingest_rtt_ms.insert(result.ingest_rtt_ms.end(), rtt.begin(),
                                rtt.end());
    result.max_pending_ops = std::max(result.max_pending_ops, max_pending);
    result.backpressure_rejects += rejects;
    result.total_ops += ops;
    writers_done.fetch_add(1);
  };

  auto reader_main = [&] {
    adbscan::Rng rng(spec.seed);
    std::vector<uint64_t> known(sessions, 0);
    std::vector<double> lat, late;
    std::string error;
    ErrorCode code{};
    const double period = 1.0 / kQueryRateHz;
    for (uint64_t k = 0; writers_done.load() < sessions; ++k) {
      const double due = t0 + static_cast<double>(k) * period;
      Sleep(due - NowSeconds());
      const double sent = NowSeconds();
      const size_t s = k % sessions;
      std::vector<uint32_t> ids(kQueryIds);
      for (uint32_t& id : ids) {
        id = static_cast<uint32_t>(
            known[s] == 0 ? 0 : rng.NextBounded(known[s]));
      }
      adbscan::serve::QueryResp resp;
      if (!reader.Query(session_ids[s], ids, &resp, &code, &error)) {
        fail("query: " + error);
        return;
      }
      const double done = NowSeconds();
      lat.push_back((done - due) * 1e3);
      late.push_back((sent - due) * 1e3);
      if (resp.labels.size() != ids.size()) fail("query: short response");
      known[s] = resp.num_points;
    }
    std::lock_guard<std::mutex> lk(mu);
    result.query_ms = std::move(lat);
    result.late_ms = std::move(late);
  };

  std::vector<std::thread> threads;
  for (size_t s = 0; s < sessions; ++s) threads.emplace_back(writer_main, s);
  threads.emplace_back(reader_main);
  for (std::thread& t : threads) t.join();
  result.wall_s = *std::max_element(end_times.begin(), end_times.end()) - t0;

  for (size_t s = 0; s < sessions && result.transport_ok; ++s) {
    std::string error;
    ErrorCode code{};
    adbscan::serve::SnapshotResp snap;
    if (!writers[s].Snapshot(session_ids[s], &snap, &code, &error) ||
        !writers[s].Drop(session_ids[s], &code, &error)) {
      fail("snapshot: " + error);
      break;
    }
    result.snapshots.push_back(std::move(snap));
  }
  return result;
}

ServerProcess::~ServerProcess() { Stop(); }

bool ServerProcess::Start(const std::string& binary,
                          const std::string& work_dir, int threads,
                          bool traced, std::string* error) {
  const std::string port_file = work_dir + "/server.port";
  std::remove(port_file.c_str());
  std::vector<std::string> argv = {binary, "--port=0",
                                   "--port_file=" + port_file,
                                   "--threads=" + std::to_string(threads)};
  if (traced) {
    metrics_path_ = work_dir + "/server_metrics.json";
    std::remove(metrics_path_.c_str());
    argv.push_back("--metrics_json=" + metrics_path_);
    argv.push_back("--trace_json=" + work_dir + "/server_trace.json");
  }
  pid_ = Spawn(argv, work_dir + "/server.log");
  if (pid_ < 0) {
    *error = "cannot start " + binary;
    return false;
  }
  const double deadline = NowSeconds() + 30.0;
  while (NowSeconds() < deadline) {
    std::ifstream in(port_file);
    if (in >> port_ && port_ > 0) return true;
    Sleep(0.002);
  }
  *error = "server did not publish its port";
  Stop();
  return false;
}

bool ServerProcess::Stop() {
  if (pid_ < 0) return true;
  peak_rss_mb_ = PeakRssMb(pid_);  // while /proc still shows the process
  const bool ok = StopChild(pid_, 30.0);
  pid_ = -1;
  return ok;
}

}  // namespace perfbench
