// Benchmark program: generates one workload from a seed, runs it against the
// library's public entry points, adbscan_cli and an adbscan_server child
// process, checks every output, and prints the metrics. perfbench/run.py
// builds it and passes the paths of the two binaries.
//
//   perfbench --workload=ss7d-1m --seed=1 --seconds=45 --trace=0
//       --cli=<adbscan_cli> --server=<adbscan_server> --work=<dir>
//       [--data_seed=N]
//
// Both workloads run the same journey, so every end-to-end metric exists on
// each: a batch stage (ExactGridDbscan, ApproxDbscan, SampledDbscan,
// ShardedApproxDbscan K=4, and adbscan_cli from a .bin file) and a serving
// stage (two writer sessions streaming with a sliding window, one open-loop
// reader). The workloads differ in which layer dominates:
//   ss7d-1m   seed spreader, n = 10^6, 7-D: the edge graph (BCP)
//   farm-50k  FarmLike, n = 5 * 10^4, 5-D: eps-neighbor enumeration
// With --trace=0 the end-to-end metrics are printed; with --trace=1 one
// traced pass prints the per-layer metrics instead.

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "batch.h"
#include "core/approx_dbscan.h"
#include "gen/realdata_sim.h"
#include "gen/seed_spreader.h"
#include "grid/grid.h"
#include "io/dataset_io.h"
#include "serve_load.h"
#include "util.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using adbscan::Dataset;

// Base seed of every workload's point set. The cluster geometry is part of
// the workload's definition: on a 4-vCPU Xeon, re-drawing it per seed, or
// shifting it by a fraction of a cell, moved exact_ms by up to 2x between
// seeds, and even a shift by whole cells moved it by 25% through the cells'
// Z-order (which sets the parallel chunking and the shard boundaries).
// --seed instead picks a translation that leaves all of that in place (see
// Translate), so seeds do not give new data. --data_seed re-draws the
// generator itself: a held-out point set for checking a claim made on the
// default one, whose figures are not comparable with the default's.
constexpr uint64_t kBaseSeed = 20150531;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  uint64_t data_seed = kBaseSeed;
  double seconds = 10;
  bool trace = false;
  std::string cli, server, work;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    }
    if (arg == "--workload") {
      a->workload = value;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--data_seed") {
      a->data_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a->seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      a->trace = value == "1";
    } else if (arg == "--cli") {
      a->cli = value;
    } else if (arg == "--server") {
      a->server = value;
    } else if (arg == "--work") {
      a->work = value;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && !a->cli.empty() &&
         !a->server.empty() && !a->work.empty();
}

// Paper defaults: MinPts = 100, eps = 5000, rho = 0.001.
constexpr double kEps = 5000.0;
constexpr int kMinPts = 100;
constexpr double kRho = 0.001;
constexpr int kServerThreads = 2;
// Query percentiles are taken per window of this many consecutive queries
// (one second at the reader's rate) and reported as their median over the
// run, so that one stall does not decide a run.
constexpr size_t kQueryWindow = 1000;

struct Workload {
  Dataset batch{1};
  std::vector<Dataset> streams;
  StreamSpec spec;
};

Dataset SeedSpreader(int dim, size_t n, uint64_t data_seed) {
  adbscan::SeedSpreaderParams p;
  p.dim = dim;
  p.n = n;
  p.forced_restart_every = n / 10;  // ten clusters, the paper's expectation
  return adbscan::GenerateSeedSpreader(p, data_seed);
}

// `base` translated by a seed-chosen offset per axis that changes every
// coordinate but neither the cell structure nor the cells' Z-order: the
// points are moved so that their cell coordinates on axis i lie in
// [K_i * 2^10, K_i * 2^10 + 2^10) for a seed-chosen K_i in [1, 16]. All
// cells then share their high coordinate bits, so MortonLess orders them by
// their offsets within the block, the same for every seed.
Dataset Translate(const Dataset& base, uint64_t seed) {
  constexpr int64_t kBlock = 1 << 10;  // cells; far above any workload's span
  const int dim = base.dim();
  const double side = adbscan::Grid::SideFor(kEps, dim);
  const adbscan::Box box = base.BoundingBox();
  adbscan::Rng rng(seed);
  std::vector<double> shift(dim);
  for (int i = 0; i < dim; ++i) {
    const int64_t k = 1 + static_cast<int64_t>(rng.NextBounded(16));
    const int64_t lo_cell = static_cast<int64_t>(std::floor(box.lo[i] / side));
    shift[i] = static_cast<double>(k * kBlock - lo_cell) * side;
  }
  std::vector<double> coords = base.coords();
  for (size_t i = 0; i < coords.size(); ++i) coords[i] += shift[i % dim];
  return Dataset(dim, std::move(coords));
}

// Points [begin, begin + n) of `d`.
Dataset Slice(const Dataset& d, size_t begin, size_t n) {
  return Dataset(d.dim(), std::vector<double>(d.point(begin),
                                              d.point(begin) + n * d.dim()));
}

bool Generate(const std::string& name, uint64_t seed, uint64_t data_seed,
              Workload* w) {
  size_t stream_points = 0;
  if (name == "ss7d-1m") {
    w->batch = Translate(SeedSpreader(7, 1000000, data_seed), seed);
    stream_points = 20000;
  } else if (name == "farm-50k") {
    w->batch = Translate(adbscan::FarmLike(50000, data_seed), seed);
    stream_points = 10000;
  } else {
    return false;
  }
  // The serving stage streams two disjoint runs of the batch points, in
  // generation order, so the window slides along the data as generated.
  for (size_t s = 0; s < 2; ++s) {
    w->streams.push_back(Slice(w->batch, s * stream_points, stream_points));
  }
  for (const Dataset& d : w->streams) w->spec.streams.push_back(&d);
  w->spec.window = stream_points / 2;
  w->spec.params.eps = kEps;
  w->spec.params.min_pts = kMinPts;
  w->spec.rho = kRho;
  w->spec.seed = adbscan::DeriveSeed(seed, 99);
  return true;
}

// Each session's final snapshot must equal ApproxDbscan over its survivors
// in ids, labels, core flags and cluster count (the DynamicClusterer
// contract).
void CheckSnapshots(const StreamSpec& spec, const StreamResult& r,
                    Checks* checks) {
  checks->Expect(r.transport_ok, "serving stage transport: " + r.error);
  if (!r.transport_ok) return;
  for (size_t s = 0; s < spec.streams.size(); ++s) {
    const Dataset survivors = Survivors(spec, s);
    const adbscan::Clustering expect =
        adbscan::ApproxDbscan(survivors, spec.params, spec.rho);
    const auto& snap = r.snapshots[s];
    const size_t first = spec.streams[s]->size() - survivors.size();
    bool ok = snap.ids.size() == survivors.size() &&
              snap.labels == expect.label &&
              snap.num_clusters == static_cast<uint32_t>(expect.num_clusters);
    for (size_t i = 0; ok && i < snap.ids.size(); ++i) {
      ok = snap.ids[i] == first + i &&
           (snap.is_core[i] != 0) == (expect.is_core[i] != 0);
    }
    checks->Expect(ok, "session " + std::to_string(s) +
                           " snapshot equals ApproxDbscan over survivors");
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=W --seed=N --seconds=S "
                 "--trace=0|1 --cli=PATH --server=PATH --work=DIR "
                 "[--data_seed=N]\n");
    return 2;
  }
  mkdir(args.work.c_str(), 0755);
  const int threads = adbscan::HardwareThreads();
  const std::string bin_path = args.work + "/data.bin";

  // Set-up: generation, the .bin write and the server start, repeated (5 to
  // 15 times, until they add up to 1.5 s) so that its median is steady.
  std::vector<double> setup_s;
  Workload w;
  ServerProcess server;
  const size_t min_reps = args.trace ? 1 : 5, max_reps = args.trace ? 1 : 15;
  double setup_total = 0.0;
  while (setup_s.size() < min_reps ||
         (setup_total < 1.5 && setup_s.size() < max_reps)) {
    server.Stop();
    w = Workload();
    const double start = NowSeconds();
    if (!Generate(args.workload, args.seed, args.data_seed, &w)) {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    adbscan::WriteBinary(w.batch, bin_path);
    std::string error;
    if (!server.Start(args.server, args.work, kServerThreads, args.trace,
                      &error)) {
      std::fprintf(stderr, "perfbench: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(NowSeconds() - start);
    setup_total += setup_s.back();
  }
  BatchConfig config;
  config.params.eps = kEps;
  config.params.min_pts = kMinPts;
  config.params.num_threads = threads;
  config.rho = kRho;
  config.cli = args.cli;
  config.bin_path = bin_path;
  config.work_dir = args.work;
  BatchStage batch(w.batch, config);

  Checks checks;
  Report report;
  std::fprintf(stderr,
               "perfbench: %s seed %llu data seed %llu: batch n=%zu dim=%d, "
               "%zu streams of %zu points (window %zu), %d threads, server "
               "%d threads\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(args.data_seed), w.batch.size(),
               w.batch.dim(), w.streams.size(), w.streams[0].size(),
               w.spec.window, threads, kServerThreads);

  if (args.trace) {
    SpanLog spans;
    batch.RunTraced(&checks, &spans, &report);
    const int id = spans.Open("serve.stream");
    const StreamResult r = RunStream(server.port(), w.spec);
    spans.Close(id);
    CheckSnapshots(w.spec, r, &checks);
    checks.Expect(server.Stop(), "adbscan_server exits cleanly");
    spans.WriteJson(args.work + "/spans.json");

    CallTrace st;
    checks.Expect(ReadMetricsRecord(server.metrics_path(), &st.snap),
                  "server --metrics_json record parses");
    report.Add("serve.ingest_rtt_p50_ms", Quantile(r.ingest_rtt_ms, 0.5), "ms");
    report.Add("serve.ingest_rtt_p99_ms", Quantile(r.ingest_rtt_ms, 0.99),
               "ms");
    report.Add("serve.max_pending_ops", static_cast<double>(r.max_pending_ops),
               "count");
    report.Add("serve.flush_ms", Median(r.flush_ms), "ms");
    report.Add("serve.backpressure_rejects",
               static_cast<double>(st.Counter("serve.backpressure_rejects")),
               "count");
    report.Add("serve.drains", static_cast<double>(st.Counter("serve.drains")),
               "count");
    report.Add("gen.late_p99_ms", Quantile(r.late_ms, 0.99), "ms");
    report.Add("query_p50_ms",
               Median(WindowQuantiles(r.query_ms, kQueryWindow, 0.5)), "ms");
    report.Add("query_p99_ms",
               Median(WindowQuantiles(r.query_ms, kQueryWindow, 0.99)), "ms");
    report.Add("query.samples", static_cast<double>(r.query_ms.size()),
               "count");
    for (const char* c :
         {"stream.updates", "stream.batches", "stream.rebuilds",
          "stream.counter_rebuilds", "stream.edge_probes",
          "stream.cells_touched", "stream.frontier_fallbacks"}) {
      report.Add(c, static_cast<double>(st.Counter(c)), "count");
    }
    report.Add("stream.refresh_ms", st.PhaseMs("stream.refresh"), "ms");
  } else {
    BatchTimes bt;
    std::vector<double> apply_ops_s, server_rss_mb;
    size_t iterations = 0;
    const double start = NowSeconds();
    do {
      ++iterations;
      batch.RunOnce(&checks, &bt);
      // Every iteration streams into a fresh server (the first into the one
      // set up above), so that each yields one server peak: on farm-50k one
      // peak ranged from 36 to 51 MiB over ten runs, with how the drains
      // happened to split the queue.
      std::string error;
      if (iterations > 1 && !server.Start(args.server, args.work,
                                          kServerThreads, false, &error)) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        return 1;
      }
      const StreamResult r = RunStream(server.port(), w.spec);
      CheckSnapshots(w.spec, r, &checks);
      if (r.transport_ok) {
        apply_ops_s.push_back(static_cast<double>(r.total_ops) / r.wall_s);
      }
      checks.Expect(server.Stop(), "adbscan_server exits cleanly");
      checks.Expect(server.peak_rss_mb() > 0, "server peak RSS is readable");
      server_rss_mb.push_back(server.peak_rss_mb());
      // Start another iteration only if it should end within --seconds.
    } while (NowSeconds() - start <
             args.seconds * iterations / (iterations + 1.0));

    report.Add("setup_s", Median(setup_s), "s");
    report.Add("exact_ms", Median(bt.exact), "ms");
    report.Add("approx_ms", Median(bt.approx), "ms");
    report.Add("sampled_ms", Median(bt.sampled), "ms");
    report.Add("sharded_ms", Median(bt.sharded), "ms");
    report.Add("cli_ms", Median(bt.cli), "ms");
    report.Add("sampled_ari", Median(bt.ari), "ari");
    report.Add("apply_ops_s", Median(apply_ops_s), "ops/s");
    // The benchmark process runs the batch stage; the server's peak is its
    // own metric.
    report.Add("peak_rss_mb", PeakRssMb(getpid()), "MiB");
    report.Add("server_rss_mb", Median(server_rss_mb), "MiB");
    std::fprintf(stderr, "perfbench: %zu iterations\n", iterations);
  }
  report.Print(checks.failed == 0, checks.attempted, checks.failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
