#include "batch.h"

#include <cstdio>
#include <functional>
#include <optional>

#include "core/approx_dbscan.h"
#include "core/border.h"
#include "core/core_labeling.h"
#include "core/exact_grid.h"
#include "eval/compare.h"
#include "grid/grid.h"
#include "io/dataset_io.h"
#include "obs/metrics.h"
#include "sample/sampled_dbscan.h"
#include "shard/sharded_dbscan.h"

namespace perfbench {

using adbscan::Clustering;
using adbscan::Dataset;
using adbscan::DbscanParams;
using adbscan::obs::MetricsRegistry;

namespace {

template <typename Fn>
double TimeMs(Fn&& fn) {
  const double start = NowSeconds();
  fn();
  return (NowSeconds() - start) * 1e3;
}

// Runs `fn` with the registry reset before and snapshotted after, inside a
// span of the benchmark's own log.
CallTrace Traced(SpanLog* spans, const std::string& name,
                 const std::function<void()>& fn) {
  MetricsRegistry::Global().Reset();
  const int id = spans->Open(name);
  fn();
  spans->Close(id);
  CallTrace t;
  t.ms = spans->DurationMs(id);
  t.snap = MetricsRegistry::Global().Snapshot();
  return t;
}

// Sampled tier at rate 0.1 (uniform, seed 1); sharded tier with K = 4.
const adbscan::SampledDbscanOptions kSampleOptions = {
    .sample_rate = 0.1, .strategy = adbscan::SampleStrategy::kUniform,
    .seed = 1};
constexpr int kShards = 4;

// Times of the per-layer public calls, in pipeline order, over a fresh grid.
struct LayerTimes {
  double build = 0, warm = 0, soa = 0, label = 0, cci = 0, border = 0;
  CallTrace label_trace, border_trace;
};

LayerTimes TimeLayers(const Dataset& data, DbscanParams params,
                      const Clustering& exact, SpanLog* spans) {
  LayerTimes t;
  const int threads = params.num_threads;
  std::optional<adbscan::Grid> grid;
  Traced(spans, "grid", [&] {
    t.build = TimeMs([&] {
      grid.emplace(data, adbscan::Grid::SideFor(params.eps, data.dim()),
                   threads);
    });
    t.warm = TimeMs([&] { grid->WarmNeighborCache(params.eps, threads); });
    t.soa = TimeMs([&] {
      for (uint32_t ci = 0; ci < grid->NumCells(); ++ci) {
        (void)grid->CellBlock(ci);
      }
    });
  });
  std::vector<char> is_core;
  t.label_trace = Traced(spans, "core.label", [&] {
    is_core = adbscan::LabelCorePoints(data, *grid, params);
  });
  t.label = t.label_trace.ms;
  adbscan::CoreCellIndex cci;
  t.cci = Traced(spans, "core.cci", [&] {
            cci = adbscan::BuildCoreCellIndex(*grid, is_core);
          }).ms;
  Clustering out;
  out.num_clusters = exact.num_clusters;
  out.is_core = is_core;
  out.label.assign(data.size(), adbscan::kNoise);
  for (size_t i = 0; i < data.size(); ++i) {
    if (is_core[i]) out.label[i] = exact.label[i];
  }
  t.border_trace = Traced(spans, "core.border", [&] {
    adbscan::AssignBorderPoints(data, *grid, cci, is_core, exact.label,
                                params.eps, &out, threads);
  });
  t.border = t.border_trace.ms;
  return t;
}

}  // namespace

BatchStage::BatchStage(const Dataset& data, BatchConfig config)
    : data_(data), config_(std::move(config)) {}

double BatchStage::RunCli(Checks* checks, const std::string& metrics_json) {
  const std::string save = config_.work_dir + "/cli_labels.bin";
  std::remove(save.c_str());
  char eps[64], rho[64];
  std::snprintf(eps, sizeof(eps), "--eps=%.17g", config_.params.eps);
  std::snprintf(rho, sizeof(rho), "--rho=%.17g", config_.rho);
  std::vector<std::string> argv = {
      config_.cli,
      "--input=" + config_.bin_path,
      "--algo=approx",
      eps,
      "--min_pts=" + std::to_string(config_.params.min_pts),
      rho,
      "--threads=" + std::to_string(config_.params.num_threads),
      "--stats_rows=0",
      "--save=" + save};
  if (!metrics_json.empty()) argv.push_back("--metrics_json=" + metrics_json);
  // Only the process is timed: from its start until it has been reaped.
  const double start = NowSeconds();
  const pid_t pid = Spawn(argv, config_.work_dir + "/cli.log");
  const bool ok = pid > 0 && WaitChild(pid);
  const double ms = (NowSeconds() - start) * 1e3;
  checks->Expect(ok, "adbscan_cli exits 0");
  if (ok) {
    checks->Expect(SameClustering(adbscan::ReadClustering(save), approx_ref_),
                   "CLI saved clustering equals in-process ApproxDbscan");
  }
  return ms;
}

void BatchStage::CheckAll(Checks* checks, const Clustering& exact,
                          const Clustering& approx, const Clustering& sharded) {
  if (!have_refs_) {
    // References for the checks, untimed: the first results and an exact
    // run at eps (1 + rho) for the Theorem 3 sandwich.
    exact_ref_ = exact;
    approx_ref_ = approx;
    DbscanParams scaled = config_.params;
    scaled.eps *= 1.0 + config_.rho;
    exact_scaled_ref_ = adbscan::ExactGridDbscan(data_, scaled);
    have_refs_ = true;
  }
  checks->Expect(SameClustering(exact, exact_ref_),
                 "exact is identical across repeats");
  checks->Expect(
      adbscan::SatisfiesSandwich(exact_ref_, approx, exact_scaled_ref_),
      "approx satisfies the Theorem 3 sandwich");
  checks->Expect(SameClustering(sharded, approx),
                 "sharded K=4 is bit-identical to ApproxDbscan");
}

void BatchStage::RunOnce(Checks* checks, BatchTimes* times) {
  const DbscanParams& p = config_.params;
  // Each pipeline is called until its calls add up to kMinMs, so that every
  // median rests on several calls: with one call per iteration, approx_ms
  // and cli_ms on ss7d-1m spread by 0.17 across ten seeds. Only `call` is
  // timed; `check` runs after it.
  constexpr double kMinMs = 1000.0;
  auto repeat = [](std::vector<double>* out, const std::function<void()>& call,
                   const std::function<void()>& check) {
    double total = 0.0;
    do {
      out->push_back(TimeMs(call));
      total += out->back();
      check();
    } while (total < kMinMs);
  };
  Clustering exact, approx, sampled, sharded;
  repeat(
      &times->exact, [&] { exact = adbscan::ExactGridDbscan(data_, p); },
      [&] {
        if (have_refs_) {
          checks->Expect(SameClustering(exact, exact_ref_),
                         "exact is identical across repeats");
        }
      });
  repeat(
      &times->approx,
      [&] { approx = adbscan::ApproxDbscan(data_, p, config_.rho); },
      [&] {
        if (have_refs_) {
          checks->Expect(SameClustering(approx, approx_ref_),
                         "approx is identical across repeats");
        }
      });
  repeat(
      &times->sampled,
      [&] { sampled = adbscan::SampledDbscan(data_, p, kSampleOptions); },
      [] {});
  repeat(
      &times->sharded,
      [&] {
        sharded =
            adbscan::ShardedApproxDbscan(data_, p, config_.rho, kShards);
      },
      [] {});
  CheckAll(checks, exact, approx, sharded);
  times->ari.push_back(adbscan::AdjustedRandIndex(sampled, exact));
  // RunCli times the child process alone and checks its output afterwards.
  double cli_total = 0.0;
  do {
    times->cli.push_back(RunCli(checks));
    cli_total += times->cli.back();
  } while (cli_total < kMinMs);
}

void BatchStage::RunTraced(Checks* checks, SpanLog* spans, Report* report) {
  const DbscanParams& p = config_.params;
  // Untraced pass first: the baseline for the tracing overhead.
  BatchTimes plain;
  RunOnce(checks, &plain);
  const double plain_ms = Median(plain.exact) + Median(plain.approx) +
                          Median(plain.sampled) + Median(plain.sharded);

  MetricsRegistry::SetEnabled(true);
  const int root = spans->Open("batch");
  Clustering exact, approx, sampled, sharded;
  const CallTrace te = Traced(spans, "exact", [&] {
    exact = adbscan::ExactGridDbscan(data_, p);
  });
  const CallTrace ta = Traced(spans, "approx", [&] {
    approx = adbscan::ApproxDbscan(data_, p, config_.rho);
  });
  const CallTrace ts = Traced(spans, "sampled", [&] {
    sampled = adbscan::SampledDbscan(data_, p, kSampleOptions);
  });
  const CallTrace th = Traced(spans, "sharded", [&] {
    sharded = adbscan::ShardedApproxDbscan(data_, p, config_.rho,
                                           kShards);
  });
  CheckAll(checks, exact, approx, sharded);
  report->Add("trace.overhead_pct",
              ((te.ms + ta.ms + ts.ms + th.ms) / plain_ms - 1.0) * 100.0, "%");

  // Attribution: pipeline time not covered by any root-level library phase.
  for (const auto& [name, t] :
       {std::pair<const char*, const CallTrace*>{"exact", &te},
        {"approx", &ta}, {"sampled", &ts}, {"sharded", &th}}) {
    const double residual = t->ms - t->RootPhaseMs();
    std::fprintf(stderr,
                 "perfbench: attribution %-8s pipeline %.3f ms, phases %.3f "
                 "ms, residual %.3f ms\n",
                 name, t->ms, t->RootPhaseMs(), residual);
    report->Add(std::string("residual.") + name + "_ms", residual, "ms");
  }

  // Layers timed from outside, with nproc threads and with one.
  const LayerTimes lt = TimeLayers(data_, p, exact, spans);
  DbscanParams serial = p;
  serial.num_threads = 1;
  const LayerTimes l1 = TimeLayers(data_, serial, exact, spans);
  spans->Close(root);

  report->Add("grid.build_ms", lt.build, "ms");
  report->Add("grid.warm_ms", lt.warm, "ms");
  report->Add("grid.soa_ms", lt.soa, "ms");
  for (const char* c : {"grid.cells", "grid.csr_bytes"}) {
    report->Add(c, static_cast<double>(te.Counter(c)), "count");
  }
  report->Add("core.label_ms", lt.label, "ms");
  report->Add("core.cci_ms", lt.cci, "ms");
  report->Add("dist_evals.core_labeling",
              static_cast<double>(
                  lt.label_trace.Counter("dist_evals.core_labeling")),
              "count");
  report->Add("core.border_ms", lt.border, "ms");
  report->Add("dist_evals.border",
              static_cast<double>(lt.border_trace.Counter("dist_evals.border")),
              "count");
  report->Add("grid.build_speedup", l1.build / lt.build, "x");
  report->Add("grid.warm_speedup", l1.warm / lt.warm, "x");
  report->Add("grid.soa_speedup", l1.soa / lt.soa, "x");
  report->Add("core.label_speedup", l1.label / lt.label, "x");
  report->Add("core.border_speedup", l1.border / lt.border, "x");

  // Edge graph (exact: BCP; approx: Lemma 5 range counting).
  report->Add("core.edge_ms", te.PhaseMs("edge_graph"), "ms");
  for (const char* c :
       {"graph.candidate_pairs", "graph.edge_tests", "graph.edges",
        "dist_evals.bcp", "bcp.pair_tests", "bcp.tree_probes",
        "unionfind.finds", "unionfind.unions", "kernel.batch_calls",
        "pool.regions", "pool.steals"}) {
    report->Add(c, static_cast<double>(te.Counter(c)), "count");
  }
  const double tests = static_cast<double>(te.Counter("graph.edge_tests"));
  report->Add("graph.edge_yield",
              tests > 0 ? te.Counter("graph.edges") / tests : 0.0, "ratio");
  const double filled = static_cast<double>(te.Counter("kernel.lanes_filled"));
  const double padded = static_cast<double>(te.Counter("kernel.lanes_padded"));
  report->Add("kernel.lane_fill",
              filled + padded > 0 ? filled / (filled + padded) : 0.0, "ratio");
  const auto util = te.snap.distributions.find("pool.region_utilization");
  report->Add("pool.region_utilization_p50",
              util == te.snap.distributions.end() ? 0.0
                                                  : util->second.Quantile(0.5),
              "ratio");
  for (const char* c : {"rangecount.structures", "rangecount.probes",
                        "rangecount.nodes_visited"}) {
    report->Add(c, static_cast<double>(ta.Counter(c)), "count");
  }

  // Sampled tier: its draw plus the shared skeleton's phases.
  report->Add("sample.draw_ms", ts.PhaseMs("sample_draw"), "ms");
  report->Add("sample.label_ms", ts.PhaseMs("core_labeling"), "ms");
  report->Add("sample.cluster_ms",
              ts.PhaseMs("core_cell_index") + ts.PhaseMs("prepare_cells") +
                  ts.PhaseMs("edge_graph") + ts.PhaseMs("label_components"),
              "ms");
  report->Add("sample.assign_ms", ts.PhaseMs("border_assign"), "ms");
  for (const char* c : {"sample.size", "sample.cores", "sample.assign_queries",
                        "dist_evals.sample_assign"}) {
    report->Add(c, static_cast<double>(ts.Counter(c)), "count");
  }

  // Sharded tier.
  double shard_self = 0.0;
  for (const char* phase :
       {"shard.plan", "shard.cluster", "shard.merge", "shard.border"}) {
    report->Add(std::string(phase) + "_ms", th.PhaseMs(phase), "ms");
    shard_self += th.SelfMs(phase);
  }
  report->Add("shard.self_ms", shard_self, "ms");
  report->Add("shard.warm_ms", th.PhaseMs("grid.warm"), "ms");
  for (const char* c : {"shard.halo_points", "shard.cross_candidates",
                        "shard.cross_edges", "shard.max_resident_points"}) {
    report->Add(c, static_cast<double>(th.Counter(c)), "count");
  }
  MetricsRegistry::SetEnabled(false);

  // I/O layer and the CLI's remainder.
  const double read_ms = TimeMs([&] {
    std::string error;
    checks->Expect(adbscan::TryReadBinary(config_.bin_path, &error).has_value(),
                   "TryReadBinary reads the set-up file");
  });
  const double write_ms = TimeMs([&] {
    adbscan::WriteClustering(approx, config_.work_dir + "/labels.bin");
  });
  // The CLI is a fresh process, so its own metrics record is the one that
  // sees the process-wide stencil cache built (grid.stencil_entries).
  const std::string cli_metrics = config_.work_dir + "/cli_metrics.json";
  std::remove(cli_metrics.c_str());
  const double cli_ms = RunCli(checks, cli_metrics);
  CallTrace tc;
  checks->Expect(ReadMetricsRecord(cli_metrics, &tc.snap),
                 "adbscan_cli --metrics_json record parses");
  for (const char* c : {"grid.stencil_entries", "grid.hash_probes"}) {
    report->Add(c, static_cast<double>(tc.Counter(c)), "count");
  }
  report->Add("io.read_ms", read_ms, "ms");
  report->Add("io.write_ms", write_ms, "ms");
  report->Add("cli.other_ms",
              cli_ms - read_ms - Median(plain.approx) - write_ms, "ms");
}

}  // namespace perfbench
