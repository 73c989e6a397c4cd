#ifndef PERFBENCH_BATCH_H_
#define PERFBENCH_BATCH_H_

// Batch stage: the four in-process pipelines and the CLI over one dataset,
// each timed as a whole, plus the traced per-layer breakdown.

#include <string>
#include <vector>

#include "core/dbscan_types.h"
#include "geom/dataset.h"
#include "util.h"

namespace perfbench {

struct BatchConfig {
  adbscan::DbscanParams params;  // eps, min_pts, num_threads
  double rho = 0.001;
  std::string cli;       // adbscan_cli binary
  std::string bin_path;  // the dataset as written during set-up
  std::string work_dir;
};

// Per-call wall times (ms) of the untraced iterations.
struct BatchTimes {
  std::vector<double> exact, approx, sampled, sharded, cli;
  std::vector<double> ari;  // sampled vs exact
};

class BatchStage {
 public:
  BatchStage(const adbscan::Dataset& data, BatchConfig config);

  // One untraced iteration: every pipeline once, the CLI once, each output
  // checked.
  void RunOnce(Checks* checks, BatchTimes* times);

  // The traced breakdown: per-layer timed calls, library counters and
  // phases per call, residuals and tracing overhead, added to `report`.
  void RunTraced(Checks* checks, SpanLog* spans, Report* report);

 private:
  // Runs adbscan_cli once and checks its saved clustering; returns the
  // process's wall time in ms, from its start until it is reaped (the check
  // is not included). A non-empty `metrics_json` turns on the CLI's own
  // metrics.
  double RunCli(Checks* checks, const std::string& metrics_json = "");
  void CheckAll(Checks* checks, const adbscan::Clustering& exact,
                const adbscan::Clustering& approx,
                const adbscan::Clustering& sharded);

  const adbscan::Dataset& data_;
  BatchConfig config_;
  bool have_refs_ = false;
  adbscan::Clustering exact_ref_;         // first exact result
  adbscan::Clustering exact_scaled_ref_;  // exact at eps (1 + rho)
  adbscan::Clustering approx_ref_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BATCH_H_
