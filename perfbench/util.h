#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

// Shared plumbing of the benchmark program: clocks, order statistics, child
// processes, output checks, the per-call span log of the traced run, and the
// final metrics report.

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/dbscan_types.h"
#include "obs/metrics.h"

namespace perfbench {

double NowSeconds();  // steady clock
double Median(std::vector<double> v);
// Linear-interpolation quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
// Quantile q of each of max(1, v.size() / window) equal consecutive chunks
// of `v`.
std::vector<double> WindowQuantiles(const std::vector<double>& v,
                                    size_t window, double q);
// Peak resident set (VmHWM) of a running process, MiB; 0 if unknown.
double PeakRssMb(pid_t pid);

// Starts `argv` with stdout and stderr written to `log_path`. Returns the
// pid, or -1 when the program cannot be started.
pid_t Spawn(const std::vector<std::string>& argv, const std::string& log_path);
// Waits for `pid`; returns true iff it exited with code 0.
bool WaitChild(pid_t pid);
// Sends SIGTERM, then SIGKILL if the child has not ended after
// `grace_seconds`, and reaps it.
bool StopChild(pid_t pid, double grace_seconds);

bool SameClustering(const adbscan::Clustering& a,
                    const adbscan::Clustering& b);

// Output checks: every check is one attempted operation; a failed check is
// reported on stderr and counted.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Expect(bool ok, const std::string& what);
};

// Traced-run span log: one span per public call the benchmark makes, with its
// parent, kept in memory and written out once at the end.
class SpanLog {
 public:
  int Open(const std::string& name);
  void Close(int id);
  double DurationMs(int id) const;
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Library counters and phases captured around one call: the registry is
// reset before and snapshotted after.
struct CallTrace {
  double ms = 0.0;
  adbscan::obs::MetricsSnapshot snap;
  uint64_t Counter(const std::string& name) const;
  // Total milliseconds of every phase node called `name`, at any depth.
  double PhaseMs(const std::string& name) const;
  // Sum of the root-level phase milliseconds.
  double RootPhaseMs() const;
  // Milliseconds of the phase nodes called `name` not covered by their
  // children.
  double SelfMs(const std::string& name) const;
};

// Reads the last obs::RunRecord of a JSON Lines file written by a binary's
// --metrics_json flag; false if there is none.
bool ReadMetricsRecord(const std::string& path,
                       adbscan::obs::MetricsSnapshot* out);

// Collected metrics, printed at the end as one JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // Prints one "name value unit" line per metric on stdout, then the JSON
  // result as the last line.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
