#include "util.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "obs/export.h"

extern char** environ;

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

std::vector<double> WindowQuantiles(const std::vector<double>& v,
                                    size_t window, double q) {
  std::vector<double> out;
  if (v.empty()) return out;
  const size_t k = std::max<size_t>(1, v.size() / window);
  for (size_t i = 0; i < k; ++i) {
    const std::vector<double> chunk(v.begin() + v.size() * i / k,
                                    v.begin() + v.size() * (i + 1) / k);
    out.push_back(Quantile(chunk, q));
  }
  return out;
}

double PeakRssMb(pid_t pid) {
  // VmHWM belongs to the process image: unlike the rusage figure, it does
  // not include the parent's peak inherited through vfork and exec.
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

pid_t Spawn(const std::vector<std::string>& argv, const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

namespace {

bool Reap(pid_t pid, int options, bool* done) {
  int status = 0;
  const pid_t r = waitpid(pid, &status, options);
  *done = (r == pid);
  if (!*done) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace

bool WaitChild(pid_t pid) {
  bool done = false;
  return Reap(pid, 0, &done);
}

bool StopChild(pid_t pid, double grace_seconds) {
  kill(pid, SIGTERM);
  const double deadline = NowSeconds() + grace_seconds;
  while (NowSeconds() < deadline) {
    bool done = false;
    const bool ok = Reap(pid, WNOHANG, &done);
    if (done) return ok;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(pid, SIGKILL);
  WaitChild(pid);
  return false;
}

bool SameClustering(const adbscan::Clustering& a,
                    const adbscan::Clustering& b) {
  return a.num_clusters == b.num_clusters && a.label == b.label &&
         a.is_core == b.is_core && a.extra_memberships == b.extra_memberships;
}

void Checks::Expect(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

int SpanLog::Open(const std::string& name) {
  Span s;
  s.name = name;
  s.start = NowSeconds();
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanLog::Close(int id) {
  spans_[id].end = NowSeconds();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double SpanLog::DurationMs(int id) const {
  return (spans_[id].end - spans_[id].start) * 1e3;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.6f, "
                 "\"end_ms\": %.6f, \"parent\": %d}%s\n",
                 i, s.name.c_str(), (s.start - t0) * 1e3, (s.end - t0) * 1e3,
                 s.parent, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

uint64_t CallTrace::Counter(const std::string& name) const {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

namespace {

void WalkPhases(const std::vector<adbscan::obs::PhaseNode>& nodes,
                const std::string& name, double* total, double* self) {
  for (const auto& node : nodes) {
    if (node.name == name) {
      *total += node.ms;
      double covered = 0.0;
      for (const auto& c : node.children) covered += c.ms;
      *self += node.ms - covered;
    }
    WalkPhases(node.children, name, total, self);
  }
}

}  // namespace

double CallTrace::PhaseMs(const std::string& name) const {
  double total = 0.0, self = 0.0;
  WalkPhases(snap.phases, name, &total, &self);
  return total;
}

double CallTrace::SelfMs(const std::string& name) const {
  double total = 0.0, self = 0.0;
  WalkPhases(snap.phases, name, &total, &self);
  return self;
}

double CallTrace::RootPhaseMs() const { return snap.TotalPhaseMs(); }

bool ReadMetricsRecord(const std::string& path,
                       adbscan::obs::MetricsSnapshot* out) {
  std::ifstream in(path);
  std::string line;
  bool parsed = false;
  while (std::getline(in, line)) {
    if (auto rec = adbscan::obs::RunRecordFromJson(line)) {
      *out = std::move(rec->metrics);
      parsed = true;
    }
  }
  return parsed;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!values_.count(name)) order_.push_back(name);
  values_[name] = {value, unit};
}

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  for (const std::string& name : order_) {
    const auto& [value, unit] = values_.at(name);
    std::printf("%-36s %.6g %s\n", name.c_str(), value, unit.c_str());
  }
  std::printf("%-36s %.6g (%llu of %llu checks failed)\n", "error_rate",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", order_[i].c_str(),
                std::isfinite(value) ? value : 0.0, unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
