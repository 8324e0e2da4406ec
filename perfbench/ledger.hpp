// Benchmark-side tracing and measurement: spans recorded around calls into
// the library's public entry points, memory sampled from /proc/self/status at
// span boundaries, and the named metric sets the benchmark prints.
//
// Everything here lives outside src/: the library's own tracers stay off.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call.
double now_s();

/// VmHWM (peak RSS) of this process in MiB (0 when /proc is unreadable).
double read_hwm_mb();

/// Reset the peak-RSS high-water mark through /proc/self/clear_refs.
/// Returns false where the kernel refuses the write.
bool reset_hwm();

/// In-memory span recorder. Disabled tracers only time (Scope::stop still
/// returns wall seconds, which the metrics need in both modes); enabled ones
/// also keep name/start/end/parent/run and the peak RSS seen inside the
/// span, and write the list out at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;  ///< Index into spans(), -1 for a root.
    int run = 0;      ///< Repetition the span belongs to.
    double hwm_mb = 0;
  };

  class Scope {
   public:
    Scope(Tracer& t, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Close the span (idempotent) and return its wall seconds.
    double stop();

   private:
    Tracer& t_;
    int id_ = -1;
    double start_ = 0;
    double seconds_ = -1;
  };

  explicit Tracer(bool on);

  [[nodiscard]] bool on() const { return on_; }
  void set_run(int run) { run_ = run; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Whether clear_refs accepted the high-water-mark reset (traced runs).
  [[nodiscard]] bool hwm_reset_ok() const { return hwm_reset_ok_; }
  /// Seconds spent inside the tracer's own bookkeeping (clock reads, /proc
  /// reads and writes, span storage) — the cost tracing adds to a job.
  [[nodiscard]] double overhead_s() const { return overhead_s_; }
  void reset_overhead() { overhead_s_ = 0; }

  /// Peak RSS over every span whose name starts with "<layer>.".
  [[nodiscard]] double layer_hwm_mb(const std::string& layer) const;
  /// Share of root span `root`'s duration not covered by its children.
  [[nodiscard]] double uncovered_share(int root) const;
  /// Index of the most recent span named `name` (-1 if none).
  [[nodiscard]] int last(const std::string& name) const;

  void write_json(const std::string& path) const;

 private:
  int open(const std::string& name, double start);
  void close(int id, double end);
  /// Fold the current VmHWM into every open span.
  void fold_hwm();

  bool on_;
  bool hwm_reset_ok_ = true;
  int run_ = 0;
  double overhead_s_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Named values with units, kept in insertion order of first definition.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] const std::vector<std::string>& names() const {
    return order_;
  }
  [[nodiscard]] const std::string& unit(const std::string& name) const;

 private:
  std::map<std::string, std::pair<double, std::string>> vals_;
  std::vector<std::string> order_;
};

/// Median of each metric over repetitions (every set must define the same
/// names; a name missing from a repetition is skipped for it).
MetricSet median_over(const std::vector<MetricSet>& reps);

double median(std::vector<double> xs);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> xs, double q);

}  // namespace perfbench
