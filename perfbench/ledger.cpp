#include "ledger.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point t0 = clock::now();
  return std::chrono::duration<double>(clock::now() - t0).count();
}

double read_hwm_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) break;
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

bool reset_hwm() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

// --- Tracer ------------------------------------------------------------------

Tracer::Tracer(bool on) : on_(on) {}

Tracer::Scope::Scope(Tracer& t, std::string name) : t_(t) {
  start_ = now_s();
  if (t_.on_) id_ = t_.open(name, start_);
}

Tracer::Scope::~Scope() { stop(); }

double Tracer::Scope::stop() {
  if (seconds_ >= 0) return seconds_;
  const double end = now_s();
  seconds_ = end - start_;
  if (id_ >= 0) t_.close(id_, end);
  return seconds_;
}

void Tracer::fold_hwm() {
  const double hwm = read_hwm_mb();
  for (int id : open_) spans_[id].hwm_mb = std::max(spans_[id].hwm_mb, hwm);
}

int Tracer::open(const std::string& name, double start) {
  const double t0 = now_s();
  // Charge the peak so far to the enclosing spans before the reset, so each
  // span's peak is the max over its whole interval, children included.
  fold_hwm();
  if (!reset_hwm()) hwm_reset_ok_ = false;
  Span s;
  s.name = name;
  s.start = start;
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  overhead_s_ += now_s() - t0;
  return id;
}

void Tracer::close(int id, double end) {
  const double t0 = now_s();
  fold_hwm();
  spans_[id].end = end;
  // Scopes nest lexically, so the closing span is the innermost open one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  overhead_s_ += now_s() - t0;
}

double Tracer::layer_hwm_mb(const std::string& layer) const {
  const std::string prefix = layer + ".";
  double peak = 0;
  for (const Span& s : spans_)
    if (s.name.compare(0, prefix.size(), prefix) == 0)
      peak = std::max(peak, s.hwm_mb);
  return peak;
}

double Tracer::uncovered_share(int root) const {
  if (root < 0) return 0;
  const Span& r = spans_[root];
  const double dur = r.end - r.start;
  if (dur <= 0) return 0;
  double covered = 0;
  for (const Span& s : spans_)
    if (s.parent == root) covered += s.end - s.start;
  return std::max(0.0, dur - covered) / dur;
}

int Tracer::last(const std::string& name) const {
  for (int i = static_cast<int>(spans_.size()) - 1; i >= 0; --i)
    if (spans_[i].name == name) return i;
  return -1;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"schema\":\"perfbench-spans/v1\",\"hwm_reset\":"
      << (hwm_reset_ok_ ? "true" : "false") << ",\"spans\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%d,\"run\":%d,\"hwm_mb\":%.3f}%s\n",
                  i, s.name.c_str(), s.start, s.end, s.parent, s.run,
                  s.hwm_mb, i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
}

// --- MetricSet ---------------------------------------------------------------

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  auto [it, fresh] = vals_.try_emplace(name, value, unit);
  if (fresh) {
    order_.push_back(name);
  } else {
    it->second = {value, unit};
  }
}

bool MetricSet::has(const std::string& name) const {
  return vals_.count(name) != 0;
}

double MetricSet::get(const std::string& name) const {
  return vals_.at(name).first;
}

const std::string& MetricSet::unit(const std::string& name) const {
  return vals_.at(name).second;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::min(xs.size() - 1, rank == 0 ? 0 : rank - 1)];
}

MetricSet median_over(const std::vector<MetricSet>& reps) {
  MetricSet out;
  if (reps.empty()) return out;
  for (const std::string& name : reps.front().names()) {
    std::vector<double> xs;
    for (const MetricSet& r : reps)
      if (r.has(name)) xs.push_back(r.get(name));
    out.set(name, median(xs), reps.front().unit(name));
  }
  return out;
}

}  // namespace perfbench
