#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <omp.h>

#include "mlmd/obs/metrics.hpp"
#include "mlmd/par/thread_pool.hpp"
#include "mlmd/simd/simd.hpp"

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

void Report::set(const std::string& name, double value, const char* unit) {
  metrics[name] = Metric{value, unit};
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CpuTimes CpuTimes::read() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  CpuTimes t;
  double v = 0.0;
  for (int i = 0; i < 10 && f >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double CpuTimes::steal_share_since(const CpuTimes& before) const {
  const double dt = total - before.total;
  return dt > 0 ? (steal - before.steal) / dt : 0.0;
}

namespace {
double g_start_s = 0.0;
CpuTimes g_start_cpu;
} // namespace

void mark_start() {
  g_start_s = now_s();
  g_start_cpu = CpuTimes::read();
}

double since_start_s() { return now_s() - g_start_s; }

double steal_share_since_start() {
  return CpuTimes::read().steal_share_since(g_start_cpu);
}

namespace {
/// A segment is quiet when other guests took less than this share of all
/// CPU time during it.
constexpr double kQuietSteal = 0.02;
} // namespace

std::vector<double> run_segments(const std::function<void()>& segment,
                                 const SegmentPlan& plan) {
  std::vector<double> steal;
  std::size_t quiet = 0;
  const double t0 = now_s();
  for (;;) {
    const double elapsed = now_s() - t0;
    const std::size_t n = steal.size();
    if (n >= plan.min_segments && elapsed >= plan.seconds &&
        (quiet >= n - n / 3 || n >= plan.max_segments ||
         elapsed >= plan.max_seconds))
      break;
    const CpuTimes before = CpuTimes::read();
    segment();
    steal.push_back(CpuTimes::read().steal_share_since(before));
    if (steal.back() < kQuietSteal) ++quiet;
  }
  return steal;
}

std::vector<std::size_t> quietest(const std::vector<double>& steal,
                                  std::size_t min_keep) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return steal[x] < steal[y];
  });
  std::size_t keep = 0;
  while (keep < order.size() && steal[order[keep]] < kQuietSteal) ++keep;
  order.resize(std::min(std::max(keep, min_keep), order.size()));
  std::sort(order.begin(), order.end());
  return order;
}

void sleep_until(double t_s) {
  const double d = t_s - now_s();
  if (d > 0) std::this_thread::sleep_for(std::chrono::duration<double>(d));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::string json_array(const std::vector<double>& v) {
  std::ostringstream o;
  o.precision(4);
  o << "[";
  for (std::size_t i = 0; i < v.size(); ++i) o << (i ? ", " : "") << v[i];
  o << "]";
  return o.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double cpu_canary_s() {
  std::vector<double> t;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    volatile double sink = 0.0;
    double x = 1.0;
    for (int i = 0; i < 20'000'000; ++i) x = x * 1.0000001 + 1e-9;
    sink = x;
    (void)sink;
    t.push_back(now_s() - t0);
  }
  return quantile(t, 0.5);
}

double load_average_1m() {
  std::ifstream f("/proc/loadavg");
  double l = 0.0;
  f >> l;
  return l;
}

std::string context_json(const Args& a, const Report& r) {
  std::ostringstream o;
  o.precision(6);
  o << "{\"context\": {\"workload\": \"" << a.workload << "\", \"seed\": "
    << a.seed << ", \"trace\": " << (a.trace ? 1 : 0)
    << ", \"cpu_canary_s\": " << cpu_canary_s()
    << ", \"loadavg_1m\": " << load_average_1m()
    << ", \"cpu_steal_share\": " << steal_share_since_start()
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"simd_target\": \""
    << mlmd::simd::target_name(mlmd::simd::active_target())
    << "\", \"pool_threads\": " << mlmd::par::num_threads()
    << ", \"omp_max_threads\": " << omp_get_max_threads();
  for (const auto& [key, json] : r.context)
    o << ", \"" << key << "\": " << json;
  o << "}}";
  return o.str();
}

namespace {

/// splitmix64: a deterministic 64-bit mix for seeded input generation.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

} // namespace

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  std::uint64_t s = seed;
  for (std::size_t i = n; i > 1; --i) {
    s = mix64(s);
    std::swap(p[i - 1], p[s % i]);
  }
  return p;
}

// --- registry instruments ------------------------------------------------

Instruments Instruments::read() {
  auto& reg = mlmd::obs::Registry::global();
  auto cnt = [&](const char* n) {
    return static_cast<double>(reg.counter(n).value());
  };
  Instruments i;
  i.lfd_kin = reg.histogram("lfd.kin_prop.seconds").sum();
  i.lfd_nlp = reg.histogram("lfd.nlp_prop.seconds").sum();
  i.lfd_vloc = reg.histogram("lfd.vloc_prop.seconds").sum();
  i.lfd_hartree = reg.histogram("lfd.hartree.seconds").sum();
  i.md_steps = cnt("mesh.md_steps");
  i.shadow_bytes = cnt("mesh.bytes_qxmd_to_lfd") + cnt("mesh.bytes_lfd_to_qxmd");
  i.pool_launches = cnt("pool.launches");
  const auto& qw = reg.histogram("pool.queue_wait.seconds");
  i.pool_wait = qw.sum();
  i.pool_wait_n = static_cast<double>(qw.count());
  const auto& im = reg.histogram("pool.imbalance");
  i.pool_imbalance = im.sum();
  i.pool_imbalance_n = static_cast<double>(im.count());
  i.ckpt_writes = cnt("ft.checkpoint.writes");
  i.ckpt_bytes = cnt("ft.checkpoint.bytes");
  i.ckpt_s = reg.histogram("ft.checkpoint.seconds").sum();
  i.fused_evals = cnt("serve.batches");
  return i;
}

std::array<double*, 15> Instruments::fields() {
  return {&lfd_kin,       &lfd_nlp,          &lfd_vloc,    &lfd_hartree,
          &md_steps,      &shadow_bytes,     &pool_launches, &pool_wait,
          &pool_wait_n,   &pool_imbalance,   &pool_imbalance_n,
          &ckpt_writes,   &ckpt_bytes,       &ckpt_s,      &fused_evals};
}

Instruments& Instruments::operator+=(Instruments o) {
  auto mine = fields();
  auto theirs = o.fields();
  for (std::size_t k = 0; k < mine.size(); ++k) *mine[k] += *theirs[k];
  return *this;
}

Instruments Instruments::operator-(Instruments o) const {
  Instruments d = *this;
  auto mine = d.fields();
  auto theirs = o.fields();
  for (std::size_t k = 0; k < mine.size(); ++k) *mine[k] -= *theirs[k];
  return d;
}

// --- span accounting -----------------------------------------------------

void SpanAccount::add(const std::vector<mlmd::obs::SpanEvent>& ev,
                      std::uint32_t path_tid) {
  // snapshot() orders spans by (tid, t0, depth): per thread, parents come
  // before the children they enclose. A stack of open spans gives each
  // span its parent; a child's duration is subtracted from its parent's
  // self time. A pool.launch span is the kernel's own work spread over the
  // pool, so it is transparent: its time stays with the kernel that
  // launched it, and spans inside it are children of that kernel.
  struct Open {
    std::size_t idx;
    std::uint64_t end;
    std::uint32_t depth;
    bool launch;
  };
  std::vector<double> child(ev.size(), 0.0);
  std::vector<Open> stack;
  std::uint32_t tid = ~0u;
  for (std::size_t i = 0; i < ev.size(); ++i) {
    const auto& e = ev[i];
    const double dur = static_cast<double>(e.dur_ns) * 1e-9;
    const bool launch = e.name && std::string(e.name) == "pool.launch";
    if (e.tid != tid) {
      stack.clear();
      tid = e.tid;
    }
    while (!stack.empty() &&
           (stack.back().depth >= e.depth || stack.back().end <= e.t0_ns))
      stack.pop_back();
    if (launch) {
      child[i] = dur; // no self time of its own
    } else {
      auto parent = stack.rbegin();
      while (parent != stack.rend() && parent->launch) ++parent;
      if (parent != stack.rend()) child[parent->idx] += dur;
    }
    stack.push_back(Open{i, e.t0_ns + e.dur_ns, e.depth, launch});
    if (e.tid == path_tid && e.depth == 0)
      roots_.push_back(Interval{e.t0_ns, e.t0_ns + e.dur_ns});
  }
  for (std::size_t i = 0; i < ev.size(); ++i) {
    auto& a = by_name_[ev[i].name ? ev[i].name : "?"];
    const double d = static_cast<double>(ev[i].dur_ns) * 1e-9;
    ++a.n;
    a.incl += d;
    a.self += d - child[i];
  }
}

void SpanAccount::drain(std::uint32_t path_tid) {
  dropped += mlmd::obs::Tracer::dropped();
  add(mlmd::obs::Tracer::snapshot(), path_tid);
  mlmd::obs::Tracer::clear();
}

namespace {

/// The module a span's time belongs to. The benchmark's own spans wrap
/// one public call each, so they belong to the layer of that call.
const char* layer_of(const std::string& span) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"bench.prepare", "pipeline"}, {"bench.step", "pipeline"},
      {"bench.forces", "nnq"},       {"bench.run_parallel_mesh", "mesh"},
      {"loadgen.", "loadgen"},       {"pipeline.", "pipeline"},
      {"nnq.", "nnq"},               {"gemm", "la"},
      {"gemv", "la"},                {"pool.", "par"},
      {"lfd.", "lfd"},               {"mesh.", "mesh"},
      {"ft.", "ft"},                 {"comm.", "par"}};
  for (const auto& [prefix, layer] : kLayers)
    if (span.rfind(prefix, 0) == 0) return layer;
  return "other";
}

bool skipped(const std::string& name, const std::string& skip) {
  return !skip.empty() && name.rfind(skip, 0) == 0;
}

} // namespace

std::string SpanAccount::self_by_layer_json(double per,
                                            const std::string& skip) const {
  std::map<std::string, double> layers;
  for (const auto& [name, a] : by_name_)
    if (!skipped(name, skip)) layers[layer_of(name)] += a.self;
  std::ostringstream o;
  o.precision(6);
  o << "{";
  for (const auto& [layer, s] : layers)
    o << (o.tellp() > 1 ? ", " : "") << "\"" << layer << "\": " << s / per;
  o << "}";
  return o.str();
}

double SpanAccount::self_total_s(const std::string& skip) const {
  double s = 0.0;
  for (const auto& [name, a] : by_name_)
    if (!skipped(name, skip)) s += a.self;
  return s;
}

double SpanAccount::inclusive_s(const std::string& prefix) const {
  double s = 0.0;
  for (const auto& [name, a] : by_name_)
    if (name.rfind(prefix, 0) == 0) s += a.incl;
  return s;
}

double SpanAccount::self_s(const std::string& prefix) const {
  double s = 0.0;
  for (const auto& [name, a] : by_name_)
    if (name.rfind(prefix, 0) == 0) s += a.self;
  return s;
}

std::uint64_t SpanAccount::count(const std::string& prefix) const {
  std::uint64_t n = 0;
  for (const auto& [name, a] : by_name_)
    if (name.rfind(prefix, 0) == 0) n += a.n;
  return n;
}

double SpanAccount::covered_s(std::uint64_t t0, std::uint64_t t1) const {
  // Root spans of one thread never overlap, so the covered time is the
  // plain sum of their clipped lengths.
  auto it = std::lower_bound(
      roots_.begin(), roots_.end(), t0,
      [](const Interval& iv, std::uint64_t t) { return iv.t1 <= t; });
  std::uint64_t ns = 0;
  for (; it != roots_.end() && it->t0 < t1; ++it)
    ns += std::min(it->t1, t1) - std::max(it->t0, t0);
  return static_cast<double>(ns) * 1e-9;
}

std::uint32_t current_tid() {
  { mlmd::obs::ObsScope probe("perfbench.tid_probe"); }
  std::uint32_t tid = 0;
  for (const auto& e : mlmd::obs::Tracer::snapshot())
    if (e.name && std::string(e.name) == "perfbench.tid_probe") tid = e.tid;
  return tid;
}

} // namespace perfbench
