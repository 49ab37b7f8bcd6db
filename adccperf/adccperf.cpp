// adccperf — the repository benchmark (see README.md in this directory).
//
// One process runs one workload (cg-bulk, mm-abft or mc-fine) through the same
// eight scenarios of the public core::ScenarioRunner, in interleaved rounds
// until the measurement budget is spent, and prints one JSON object:
//
//   adccperf --workload=cg-bulk --seed=7 --seconds=30 --trace=0
//       end-to-end metrics, tracing off (plain workloads, default backend)
//   adccperf --workload=cg-bulk --seed=7 --seconds=30 --trace=1 --spans=FILE
//       per-layer metrics, measured from outside the program: a Workload
//       decorator times every protocol call, a delegating KernelBackend times
//       every kernel call, and the program's own Telemetry supplies only the
//       ckpt/chunks_* counters. Round 0's spans are written to FILE.
//
// Every scenario runs with verify on; any failed verify or exception counts as
// a failed run, and the process exits 1 when a run failed or a traced run did
// not reproduce its untraced twin.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/options.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "core/registry.hpp"
#include "core/scenario.hpp"
#include "core/telemetry.hpp"
#include "kernels/backend.hpp"
#include "linalg/csr.hpp"

namespace {

using adcc::now_seconds;
using adcc::core::Mode;

// ---------------------------------------------------------------------------
// Workloads and scenarios.

struct WorkloadSpec {
  const char* name;
  const char* app;  ///< Registry name, also the per-layer module name.
  std::vector<std::pair<const char*, const char*>> options;
};

/// Sizes and why each workload was chosen: README.md. Each scenario run
/// takes 0.05-0.25 s, so a run's budget holds about 15-30 rounds: the host's
/// run-to-run noise is large, and a median needs many samples to settle.
const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"cg-bulk", "cg", {{"n", "400000"}, {"nz", "8"}, {"iters", "3"}}},
      {"mm-abft", "mm", {{"n", "480"}, {"rank", "40"}}},
      {"mc-fine",
       "mc",
       {{"lookups", "400000"}, {"nuclides", "16"}, {"gridpoints", "500"}, {"interval", "800"}}},
  };
  return specs;
}

struct Scenario {
  const char* name;
  Mode mode;
  bool ckpt_async;
  bool sharded;  ///< Runs on the shards=4 instance.
  bool crash;    ///< One mid-unit fuzz:SEED crash.
};

constexpr std::array<Scenario, 8> kScenarios = {{
    {"native", Mode::kNative, false, false, false},
    {"alg", Mode::kAlgNvm, false, false, false},
    {"ckpt", Mode::kCkptNvm, false, false, false},
    {"ckpt_async", Mode::kCkptNvm, true, false, false},
    {"tx", Mode::kPmemTx, false, false, false},
    {"shard_ckpt", Mode::kCkptNvm, false, true, false},
    {"alg_crash", Mode::kAlgNvm, false, false, true},
    {"ckpt_crash", Mode::kCkptNvm, false, false, true},
}};
constexpr std::size_t kShards = 4;
// Set-up runs at least kSetupReps times, then more (up to kMaxSetupReps)
// until kSetupSeconds are spent, so short set-ups get a steadier median.
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 9;
constexpr double kSetupSeconds = 2.0;
constexpr int kMinRounds = 3;

std::size_t scenario_index(const char* name) {
  for (std::size_t i = 0; i < kScenarios.size(); ++i) {
    if (std::string(kScenarios[i].name) == name) return i;
  }
  throw std::logic_error(std::string("unknown scenario ") + name);
}

/// Round r's crash seed: the benchmark seed itself in round 0, then a
/// deterministic walk so later rounds crash at other sites.
std::uint64_t fuzz_seed(std::uint64_t seed, int round) {
  return seed + 1000003ULL * static_cast<std::uint64_t>(round);
}

// ---------------------------------------------------------------------------
// Outside-in tracing: spans recorded by the benchmark's own decorators.

enum Kernel { kSpmv, kBlas1, kGemm, kXs, kKernels };
constexpr std::array<const char*, kKernels> kKernelNames = {"spmv", "blas1", "gemm", "xs"};

struct KernelTotals {
  std::uint64_t calls = 0;
  double seconds = 0.0;
  double work = 0.0;  ///< Computed bytes (spmv, blas1), flops (gemm) or lookups (xs).
};

/// What the decorators measured over one scenario run.
struct RunLayers {
  double step_s = 0.0, durable_s = 0.0, wait_s = 0.0, overlap_s = 0.0;
  double recover_s = 0.0, replay_s = 0.0, verify_s = 0.0;
  double step_kernel_s = 0.0;  ///< Kernel time inside run_step spans.
  std::vector<double> durable_unit_s;
  std::array<KernelTotals, kKernels> kernels{};
};

/// In-memory span log of the compute thread (every decorated call runs there:
/// the runner drives the workload on its calling thread and kernels never run
/// on the checkpoint drain threads). Kernel calls are folded into one child
/// span per (parent span, kernel) carrying the call count and busy time, since
/// mc makes one xs call per lookup.
class Tracer {
 public:
  struct Span {
    const char* name;
    double start, end;
    int parent, run;
    std::uint64_t calls;
    double busy;
    std::array<int, kKernels> kernel_child;
  };

  int open(const char* name) {
    spans_.push_back({name, now_seconds(), 0.0, current_, run_, 1, 0.0, {-1, -1, -1, -1}});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  double close(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = now_seconds();
    s.busy = s.end - s.start;
    current_ = s.parent;
    return s.busy;
  }

  void kernel_call(Kernel k, double start, double end, double work) {
    const double dt = end - start;
    KernelTotals& t = layers_->kernels[k];
    ++t.calls;
    t.seconds += dt;
    t.work += work;
    if (current_ < 0) return;
    if (std::string_view(spans_[static_cast<std::size_t>(current_)].name) == "run_step") {
      layers_->step_kernel_s += dt;
    }
    int child = spans_[static_cast<std::size_t>(current_)].kernel_child[k];
    if (child < 0) {
      child = static_cast<int>(spans_.size());
      spans_.push_back({kKernelNames[k], start, end, current_, run_, 0, 0.0, {-1, -1, -1, -1}});
      spans_[static_cast<std::size_t>(current_)].kernel_child[k] = child;
    }
    Span& c = spans_[static_cast<std::size_t>(child)];
    c.end = end;
    ++c.calls;
    c.busy += dt;
  }

  /// Starts a scenario run: totals go to `layers`, and with `keep` its spans
  /// stay in the log under a fresh run id (otherwise they are dropped when
  /// the next run begins).
  void begin_run(RunLayers* layers, std::string label, bool keep) {
    if (!keep_) spans_.resize(kept_);
    kept_ = spans_.size();
    keep_ = keep;
    layers_ = layers;
    run_ = static_cast<int>(run_labels_.size());
    if (keep) run_labels_.push_back(std::move(label));
  }
  RunLayers& layers() { return *layers_; }

  /// Tab-separated: a "# run" line per kept run, then one span per line.
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write span file " + path);
    out.precision(17);
    for (std::size_t r = 0; r < run_labels_.size(); ++r) {
      out << "# run\t" << r << '\t' << run_labels_[r] << '\n';
    }
    out << "id\tname\tstart_s\tend_s\tparent\trun\tcalls\tbusy_s\n";
    const std::size_t kept = keep_ ? spans_.size() : kept_;
    for (std::size_t i = 0; i < kept; ++i) {
      const Span& s = spans_[i];
      out << i << '\t' << s.name << '\t' << s.start << '\t' << s.end << '\t' << s.parent << '\t'
          << s.run << '\t' << s.calls << '\t' << s.busy << '\n';
    }
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::string> run_labels_;
  RunLayers* layers_ = nullptr;
  std::size_t kept_ = 0;  ///< Spans of the runs kept so far.
  bool keep_ = true;
  int current_ = -1;
  int run_ = 0;
};

/// Delegates every kernel to the serial backend through its public entry
/// points (bitwise-identical results) and times each call from outside.
class TimedBackend final : public adcc::core::KernelBackend {
 public:
  explicit TimedBackend(Tracer& tracer) : KernelBackend("adccperf-timed-serial"), tracer_(tracer) {}

 protected:
  void do_spmv(const adcc::linalg::CsrMatrix& a, std::span<const double> x,
               std::span<double> y) const override {
    const double t0 = now_seconds();
    serial().spmv(a, x, y);
    // Computed bytes: values + column indices + row pointers + x + y, once each.
    tracer_.kernel_call(kSpmv, t0, now_seconds(),
                        12.0 * a.nnz() + 8.0 * (a.rows() + 1) + 8.0 * (x.size() + y.size()));
  }
  void do_spmv_rows(const adcc::linalg::CsrMatrix& a, std::size_t r0, std::size_t r1,
                    std::span<const double> x, std::span<double> y) const override {
    const double t0 = now_seconds();
    serial().spmv_rows(a, r0, r1, x, y);
    const double nnz = static_cast<double>(a.row_ptr()[r1] - a.row_ptr()[r0]);
    tracer_.kernel_call(kSpmv, t0, now_seconds(),
                        12.0 * nnz + 8.0 * (r1 - r0 + 1) + 8.0 * (x.size() + (r1 - r0)));
  }
  double do_sum(std::span<const double> x) const override {
    const double t0 = now_seconds();
    const double r = serial().sum(x);
    tracer_.kernel_call(kBlas1, t0, now_seconds(), 8.0 * x.size());
    return r;
  }
  double do_dot(std::span<const double> x, std::span<const double> y) const override {
    const double t0 = now_seconds();
    const double r = serial().dot(x, y);
    tracer_.kernel_call(kBlas1, t0, now_seconds(), 16.0 * x.size());
    return r;
  }
  void do_axpy(double a, std::span<const double> x, std::span<double> y) const override {
    const double t0 = now_seconds();
    serial().axpy(a, x, y);
    tracer_.kernel_call(kBlas1, t0, now_seconds(), 24.0 * x.size());
  }
  void do_xpay(std::span<const double> x, double a, std::span<const double> y,
               std::span<double> z) const override {
    const double t0 = now_seconds();
    serial().xpay(x, a, y, z);
    tracer_.kernel_call(kBlas1, t0, now_seconds(), 24.0 * x.size());
  }
  void do_scale(double a, std::span<double> x) const override {
    const double t0 = now_seconds();
    serial().scale(a, x);
    tracer_.kernel_call(kBlas1, t0, now_seconds(), 16.0 * x.size());
  }
  void do_gemm_tile(const double* a, std::size_t lda, const double* b, std::size_t ldb,
                    std::size_t rows, std::size_t cols, std::size_t k, double* c,
                    std::size_t ldc, bool accumulate) const override {
    const double t0 = now_seconds();
    serial().gemm_tile(a, lda, b, ldb, rows, cols, k, c, ldc, accumulate);
    tracer_.kernel_call(kGemm, t0, now_seconds(), 2.0 * rows * cols * k);
  }
  void do_panel_sum(const double* const* panels, std::size_t count, std::size_t rows,
                    std::size_t cols, std::size_t ld, double* out,
                    std::size_t ldo) const override {
    const double t0 = now_seconds();
    serial().panel_sum(panels, count, rows, cols, ld, out, ldo);
    tracer_.kernel_call(kGemm, t0, now_seconds(), 1.0 * count * rows * cols);
  }
  void do_xs_range(const adcc::mc::XsDataHost& data, const adcc::CounterRng& rng,
                   std::uint64_t begin, std::uint64_t end, double* macro,
                   std::uint64_t* counters, std::uint64_t* index) const override {
    const double t0 = now_seconds();
    serial().xs_range(data, rng, begin, end, macro, counters, index);
    tracer_.kernel_call(kXs, t0, now_seconds(), static_cast<double>(end - begin));
  }

 private:
  static const KernelBackend& serial() { return adcc::core::serial_kernel_backend(); }
  Tracer& tracer_;
};

/// Closes a span on every exit path, exceptions included, and adds its
/// duration to `total` when one is given.
class SpanScope {
 public:
  SpanScope(Tracer& t, const char* name, double* total = nullptr)
      : t_(t), total_(total), id_(t.open(name)) {}
  ~SpanScope() {
    if (id_ >= 0) close();
  }
  double close() {
    const double dt = t_.close(id_);
    id_ = -1;
    if (total_ != nullptr) *total_ += dt;
    return dt;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& t_;
  double* total_;
  int id_;
};

/// Forwards the Workload protocol to the real workload, timing each call.
/// Replay is told apart from outside: a unit at or below the highest unit
/// ever started re-executes work a crash destroyed.
class TimedWorkload final : public adcc::core::Workload {
 public:
  TimedWorkload(adcc::core::Workload& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_.name(); }
  std::size_t work_units() const override { return inner_.work_units(); }
  std::size_t units_done() const override { return inner_.units_done(); }

  void prepare(adcc::core::ModeEnv& env) override {
    SpanScope span(tracer_, "prepare");
    reached_ = 0;
    replaying_ = false;
    inner_.prepare(env);
  }

  bool run_step() override {
    const bool overlapped = inner_.durability_pending();
    const std::size_t unit = inner_.units_done() + 1;
    replaying_ = unit <= reached_;
    reached_ = std::max(reached_, unit);  // A unit a crash interrupts is redone too.
    RunLayers& l = tracer_.layers();
    SpanScope span(tracer_, "run_step", &l.step_s);
    const bool stepped = inner_.run_step();
    const double dt = span.close();
    if (overlapped) l.overlap_s += dt;
    if (stepped && replaying_) l.replay_s += dt;
    return stepped;
  }

  void make_durable() override {
    RunLayers& l = tracer_.layers();
    SpanScope span(tracer_, "make_durable", &l.durable_s);
    inner_.make_durable();
    const double dt = span.close();
    l.durable_unit_s.push_back(dt);
    if (replaying_) l.replay_s += dt;
  }

  void wait_durable() override {
    SpanScope span(tracer_, "wait_durable", &tracer_.layers().wait_s);
    inner_.wait_durable();
  }

  bool durability_pending() const override { return inner_.durability_pending(); }

  void inject_crash() override {
    SpanScope span(tracer_, "inject_crash");
    inner_.inject_crash();
  }

  adcc::core::WorkloadRecovery recover() override {
    SpanScope span(tracer_, "recover", &tracer_.layers().recover_s);
    return inner_.recover();
  }

  bool verify() override {
    SpanScope span(tracer_, "verify", &tracer_.layers().verify_s);
    return inner_.verify();
  }

  void tune_env(Mode mode, adcc::core::ModeEnvConfig& cfg) const override {
    inner_.tune_env(mode, cfg);
  }
  adcc::core::FaultSurface* fault() override { return inner_.fault(); }
  std::size_t shard_count() const override { return inner_.shard_count(); }
  void set_crash_scope(const adcc::core::CrashScope& scope) override {
    inner_.set_crash_scope(scope);
  }

 private:
  adcc::core::Workload& inner_;
  Tracer& tracer_;
  std::size_t reached_ = 0;  ///< Highest unit started in this run.
  bool replaying_ = false;   ///< The last run_step re-executed a lost unit.
};

// ---------------------------------------------------------------------------
// Set-up: problem instances and each scenario's substrate.

struct Instances {
  std::unique_ptr<adcc::core::Workload> base;
  std::unique_ptr<adcc::core::Workload> sharded;
};

struct SetupTimes {
  double build_s = 0.0, shard_build_s = 0.0, env_s = 0.0;
  double total() const { return build_s + shard_build_s + env_s; }
};

adcc::Options workload_options(const WorkloadSpec& spec, std::uint64_t seed, std::size_t shards) {
  adcc::Options opts;
  for (const auto& [k, v] : spec.options) opts.set(k, v);
  opts.set("seed", std::to_string(seed));
  if (shards > 1) opts.set("shards", std::to_string(shards));
  return opts;
}

adcc::core::ModeEnvConfig env_config(const Scenario& s, const adcc::core::Workload& w) {
  adcc::core::ModeEnvConfig cfg;
  w.tune_env(s.mode, cfg);
  cfg.ckpt_async = s.ckpt_async;
  return cfg;
}

/// Generates both problem instances, then builds every scenario's substrate
/// (make_env + first prepare) once, timing each part.
SetupTimes set_up(const WorkloadSpec& spec, std::uint64_t seed, Instances& out) {
  out = {};  // Free the previous instances before building new ones.
  SetupTimes t;
  double t0 = now_seconds();
  out.base = adcc::core::WorkloadRegistry::instance().create(spec.app,
                                                             workload_options(spec, seed, 1));
  t.build_s = now_seconds() - t0;
  t0 = now_seconds();
  out.sharded = adcc::core::WorkloadRegistry::instance().create(
      spec.app, workload_options(spec, seed, kShards));
  t.shard_build_s = now_seconds() - t0;
  for (const Scenario& s : kScenarios) {
    adcc::core::Workload& w = s.sharded ? *out.sharded : *out.base;
    t0 = now_seconds();
    adcc::core::ModeEnv env = adcc::core::make_env(s.mode, env_config(s, w));
    w.prepare(env);
    t.env_s += now_seconds() - t0;
  }
  return t;
}

// ---------------------------------------------------------------------------
// Rounds.

struct RunResult {
  bool ok = false;
  double seconds = 0.0;
  std::size_t redo_units = 0;
  std::uint64_t chunks_written = 0, chunks_skipped = 0;
};

constexpr std::size_t kN = kScenarios.size();

/// The scenario runs of one process. A crash-free scenario keeps one runner,
/// and with it one substrate, across rounds, as the runner's own repetitions
/// do; a fresh substrate per run makes run times noisier on the measuring
/// host. A crash scenario takes a new runner per round: each round has its
/// own crash plan, and a crashing run rebuilds its substrate anyway.
struct Bench {
  explicit Bench(std::uint64_t s) : seed(s) {}

  std::uint64_t seed;
  Instances inst;
  std::array<std::shared_ptr<const std::vector<std::uint64_t>>, 2> probes;  // alg, ckpt.
  std::uint64_t attempted = 0, failed = 0;
  std::array<std::unique_ptr<TimedWorkload>, kN> decorated;
  std::array<std::unique_ptr<adcc::core::ScenarioRunner>, kN> runners, traced_runners;

  /// Scenario i's run of `round`; `tracer` non-null decorates it.
  RunResult run(std::size_t i, int round, Tracer* tracer, const TimedBackend* backend,
                adcc::core::Telemetry* telemetry) {
    const Scenario& s = kScenarios[i];
    adcc::core::Workload& inner = s.sharded ? *inst.sharded : *inst.base;
    adcc::core::Workload* w = &inner;
    if (tracer != nullptr) {
      if (!decorated[i]) decorated[i] = std::make_unique<TimedWorkload>(inner, *tracer);
      w = decorated[i].get();
    }

    adcc::core::ScenarioConfig cfg;
    cfg.mode = s.mode;
    cfg.env = env_config(s, inner);
    cfg.verify = true;
    cfg.backend = backend;
    cfg.telemetry = telemetry;
    std::unique_ptr<adcc::core::ScenarioRunner> once;
    adcc::core::ScenarioRunner* runner = nullptr;
    if (s.crash) {
      cfg.crash = adcc::core::parse_crash_or_throw("fuzz:" +
                                                   std::to_string(fuzz_seed(seed, round)));
      cfg.fuzz_boundaries = probes[s.mode == Mode::kAlgNvm ? 0 : 1];
      once = std::make_unique<adcc::core::ScenarioRunner>(*w, cfg);
      runner = once.get();
    } else {
      auto& kept = tracer != nullptr ? traced_runners[i] : runners[i];
      if (!kept) kept = std::make_unique<adcc::core::ScenarioRunner>(*w, cfg);
      runner = kept.get();
    }

    RunResult r;
    ++attempted;
    const double wall0 = now_seconds();
    try {
      const adcc::core::ScenarioResult res = runner->run();
      r.ok = res.verify_ran && res.verified;
      r.seconds = res.seconds;
      r.redo_units = res.recomputation.units_redone();
      std::cerr << "adccperf: round " << round << ' ' << s.name << (tracer ? " traced " : " ")
                << r.seconds << " s (" << now_seconds() - wall0 << " s wall), redo " << r.redo_units
                << (r.ok ? "" : ", FAILED verify") << '\n';
    } catch (const std::exception& e) {
      std::cerr << "adccperf: " << s.name << " raised: " << e.what() << '\n';
    }
    if (telemetry != nullptr) {
      r.chunks_written = telemetry->counter("ckpt/chunks_written");
      r.chunks_skipped = telemetry->counter("ckpt/chunks_skipped");
    }
    if (!r.ok) ++failed;
    return r;
  }
};

// ---------------------------------------------------------------------------
// Reporting.

/// The highest percentile of a ladder that leaves at least ten samples above
/// it (50 when there are too few samples for any).
double tail_percentile(std::size_t n) {
  double q = 50.0;
  for (const double p : {90.0, 99.0, 99.9, 99.99}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) q = p;
  }
  return q;
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const auto i = static_cast<std::size_t>(std::ceil(q / 100.0 * xs.size())) - 1;
  return xs[std::min(i, xs.size() - 1)];
}

class Metrics {
 public:
  void add(std::string name, double value, const char* unit) {
    items_.push_back({std::move(name), value, unit});
  }
  std::string json() const {
    std::ostringstream out;
    out.precision(17);
    out << '{';
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const double v = std::isfinite(items_[i].value) ? items_[i].value : 0.0;
      out << (i ? ", " : "") << '"' << items_[i].name << "\": {\"value\": " << v
          << ", \"unit\": \"" << items_[i].unit << "\"}";
    }
    out << '}';
    return out.str();
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

struct Args {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans;
};

Args parse(int argc, char** argv) {
  const adcc::Options opts(argc, argv);
  Args o;
  const std::string name = opts.get("workload", "");
  for (const WorkloadSpec& s : workload_specs()) {
    if (name == s.name) o.spec = &s;
  }
  if (o.spec == nullptr) throw std::invalid_argument("unknown --workload '" + name + "'");
  o.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  o.seconds = opts.get_double("seconds", 10.0);
  o.trace = opts.get_bool("trace", false);
  o.spans = opts.get("spans", "");
  return o;
}

int run(const Args& o) {
  const WorkloadSpec& spec = *o.spec;
  // Declared before the runs that use them, so they outlive every runner.
  Tracer tracer;
  const TimedBackend backend(tracer);
  adcc::core::Telemetry telemetry;
  Bench bench(o.seed);

  std::vector<double> setup_total;
  std::vector<SetupTimes> setups;
  double setup_spent = 0.0;
  while (setups.size() < kSetupReps ||
         (setups.size() < kMaxSetupReps && setup_spent < kSetupSeconds)) {
    setups.push_back(set_up(spec, o.seed, bench.inst));
    setup_total.push_back(setups.back().total());
    setup_spent += setup_total.back();
  }

  // Outside every timed metric: the fuzz probes for both crash modes, and a
  // discarded warm-up run (the first scenario in a process runs cold).
  double t0 = now_seconds();
  for (const Scenario& s : kScenarios) {
    if (!s.crash) continue;
    auto& probe = bench.probes[s.mode == Mode::kAlgNvm ? 0 : 1];
    probe = std::make_shared<const std::vector<std::uint64_t>>(
        adcc::core::probe_fuzz_boundaries(*bench.inst.base, s.mode, env_config(s, *bench.inst.base)));
  }
  const double probe_s = now_seconds() - t0;
  bench.run(0, 0, nullptr, nullptr, nullptr);

  std::array<std::vector<double>, kN> seconds;  // Untraced run time per round.
  std::array<std::vector<double>, kN> redo;
  // Traced run state.
  std::array<std::vector<RunLayers>, kN> layers;
  std::array<std::vector<double>, kN> traced_seconds;
  std::array<RunResult, kN> first_traced{};
  bool reproduced = true;

  // Full rounds of all scenarios: at least kMinRounds, then more while the
  // next one is expected to end within the budget. Each end-to-end time is
  // its scenario's fastest round: other tenants of the measuring host only
  // ever add time, and the fastest of many short runs is far steadier from
  // run to run than their median (README.md, "Noise and bounds").
  double measured = 0.0;
  int rounds = 0;
  for (; rounds < kMinRounds || measured * (rounds + 1) / rounds <= o.seconds; ++rounds) {
    const double round_start = now_seconds();
    for (std::size_t i = 0; i < kN; ++i) {
      const Scenario& s = kScenarios[i];
      // The traced pass reruns crash scenarios and native untraced too: redo
      // counts and verify must match, and native gives the tracing overhead.
      RunResult plain;
      if (!o.trace || s.crash || i == 0) {
        plain = bench.run(i, rounds, nullptr, nullptr, nullptr);
        seconds[i].push_back(plain.seconds);
        redo[i].push_back(static_cast<double>(plain.redo_units));
      }
      if (!o.trace) continue;
      layers[i].emplace_back();
      tracer.begin_run(&layers[i].back(), std::string(s.name) + " round " + std::to_string(rounds),
                       rounds == 0);
      const RunResult traced = bench.run(i, rounds, &tracer, &backend, &telemetry);
      traced_seconds[i].push_back(traced.seconds);
      if (s.crash && (traced.redo_units != plain.redo_units || traced.ok != plain.ok)) {
        std::cerr << "adccperf: traced " << s.name << " diverged from its untraced run\n";
        reproduced = false;
      }
      // Crash-free counts must repeat exactly from round to round.
      if (rounds == 0) {
        first_traced[i] = traced;
      } else if (!s.crash) {
        const RunLayers& first = layers[i].front();
        const RunLayers& now = layers[i].back();
        bool same = traced.chunks_written == first_traced[i].chunks_written &&
                    traced.chunks_skipped == first_traced[i].chunks_skipped;
        for (std::size_t k = 0; k < kKernels; ++k) {
          same = same && now.kernels[k].calls == first.kernels[k].calls;
        }
        if (!same) {
          std::cerr << "adccperf: traced " << s.name << " counts changed between rounds\n";
          reproduced = false;
        }
      }
    }
    measured += now_seconds() - round_start;
  }
  std::cerr << "adccperf: " << spec.name << " measured " << rounds << " rounds in " << measured
            << " s\n";

  const bool correct = bench.failed == 0 && reproduced;
  Metrics m;
  if (!o.trace) {
    m.add("setup_s", adcc::median(setup_total), "s");
    for (std::size_t i = 0; i < kN; ++i) {
      m.add(std::string(kScenarios[i].name) + "_s",
            *std::min_element(seconds[i].begin(), seconds[i].end()), "s");
    }
    m.add("alg_redo_units", adcc::median(redo[scenario_index("alg_crash")]), "units");
    m.add("ckpt_redo_units", adcc::median(redo[scenario_index("ckpt_crash")]), "units");
    m.add("pass_ratio",
          1.0 - static_cast<double>(bench.failed) / static_cast<double>(bench.attempted), "1");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    // Median over rounds of one RunLayers field.
    const auto layer = [&](const char* scn, double RunLayers::*field) {
      std::vector<double> v;
      for (const RunLayers& l : layers[scenario_index(scn)]) v.push_back(l.*field);
      return adcc::median(v);
    };
    for (const Scenario& s : kScenarios) {
      const std::string p = std::string("core.") + s.name;
      m.add(p + ".step_s", layer(s.name, &RunLayers::step_s), "s");
      m.add(p + ".durable_s", layer(s.name, &RunLayers::durable_s), "s");
    }
    m.add("core.ckpt_async.wait_s", layer("ckpt_async", &RunLayers::wait_s), "s");
    m.add("core.ckpt_async.overlap_s", layer("ckpt_async", &RunLayers::overlap_s), "s");
    for (const char* scn : {"alg_crash", "ckpt_crash"}) {
      m.add(std::string("core.") + scn + ".recover_s", layer(scn, &RunLayers::recover_s), "s");
      m.add(std::string("core.") + scn + ".replay_s", layer(scn, &RunLayers::replay_s), "s");
      // Equal to the traced runs' counts, or the run is not correct.
      m.add(std::string("core.") + scn + ".redo_units", adcc::median(redo[scenario_index(scn)]),
            "units");
    }
    for (const char* scn : {"alg", "ckpt"}) {
      std::vector<double> samples;
      for (const RunLayers& l : layers[scenario_index(scn)]) {
        for (const double d : l.durable_unit_s) samples.push_back(d * 1e6);
      }
      const double q = tail_percentile(samples.size());
      const std::string p = std::string("core.") + scn + ".durable_unit_";
      m.add(p + "p50_us", percentile(samples, 50.0), "us");
      m.add(p + "ptail_us", percentile(samples, q), "us");
      m.add(p + "ptail_pct", q, "%");
      m.add(p + "n", static_cast<double>(samples.size()), "count");
    }
    std::vector<double> verify;
    for (const auto& runs : layers) {
      for (const RunLayers& l : runs) verify.push_back(l.verify_s);
    }
    m.add("core.verify_s", adcc::median(verify), "s");
    m.add("core.probe_s", probe_s, "s");

    // Kernels, as measured in the native scenario.
    const std::vector<RunLayers>& native = layers[0];
    for (std::size_t k = 0; k < kKernels; ++k) {
      std::vector<double> secs, rate;
      for (const RunLayers& l : native) {
        secs.push_back(l.kernels[k].seconds);
        rate.push_back(l.kernels[k].seconds > 0 ? l.kernels[k].work / l.kernels[k].seconds : 0);
      }
      const std::string p = std::string("kernels.") + kKernelNames[k];
      m.add(p + ".calls", static_cast<double>(native.back().kernels[k].calls), "count");
      m.add(p + ".s", adcc::median(secs), "s");
      static constexpr std::array<const char*, kKernels> kRate = {
          ".gbps", ".gbps", ".gflops", ".mlookups_per_s"};
      static constexpr std::array<const char*, kKernels> kRateUnit = {"GB/s", "GB/s", "GFLOP/s",
                                                                       "Mlookup/s"};
      m.add(p + kRate[k], adcc::median(rate) / (k == kXs ? 1e6 : 1e9), kRateUnit[k]);
    }

    // Application self time: run_step minus the kernels it called, for every
    // app module (zero on the other workloads' modules).
    for (const char* app : {"cg", "mm", "mc"}) {
      for (const Scenario& s : kScenarios) {
        std::vector<double> self;
        for (const RunLayers& l : layers[scenario_index(s.name)]) {
          self.push_back(l.step_s - l.step_kernel_s);
        }
        m.add(std::string(app) + "." + s.name + ".self_s",
              std::string(app) == spec.app ? adcc::median(self) : 0.0, "s");
      }
    }
    m.add("pmemtx.step_extra_s",
          layer("tx", &RunLayers::step_s) - layer("native", &RunLayers::step_s), "s");
    for (const char* scn : {"ckpt", "ckpt_async", "shard_ckpt"}) {
      const RunResult& r = first_traced[scenario_index(scn)];
      const double all = static_cast<double>(r.chunks_written + r.chunks_skipped);
      const std::string p = std::string("checkpoint.") + scn;
      m.add(p + ".chunks_written", static_cast<double>(r.chunks_written), "count");
      m.add(p + ".chunks_skipped", static_cast<double>(r.chunks_skipped), "count");
      m.add(p + ".write_ratio", all > 0 ? r.chunks_written / all : 0.0, "1");
    }
    const double native_traced = adcc::median(traced_seconds[0]);
    for (const char* scn : {"alg", "ckpt", "ckpt_async", "tx", "shard_ckpt"}) {
      m.add(std::string("durable.") + scn + ".overhead_pct",
            (adcc::median(traced_seconds[scenario_index(scn)]) / native_traced - 1.0) * 100.0, "%");
    }
    std::vector<double> build, shard_build, env;
    for (const SetupTimes& t : setups) {
      build.push_back(t.build_s);
      shard_build.push_back(t.shard_build_s);
      env.push_back(t.env_s);
    }
    m.add("setup.build_s", adcc::median(build), "s");
    m.add("setup.shard_build_s", adcc::median(shard_build), "s");
    m.add("setup.env_s", adcc::median(env), "s");
    m.add("trace.overhead_pct", (native_traced / adcc::median(seconds[0]) - 1.0) * 100.0, "%");
    if (!o.spans.empty()) tracer.write(o.spans);
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << bench.attempted << ", \"failed\": " << bench.failed
            << ", \"metrics\": " << m.json() << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "adccperf: " << e.what() << '\n';
    return 2;
  }
}
