// End-to-end benchmark of the Figure-1 loop (profile -> optimize at
// O0/O1/O2 -> detect -> coverage -> extension), driven through the
// library's public API and the in-process service.
//
//   perfbench --workload <cold_corpus|cold_o1|sim_heavy|warm_restart> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Every workload is a closed loop: one client waits for each reply before
// sending the next request, and every service::Server runs one worker.
// The seed generates the inputs; the library only ever sees the generated
// programs and data.  An untimed gate checks every output against the
// generator oracles (or, for the hand-written Table-1 suite, against the
// unfused interpreter run of the O0 module).  The last
// stdout line is one JSON object: correct, attempted, failed and metrics
// (end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
// perfbench/README.md describes the workloads and every metric.
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "cache/serialize.hpp"
#include "cache/store.hpp"
#include "chain/coverage.hpp"
#include "chain/detect.hpp"
#include "asip/extension.hpp"
#include "frontend/compile.hpp"
#include "ir/verifier.hpp"
#include "opt/cleanup.hpp"
#include "opt/optimizer.hpp"
#include "pipeline/driver.hpp"
#include "pipeline/session.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "sim/machine.hpp"
#include "support/rng.hpp"
#include "trace.hpp"
#include "workloads/generator.hpp"
#include "workloads/suite.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace asipfb;
using opt::OptLevel;

// --- Configuration -----------------------------------------------------------

/// Set-ups per run; setup_s reports their median.
constexpr int kSetupRepeats = 5;
/// Host time per throughput window (see Measure::items_per_s).
constexpr double kWindowSeconds = 1.0;
/// Generated programs in the cold_corpus population (plus the 12 Table-1
/// programs): more than a 30 s run gets through, so every item of a run is
/// a distinct program and a run's statistics are over ~1500 of them.
constexpr std::size_t kCorpusPrograms = 2988;
/// warm_restart fills and replays the first programs of the same
/// population (one pass of the replay is one restart).
constexpr std::size_t kWarmPrograms = 48;
/// cold_corpus programs the traced run's layer pass covers.
constexpr std::size_t kLayerPrograms = 300;
/// sim_heavy population size and sample data sets per program.
constexpr std::size_t kSimPrograms = 60;
constexpr std::size_t kSimDataSets = 8;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path work_dir = ".bench_build/work";
};

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// --- Inputs --------------------------------------------------------------------

/// One program of a population.  `data` holds its sample data sets (all
/// share the program's source); cold_corpus and warm_restart use one.
struct Program {
  std::vector<wl::Workload> data;
  /// Table-1 programs are requested by name (the service binds their real
  /// input); generated ones are sent as inline BenchC source, exactly as a
  /// client of `asipfb_serve` would send a program the server never saw.
  bool by_name = false;

  [[nodiscard]] const wl::Workload& w() const { return data.front(); }
  [[nodiscard]] std::vector<pipeline::WorkloadInput> inputs() const {
    std::vector<pipeline::WorkloadInput> out;
    for (const wl::Workload& d : data) out.push_back(d.input);
    return out;
  }
};

/// The 12 Table-1 programs plus the first `generated` programs of a seeded
/// corpus.  The spec is the same for every prefix length, so warm_restart
/// replays exactly the programs cold_corpus starts with.
std::vector<Program> corpus_population(std::uint64_t seed, std::size_t generated) {
  std::vector<Program> out;
  for (const wl::Workload& w : wl::suite()) out.push_back({{w}, true});
  wl::CorpusSpec spec;
  spec.seed = splitmix(seed ^ 0xC0DEC0DEull);
  spec.count = kCorpusPrograms;
  for (std::size_t i = 0; i < generated; ++i) {
    out.push_back({{wl::corpus_scenario(spec, i)}, false});
  }
  return out;
}

template <typename T>
T pick(Rng& rng, std::initializer_list<T> values) {
  return *(values.begin() + rng.next_below(values.size()));
}

/// The sim_heavy program kinds: every generator family at its upper size
/// limits, with the fused family's stream and image pipelines apart.  Sizes
/// are fixed, so the population's cost barely depends on the seed; the
/// seed draws the remaining parameters and the data.
enum class SimKind { kFir, kIir, kDft, kConv2d, kHistEq, kFusedStream, kFusedImage,
                  kRle, kCalls, kFft };
constexpr int kKinds = 10;
constexpr const char* kKindNames[kKinds] = {
    "fir", "iir", "dft", "conv2d", "histeq", "fir_histeq", "conv_histeq",
    "rle", "calls", "fft"};

wl::Workload big_scenario(SimKind kind, Rng& rng, std::uint64_t data_seed,
                          const std::string& name) {
  switch (kind) {
    case SimKind::kFir: {
      wl::FirParams p;
      p.taps = 32;
      p.length = 4096;
      p.integer = rng.next_below(2) == 1;
      return wl::make_fir_scenario(p, data_seed, name);
    }
    case SimKind::kIir: {
      wl::IirParams p;
      p.sections = 4;
      p.length = 4096;
      return wl::make_iir_scenario(p, data_seed, name);
    }
    case SimKind::kDft: {
      wl::DftParams p;
      p.points = 256;
      return wl::make_dft_scenario(p, data_seed, name);
    }
    case SimKind::kConv2d: {
      wl::Conv2dParams p;
      p.width = 128;
      p.height = 128;
      p.kernel = static_cast<int>(rng.next_below(wl::kConvKernelCount));
      p.threshold = rng.next_below(2) == 1;
      return wl::make_conv2d_scenario(p, data_seed, name);
    }
    case SimKind::kHistEq: {
      wl::HistEqParams p;
      p.width = 128;
      p.height = 128;
      p.levels = 256;
      return wl::make_histeq_scenario(p, data_seed, name);
    }
    case SimKind::kFusedStream:
    case SimKind::kFusedImage: {
      wl::FusedParams p;
      p.image = kind == SimKind::kFusedImage;
      p.taps = 16;
      p.length = 4096;
      p.width = 128;
      p.height = 128;
      return wl::make_fused_scenario(p, data_seed, name);
    }
    case SimKind::kRle: {
      wl::RleParams p;
      p.length = 4096;
      p.levels = 2 + static_cast<int>(rng.next_below(7));
      return wl::make_rle_scenario(p, data_seed, name);
    }
    case SimKind::kCalls: {
      wl::CallsParams p;
      p.width = 64;
      p.height = 64;
      p.tile_base = 2 + static_cast<int>(rng.next_below(7));
      p.bias = static_cast<int>(rng.next_below(129)) - 64;
      return wl::make_calls_scenario(p, data_seed, name);
    }
    case SimKind::kFft: {
      wl::FftParams p;
      p.points = 256;
      p.qbits = 8 + static_cast<int>(rng.next_below(7));
      p.window = rng.next_below(2) == 1;
      return wl::make_fft_scenario(p, data_seed, name);
    }
  }
  throw std::logic_error("unknown kind");
}

/// sim_heavy: the kinds round-robin, each program profiled over several data
/// sets.  A family whose source embeds its data (the source changes with
/// the data seed) keeps one data set, since the sets must share a program.
std::vector<Program> sim_population(std::uint64_t seed) {
  Rng rng(splitmix(seed ^ 0x51A1EAF7ull));
  std::vector<Program> out;
  for (std::size_t i = 0; i < kSimPrograms; ++i) {
    const SimKind kind = static_cast<SimKind>(i % kKinds);
    const std::string name =
        std::string("big_") + kKindNames[i % kKinds] + "_" + std::to_string(i);
    const std::uint64_t param_seed = rng.next_u64();
    Program p;
    for (std::size_t d = 0; d < kSimDataSets; ++d) {
      Rng params(param_seed);  // Same parameters for every data set.
      p.data.push_back(big_scenario(kind, params, rng.next_u64(), name));
      if (p.data.back().source != p.data.front().source) {
        p.data.resize(1);
        break;
      }
    }
    out.push_back(std::move(p));
  }
  return out;
}

/// The cold request mix for one program: compile, detect at every level up
/// to `top`, then coverage and extension at O1.  cold_corpus and
/// warm_restart use top = O2 (six requests), cold_o1 uses O1 (five).
std::vector<service::Request> request_mix(const Program& p, OptLevel top) {
  std::vector<service::Request> out;
  auto add = [&](service::Kind kind, OptLevel level) {
    service::Request r;
    r.id = out.size();
    r.kind = kind;
    r.workload = p.w().name;
    if (!p.by_name) r.source = p.w().source;
    r.level = level;
    out.push_back(std::move(r));
  };
  add(service::Kind::kCompile, OptLevel::O0);
  add(service::Kind::kDetection, OptLevel::O0);
  add(service::Kind::kDetection, OptLevel::O1);
  if (top == OptLevel::O2) add(service::Kind::kDetection, OptLevel::O2);
  add(service::Kind::kCoverage, OptLevel::O1);
  add(service::Kind::kExtension, OptLevel::O1);
  return out;
}

/// Every Response field except the nondeterministic latency_us.
bool same_response(const service::Response& a, const service::Response& b) {
  return a.id == b.id && a.kind == b.kind && a.workload == b.workload &&
         a.error == b.error && a.total_cycles == b.total_cycles &&
         a.exit_code == b.exit_code && a.instructions == b.instructions &&
         a.sequences == b.sequences && a.top_frequency == b.top_frequency &&
         a.steps == b.steps && a.total_coverage == b.total_coverage &&
         a.selected == b.selected && a.total_area == b.total_area &&
         a.speedup == b.speedup && a.points == b.points &&
         a.point_failures == b.point_failures;
}

/// The Session a Server resolves for program `p` (service::evaluate's rule).
std::shared_ptr<pipeline::Session> session_of(pipeline::SessionPool& pool,
                                              const Program& p) {
  return pool.get(p.w().name, p.w().source,
                  p.by_name ? p.w().input : pipeline::WorkloadInput{});
}

// --- Correctness gate ------------------------------------------------------------

/// True when `module` run over data set `w` reproduces the reference: the
/// generator oracle for generated programs, the unfused interpreter run of
/// `o0` for the Table-1 suite (which has no oracle).
bool module_correct(const ir::Module& module, const ir::Module& o0,
                    const wl::Workload& w) {
  ir::Module run_copy = module;
  const pipeline::ExecutionResult got =
      pipeline::execute(run_copy, w.input, w.outputs);
  if (w.expected_exit.has_value()) {
    return wl::oracle_matches(w, got.exit_code, got.outputs);
  }
  ir::Module ref_copy = o0;
  const pipeline::ExecutionResult ref = pipeline::execute(
      ref_copy, w.input, w.outputs, false, /*fuse=*/false, /*jit=*/false);
  return got.exit_code == ref.exit_code && got.outputs == ref.outputs &&
         !got.outputs.empty();
}

/// Modules kept from the first pass for the gate.
struct Built {
  ir::Module o0;
  std::optional<ir::Module> top;  ///< Highest level the workload built.
};

/// Checks one program's modules on every data set; false on a mismatch.
bool gate_one(const Program& p, const Built& built) {
  bool ok = true;
  for (const wl::Workload& w : p.data) {
    ok = ok && module_correct(built.o0, built.o0, w);
    if (built.top) ok = ok && module_correct(*built.top, built.o0, w);
  }
  if (!ok) std::cout << "gate: oracle mismatch on " << p.w().name << "\n";
  return ok;
}

std::size_t gate(const std::vector<Program>& programs,
                 const std::vector<Built>& built) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    if (!gate_one(programs[i], built[i])) ++failed;
  }
  return failed;
}

// --- Scratch directories ------------------------------------------------------------

/// Fresh directories under one per-process root, removed at exit.
class ScratchDirs {
 public:
  explicit ScratchDirs(const fs::path& work_dir)
      : root_(work_dir / ("run-" + std::to_string(::getpid()))) {
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  ~ScratchDirs() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }
  ScratchDirs(const ScratchDirs&) = delete;
  ScratchDirs& operator=(const ScratchDirs&) = delete;

  fs::path fresh() {
    fs::path p = root_ / std::to_string(next_++);
    fs::create_directories(p);
    return p;
  }

 private:
  fs::path root_;
  std::uint64_t next_ = 0;
};

// --- Measurements ------------------------------------------------------------------

/// Linearly interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }


/// What the timed phase and the traced extras collect.
struct Measure {
  std::vector<double> latency_s;  ///< One per item.
  double busy_s = 0.0;            ///< Summed host time of the timed items.
  /// (items, host seconds) per timed unit: an item, or a warm_restart pass.
  std::vector<std::pair<std::size_t, double>> units;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  // Traced run only.
  double overhead_s = 0.0;  ///< Server::call minus evaluate, summed.
  std::size_t overhead_n = 0;
  std::vector<double> server_latency_ms;
  std::uint64_t rejected = 0;
  std::uint64_t stage_runs = 0, stage_hits = 0;
  std::uint64_t disk_hits = 0, disk_misses = 0;
  std::uint64_t store_hits = 0, store_misses = 0;

  void record(std::size_t items, double seconds) {
    units.emplace_back(items, seconds);
    busy_s += seconds;
  }
  /// Throughput over all timed items.
  [[nodiscard]] double mean_items_per_s() const {
    return busy_s > 0 ? static_cast<double>(latency_s.size()) / busy_s : 0.0;
  }
  /// Median throughput over consecutive windows of at least kWindowSeconds
  /// of host time: the host slows down for seconds at a time, and a median
  /// over windows keeps such a stretch from moving a whole run.
  [[nodiscard]] double items_per_s() const;
  void add_server_stats(const service::Server& server) {
    const service::Stats s = server.stats();
    rejected += s.rejected;
    stage_runs += s.stage_optimize_runs + s.stage_detect_runs +
                  s.stage_coverage_runs + s.stage_extension_runs;
    stage_hits += s.stage_hits;
    disk_hits += s.disk_hits;
    disk_misses += s.disk_misses;
    store_hits += s.store_hits;
    store_misses += s.store_misses;
  }
};

double Measure::items_per_s() const {
  std::vector<double> rates;
  std::size_t items = 0;
  double seconds = 0.0;
  for (const auto& [n, s] : units) {
    items += n;
    seconds += s;
    if (seconds >= kWindowSeconds) {
      rates.push_back(static_cast<double>(items) / seconds);
      items = 0;
      seconds = 0.0;
    }
  }
  return rates.empty() ? mean_items_per_s() : median(rates);
}

/// Replays requests against a memo-warm server twice — once through
/// Server::call, once through service::evaluate on the same pool — so the
/// difference is the service layer's own hand-off cost at equal warmth.
void measure_service_overhead(service::Server& server,
                              const std::vector<service::Request>& requests,
                              Measure& m) {
  for (const service::Request& r : requests) {
    const Clock::time_point t0 = Clock::now();
    const service::Response via_server = server.call(r);
    const Clock::time_point t1 = Clock::now();
    const service::Response direct = service::evaluate(r, server.pool());
    const Clock::time_point t2 = Clock::now();
    m.overhead_s += seconds_between(t0, t1) - seconds_between(t1, t2);
    ++m.overhead_n;
    if (!same_response(via_server, direct)) ++m.failed;
  }
}

/// A single-worker server; an empty `cache_dir` serves without a disk cache.
service::ServerOptions one_worker(const fs::path& cache_dir) {
  service::ServerOptions o;
  o.workers = 1;  // 0 would mean hardware_concurrency().
  o.cache_dir = cache_dir.string();
  return o;
}

/// One cold item: a fresh single-worker Server serves the program's
/// request mix, on `dir` as its cache directory when one is given.  With
/// `gate`, the O0 and `top` modules the server built are checked before it
/// stops (a failure bumps *gate).  Returns the item's host time;
/// bookkeeping and the gate between the calls and the shutdown are not
/// counted.
double cold_item(const Program& p, OptLevel top, const fs::path& dir, Tracer& tracer,
                 std::uint64_t item, std::vector<service::Response>& responses,
                 std::size_t* gate, Measure& m) {
  const std::vector<service::Request> requests = request_mix(p, top);
  const Scope root(tracer, "bench.item", item);
  const Clock::time_point t0 = Clock::now();
  std::optional<service::Server> server;
  {
    const Scope s(tracer, "service.start", item, root.id());
    server.emplace(one_worker(dir));
  }
  for (const service::Request& r : requests) {
    const Scope s(tracer, "service.call", item, root.id());
    responses.push_back(server->call(r));
  }
  const Clock::time_point t1 = Clock::now();
  if (gate != nullptr) {
    const std::shared_ptr<pipeline::Session> session = session_of(server->pool(), p);
    if (!gate_one(p, {session->prepared().module, session->optimized(top)})) {
      ++*gate;
    }
  }
  if (tracer.enabled()) {
    for (const service::Response& r : responses) {
      m.server_latency_ms.push_back(r.latency_us / 1000.0);
    }
    m.add_server_stats(*server);
    measure_service_overhead(*server, requests, m);
  }
  const Clock::time_point t2 = Clock::now();
  {
    const Scope s(tracer, "service.stop", item, root.id());
    server.reset();
  }
  const Clock::time_point t3 = Clock::now();
  return seconds_between(t0, t1) + seconds_between(t2, t3);
}

// --- Reporting helpers --------------------------------------------------------------

/// The tail percentile each workload reports: the highest of p90, p99 and
/// p99.9 that keeps at least ten samples beyond it in a run at half the
/// typical speed, fixed per workload so that it never depends on how many
/// items one run happened to finish.
double tail_percentile(const std::string& workload) {
  if (workload == "cold_corpus") return 90.0;   // ~1500 items per 30 s run.
  if (workload == "cold_o1") return 99.0;       // ~6000 items per 30 s run.
  if (workload == "sim_heavy") return 99.0;     // ~2500 items per 30 s run.
  return 99.9;                                  // ~450k requests per 30 s run.
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Design outputs of the loop, deterministic per seed: mean O1 coverage and
/// geometric-mean O1 extension speedup over one pass of the population.
struct LoopOutput {
  double coverage_pct = 0.0;
  double ext_speedup = 0.0;
};
LoopOutput loop_output(const std::vector<std::vector<service::Response>>& pass) {
  double coverage = 0.0, log_speedup = 0.0;
  std::size_t nc = 0, ns = 0;
  for (const auto& responses : pass) {
    for (const service::Response& r : responses) {
      if (r.kind == service::Kind::kCoverage) coverage += r.total_coverage, ++nc;
      if (r.kind == service::Kind::kExtension) log_speedup += std::log(r.speedup), ++ns;
    }
  }
  return {nc ? coverage / static_cast<double>(nc) : 0.0,
          ns ? std::exp(log_speedup / static_cast<double>(ns)) : 0.0};
}

// --- Layer pass (traced run) ----------------------------------------------------------

/// Counts the layer pass collects alongside its spans, summed over items.
struct LayerCounts {
  std::size_t items = 0;
  double ir_instrs = 0, steps = 0;
  double o2_hoists = 0, o2_merges = 0, o2_passes = 0, o2_repair = 0, o2_instrs = 0;
  double signatures = 0, selected = 0;
  double bytes_written = 0, bytes_read = 0;
};

/// Steps 1-2 as prepare_multi() performs them, split at the layer boundary:
/// compile + canonicalize + verify (frontend), then profiling simulation.
/// `real_inputs` false profiles with no bound input, as the service does
/// for inline source.
pipeline::PreparedProgram traced_prepare(const Program& p, bool real_inputs,
                                         Tracer& tracer, std::uint64_t item,
                                         int parent, LayerCounts& c) {
  pipeline::PreparedProgram prepared;
  {
    const Scope s(tracer, "frontend.compile", item, parent);
    prepared.module = fe::compile_benchc(p.w().source, p.w().name);
    opt::canonicalize(prepared.module);
    ir::verify_or_throw(prepared.module);
  }
  {
    const Scope s(tracer, "sim.profile", item, parent);
    sim::clear_profile(prepared.module);
    sim::Machine machine(prepared.module);
    const std::vector<pipeline::WorkloadInput> inputs =
        real_inputs ? p.inputs() : std::vector<pipeline::WorkloadInput>{{}};
    for (const pipeline::WorkloadInput& input : inputs) {
      machine.reset_memory();
      for (const auto& [g, values] : input.float_inputs) machine.write_global(g, values);
      for (const auto& [g, values] : input.int_inputs) machine.write_global(g, values);
      sim::SimOptions options;
      options.profile = true;
      const sim::SimResult run = machine.run(options);
      prepared.baseline_run.exit_code = run.exit_code;
      prepared.baseline_run.steps = run.steps;
      c.steps += static_cast<double>(run.steps);
    }
    prepared.total_cycles = prepared.module.total_dynamic_ops();
  }
  c.ir_instrs += static_cast<double>(prepared.module.instr_count());
  return prepared;
}

/// Optimizes a copy of the baseline with the options Session normalizes to.
ir::Module traced_optimize(const pipeline::PreparedProgram& prepared, OptLevel level,
                           Tracer& tracer, std::uint64_t item, int parent,
                           LayerCounts& c) {
  static const char* const kNames[] = {"opt.o0", "opt.o1", "opt.o2"};
  const Scope s(tracer, kNames[static_cast<int>(level)], item, parent);
  ir::Module variant = prepared.module;
  opt::OptimizeOptions options;  // O0 ignores every knob.
  if (level != OptLevel::O0) options.percolation.chain_preserving = level == OptLevel::O1;
  const opt::OptimizeStats stats = opt::optimize(variant, level, options);
  ir::verify_or_throw(variant);
  if (level == OptLevel::O2) {
    c.o2_hoists += stats.percolation.ops_hoisted;
    c.o2_merges += stats.percolation.blocks_merged;
    c.o2_passes += stats.percolation.passes;
    c.o2_repair += stats.repair_copies;
    c.o2_instrs += static_cast<double>(variant.instr_count());
  }
  return variant;
}

chain::DetectionResult traced_detect(const ir::Module& module, OptLevel level,
                                     std::uint64_t total_cycles, Tracer& tracer,
                                     std::uint64_t item, int parent,
                                     LayerCounts& c) {
  const Scope s(tracer, "chain.detect", item, parent);
  chain::DetectorOptions options;
  options.require_adjacency = level == OptLevel::O0;
  chain::DetectionResult d = chain::detect_sequences(module, options, total_cycles);
  c.signatures += static_cast<double>(d.sequences.size());
  return d;
}

/// One artifact through the cache both ways, as `asipfb_serve --cache-dir`
/// would write it cold and read it after a restart: encode, save, load,
/// decode.
template <typename T, typename Decode>
void traced_round_trip(const T& artifact, cache::Artifact kind, const std::string& key,
                       cache::Store& store, Decode&& decode, Tracer& tracer,
                       std::uint64_t item, int parent, LayerCounts& c) {
  std::string bytes;
  {
    const Scope s(tracer, "cache.encode", item, parent);
    bytes = cache::serialize(artifact);
  }
  {
    const Scope s(tracer, "cache.save", item, parent);
    store.save(kind, key, bytes);
  }
  std::optional<std::string> back;
  {
    const Scope s(tracer, "cache.load", item, parent);
    back = store.load(kind, key);
  }
  if (!back) throw std::runtime_error("saved cache entry missing");
  const Scope s(tracer, "cache.decode", item, parent);
  (void)decode(*back);
  c.bytes_written += static_cast<double>(bytes.size());
  c.bytes_read += static_cast<double>(back->size());
}

/// cold_corpus: each program's cold path through direct layer calls, in
/// the order the service runs them.  The timed loop runs without a cache
/// directory; here every artifact also goes through the cache both ways,
/// so the cache layer is measured on this workload too.
void layer_pass_cold(const std::vector<Program>& programs, OptLevel top,
                     ScratchDirs& dirs, Tracer& tracer, LayerCounts& c) {
  cache::Store store(cache::StoreOptions{dirs.fresh()});
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const Program& p = programs[i];
    const std::uint64_t item = 1'000'000 + i;
    const Scope root(tracer, "layers.item", item);
    const int parent = root.id();
    const std::string base =
        cache::baseline_key(store.engine_version(), p.w().name, p.w().source, {});
    auto round_trip = [&](const auto& artifact, cache::Artifact kind,
                          std::string_view tag, auto&& decode) {
      traced_round_trip(artifact, kind, cache::stage_key(base, kind, tag), store,
                        decode, tracer, item, parent, c);
    };
    const pipeline::PreparedProgram prepared =
        traced_prepare(p, p.by_name, tracer, item, parent, c);
    round_trip(prepared, cache::Artifact::kPrepared, "", cache::deserialize_prepared);
    std::optional<ir::Module> o1;
    for (const OptLevel level : {OptLevel::O0, OptLevel::O1, OptLevel::O2}) {
      if (level > top) break;
      const std::string_view tag = opt::to_string(level);
      ir::Module m = traced_optimize(prepared, level, tracer, item, parent, c);
      round_trip(m, cache::Artifact::kOptimized, tag, cache::deserialize_module);
      const chain::DetectionResult d =
          traced_detect(m, level, prepared.total_cycles, tracer, item, parent, c);
      round_trip(d, cache::Artifact::kDetection, tag, cache::deserialize_detection);
      if (level == OptLevel::O1) o1 = std::move(m);
    }
    chain::CoverageResult coverage;
    {
      const Scope s(tracer, "chain.coverage", item, parent);
      coverage = chain::coverage_analysis(*o1, {}, prepared.total_cycles);
    }
    round_trip(coverage, cache::Artifact::kCoverage, "O1", cache::deserialize_coverage);
    asip::ExtensionProposal proposal;
    {
      const Scope s(tracer, "asip.extension", item, parent);
      proposal = asip::propose_extensions(coverage, prepared.total_cycles);
    }
    round_trip(proposal, cache::Artifact::kExtension, "O1", cache::deserialize_extension);
    c.selected += static_cast<double>(proposal.selected.size());
    ++c.items;
  }
}

/// sim_heavy: compile, multi-data-set profile, O1, detection at O1.
void layer_pass_sim(const std::vector<Program>& programs, Tracer& tracer,
                    LayerCounts& c) {
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const std::uint64_t item = 1'000'000 + i;
    const Scope root(tracer, "layers.item", item);
    const pipeline::PreparedProgram prepared =
        traced_prepare(programs[i], true, tracer, item, root.id(), c);
    const ir::Module o1 = traced_optimize(prepared, OptLevel::O1, tracer, item, root.id(), c);
    (void)traced_detect(o1, OptLevel::O1, prepared.total_cycles, tracer, item, root.id(), c);
    ++c.items;
  }
}

/// Decodes one entry and encodes it again (the cold write path's encode).
std::string decode_and_encode(cache::Artifact kind, std::string_view bytes,
                              Tracer& tracer, std::uint64_t item) {
  auto roundtrip = [&](auto&& decode) {
    auto artifact = [&] {
      const Scope s(tracer, "cache.decode", item);
      return decode(bytes);
    }();
    const Scope s(tracer, "cache.encode", item);
    return cache::serialize(artifact);
  };
  switch (kind) {
    case cache::Artifact::kPrepared: return roundtrip(cache::deserialize_prepared);
    case cache::Artifact::kOptimized: return roundtrip(cache::deserialize_module);
    case cache::Artifact::kDetection: return roundtrip(cache::deserialize_detection);
    case cache::Artifact::kCoverage: return roundtrip(cache::deserialize_coverage);
    case cache::Artifact::kExtension: return roundtrip(cache::deserialize_extension);
  }
  throw std::logic_error("unknown artifact");
}

/// warm_restart: the cache layer both ways.  Every entry the replay reads
/// is loaded and decoded directly, then encoded and saved to an empty
/// directory again — the write path the set-up's cold fill takes.
void layer_pass_warm(const fs::path& dir, std::size_t requests, ScratchDirs& dirs,
                     Tracer& tracer, LayerCounts& c) {
  c.items = requests;
  // Phase by phase, so the slow file creation of the saves cannot disturb
  // the loads.
  cache::Store store(cache::StoreOptions{dir});
  std::vector<std::pair<cache::EntryInfo, std::string>> entries;
  std::uint64_t item = 2'000'000;
  for (const cache::EntryInfo& e : store.entries()) {
    if (e.kind == cache::Artifact::kOptimized) continue;  // Never read warm.
    const Scope s(tracer, "cache.load", item++);
    std::optional<std::string> bytes = store.load(e.kind, e.key);
    if (!bytes) throw std::runtime_error("filled cache entry vanished");
    c.bytes_read += static_cast<double>(bytes->size());
    entries.emplace_back(e, std::move(*bytes));
  }
  for (auto& [e, bytes] : entries) bytes = decode_and_encode(e.kind, bytes, tracer, item++);
  cache::Store rewrite(cache::StoreOptions{dirs.fresh()});
  for (const auto& [e, bytes] : entries) {
    const Scope s(tracer, "cache.save", item++);
    rewrite.save(e.kind, e.key, bytes);
    c.bytes_written += static_cast<double>(bytes.size());
  }
}

// --- Workloads ------------------------------------------------------------------------

struct Outcome {
  std::vector<double> setup_s;
  Measure plain;   ///< Untraced timed phase.
  Measure traced;  ///< Traced timed phase (traced run only).
  std::size_t gate_items = 0;
  std::size_t gate_failed = 0;
  std::optional<LoopOutput> loop;
  LayerCounts layers;
};

/// When a timed phase stops: the untraced run measures `seconds` of item
/// host time; the traced run splits that time between an untraced phase and
/// a traced phase over the same items, whose difference is the tracing
/// overhead.
using StopRule = std::function<bool(const Measure&)>;

/// Calls `one_pass(tracer, measure, pass, stop)` until the stop rule holds,
/// at least once; `one_pass` decides how much of a pass to finish.
template <typename Fn>
void timed_phases(const Args& a, Tracer& tracer, Outcome& out, Fn&& one_pass) {
  Tracer off(false);
  const double plain_s = a.trace ? a.seconds / 2 : a.seconds;
  const StopRule plain_done = [&](const Measure& m) { return m.busy_s >= plain_s; };
  for (std::size_t pass = 0; pass == 0 || !plain_done(out.plain); ++pass) {
    one_pass(off, out.plain, pass, plain_done);
  }
  if (!a.trace) return;
  const StopRule traced_done = [&](const Measure& m) {
    return m.latency_s.size() >= out.plain.latency_s.size();
  };
  for (std::size_t pass = 0; pass == 0 || !traced_done(out.traced); ++pass) {
    one_pass(tracer, out.traced, pass, traced_done);
  }
}

/// cold_corpus (top = O2) and cold_o1 (top = O1): the same population and
/// service path, with and without O2.
void run_cold(const Args& a, OptLevel top, ScratchDirs& dirs, Tracer& tracer,
              Outcome& out) {
  std::vector<Program> programs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    programs.clear();  // Never hold two populations at once.
    programs = corpus_population(a.seed, kCorpusPrograms);
    // Untimed warm-up: the Table-1 programs through the whole service path.
    Measure scratch;
    Tracer off(false);
    for (std::size_t p = 0; p < wl::suite().size(); ++p) {
      std::vector<service::Response> ignored;
      (void)cold_item(programs[p], top, {}, off, 0, ignored, nullptr, scratch);
    }
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  // The programs warm_restart replays are always timed, so coverage_pct
  // and ext_speedup cover the same programs in both workloads.
  const std::size_t shared = wl::suite().size() + kWarmPrograms;
  std::vector<std::vector<service::Response>> first(programs.size());
  auto pass_fn = [&](Tracer& tr, Measure& m, std::size_t pass, const StopRule& done) {
    const bool record = &m == &out.plain && pass == 0;
    for (std::size_t i = 0; i < programs.size(); ++i) {
      if ((pass > 0 || i >= shared) && done(m)) return;
      std::vector<service::Response> responses;
      if (record) ++out.gate_items;
      const double s = cold_item(programs[i], top, {}, tr, m.latency_s.size(), responses,
                                 record ? &out.gate_failed : nullptr, m);
      m.latency_s.push_back(s);
      m.record(1, s);
      ++m.attempted;
      bool ok = responses.size() == request_mix(programs[i], top).size();
      for (const service::Response& r : responses) ok = ok && r.ok();
      if (record) {
        first[i] = responses;
      } else {
        ok = ok && responses.size() == first[i].size() &&
             std::equal(responses.begin(), responses.end(), first[i].begin(),
                        same_response);
      }
      if (!ok) ++m.failed;
    }
  };
  timed_phases(a, tracer, out, pass_fn);
  if (tracer.enabled()) {
    // A fixed prefix, so the layer counts repeat exactly for a seed.
    programs.resize(kLayerPrograms);
    layer_pass_cold(programs, top, dirs, tracer, out.layers);
  }
  first.resize(shared);
  out.loop = loop_output(first);
}

void run_sim_heavy(const Args& a, Tracer& tracer, Outcome& out) {
  std::vector<Program> programs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    programs.clear();  // Never hold two populations at once.
    programs = sim_population(a.seed);
    // Untimed warm-up: one program of each kind through the timed path.
    for (int k = 0; k < kKinds; ++k) {
      const Program& w = programs[static_cast<std::size_t>(k)];
      const pipeline::Session s(w.w().source, w.w().name, w.inputs());
      (void)s.detection(OptLevel::O1);
    }
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  std::vector<Built> built(programs.size());
  std::vector<std::pair<std::size_t, double>> first(programs.size());
  auto pass_fn = [&](Tracer& tr, Measure& m, std::size_t pass, const StopRule& done) {
    const bool record = &m == &out.plain && pass == 0;
    for (std::size_t i = 0; i < programs.size(); ++i) {
      if (pass > 0 && done(m)) return;
      const Program& p = programs[i];
      const std::uint64_t item = m.latency_s.size();
      const Scope root(tr, "bench.item", item);
      const Clock::time_point t0 = Clock::now();
      std::optional<pipeline::Session> session;
      {
        const Scope s(tr, "pipeline.session", item, root.id());
        session.emplace(p.w().source, p.w().name, p.inputs());
      }
      const chain::DetectionResult* d = nullptr;
      {
        const Scope s(tr, "pipeline.detection", item, root.id());
        d = &session->detection(OptLevel::O1);
      }
      const Clock::time_point t1 = Clock::now();
      const std::pair<std::size_t, double> summary{
          d->sequences.size(), d->sequences.empty() ? 0.0 : d->sequences.front().frequency};
      if (record) {
        first[i] = summary;
        built[i].o0 = session->prepared().module;
        built[i].top = session->optimized(OptLevel::O1);
      }
      if (tr.enabled()) {
        const pipeline::Session::Stats st = session->stats();
        m.stage_runs += st.optimize_runs + st.detect_runs + st.coverage_runs +
                        st.extension_runs;
        m.stage_hits += st.hits;
      }
      const Clock::time_point t2 = Clock::now();
      session.reset();
      const double s = seconds_between(t0, t1) + seconds_between(t2, Clock::now());
      m.latency_s.push_back(s);
      m.record(1, s);
      ++m.attempted;
      if (summary != first[i]) ++m.failed;
    }
  };
  timed_phases(a, tracer, out, pass_fn);
  if (tracer.enabled()) {
    layer_pass_sim(programs, tracer, out.layers);
  }
  out.gate_items = programs.size();
  out.gate_failed = gate(programs, built);
}

void run_warm_restart(const Args& a, ScratchDirs& dirs, Tracer& tracer, Outcome& out) {
  std::vector<Program> programs;
  std::vector<std::vector<service::Response>> cold;
  fs::path dir;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    programs.clear();  // Never hold two populations at once.
    programs = corpus_population(a.seed, kWarmPrograms);
    if (!dir.empty()) fs::remove_all(dir);
    dir = dirs.fresh();
    cold.assign(programs.size(), {});
    // Cold fill: cold_corpus's request mix, one restart per program.
    Measure scratch;
    Tracer off(false);
    for (std::size_t p = 0; p < programs.size(); ++p) {
      (void)cold_item(programs[p], OptLevel::O2, dir, off, 0, cold[p], nullptr, scratch);
    }
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  std::vector<std::vector<service::Request>> requests;
  for (const Program& p : programs) requests.push_back(request_mix(p, OptLevel::O2));

  std::vector<std::vector<service::Response>> first(programs.size());
  auto pass_fn = [&](Tracer& tr, Measure& m, std::size_t pass, const StopRule&) {
    const bool record = &m == &out.plain && pass == 0;
    const Scope root(tr, "bench.restart", pass);
    const Clock::time_point t0 = Clock::now();
    std::optional<service::Server> server;
    {
      const Scope s(tr, "service.start", pass, root.id());
      server.emplace(one_worker(dir));
    }
    double busy = seconds_between(t0, Clock::now());
    std::vector<double> lat;
    for (std::size_t p = 0; p < programs.size(); ++p) {
      for (std::size_t k = 0; k < requests[p].size(); ++k) {
        const Scope s(tr, "service.call", m.latency_s.size() + lat.size(), root.id());
        const Clock::time_point q0 = Clock::now();
        service::Response r = server->call(requests[p][k]);
        lat.push_back(seconds_between(q0, Clock::now()));
        ++m.attempted;
        if (!r.ok() || !same_response(r, cold[p][k])) ++m.failed;
        if (tr.enabled()) m.server_latency_ms.push_back(r.latency_us / 1000.0);
        if (record) first[p].push_back(std::move(r));
      }
    }
    busy += std::accumulate(lat.begin(), lat.end(), 0.0);
    if (tr.enabled()) {
      m.add_server_stats(*server);
      for (const auto& reqs : requests) measure_service_overhead(*server, reqs, m);
    }
    const Clock::time_point t2 = Clock::now();
    {
      const Scope s(tr, "service.stop", pass, root.id());
      server.reset();
    }
    busy += seconds_between(t2, Clock::now());
    m.latency_s.insert(m.latency_s.end(), lat.begin(), lat.end());
    m.record(lat.size(), busy);
  };
  timed_phases(a, tracer, out, pass_fn);
  if (tracer.enabled()) {
    layer_pass_warm(dir, programs.size() * requests.front().size(), dirs,
                    tracer, out.layers);
  }
  out.loop = loop_output(first);

  // Gate: the baselines a restarted server reads from disk must still
  // reproduce the oracle outputs.
  std::vector<Built> built(programs.size());
  {
    service::Server server(one_worker(dir));
    for (std::size_t p = 0; p < programs.size(); ++p) {
      (void)server.call(requests[p].front());
      built[p].o0 = session_of(server.pool(), programs[p])->prepared().module;
    }
  }
  out.gate_items = programs.size();
  out.gate_failed = gate(programs, built);
}

// --- Main -------------------------------------------------------------------------------

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--work-dir") a.work_dir = value;
    else return std::nullopt;
  }
  if (argc % 2 == 0 || a.seconds <= 0) return std::nullopt;
  if (a.workload != "cold_corpus" && a.workload != "cold_o1" &&
      a.workload != "sim_heavy" && a.workload != "warm_restart") {
    return std::nullopt;
  }
  return a;
}

/// Settings that would make numbers incomparable with other runs.
std::optional<std::string> forbidden_environment() {
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string var(*e);
    const std::string name = var.substr(0, var.find('='));
    if (name == "ASIPFB_NO_JIT" || name == "ASIPFB_NO_FUSE" ||
        name.rfind("ASIPFB_FUZZ_", 0) == 0) {
      return name;
    }
  }
  return std::nullopt;
}

int run(const Args& a) {
  std::cout << "perfbench workload=" << a.workload << " seed=" << a.seed
            << " seconds=" << a.seconds << " trace=" << a.trace
            << " jit_default=" << sim::jit_default()
            << " fuse_default=" << sim::fuse_default() << " workers=1 clients=1\n";
  ScratchDirs dirs(a.work_dir);
  Tracer tracer(a.trace);
  Outcome out;
  if (a.workload == "cold_corpus") run_cold(a, OptLevel::O2, dirs, tracer, out);
  else if (a.workload == "cold_o1") run_cold(a, OptLevel::O1, dirs, tracer, out);
  else if (a.workload == "sim_heavy") run_sim_heavy(a, tracer, out);
  else run_warm_restart(a, dirs, tracer, out);

  const Measure& m = a.trace ? out.traced : out.plain;
  const std::size_t attempted = out.plain.attempted + out.traced.attempted + out.gate_items;
  const std::size_t failed = out.plain.failed + out.traced.failed + out.gate_failed;
  const double tail_p = tail_percentile(a.workload);
  const double tail_ms = quantile(m.latency_s, tail_p / 100.0) * 1e3;
  const double beyond = static_cast<double>(m.latency_s.size()) * (1.0 - tail_p / 100.0);
  std::cout << "items=" << m.latency_s.size() << " busy_s=" << m.busy_s
            << " mean_items_per_s=" << m.mean_items_per_s()
            << " tail=p" << tail_p << " (" << static_cast<std::size_t>(beyond)
            << " samples beyond" << (beyond < 10 ? "; too few, run longer" : "")
            << ")\n";
  std::cout << "fail_ratio=" << static_cast<double>(failed) / static_cast<double>(attempted)
            << " (" << failed << "/" << attempted << ")\n";
  if (out.loop) {
    std::cout << "coverage_pct=" << json_number(out.loop->coverage_pct)
              << " ext_speedup=" << json_number(out.loop->ext_speedup) << "\n";
  }

  std::vector<Metric> metrics;
  if (!a.trace) {
    metrics = {
        {"setup_s", median(out.setup_s), "s"},
        {"items_per_s", m.items_per_s(), "1/s"},
        {"p50_ms", median(m.latency_s) * 1e3, "ms"},
        {"tail_ms", tail_ms, "ms"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    const std::map<std::string, double> self = tracer.self_seconds();
    const LayerCounts& c = out.layers;
    const double n = c.items > 0 ? static_cast<double>(c.items) : 1.0;
    auto per_item = [&](const char* span) {
      const auto it = self.find(span);
      return it == self.end() ? 0.0 : it->second / n;
    };
    const double profile_s = per_item("sim.profile");
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    metrics = {
        {"frontend.compile_s", per_item("frontend.compile"), "s"},
        {"frontend.ir_instrs", c.ir_instrs / n, "count"},
        {"sim.profile_s", profile_s, "s"},
        {"sim.steps", c.steps / n, "count"},
        {"sim.ops_per_s", ratio(c.steps / n, profile_s), "1/s"},
        {"opt.o1_s", per_item("opt.o1"), "s"},
        {"opt.o2_s", per_item("opt.o2"), "s"},
        {"opt.o2_hoists", c.o2_hoists / n, "count"},
        {"opt.o2_merges", c.o2_merges / n, "count"},
        {"opt.o2_passes", c.o2_passes / n, "count"},
        {"opt.o2_repair_copies", c.o2_repair / n, "count"},
        {"opt.o2_ir_instrs", c.o2_instrs / n, "count"},
        {"chain.detect_s", per_item("chain.detect"), "s"},
        {"chain.coverage_s", per_item("chain.coverage"), "s"},
        {"chain.signatures", c.signatures / n, "count"},
        {"asip.extension_s", per_item("asip.extension"), "s"},
        {"asip.selected", c.selected / n, "count"},
        {"cache.encode_s", per_item("cache.encode"), "s"},
        {"cache.save_s", per_item("cache.save"), "s"},
        {"cache.bytes_written", c.bytes_written / n, "B"},
        {"cache.load_s", per_item("cache.load"), "s"},
        {"cache.decode_s", per_item("cache.decode"), "s"},
        {"cache.bytes_read", c.bytes_read / n, "B"},
        {"cache.hit_ratio", ratio(static_cast<double>(m.store_hits),
                                  static_cast<double>(m.store_hits + m.store_misses)),
         "ratio"},
        {"pipeline.memo_hit_ratio",
         ratio(static_cast<double>(m.stage_hits),
               static_cast<double>(m.stage_hits + m.stage_runs)),
         "ratio"},
        {"pipeline.disk_hit_ratio",
         ratio(static_cast<double>(m.disk_hits),
               static_cast<double>(m.disk_hits + m.disk_misses)),
         "ratio"},
        {"service.overhead_s",
         ratio(m.overhead_s, static_cast<double>(m.overhead_n)), "s"},
        {"service.server_latency_ms", median(m.server_latency_ms), "ms"},
        {"service.rejected", static_cast<double>(m.rejected), "count"},
        {"trace.overhead_pct",
         100.0 * ratio(out.plain.mean_items_per_s() - out.traced.mean_items_per_s(),
                       out.plain.mean_items_per_s()),
         "%"},
    };
    // Which layer the workload stresses: self time per item, by layer.
    const std::vector<std::pair<const char*, double>> layers = {
        {"frontend", per_item("frontend.compile")},
        {"sim", profile_s},
        {"opt", per_item("opt.o0") + per_item("opt.o1") + per_item("opt.o2")},
        {"chain", per_item("chain.detect") + per_item("chain.coverage")},
        {"asip", per_item("asip.extension")},
        {"cache_read", per_item("cache.load") + per_item("cache.decode")},
        {"cache_write", per_item("cache.encode") + per_item("cache.save")},
        {"service", ratio(m.overhead_s, static_cast<double>(m.latency_s.size()))},
    };
    std::cout << "self ms/item:";
    for (const auto& [layer, secs] : layers) std::cout << ' ' << layer << '=' << secs * 1e3;
    std::cout << " | untraced item mean ms="
              << ratio(out.plain.busy_s, static_cast<double>(out.plain.latency_s.size())) * 1e3
              << "\n";
    std::ofstream spans(a.work_dir / (a.workload + ".spans.tsv"));
    tracer.write(spans);
  }

  const bool correct = failed == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
              << json_number(metrics[i].value) << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Pin glibc malloc so memory and restart costs depend on the inputs, not
  // on thread timing.  Every Server start is a new worker thread, and by
  // default each may get a fresh arena: its page faults made the first
  // request after a restart take 1 ms instead of 0.3 ms, and peak RSS came
  // out 19 or 23 MB on one seed.  One arena avoids both; the client and the
  // single worker take turns, so they never contend for it.  The thresholds
  // start where glibc's dynamic ones end up anyway (large blocks from the
  // arena, no trimming); left dynamic, whether the simulator's 4 MB frames
  // came from the arena or from mmap varied from run to run.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
  mallopt(M_TRIM_THRESHOLD, 64 * 1024 * 1024);
  const std::optional<perfbench::Args> args = perfbench::parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: perfbench --workload <cold_corpus|cold_o1|sim_heavy|warm_restart>"
                 " --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n";
    return 2;
  }
  if (const auto var = perfbench::forbidden_environment()) {
    std::cerr << "perfbench: refusing to run with " << *var
              << " set; it changes what is measured\n";
    return 2;
  }
  try {
    return perfbench::run(*args);
  } catch (const std::exception& ex) {
    std::cerr << "perfbench: " << ex.what() << "\n";
    return 2;
  }
}
