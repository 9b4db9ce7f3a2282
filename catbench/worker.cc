// One repetition of one catbench workload, in its own process.
//
//   catbench_worker --workload=<policy_mix|serving_mix>
//                   --seed=<n> --jobs=<n> --report-out=<path>
//                   [--scenario=<path> [--direct]] [--profile]
//
// The worker builds the workload's inputs (the set-up phase), runs it once
// (the timed phase, which ends after the catdb.report/v1 report has been
// serialized and written), and prints one JSON object on stdout with host
// times, the report's FNV-1a digest, simulated counters and, with
// --profile, the host-cycle breakdown of every machine it built.
// catbench/run.py starts one process per repetition, so every repetition
// sets up cold (the process-wide DatasetCache starts empty) and no
// repetition inherits another's heap or cache state. METHOD.md has the
// rationale and the layer -> metric -> workload map.
//
// Everything here drives the library from outside, through public calls;
// nothing inside src/ is instrumented beyond what it already exposes.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "engine/dynamic_policy.h"
#include "engine/operators/aggregation.h"
#include "engine/operators/column_scan.h"
#include "engine/operators/fk_join.h"
#include "engine/runner.h"
#include "harness/experiments.h"
#include "harness/sweep_runner.h"
#include "obs/json.h"
#include "obs/report.h"
#include "plan/scenario.h"
#include "plan/scenario_exec.h"
#include "policy/policy_engine.h"
#include "policy/way_allocator.h"
#include "serve/serving_engine.h"
#include "sim/machine.h"
#include "simcache/host_profile.h"
#include "storage/dataset_cache.h"
#include "workloads/micro.h"

#ifndef CATBENCH_BUILD_TYPE
#define CATBENCH_BUILD_TYPE "unknown"
#endif

using namespace catdb;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Simulated-cycle horizon of policy_mix. ext_utility_policy uses 200M
// cycles; a repetition here is a quarter of that so a run can take the
// median of several repetitions. 50M still spans five 10M-cycle policy
// intervals.
constexpr uint64_t kPolicyHorizon = 50'000'000;

// --seed=n moves every dataset, query and arrival seed by n * kSeedStride.
// Seed 0 reproduces the seeds of the figure benches.
constexpr uint64_t kSeedStride = 1'000'003;

// Everything one repetition measures, summed over the machines it built.
struct Tally {
  simcache::HierarchyStats stats;  // simulated, over the recorded runs
  uint64_t sim_cycles = 0;         // simulated horizon cycles, all runs
  uint64_t clos_reassociations = 0;
  uint64_t group_moves = 0;
  uint64_t schemata_writes = 0;
  uint64_t intervals = 0;
  uint64_t serve_arrivals = 0;
  uint64_t serve_rejected = 0;
  uint64_t serve_p99_max = 0;
  uint64_t serve_max_queue_depth = 0;
  uint64_t run_workload_calls = 0;
  double run_workload_s = 0;
  double run_dynamic_s = 0;
  double run_allocator_s = 0;
  double serve_workload_s = 0;
  uint64_t call_tsc = 0;  // host timer cycles inside the timed calls
  simcache::HostCycleBreakdown profile;

  void Add(const Tally& o) {
    stats += o.stats;
    sim_cycles += o.sim_cycles;
    clos_reassociations += o.clos_reassociations;
    group_moves += o.group_moves;
    schemata_writes += o.schemata_writes;
    intervals += o.intervals;
    serve_arrivals += o.serve_arrivals;
    serve_rejected += o.serve_rejected;
    serve_p99_max = std::max(serve_p99_max, o.serve_p99_max);
    serve_max_queue_depth =
        std::max(serve_max_queue_depth, o.serve_max_queue_depth);
    run_workload_calls += o.run_workload_calls;
    run_workload_s += o.run_workload_s;
    run_dynamic_s += o.run_dynamic_s;
    run_allocator_s += o.run_allocator_s;
    serve_workload_s += o.serve_workload_s;
    call_tsc += o.call_tsc;
    simcache::HostCycleBreakdown& p = profile;
    const simcache::HostCycleBreakdown& q = o.profile;
    p.l1_lookup += q.l1_lookup;
    p.l2_lookup += q.l2_lookup;
    p.llc_lookup += q.llc_lookup;
    p.victim_fill += q.victim_fill;
    p.prefetcher += q.prefetcher;
    p.dram += q.dram;
    p.pending_table += q.pending_table;
    p.shadow += q.shadow;
    p.monitor_flush += q.monitor_flush;
    p.translate += q.translate;
    p.scalar_access += q.scalar_access;
    p.run_setup += q.run_setup;
    p.staging += q.staging;
    p.barrier_wait += q.barrier_wait;
    p.run_other += q.run_other;
    p.run_total += q.run_total;
    p.runs += q.runs;
    p.run_lines += q.run_lines;
    p.scalar_accesses += q.scalar_accesses;
  }

  void AddRun(const engine::RunReport& rep, uint64_t horizon) {
    stats += rep.stats;
    sim_cycles += horizon;
    clos_reassociations += rep.clos_reassociations;
    group_moves += rep.group_moves;
  }
};

// Times one public library call from outside: wall seconds into *secs and
// host timer cycles into the tally (the denominator of the host-cycle
// shares, so attributed + unattributed covers the whole call).
template <typename F>
auto TimeCall(Tally* t, double* secs, F&& f) {
  const uint64_t tsc0 = simcache::HostTimerNow();
  const Clock::time_point t0 = Clock::now();
  auto result = f();
  *secs += SecondsSince(t0);
  t->call_tsc += simcache::HostTimerNow() - tsc0;
  return result;
}

struct Options {
  std::string workload;
  std::string report_out;
  std::string scenario;
  uint64_t seed = 0;
  unsigned jobs = 4;
  bool profile = false;
  bool direct = false;
};

// Result of one repetition.
struct Outcome {
  double setup_s = 0;
  double build_s = 0;  // dataset generation inside set-up
  double parse_s = 0;  // scenario read + parse + validate inside set-up
  double wall_s = 0;   // timed section, report serialization included
  double cpu_s = 0;    // process CPU seconds inside the timed section
  double report_write_s = 0;
  uint64_t report_bytes = 0;
  uint64_t digest = 0;
  double sim_gain = 0;
  uint64_t failed = 0;
  uint64_t attempted = 0;
  std::vector<double> cell_s;  // per sweep cell, host seconds
  Tally tally;
};

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

// Serializes and writes the report, then closes the timed section.
void FinishTimed(const obs::RunReportWriter& report, const Options& opts,
                 Clock::time_point t0, double cpu0, Outcome* out) {
  const Clock::time_point w0 = Clock::now();
  const std::string json = report.Json();
  const Status st = obs::WriteTextFile(opts.report_out, json);
  out->report_write_s = SecondsSince(w0);
  out->wall_s = SecondsSince(t0);
  out->cpu_s = ProcessCpuSeconds() - cpu0;
  out->report_bytes = json.size();
  out->digest = plan::Fnv1a64(json);
  if (!st.ok()) {
    std::fprintf(stderr, "report write failed: %s\n", st.ToString().c_str());
    ++out->failed;
  }
}

// ---------------------------------------------------------------------------
// policy_mix: ext_utility_policy's ten (mix, scheme) cells on the sweep
// harness. Mixes: Fig. 9b scan vs aggregation, Fig. 10b aggregation vs FK
// join. Schemes: shared, static, dynamic, lookahead, fairness.

// The Fig. 10b cells take about twice as long as the Fig. 9b ones; the pool
// starts cells in the order they were added, so adding them first keeps a
// long cell from starting last and setting the sweep's wall time.
constexpr const char* kMixes[] = {"agg_vs_join", "scan_vs_agg"};
constexpr size_t kScanVsAgg = 1;
constexpr const char* kSchemes[] = {"shared", "static", "dynamic",
                                    "lookahead", "fairness"};
constexpr size_t kNumSchemes = std::size(kSchemes);

// The datasets of one mix. Building them on any machine fills the
// process-wide DatasetCache; a cell's call with the same parameters then
// shares that build and only attaches it to its own machine.
struct MixData {
  std::optional<workloads::AggDataset> agg;
  std::optional<workloads::ScanDataset> scan;
  std::optional<workloads::JoinDataset> join;
};

MixData MakeMixData(sim::Machine* machine, size_t mix, uint64_t off) {
  MixData d;
  if (mix == kScanVsAgg) {
    d.agg = workloads::MakeAggDataset(
        machine, workloads::kDefaultAggRows,
        workloads::DictEntriesForRatio(*machine,
                                       workloads::kDictRatioMedium),
        workloads::ScaledGroupCount(100000), 52 + off);
    d.scan = workloads::MakeScanDataset(
        machine, workloads::kDefaultScanRows,
        workloads::DictEntriesForRatio(*machine, workloads::kDictRatioSmall),
        51 + off);
  } else {
    d.agg = workloads::MakeAggDataset(
        machine, workloads::kDefaultAggRows,
        workloads::DictEntriesForRatio(*machine,
                                       workloads::kDictRatioMedium),
        workloads::ScaledGroupCount(1000), 42 + off);
    const uint32_t keys =
        workloads::PkCountForRatio(*machine, workloads::kPkRatios[2]);
    d.join = workloads::MakeJoinDataset(
        machine, keys, workloads::kDefaultProbeRows / 2, 41 + off);
  }
  return d;
}

struct SchemeCell {
  double iso_a = 0, iso_b = 0, a = 0, b = 0;
  double seconds = 0;
  Tally tally;
};

void RunSchemeCell(harness::SweepCell& cell, size_t mix, size_t scheme,
                   uint64_t off, bool profile, SchemeCell* out) {
  const Clock::time_point c0 = Clock::now();
  Tally& t = out->tally;
  sim::Machine& machine = cell.MakeMachine();
  if (profile) machine.hierarchy().AttachHostProfiler(&t.profile);
  MixData data = MakeMixData(&machine, mix, off);
  engine::AggregationQuery agg(&data.agg->v, &data.agg->g);
  agg.AttachSim(&machine);
  std::optional<engine::ColumnScanQuery> scan;
  std::optional<engine::FkJoinQuery> join;
  engine::Query* qb = nullptr;
  if (mix == kScanVsAgg) {
    scan.emplace(&data.scan->column, 53 + off);
    scan->AttachSim(&machine);
    qb = &*scan;
  } else {
    join.emplace(&data.join->pk, &data.join->fk, data.join->key_count);
    join->AttachSim(&machine);
    qb = &*join;
  }
  engine::Query* qa = &agg;
  const uint64_t h = kPolicyHorizon;
  const engine::PolicyConfig off_policy;

  auto run_workload = [&](const std::vector<engine::StreamSpec>& specs) {
    engine::RunReport rep = TimeCall(&t, &t.run_workload_s, [&] {
      return engine::RunWorkload(&machine, specs, h, off_policy);
    });
    ++t.run_workload_calls;
    t.AddRun(rep, h);
    return rep;
  };
  out->iso_a = run_workload({{qa, harness::kCoresA}}).streams[0].iterations;
  out->iso_b = run_workload({{qb, harness::kCoresB}}).streams[0].iterations;

  const std::vector<engine::StreamSpec> specs = {{qa, harness::kCoresA},
                                                 {qb, harness::kCoresB}};
  const std::string key = std::string(kMixes[mix]) + "/" + kSchemes[scheme];
  if (scheme == 0) {
    engine::RunReport rep = run_workload(specs);
    out->a = rep.streams[0].iterations;
    out->b = rep.streams[1].iterations;
    cell.report().AddRun(key, std::move(rep));
  } else if (scheme == 2) {
    engine::DynamicRunReport rep = TimeCall(&t, &t.run_dynamic_s, [&] {
      return engine::RunWorkloadDynamic(&machine, specs, h,
                                        engine::DynamicPolicyConfig{});
    });
    t.AddRun(rep.report, h);
    t.intervals += rep.intervals;
    t.schemata_writes += rep.schemata_writes;
    out->a = rep.report.streams[0].iterations;
    out->b = rep.report.streams[1].iterations;
    cell.report().AddDynamicRun(key, std::move(rep));
  } else {
    std::unique_ptr<policy::WayAllocator> allocator;
    if (scheme == 1) {
      allocator = std::make_unique<policy::StaticPaperAllocator>(
          engine::PolicyConfig{}, std::vector<bool>{false, true});
    } else if (scheme == 3) {
      allocator = std::make_unique<policy::LookaheadUtilityAllocator>();
    } else {
      allocator = std::make_unique<policy::FairnessClusterAllocator>();
    }
    policy::PolicyRunReport rep = TimeCall(&t, &t.run_allocator_s, [&] {
      return policy::RunWorkloadWithAllocator(&machine, specs, h,
                                              allocator.get(),
                                              policy::PolicyEngineConfig{});
    });
    t.AddRun(rep.report, h);
    t.intervals += rep.intervals;
    t.schemata_writes += rep.schemata_writes;
    out->a = rep.report.streams[0].iterations;
    out->b = rep.report.streams[1].iterations;
    cell.report().AddPolicyRun(key, std::move(rep));
  }
  cell.report().AddScalar(key + "/norm_a", out->a / out->iso_a);
  cell.report().AddScalar(key + "/norm_b", out->b / out->iso_b);
  out->seconds = SecondsSince(c0);
}

void RunPolicyMix(const Options& opts, Outcome* out) {
  const uint64_t off = opts.seed * kSeedStride;
  const Clock::time_point s0 = Clock::now();
  {
    sim::Machine machine{sim::MachineConfig{}};
    const Clock::time_point b0 = Clock::now();
    for (size_t mix = 0; mix < std::size(kMixes); ++mix) {
      MakeMixData(&machine, mix, off);
    }
    out->build_s = SecondsSince(b0);
  }
  out->setup_s = SecondsSince(s0);

  const Clock::time_point t0 = Clock::now();
  const double cpu0 = ProcessCpuSeconds();
  harness::SweepRunner::Options ro;
  ro.jobs = opts.jobs;
  harness::SweepRunner runner("policy_mix", ro);
  std::vector<SchemeCell> cells(std::size(kMixes) * kNumSchemes);
  for (size_t mi = 0; mi < std::size(kMixes); ++mi) {
    for (size_t si = 0; si < kNumSchemes; ++si) {
      SchemeCell* c = &cells[mi * kNumSchemes + si];
      const bool profile = opts.profile;
      runner.AddCell(std::string(kMixes[mi]) + "/" + kSchemes[si],
                     [mi, si, off, profile, c](harness::SweepCell& cell) {
                       RunSchemeCell(cell, mi, si, off, profile, c);
                     });
    }
  }
  runner.Run();
  out->attempted = cells.size();

  // Geometric mean over the mixes of lookahead / shared combined
  // normalized throughput.
  double log_gain = 0;
  for (size_t mi = 0; mi < std::size(kMixes); ++mi) {
    const SchemeCell& shared = cells[mi * kNumSchemes + 0];
    const SchemeCell& look = cells[mi * kNumSchemes + 3];
    const double combined_shared =
        shared.a / shared.iso_a + shared.b / shared.iso_b;
    const double combined_look = look.a / look.iso_a + look.b / look.iso_b;
    log_gain += std::log(combined_look / combined_shared);
  }
  out->sim_gain = std::exp(log_gain / std::size(kMixes));
  for (const SchemeCell& c : cells) {
    out->cell_s.push_back(c.seconds);
    out->tally.Add(c.tally);
  }
  FinishTimed(runner.report(), opts, t0, cpu0, out);
}

// ---------------------------------------------------------------------------
// serving_mix: the ext_serving_tail sweep read from a scenario file, run
// through plan::RunScenario. With --direct (implied by --profile) the
// worker instead runs every cell through serve::ServeWorkload on machines
// it builds itself, so it can read their statistics and attach profilers,
// and rebuilds the report with the same entries in the same order. The
// two reports must be byte-identical, which checks that both paths
// simulated the same thing.

engine::CacheUsage ServeCacheUsageOf(plan::CuidAnnotation cuid) {
  switch (cuid) {
    case plan::CuidAnnotation::kPolluting:
      return engine::CacheUsage::kPolluting;
    case plan::CuidAnnotation::kAdaptive:
      return engine::CacheUsage::kAdaptive;
    default:
      return engine::CacheUsage::kSensitive;
  }
}

serve::ServePolicyKind ServePolicyOf(const std::string& name) {
  if (name == "shared") return serve::ServePolicyKind::kShared;
  if (name == "static") return serve::ServePolicyKind::kStatic;
  if (name == "lookahead") return serve::ServePolicyKind::kLookahead;
  return serve::ServePolicyKind::kMrcCluster;
}

// Mirrors the scenario executor's per-cell ServeConfig (internal to
// src/plan/scenario_exec.cc): classes, cores, and per-tenant Poisson or
// ON-OFF arrivals whose rate meets `load`. A drift between the two shows as
// a digest mismatch between the direct and the RunScenario repetitions.
serve::ServeConfig MakeServeConfig(const plan::ServingSweepSpec& spec,
                                   double load, uint64_t seed) {
  serve::ServeConfig config;
  for (const plan::ServeClassSpec& c : spec.classes) {
    serve::RequestClass rc;
    rc.name = c.name;
    rc.cuid = ServeCacheUsageOf(c.cuid);
    rc.private_lines = c.private_lines;
    rc.passes = c.passes;
    rc.stream_lines = c.stream_lines;
    rc.compute_per_line = c.compute_per_line;
    config.classes.push_back(std::move(rc));
  }
  config.horizon_cycles = spec.horizon;
  config.seed = seed;
  config.max_clusters = spec.max_clusters;
  config.shared_region_lines = spec.shared_region_lines;
  const size_t num_classes = config.classes.size();
  for (uint32_t core = 0; core < spec.cores; ++core) {
    config.cores.push_back(core);
  }
  for (size_t t = 0; t < spec.tenants; ++t) {
    serve::TenantSpec tenant;
    tenant.class_id = spec.class_deal[t % spec.class_deal.size()] %
                      static_cast<uint32_t>(num_classes);
    const plan::ServeClassSpec& c = spec.classes[tenant.class_id];
    const uint64_t est =
        (static_cast<uint64_t>(c.passes) * c.private_lines + c.stream_lines) *
        (c.compute_per_line + c.mem_cycles_per_line);
    const uint64_t interarrival = static_cast<uint64_t>(
        static_cast<double>(est) * spec.tenants / (spec.cores * load));
    if ((t / num_classes) % 2 == 0) {
      tenant.arrival.kind = serve::ArrivalKind::kPoisson;
      tenant.arrival.mean_interarrival_cycles = interarrival;
    } else {
      tenant.arrival.kind = serve::ArrivalKind::kOnOff;
      tenant.arrival.mean_interarrival_cycles = interarrival / 2;
      tenant.arrival.mean_on_cycles = spec.burst_on_cycles;
      tenant.arrival.mean_off_cycles = spec.burst_off_cycles;
    }
    config.tenants.push_back(tenant);
  }
  return config;
}

struct ServeCell {
  serve::ServingRunReport rep;
  double seconds = 0;
  Tally tally;
};

// The direct pass: same cells, keys, report entries and summary as the
// scenario executor's serving sweep.
void DirectServingSweep(const plan::Scenario& scenario, const Options& opts,
                        plan::ServingOutcome* out, Outcome* outcome,
                        std::optional<harness::SweepRunner>* runner_out) {
  const plan::ServingSweepSpec& spec = scenario.serving;
  const size_t num_policies = spec.policies.size();
  harness::SweepRunner::Options ro;
  ro.jobs = opts.jobs;
  const bool profile = opts.profile;
  runner_out->emplace(scenario.benchmark, ro);
  harness::SweepRunner& runner = **runner_out;
  out->loads = spec.loads;
  std::vector<ServeCell> cells(spec.loads.size() * num_policies);
  for (size_t li = 0; li < spec.loads.size(); ++li) {
    for (size_t pi = 0; pi < num_policies; ++pi) {
      const double load = spec.loads[li].value();
      char load_key[32];
      std::snprintf(load_key, sizeof(load_key), "load%.2f", load);
      const std::string key = std::string(load_key) + "/" + spec.policies[pi];
      const uint64_t seed = spec.seed_base + li;
      const serve::ServePolicyKind policy = ServePolicyOf(spec.policies[pi]);
      ServeCell* c = &cells[li * num_policies + pi];
      runner.AddCell(key, [&spec, key, load, seed, policy, profile,
                           c](harness::SweepCell& cell) {
        const Clock::time_point c0 = Clock::now();
        sim::Machine& machine = cell.MakeMachine();
        if (profile) machine.hierarchy().AttachHostProfiler(&c->tally.profile);
        const serve::ServeConfig config = MakeServeConfig(spec, load, seed);
        Tally& t = c->tally;
        c->rep = TimeCall(&t, &t.serve_workload_s, [&] {
          return serve::ServeWorkload(&machine, config, policy);
        });
        // ServeWorkload resets the machine once at its start, so the
        // hierarchy's statistics now cover exactly this run.
        t.stats = machine.hierarchy().stats();
        t.sim_cycles = spec.horizon;
        t.clos_reassociations = machine.resctrl().reassociations();
        const serve::ServingRunReport& rep = c->rep;
        t.group_moves = rep.group_moves;
        t.schemata_writes = rep.schemata_writes;
        t.intervals = rep.intervals;
        t.serve_arrivals = rep.arrivals;
        t.serve_rejected = rep.rejected;
        t.serve_p99_max = rep.latency.p99;
        t.serve_max_queue_depth = rep.max_queue_depth;
        const double rejected_ratio =
            rep.arrivals == 0 ? 0.0
                              : static_cast<double>(rep.rejected) /
                                    static_cast<double>(rep.arrivals);
        cell.report().AddScalar(key + "/p50",
                                static_cast<double>(rep.latency.p50));
        cell.report().AddScalar(key + "/p95",
                                static_cast<double>(rep.latency.p95));
        cell.report().AddScalar(key + "/p99",
                                static_cast<double>(rep.latency.p99));
        cell.report().AddScalar(key + "/rejected_ratio", rejected_ratio);
        cell.report().AddServingRun(key, c->rep);
        c->seconds = SecondsSince(c0);
      });
    }
  }
  runner.Run();

  obs::RunReportWriter& report = runner.report();
  report.AddParam("tenants", spec.tenants);
  report.AddParam("horizon_cycles", spec.horizon);
  report.AddParam("slo_p99_cycles", spec.slo_p99_cycles);
  const double max_rejected = spec.max_rejected_ratio.value();
  for (size_t pi = 0; pi < num_policies; ++pi) {
    double sustained = 0;
    for (size_t li = 0; li < spec.loads.size(); ++li) {
      const serve::ServingRunReport& r = cells[li * num_policies + pi].rep;
      const double rejected_ratio =
          r.arrivals == 0 ? 0.0
                          : static_cast<double>(r.rejected) /
                                static_cast<double>(r.arrivals);
      if (r.completed > 0 && r.latency.p99 <= spec.slo_p99_cycles &&
          rejected_ratio <= max_rejected) {
        sustained = spec.loads[li].value();
      }
    }
    out->sustained.push_back(sustained);
    report.AddScalar("sustained_load/" + spec.policies[pi], sustained);
  }
  plan::AddScenarioSection(&report, scenario);
  for (const ServeCell& c : cells) {
    outcome->cell_s.push_back(c.seconds);
    outcome->tally.Add(c.tally);
  }
}

// Reads, parses and validates the scenario file and applies the seed.
Status LoadScenario(const Options& opts, plan::Scenario* scenario) {
  std::string text;
  CATDB_RETURN_IF_ERROR(plan::ReadTextFile(opts.scenario, &text));
  CATDB_RETURN_IF_ERROR(plan::ScenarioFromText(text, scenario));
  if (scenario->kind != plan::SweepKind::kServing) {
    return Status::InvalidArgument(opts.scenario + " is not a serving_sweep");
  }
  scenario->serving.seed_base += opts.seed * kSeedStride;
  return plan::ValidateScenario(*scenario);
}

// Scenario set-up takes well under a millisecond, so one sample is mostly
// timer and page-fault noise: the set-up time is the median of several
// loads. The parser keeps no state between loads.
constexpr int kScenarioLoads = 5;

void RunServingMix(const Options& opts, Outcome* out) {
  plan::Scenario scenario;
  std::vector<double> loads;
  Status st;
  for (int i = 0; i < kScenarioLoads && st.ok(); ++i) {
    const Clock::time_point s0 = Clock::now();
    scenario = plan::Scenario{};
    st = LoadScenario(opts, &scenario);
    loads.push_back(SecondsSince(s0));
  }
  std::sort(loads.begin(), loads.end());
  out->parse_s = loads[loads.size() / 2];
  out->setup_s = out->parse_s;
  if (!st.ok()) {
    std::fprintf(stderr, "scenario: %s\n", st.ToString().c_str());
    out->attempted = out->failed = 1;
    return;
  }

  const plan::ServingSweepSpec& spec = scenario.serving;
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = ProcessCpuSeconds();
  plan::ScenarioRunResult result;
  if (opts.direct || opts.profile) {
    DirectServingSweep(scenario, opts, &result.serving, out, &result.runner);
  } else {
    plan::ExecOptions exec;
    exec.jobs = opts.jobs;
    st = plan::RunScenario(scenario, exec, &result);
    if (!st.ok()) {
      std::fprintf(stderr, "RunScenario: %s\n", st.ToString().c_str());
      out->attempted = out->failed = 1;
      return;
    }
  }
  out->attempted = spec.loads.size() * spec.policies.size();
  // Sustained load at the SLO, mrc_cluster over shared.
  double shared = 0, clustered = 0;
  for (size_t pi = 0; pi < spec.policies.size(); ++pi) {
    if (spec.policies[pi] == "shared") shared = result.serving.sustained[pi];
    if (spec.policies[pi] == "mrc_cluster") {
      clustered = result.serving.sustained[pi];
    }
  }
  if (shared > 0 && clustered > 0) {
    out->sim_gain = clustered / shared;
  } else {
    std::fprintf(stderr,
                 "serving_mix: a policy sustains no load at the SLO "
                 "(shared %.2f, mrc_cluster %.2f)\n",
                 shared, clustered);
    ++out->failed;
  }
  out->tally.sim_cycles = spec.horizon * out->attempted;
  FinishTimed(result.runner->report(), opts, t0, cpu0, out);
}

// ---------------------------------------------------------------------------

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

// A measurement needs an optimized, unsanitized build.
bool MeasurementBuild(std::string* why) {
  const std::string type = CATBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    *why = "build type '" + type + "' (need Release or RelWithDebInfo)";
    return false;
  }
#if !defined(__OPTIMIZE__)
  *why = "compiled without optimization";
  return false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  *why = "sanitizer build";
  return false;
#endif
  return true;
}

void PrintOutcome(const Options& opts, const Outcome& o) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const storage::DatasetCache::Stats cache =
      storage::DatasetCache::Instance().stats();
  const Tally& t = o.tally;
  const simcache::HierarchyStats& s = t.stats;
  const simcache::HostCycleBreakdown& p = t.profile;
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(o.digest));

  obs::JsonWriter w;
  w.BeginObject();
  w.KV("workload", opts.workload).KV("seed", opts.seed);
  w.KV("jobs", static_cast<uint64_t>(opts.jobs));
  w.KV("profiled", opts.profile);
  w.KV("digest", std::string(digest));
  w.KV("attempted", o.attempted).KV("failed", o.failed);
  w.KV("setup_s", o.setup_s).KV("build_s", o.build_s);
  w.KV("parse_s", o.parse_s).KV("wall_s", o.wall_s).KV("cpu_s", o.cpu_s);
  w.KV("report_write_s", o.report_write_s);
  w.KV("report_bytes", o.report_bytes);
  w.KV("peak_rss_kib", static_cast<uint64_t>(ru.ru_maxrss));
  w.KV("sim_gain", o.sim_gain);
  w.KV("dataset_cache_hits", cache.hits);
  w.KV("dataset_cache_misses", cache.misses);
  w.Key("cell_s").BeginArray();
  for (double c : o.cell_s) w.Value(c);
  w.EndArray();

  w.Key("sim").BeginObject();
  w.KV("l1_hits", s.l1.hits).KV("l1_misses", s.l1.misses);
  w.KV("l2_hits", s.l2.hits).KV("l2_misses", s.l2.misses);
  w.KV("llc_hits", s.llc.hits).KV("llc_misses", s.llc.misses);
  w.KV("dram_accesses", s.dram_accesses);
  w.KV("dram_wait_cycles", s.dram_wait_cycles);
  w.KV("prefetches_issued", s.prefetches_issued);
  w.KV("prefetch_hits", s.prefetch_hits);
  w.KV("back_invalidations", s.llc_back_invalidations);
  w.KV("instructions", s.instructions);
  w.KV("sim_cycles", t.sim_cycles);
  w.KV("clos_reassociations", t.clos_reassociations);
  w.KV("group_moves", t.group_moves);
  w.KV("schemata_writes", t.schemata_writes);
  w.KV("intervals", t.intervals);
  w.KV("serve_arrivals", t.serve_arrivals);
  w.KV("serve_rejected", t.serve_rejected);
  w.KV("serve_p99_max", t.serve_p99_max);
  w.KV("serve_max_queue_depth", t.serve_max_queue_depth);
  w.EndObject();

  w.Key("calls").BeginObject();
  w.KV("run_workload_calls", t.run_workload_calls);
  w.KV("run_workload_s", t.run_workload_s);
  w.KV("run_dynamic_s", t.run_dynamic_s);
  w.KV("run_allocator_s", t.run_allocator_s);
  w.KV("serve_workload_s", t.serve_workload_s);
  w.KV("call_tsc", t.call_tsc);
  w.EndObject();

  w.Key("profile").BeginObject();
  for (const auto& [name, cycles] : p.Components()) w.KV(name, cycles);
  w.KV("attributed", p.AttributedTotal());
  w.KV("runs", p.runs).KV("run_lines", p.run_lines);
  w.KV("scalar_accesses", p.scalar_accesses);
  w.EndObject();

  w.Key("host").BeginObject();
  w.KV("nproc", static_cast<uint64_t>(std::thread::hardware_concurrency()));
  w.KV("compiler", std::string("gcc-compatible ") + __VERSION__);
  w.KV("build_type", CATBENCH_BUILD_TYPE);
  w.KV("cpu_model", CpuModel());
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
}

bool ParseU64(const char* s, uint64_t* out) {
  if (*s == '\0' || *s == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload=<policy_mix|serving_mix>"
               " --seed=<n> --jobs=<1..64> --report-out=<path>"
               " [--scenario=<path> [--direct]] [--profile]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    uint64_t n = 0;
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed" && ParseU64(value.c_str(), &n) &&
               n < (uint64_t{1} << 32)) {
      opts.seed = n;
    } else if (key == "--jobs" && ParseU64(value.c_str(), &n) && n >= 1 &&
               n <= 64) {
      opts.jobs = static_cast<unsigned>(n);
    } else if (key == "--report-out" && !value.empty()) {
      opts.report_out = value;
    } else if (key == "--scenario" && !value.empty()) {
      opts.scenario = value;
    } else if (arg == "--profile") {
      opts.profile = true;
    } else if (arg == "--direct") {
      opts.direct = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (opts.report_out.empty()) return Usage(argv[0]);
  std::string why;
  if (!MeasurementBuild(&why)) {
    std::fprintf(stderr, "refusing to measure: %s\n", why.c_str());
    return 3;
  }

  Outcome out;
  if (opts.workload == "policy_mix") {
    RunPolicyMix(opts, &out);
  } else if (opts.workload == "serving_mix" && !opts.scenario.empty()) {
    RunServingMix(opts, &out);
  } else {
    return Usage(argv[0]);
  }
  PrintOutcome(opts, out);
  return 0;
}
