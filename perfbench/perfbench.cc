/**
 * @file
 * perfbench: the repo benchmark. Runs one workload (or all three) in
 * this process on one simulation thread, checks every pass against the
 * host references, and prints every metric by name with its unit.
 *
 *   perfbench --workload rtnn|nbody3d|svc-fleet-d4|all --seed N
 *             --seconds S --trace 0|1 [--trace-out FILE]
 *
 * A run repeats whole passes (set-up, then simulate + verify) for about
 * S seconds, at least kMinPasses times. Every pass of one seed
 * simulates the same inputs, so its simulated statistics must be
 * bit-identical to the first pass's (checked through a digest); host
 * times are reported as the median over passes. With --trace 1, odd
 * passes record spans around each public call into the simulator's
 * layers and the run reports per-layer metrics, span self times and
 * the tracing overhead (traced minus untraced pass time).
 *
 * The last stdout line is one JSON object:
 *   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
 * preceded by one "perfbench" JSON line with the resolved settings and
 * the simulated-results digest. See README.md in this directory.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "geom/simd.hh"
#include "service/service.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/ticked.hh"
#include "spans.hh"
#include "workloads/nbody_workload.hh"
#include "workloads/rtnn_workload.hh"

namespace perfbench {
namespace {

using namespace ::tta;
using namespace ::tta::service;
using ::tta::workloads::RunMetrics;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

constexpr uint32_t kMinPasses = 3;

// Workload sizes. Each pass is a few seconds of host time, long enough
// that one pass's host noise is a small share of it, short enough that
// a run's median covers several passes (README.md, "Host noise").
// rtnn sums several small scans: one scan's simulated work depends on
// how dense its few object clusters happen to be, and the sum over
// independent scans varies far less from seed to seed.
constexpr uint32_t kRtnnScans = 4;
constexpr size_t kRtnnPoints = 65536;
constexpr size_t kRtnnQueries = 512; //!< per scan
constexpr size_t kNBodyBodies = 3072;
// svc-fleet-d4: BENCH_10's locality fleet (six 1M-key B-Tree tenants
// plus a cheap latency-sensitive lane) at maxBatch 512 on 4 devices.
constexpr uint32_t kSvcDevices = 4;
constexpr uint32_t kSvcFleet = 6;
constexpr size_t kSvcFleetKeys = 1000000;
constexpr size_t kSvcLsKeys = kSvcFleetKeys / 16;
constexpr uint64_t kSvcQueries = 60000; //!< arrivals per rate
constexpr uint32_t kSvcMaxBatch = 512;
constexpr sim::Cycle kSvcMaxWait = 50000;
// Open-loop Poisson mean gaps in simulated cycles, fixed once (not
// re-probed per run) so a model change moves latency, not the offered
// load. BENCH_10 measured ~630k qpmc closed-loop capacity for this
// fleet at 4 devices (a 1.6-cycle gap): light offers ~1/3 of it,
// overload ~1.5x.
constexpr double kLightGap = 4.8;
constexpr double kOverloadGap = 1.05;

// ---------------------------------------------------------------------
// Small helpers

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** FNV-1a over the simulated results of a pass. */
class Digest
{
  public:
    void
    bytes(const void *data, size_t n)
    {
        auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= p[i];
            h_ *= 0x100000001b3ull;
        }
    }
    void str(const std::string &s) { bytes(s.data(), s.size() + 1); }
    void u64(uint64_t v) { bytes(&v, sizeof(v)); }
    void f64(double v) { bytes(&v, sizeof(v)); }

    /** Every counter and scalar of @p stats, in name order. */
    void
    registry(const sim::StatRegistry &stats)
    {
        for (const auto &[name, c] : stats.counters()) {
            str(name);
            u64(c.value());
        }
        for (const auto &[name, s] : stats.scalars()) {
            str(name);
            f64(s.value());
        }
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
peakRssMiB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

sim::Config
modeConfig(sim::AccelMode mode)
{
    sim::Config cfg;
    cfg.accelMode = mode;
    return cfg;
}

// ---------------------------------------------------------------------
// One pass

/**
 * Result of one pass. Host times are per pass; everything else is
 * simulated and must repeat exactly across passes of one seed.
 */
struct PassResult
{
    double setupS = 0.0;
    double runS = 0.0;
    std::map<std::string, double> sim; //!< simulated metrics
    uint64_t digest = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::string failure; //!< a check that failed, empty = none
};

/** Times the pass roots (always) and records spans (when enabled). */
class Pass
{
  public:
    Pass(SpanRecorder &rec, uint32_t id) : rec_(rec), id_(id) {}

    template <class Fn>
    void setup(Fn &&fn) { root("setup", res.setupS, fn); }
    template <class Fn>
    void run(Fn &&fn) { root("run", res.runS, fn); }

    /** Span around one public call of a layer. */
    template <class Fn>
    auto
    call(const std::string &name, Fn &&fn)
    {
        return rec_.time(name, id_, std::forward<Fn>(fn));
    }

    PassResult res;

  private:
    /** A traced root takes its time from its span, so the pass's
     *  setup + run equal the sum of its spans' self times exactly. */
    template <class Fn>
    void
    root(const char *name, double &acc, Fn &fn)
    {
        double t0 = rec_.now();
        int span = rec_.open(name, id_);
        fn();
        rec_.close(span);
        acc += span < 0 ? rec_.now() - t0
                        : rec_.spans()[span].end - rec_.spans()[span].start;
    }

    SpanRecorder &rec_;
    uint32_t id_;
};

/** Simulated metrics of the SIMT cores (gpu layer). */
void
gpuMetrics(PassResult &r, const sim::StatRegistry &s)
{
    auto c = [&](const char *n) {
        return static_cast<double>(s.counterValue(n));
    };
    r.sim["gpu.warp_insts"] = c("core.issued");
    r.sim["gpu.simt_efficiency"] =
        ratio(c("core.active_lane_sum"), 32.0 * c("core.issued"));
    r.sim["gpu.stall_mem_cycles"] = c("core.stall_mem");
    r.sim["gpu.stall_accel_cycles"] = c("core.stall_accel");
    r.sim["gpu.stall_issue_cycles"] = c("core.stall_issue");
}

/** Simulated metrics of memory, RTA and TTA+ (mem, rta, ttaplus). */
void
accelMetrics(PassResult &r, const sim::StatRegistry &s, double dram_util)
{
    auto c = [&](const char *n) {
        return static_cast<double>(s.counterValue(n));
    };
    r.sim["mem.l2_hits"] = c("l2.hits");
    r.sim["mem.l2_misses"] = c("l2.misses");
    r.sim["mem.l2_hit_rate"] =
        ratio(c("l2.hits"), c("l2.hits") + c("l2.misses"));
    r.sim["mem.dram_bytes"] = c("dram.bytes_read") + c("dram.bytes_written");
    r.sim["mem.dram_util"] = dram_util;
    r.sim["rta.nodes_visited"] = c("rta.nodes_visited");
    r.sim["rta.node_bytes_fetched"] = c("rta.node_bytes_fetched");
    r.sim["rta.bytes_per_node"] =
        ratio(c("rta.node_bytes_fetched"), c("rta.nodes_visited"));
    r.sim["rta.prefetches"] = c("rta.prefetches");
    r.sim["ttaplus.uops"] = c("ttaplus.uops");
    r.sim["ttaplus.tests"] = c("ttaplus.tests");
    r.sim["ttaplus.uops_per_test"] =
        ratio(c("ttaplus.uops"), c("ttaplus.tests"));
    r.sim["api.slot_switches"] = c("api.slot_switches");
}

/**
 * One pass of a batch workload: build @p scans independent inputs, then
 * run the baseline SIMT pass and the accelerated pass over each. The
 * workloads' run calls construct the device, serialize the tree,
 * simulate and verify (a mismatch panics, so a failed pass exits
 * non-zero); from outside each is one span.
 */
template <class W, class Build, class Accel>
PassResult
batchPass(SpanRecorder &rec, uint32_t id, uint32_t scans,
          uint64_t queries, Build build, Accel accel)
{
    Pass p(rec, id);
    std::vector<std::unique_ptr<W>> wls(scans);
    p.setup([&] {
        for (uint32_t k = 0; k < scans; ++k)
            p.call("trees.build", [&] { wls[k] = build(k); });
    });
    sim::StatRegistry bsum, asum;
    double bcycles = 0, acycles = 0, dramBusy = 0;
    Digest d;
    p.run([&] {
        for (auto &wl : wls) {
            sim::StatRegistry bs, as;
            RunMetrics base = p.call("sim.baseline", [&] {
                return wl->runBaseline(
                    modeConfig(sim::AccelMode::BaselineGpu), bs);
            });
            RunMetrics acc =
                p.call("sim.accel", [&] { return accel(*wl, as); });
            p.call("trees.teardown", [&] { wl.reset(); });
            d.registry(bs);
            d.u64(base.cycles);
            d.registry(as);
            d.u64(acc.cycles);
            bsum.absorb(bs);
            asum.absorb(as);
            bcycles += static_cast<double>(base.cycles);
            acycles += static_cast<double>(acc.cycles);
            dramBusy += acc.dramUtilization * static_cast<double>(acc.cycles);
        }
    });
    PassResult &r = p.res;
    r.digest = d.value();
    r.sim["sim_cycles"] = acycles;
    r.sim["sim.baseline_cycles"] = bcycles;
    r.sim["tta_speedup"] = ratio(bcycles, acycles);
    r.sim["sim.device_cycles"] = bcycles + acycles;
    gpuMetrics(r, bsum);
    accelMetrics(r, asum, ratio(dramBusy, acycles));
    r.attempted = 2 * queries * scans; // both passes verify every query
    return p.res;
}

// ---------------------------------------------------------------------
// Workloads

/** rtnn: RTNN radius search over several scans, baseline SIMT vs TTA. */
PassResult
rtnnPass(uint64_t seed, SpanRecorder &rec, uint32_t id)
{
    return batchPass<workloads::RtnnWorkload>(
        rec, id, kRtnnScans, kRtnnQueries,
        [&](uint32_t k) {
            return std::make_unique<workloads::RtnnWorkload>(
                kRtnnPoints, kRtnnQueries, 1.0f, splitmix64(seed + k));
        },
        [](workloads::RtnnWorkload &wl, sim::StatRegistry &stats) {
            return wl.runAccelerated(modeConfig(sim::AccelMode::Tta), stats,
                                     /*offload_leaf=*/false);
        });
}

/** nbody3d: Barnes-Hut 3D, baseline SIMT vs TTA+ with fused integration. */
PassResult
nbodyPass(uint64_t seed, SpanRecorder &rec, uint32_t id)
{
    return batchPass<workloads::NBodyWorkload>(
        rec, id, 1, kNBodyBodies,
        [&](uint32_t) {
            return std::make_unique<workloads::NBodyWorkload>(
                3, kNBodyBodies, seed);
        },
        [](workloads::NBodyWorkload &wl, sim::StatRegistry &stats) {
            return wl.runAccelerated(modeConfig(sim::AccelMode::TtaPlus),
                                     stats, /*fused=*/true);
        });
}

/** Simulated metrics of one service run at one rate. */
void
serviceMetrics(PassResult &r, const std::string &rate,
               const ServiceReport &rep, const sim::Config &cfg)
{
    const std::string pre = "service." + rate + ".";
    double mhz = cfg.coreClockMhz;
    const ClassReport &ls =
        rep.classes[static_cast<uint32_t>(SloClass::LatencySensitive)];
    const ClassReport &tp =
        rep.classes[static_cast<uint32_t>(SloClass::Throughput)];
    auto pct = [&](const std::string &name, const LatencyHistogram &h,
                   double q) {
        // The percentile guard: a percentile with fewer than ten
        // samples beyond it is not reported, and the run fails.
        if (!percentileSupported(h.count(), q)) {
            r.failure = name + ": only " +
                        std::to_string(samplesBeyond(h.count(), q)) +
                        " samples beyond the percentile";
            return;
        }
        r.sim[pre + name] = cyclesToUs(h.percentile(q), mhz);
    };
    pct("lat_p50_us", rep.latency, 50);
    pct("lat_p99_us", rep.latency, 99);
    pct("ls_lat_p99_us", ls.latency, 99);
    pct("ls_queue_wait_p99_us", ls.queueWait, 99);
    pct("tp_queue_wait_p99_us", tp.queueWait, 99);
    r.sim[pre + "lat_samples"] = static_cast<double>(rep.latency.count());
    r.sim[pre + "ls_samples"] = static_cast<double>(ls.latency.count());
    r.sim[pre + "tp_samples"] = static_cast<double>(tp.latency.count());
    r.sim[pre + "throughput_qpmc"] = rep.throughputQpmc();
    r.sim[pre + "makespan_cycles"] = static_cast<double>(rep.makespan);
    r.sim[pre + "batches"] = static_cast<double>(rep.batches);
    r.sim[pre + "mean_batch_size"] = ratio(rep.completed, rep.batches);
    r.sim[pre + "expired_frac"] =
        ratio(rep.expiredDispatches, rep.batches);
    r.sim[pre + "steals"] = static_cast<double>(rep.steals);
    r.sim[pre + "device_busy_frac"] =
        ratio(rep.deviceBusy, static_cast<double>(rep.makespan) *
                                  rep.devices.size());

    uint64_t soft = 0;
    for (const TenantReport &t : rep.tenants)
        soft += t.verifySoftMismatches;
    r.attempted += rep.submitted;
    r.failed += soft + (rep.submitted - rep.completed);
}

/** svc-fleet-d4: TraversalService on 4 devices, light and overload. */
PassResult
svcPass(uint64_t seed, SpanRecorder &rec, uint32_t id)
{
    Pass p(rec, id);
    const sim::Config cfg = modeConfig(sim::AccelMode::Tta);
    ServicePolicy policy;
    policy.maxBatch = kSvcMaxBatch;
    policy.maxWaitCycles = kSvcMaxWait;
    policy.lsMaxWaitCycles = kSvcMaxWait / 5;
    policy.numDevices = kSvcDevices;
    policy.pipelinedStaging = false; // serial staging: one host thread
    policy.sched = SchedPolicy::Full;

    // Tenant data is shared through the WorkloadCache: the overload
    // service reuses the trees the light service built.
    auto cache = std::make_unique<bench::WorkloadCache>(true);
    Digest digest;
    sim::StatRegistry total; //!< both rates, every device
    double deviceCycles = 0;
    struct Rate
    {
        const char *name;
        double gap;
    };
    for (const Rate &rate : {Rate{"light", kLightGap},
                             Rate{"overload", kOverloadGap}}) {
        sim::StatRegistry stats;
        std::unique_ptr<TraversalService> svc;
        std::unique_ptr<TrafficGen> gen;
        p.setup([&] {
            std::vector<std::shared_ptr<const BTreeTenantData>> data;
            p.call("trees.build", [&] {
                data.push_back(cache->getShared<BTreeTenantData>(
                    "ls", [&] {
                        return BTreeTenantData::build(kSvcLsKeys, 8192,
                                                      seed);
                    }));
                for (uint32_t i = 0; i < kSvcFleet; ++i)
                    data.push_back(cache->getShared<BTreeTenantData>(
                        "fleet" + std::to_string(i), [&] {
                            return BTreeTenantData::build(
                                kSvcFleetKeys, 4096, seed + 1 + 17 * i);
                        }));
            });
            p.call("api.device_construct", [&] {
                svc = std::make_unique<TraversalService>(cfg, stats,
                                                         policy);
            });
            p.call("workloads.serialize", [&] {
                svc->addTenant(std::make_unique<BTreeTenant>("ls", data[0]),
                               SloClass::LatencySensitive);
                for (uint32_t i = 0; i < kSvcFleet; ++i)
                    svc->addTenant(std::make_unique<BTreeTenant>(
                        "fleet" + std::to_string(i), data[1 + i]));
            });
            TrafficConfig tc;
            tc.process = ArrivalProcess::Poisson;
            tc.totalQueries = kSvcQueries;
            tc.meanGapCycles = rate.gap;
            tc.tenantWeights.assign(1 + kSvcFleet, 0.90 / kSvcFleet);
            tc.tenantWeights[0] = 0.10;
            gen = std::make_unique<TrafficGen>(tc, svc->numTenants(),
                                               splitmix64(seed ^ 0x5ec));
        });
        ServiceReport rep;
        p.run([&] {
            rep = p.call("sim.service", [&] { return svc->run(*gen); });
            p.call("api.device_teardown", [&] { svc.reset(); });
        });
        serviceMetrics(p.res, rate.name, rep, cfg);
        total.absorb(stats);
        deviceCycles += static_cast<double>(rep.deviceBusy);
        digest.registry(stats);
        digest.str(rep.batchLog);
        for (const DeviceReport &d : rep.devices)
            digest.str(d.batchLog);
        digest.str(rep.stealLog);
    }
    auto &m = p.res.sim;
    // 2 services x (1 + fleet) tenant-data lookups; the second service
    // finds every tree the first one built.
    m["workloads.cache_hit_frac"] =
        ratio(static_cast<double>(cache->hits()),
              static_cast<double>(cache->lookups()));
    p.run([&] { p.call("trees.teardown", [&] { cache.reset(); }); });

    m["sim_cycles"] = m["service.overload.makespan_cycles"];
    m["sim.device_cycles"] = deviceCycles;
    gpuMetrics(p.res, total);
    // Each device's clock advances only while it serves a batch, so its
    // busy cycles are the cycles its DRAM channels could have used.
    accelMetrics(p.res, total,
                 ratio(total.scalarValue("dram.busy_cycles"),
                       deviceCycles * cfg.dramChannels));
    p.res.digest = digest.value();
    return p.res;
}

// ---------------------------------------------------------------------
// Metric catalogue

struct Metric
{
    const char *name;
    const char *unit;
};

const Metric kHostLayer[] = {
    {"trees.build_s", "s"},
    {"trees.teardown_s", "s"},
    {"api.device_construct_s", "s"},
    {"api.device_teardown_s", "s"},
    {"workloads.serialize_s", "s"},
    {"sim.baseline_s", "s"},
    {"sim.accel_s", "s"},
    {"sim.service_s", "s"},
    {"bench.self_s", "s"},
    {"sim.cycles_per_s", "cycles/s"},
    {"gpu.host_ns_per_warp_inst", "ns"},
    {"trace.traced_s", "s"},
    {"trace.untraced_s", "s"},
    {"trace.overhead_s", "s"},
};

const Metric kSimLayer[] = {
    {"fail_frac", "ratio"},
    {"sim_cycles", "cycles"},
    {"sim.baseline_cycles", "cycles"},
    {"tta_speedup", "x"},
    {"sim.skipped_cycle_frac", "ratio"},
    {"workloads.cache_hit_frac", "ratio"},
    {"api.slot_switches", "count"},
    {"gpu.warp_insts", "count"},
    {"gpu.simt_efficiency", "ratio"},
    {"gpu.stall_mem_cycles", "cycles"},
    {"gpu.stall_accel_cycles", "cycles"},
    {"gpu.stall_issue_cycles", "cycles"},
    {"mem.l2_hits", "count"},
    {"mem.l2_misses", "count"},
    {"mem.l2_hit_rate", "ratio"},
    {"mem.dram_bytes", "bytes"},
    {"mem.dram_util", "ratio"},
    {"rta.nodes_visited", "count"},
    {"rta.node_bytes_fetched", "bytes"},
    {"rta.bytes_per_node", "bytes"},
    {"rta.prefetches", "count"},
    {"ttaplus.uops", "count"},
    {"ttaplus.tests", "count"},
    {"ttaplus.uops_per_test", "ratio"},
};

const Metric kServiceRate[] = {
    {"throughput_qpmc", "q/Mcycle"},
    {"lat_p50_us", "us"},
    {"lat_p99_us", "us"},
    {"ls_lat_p99_us", "us"},
    {"ls_queue_wait_p99_us", "us"},
    {"tp_queue_wait_p99_us", "us"},
    {"lat_samples", "count"},
    {"ls_samples", "count"},
    {"tp_samples", "count"},
    {"batches", "count"},
    {"mean_batch_size", "count"},
    {"expired_frac", "ratio"},
    {"steals", "count"},
    {"device_busy_frac", "ratio"},
};

const char *const kRates[] = {"light", "overload"};

// ---------------------------------------------------------------------
// Command line

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string traceOut;
};

using PassFn = PassResult (*)(uint64_t, SpanRecorder &, uint32_t);

struct WorkloadDef
{
    const char *name;
    PassFn pass;
    uint64_t salt; //!< per-workload seed stream
};

const WorkloadDef kWorkloads[] = {
    {"rtnn", rtnnPass, 0x7274},
    {"nbody3d", nbodyPass, 0x6e62},
    {"svc-fleet-d4", svcPass, 0x7376},
};

struct Outcome
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics; //!< name -> (value, unit), in print order
    std::string info; //!< the "perfbench" settings/digest JSON
};

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

Outcome
runWorkload(const WorkloadDef &wd, const Options &opt, SpanRecorder &rec)
{
    Outcome out;
    // The program receives a seed derived from --seed per workload; the
    // workload generators turn it into the inputs.
    const uint64_t seed = splitmix64(opt.seed ^ wd.salt) & 0xffffffffull;
    std::vector<PassResult> passes;
    std::vector<bool> traced;
    auto t0 = SpanRecorder::Clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(SpanRecorder::Clock::now() -
                                             t0)
            .count();
    };
    // A pass starts only if it is expected (from the last pass) to end
    // within --seconds, so a run measures at most that long once it has
    // its minimum passes.
    double last = 0.0;
    while (passes.size() < kMinPasses || elapsed() + last <= opt.seconds) {
        double start = elapsed();
        // Traced runs alternate untraced (even) and traced (odd)
        // passes so the overhead is measured within one process.
        bool on = opt.trace == 1 && passes.size() % 2 == 1;
        rec.setEnabled(on);
        sim::SchedulerTelemetry::reset();
        passes.push_back(
            wd.pass(seed, rec, static_cast<uint32_t>(passes.size())));
        passes.back().sim["sim.skipped_cycle_frac"] =
            sim::SchedulerTelemetry::skippedFraction();
        traced.push_back(on);
        last = elapsed() - start;
        if (!passes.back().failure.empty())
            break;
    }
    rec.setEnabled(false);

    const PassResult &ref = passes.front();
    std::vector<double> setup, run, tracedTotal, untracedTotal;
    for (size_t i = 0; i < passes.size(); ++i) {
        const PassResult &p = passes[i];
        out.attempted += p.attempted;
        out.failed += p.failed;
        if (!p.failure.empty()) {
            std::fprintf(stderr, "perfbench: %s pass %zu: %s\n", wd.name,
                         i, p.failure.c_str());
            out.correct = false;
        }
        if (p.digest != ref.digest || p.sim != ref.sim) {
            std::fprintf(stderr,
                         "perfbench: %s pass %zu simulated results differ "
                         "from pass 0 (digest %s vs %s)\n",
                         wd.name, i, hex64(p.digest).c_str(),
                         hex64(ref.digest).c_str());
            out.correct = false;
        }
        setup.push_back(p.setupS);
        run.push_back(p.runS);
        (traced[i] ? tracedTotal : untracedTotal)
            .push_back(p.setupS + p.runS);
    }
    if (out.failed)
        out.correct = false;

    auto add = [&](const std::string &name, double v, const char *unit) {
        out.metrics.push_back({name, {v, unit}});
    };
    auto sim = [&](const std::string &name) {
        auto it = ref.sim.find(name);
        return it == ref.sim.end() ? 0.0 : it->second;
    };

    if (opt.trace == 1 && tracedTotal.empty()) {
        std::fprintf(stderr, "perfbench: %s: no traced pass\n", wd.name);
        out.correct = false;
    } else if (opt.trace == 0) {
        add("setup_s", median(setup), "s");
        add("run_s", median(run), "s");
        add("peak_rss_mb", peakRssMiB(), "MiB");
    } else {
        // Per-layer host times come from the traced pass with the
        // median total, so its span self times add back up to that
        // pass's setup + run exactly.
        std::vector<std::pair<double, uint32_t>> byTotal;
        for (size_t i = 0; i < passes.size(); ++i)
            if (traced[i])
                byTotal.push_back({passes[i].setupS + passes[i].runS,
                                   static_cast<uint32_t>(i)});
        std::sort(byTotal.begin(), byTotal.end());
        uint32_t mid = byTotal[(byTotal.size() - 1) / 2].second;
        std::map<std::string, double> self = selfTimes(rec.spans(), mid);
        double selfSum = 0.0;
        for (const auto &[name, s] : self)
            selfSum += s;
        double total = passes[mid].setupS + passes[mid].runS;
        if (std::fabs(selfSum - total) > 1e-9 * std::max(1.0, total)) {
            std::fprintf(stderr,
                         "perfbench: span self times (%.9f s) do not add "
                         "up to setup + run (%.9f s)\n",
                         selfSum, total);
            out.correct = false;
        }
        auto selfOf = [&](const char *name) {
            auto it = self.find(name);
            return it == self.end() ? 0.0 : it->second;
        };
        std::map<std::string, double> host;
        for (const char *name :
             {"trees.build", "trees.teardown", "api.device_construct",
              "api.device_teardown", "workloads.serialize",
              "sim.baseline", "sim.accel", "sim.service"})
            host[std::string(name) + "_s"] = selfOf(name);
        host["bench.self_s"] = selfOf("setup") + selfOf("run");
        double simS = host["sim.baseline_s"] + host["sim.accel_s"] +
                      host["sim.service_s"];
        host["sim.cycles_per_s"] = ratio(sim("sim.device_cycles"), simS);
        // Host cost of one simulated warp instruction of the baseline
        // SIMT pass (0 on svc-fleet-d4, which has none).
        host["gpu.host_ns_per_warp_inst"] =
            host["sim.baseline_s"] > 0
                ? ratio(host["sim.baseline_s"] * 1e9, sim("gpu.warp_insts"))
                : 0.0;
        // The traced total is the reported pass's, so it equals the sum
        // of the span self times above; the untraced side takes the
        // same (lower) median.
        std::sort(untracedTotal.begin(), untracedTotal.end());
        host["trace.traced_s"] = total;
        host["trace.untraced_s"] =
            untracedTotal[(untracedTotal.size() - 1) / 2];
        host["trace.overhead_s"] =
            host["trace.traced_s"] - host["trace.untraced_s"];
        for (const Metric &m : kHostLayer)
            add(m.name, host[m.name], m.unit);
        for (const Metric &m : kSimLayer) {
            double v = std::string(m.name) == "fail_frac"
                           ? ratio(out.failed, out.attempted)
                           : sim(m.name);
            add(m.name, v, m.unit);
        }
        for (const char *rate : kRates)
            for (const Metric &m : kServiceRate) {
                std::string name =
                    std::string("service.") + rate + "." + m.name;
                add(name, sim(name), m.unit);
            }
    }

    auto list = [](const std::vector<double> &v) {
        std::string s = "[";
        for (size_t i = 0; i < v.size(); ++i) {
            if (i)
                s += ',';
            s += jsonNumber(v[i]);
        }
        return s + "]";
    };
    out.info = std::string("{\"workload\":\"") + wd.name +
               "\",\"seed\":" + std::to_string(opt.seed) +
               ",\"workload_seed\":" + std::to_string(seed) +
               ",\"digest\":\"" + hex64(ref.digest) +
               "\",\"passes\":" + std::to_string(passes.size()) +
               ",\"traced_passes\":" + std::to_string(tracedTotal.size()) +
               ",\"pass_setup_s\":" + list(setup) +
               ",\"pass_run_s\":" + list(run) + ",\"sim\":{";
    for (auto it = ref.sim.begin(); it != ref.sim.end(); ++it)
        out.info += (it == ref.sim.begin() ? "\"" : ",\"") + it->first +
                    "\":" + jsonNumber(it->second);
    out.info += "}}";
    return out;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], val = argv[i + 1];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = val;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
            if (*end || val.empty())
                return false;
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
            if (*end || val.empty() || !(opt.seconds >= 0.0))
                return false;
        } else if (flag == "--trace") {
            if (val != "0" && val != "1")
                return false;
            opt.trace = val == "1";
        } else if (flag == "--trace-out") {
            opt.traceOut = val;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && !opt.workload.empty() && opt.trace >= 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload rtnn|nbody3d|svc-fleet-d4|"
                 "all --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 64;
}

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return usage();
    std::vector<const WorkloadDef *> selected;
    for (const WorkloadDef &wd : kWorkloads)
        if (opt.workload == "all" || opt.workload == wd.name)
            selected.push_back(&wd);
    if (selected.empty())
        return usage();

#if !defined(__OPTIMIZE__)
    std::fprintf(stderr, "perfbench: refusing an unoptimized build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0) {
        std::fprintf(stderr, "perfbench: refusing a Debug build\n");
        return 2;
    }

    // Pin what is measured: the event kernel on one simulation thread,
    // whatever TTA_SIM_KERNEL / TTA_SIM_THREADS / TTA_SIM_EPOCH say.
    // The service policy below fixes serial staging and the full
    // scheduler, so TTA_SCHED is never consulted.
    sim::Simulator::setDefaultKernel(sim::Simulator::Kernel::EventDriven);
    sim::Simulator::setDefaultSimThreads(1);
    sim::Simulator::setDefaultSimEpoch(0);
    long nproc = sysconf(_SC_NPROCESSORS_ONLN);

    SpanRecorder rec(false);
    Outcome total;
    for (const WorkloadDef *wd : selected) {
        Outcome o;
        try {
            o = runWorkload(*wd, opt, rec);
        } catch (const sim::FatalError &e) {
            std::fprintf(stderr, "perfbench: %s failed: %s\n", wd->name,
                         e.what());
            return 1;
        }
        std::printf("{\"perfbench\":{\"build_type\":\"%s\",\"simd\":\"%s\","
                    "\"nproc\":%ld,\"kernel\":\"event\",\"sim_threads\":1,"
                    "\"staging\":\"serial\",\"sched\":\"full\","
                    "\"seconds\":%s,\"trace\":%d,\"run\":%s}}\n",
                    PERFBENCH_BUILD_TYPE, geom::simdBackendName(), nproc,
                    jsonNumber(opt.seconds).c_str(), opt.trace,
                    o.info.c_str());
        total.correct = total.correct && o.correct;
        total.attempted += o.attempted;
        total.failed += o.failed;
        for (auto &m : o.metrics) {
            if (selected.size() > 1)
                m.first = std::string(wd->name) + "/" + m.first;
            total.metrics.push_back(m);
        }
    }

    if (opt.trace == 1) {
        std::string path = opt.traceOut.empty()
                               ? "perfbench-trace-" + opt.workload + ".json"
                               : opt.traceOut;
        std::ofstream os(path);
        rec.writeChromeTrace(os);
        if (!os) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
            total.correct = false;
        }
    }

    std::string json = std::string("{\"correct\": ") +
                       (total.correct ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(total.attempted) +
                       ", \"failed\": " + std::to_string(total.failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < total.metrics.size(); ++i) {
        const auto &[name, vu] = total.metrics[i];
        json += (i ? ", \"" : "\"") + name + "\": {\"value\": " +
                jsonNumber(vu.first) + ", \"unit\": \"" + vu.second +
                "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return total.correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::main(argc, argv);
}
