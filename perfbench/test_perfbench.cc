/**
 * @file
 * Unit tests of perfbench's own arithmetic: the percentile guard and
 * span self time. Build and run from the benchmark's build directory:
 *
 *   cmake --build .bench_build/perfbench --target perfbench_test
 *   ctest --test-dir .bench_build/perfbench
 */
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "service/latency.hh"
#include "spans.hh"

namespace {

int failures = 0;

#define CHECK(cond)                                                         \
    do {                                                                    \
        if (!(cond)) {                                                      \
            std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__,      \
                         __LINE__, #cond);                                  \
            ++failures;                                                     \
        }                                                                   \
    } while (0)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

void
percentileGuardBoundaries()
{
    using perfbench::percentileSupported;
    using perfbench::samplesBeyond;
    // p99 needs n - ceil(0.99 n) >= 10, i.e. n >= 1000.
    CHECK(samplesBeyond(1000, 99) == 10);
    CHECK(percentileSupported(1000, 99));
    CHECK(samplesBeyond(999, 99) == 9);
    CHECK(!percentileSupported(999, 99));
    // p50 needs n >= 20.
    CHECK(percentileSupported(20, 50));
    CHECK(!percentileSupported(19, 50));
    // p99.9 needs n >= 10000.
    CHECK(percentileSupported(10000, 99.9));
    CHECK(!percentileSupported(9999, 99.9));
    // Degenerate inputs report nothing beyond.
    CHECK(samplesBeyond(0, 50) == 0);
    CHECK(samplesBeyond(1, 50) == 0);
    CHECK(samplesBeyond(5, 100) == 0);
}

/** The guard's rank is the one LatencyHistogram::percentile reports. */
void
percentileGuardMatchesHistogramRank()
{
    for (uint64_t n : {20ull, 999ull, 1000ull, 1001ull, 4321ull}) {
        for (double p : {50.0, 99.0, 99.9}) {
            tta::service::LatencyHistogram h;
            // Samples 1..n are exact in the histogram's low buckets only
            // up to its sub-bucket resolution, so probe with small
            // distinct values: the sample at the guard's rank is the
            // percentile.
            for (uint64_t v = 1; v <= n; ++v)
                h.record(v < 32 ? v : 32);
            uint64_t beyond = perfbench::samplesBeyond(n, p);
            uint64_t rank = n - beyond;
            uint64_t expect = rank < 32 ? rank : 32;
            CHECK(h.percentile(p) == expect);
        }
    }
}

void
selfTimeNested()
{
    using perfbench::Span;
    // pass 0: setup [0,1] > build [0.1,0.6]
    //         run   [1,4] > sim [1.5,3.5] > inner [2,3]
    //                     > verify [3.6,3.9]
    // pass 1: one root, excluded from pass 0's sums
    std::vector<Span> spans = {
        {"setup", 0.0, 1.0, -1, 0},   {"trees.build", 0.1, 0.6, 0, 0},
        {"run", 1.0, 4.0, -1, 0},     {"sim", 1.5, 3.5, 2, 0},
        {"inner", 2.0, 3.0, 3, 0},    {"verify", 3.6, 3.9, 2, 0},
        {"run", 10.0, 17.0, -1, 1},
    };
    auto self = perfbench::selfTimes(spans, 0);
    CHECK(near(self["setup"], 0.5));
    CHECK(near(self["trees.build"], 0.5));
    CHECK(near(self["run"], 3.0 - 2.0 - 0.3));
    CHECK(near(self["sim"], 1.0));
    CHECK(near(self["inner"], 1.0));
    CHECK(near(self["verify"], 0.3));
    double sum = 0.0;
    for (const auto &[name, s] : self)
        sum += s;
    CHECK(near(sum, 4.0)); // the two roots, setup + run
    CHECK(near(perfbench::selfTimes(spans, 1)["run"], 7.0));
}

void
selfTimeSumsRepeatedNames()
{
    using perfbench::Span;
    // Two setup roots in one pass (the service sets up once per rate).
    std::vector<Span> spans = {
        {"setup", 0.0, 2.0, -1, 3}, {"api.device_construct", 0.5, 1.5, 0, 3},
        {"setup", 5.0, 6.0, -1, 3}, {"api.device_construct", 5.0, 5.75, 2, 3},
    };
    auto self = perfbench::selfTimes(spans, 3);
    CHECK(near(self["api.device_construct"], 1.75));
    CHECK(near(self["setup"], 1.25));
}

void
recorderNestsAndStaysOffWhenDisabled()
{
    perfbench::SpanRecorder rec(true);
    rec.time("run", 0, [&] {
        rec.time("sim", 0, [] {});
        rec.time("verify", 0, [] {});
    });
    const auto &spans = rec.spans();
    CHECK(spans.size() == 3);
    CHECK(spans[0].parent == -1);
    CHECK(spans[1].parent == 0);
    CHECK(spans[2].parent == 0);
    CHECK(spans[1].start >= spans[0].start && spans[1].end <= spans[0].end);
    CHECK(spans[2].start >= spans[1].end);

    rec.setEnabled(false);
    int result = rec.time("off", 1, [] { return 42; });
    CHECK(result == 42);
    CHECK(rec.spans().size() == 3);
}

} // namespace

int
main()
{
    percentileGuardBoundaries();
    percentileGuardMatchesHistogramRank();
    selfTimeNested();
    selfTimeSumsRepeatedNames();
    recorderNestsAndStaysOffWhenDisabled();
    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench_test: all checks passed\n");
    return 0;
}
