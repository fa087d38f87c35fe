/**
 * @file
 * Host-time spans and the percentile guard of the perfbench program.
 *
 * A span records one public call into a layer of the simulator (trees,
 * api, workloads, sim, service), timed from outside with a steady
 * clock: name, start, end, parent span and the benchmark pass it
 * belongs to. Spans stay in memory and are written once, at exit, as a
 * Chrome trace-event file. A disabled recorder records nothing; the
 * pass roots are timed by the caller either way, so traced and
 * untraced passes measure the same setup/run totals.
 */
#ifndef TTA_PERFBENCH_SPANS_HH
#define TTA_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <iomanip>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    std::string name;
    double start = 0.0; //!< seconds since the recorder's origin
    double end = 0.0;
    int parent = -1;    //!< index into the recorder's spans; -1 = root
    uint32_t pass = 0;
};

class SpanRecorder
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit SpanRecorder(bool enabled)
        : enabled_(enabled), origin_(Clock::now())
    {}

    void setEnabled(bool on) { enabled_ = on; }
    const std::vector<Span> &spans() const { return spans_; }

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_)
            .count();
    }

    /** Open a span nested in the innermost open one; -1 when off. */
    int
    open(const std::string &name, uint32_t pass)
    {
        if (!enabled_)
            return -1;
        int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({name, now(), 0.0, parent, pass});
        open_.push_back(static_cast<int>(spans_.size() - 1));
        return open_.back();
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans_[id].end = now();
        open_.pop_back();
    }

    /** Time @p fn as span @p name; returns what @p fn returns. */
    template <class Fn>
    auto
    time(const std::string &name, uint32_t pass, Fn &&fn)
    {
        struct Closer
        {
            SpanRecorder &rec;
            int id;
            ~Closer() { rec.close(id); }
        } closer{*this, open(name, pass)};
        return fn();
    }

    /** Chrome trace-event JSON ("X" complete events, microseconds). */
    void
    writeChromeTrace(std::ostream &os) const
    {
        os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
               << s.start * 1e6 << ",\"dur\":" << (s.end - s.start) * 1e6
               << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
               << ",\"pass\":" << s.pass << "}}";
        }
        os << "\n]}\n";
    }

  private:
    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_; //!< stack of open span indices
};

/**
 * Self time per span name over the spans of @p pass: each span's
 * duration minus the part its direct children cover. Children are
 * nested and sequential (one thread), so the self times of a pass add
 * back up exactly to the durations of its root spans.
 */
inline std::map<std::string, double>
selfTimes(const std::vector<Span> &spans, uint32_t pass)
{
    std::vector<double> self(spans.size(), 0.0);
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].pass != pass)
            continue;
        double dur = spans[i].end - spans[i].start;
        self[i] += dur;
        if (spans[i].parent >= 0)
            self[spans[i].parent] -= dur;
    }
    std::map<std::string, double> byName;
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].pass == pass)
            byName[spans[i].name] += self[i];
    return byName;
}

/**
 * Samples that lie beyond the nearest-rank @p p-th percentile of @p n
 * samples, with the integer rank LatencyHistogram::percentile uses
 * (ceil(p/100 * n), p in thousandths so p99 and p999 carry no FP drift).
 */
inline uint64_t
samplesBeyond(uint64_t n, double p)
{
    if (n == 0)
        return 0;
    auto milli = static_cast<uint64_t>(p * 1000.0 + 0.5);
    uint64_t rank = (milli * n + 99999) / 100000;
    if (rank < 1)
        rank = 1;
    return rank >= n ? 0 : n - rank;
}

/** A percentile is reported only with at least ten samples beyond it. */
inline bool
percentileSupported(uint64_t n, double p)
{
    return samplesBeyond(n, p) >= 10;
}

} // namespace perfbench

#endif // TTA_PERFBENCH_SPANS_HH
