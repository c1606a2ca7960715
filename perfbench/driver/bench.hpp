// Shared plumbing of the end-to-end benchmark driver: options, the result
// record, percentiles, peak-memory reads and the span recorder that the
// traced run writes out as a Chrome trace.
//
// The driver measures every layer from outside, through public calls only:
// it times the calls it makes, reads the program's counters from
// simulation_context::metrics(), and in the traced run records its own
// spans around those calls next to the spans the program already emits.
#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <atomic>
#include <chrono>
#include <deque>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "util/trace_export.hpp"

namespace pb {

using steady = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(steady::time_point t0) {
    return std::chrono::duration<double>(steady::now() - t0).count();
}
[[nodiscard]] inline double ms_since(steady::time_point t0) {
    return 1e3 * seconds_since(t0);
}

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".";
};

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 when
/// empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
/// Best-of-repetitions timing.  A workload repeats a few fixed units of
/// work (same inputs, so the same work) all through its run, and keeps for
/// each position inside a unit (a slice of an episode, the n-th run of a
/// campaign) the fastest time any repetition took.
///
/// The virtualised 4-core test host switches between speed states about
/// 1.6x apart, for seconds at a time, and interference from outside the
/// process only ever adds time.  A mean or median over a run follows the
/// share of slow spells in it, which differs from run to run; the best of
/// many repetitions spread over the run is the program's own cost as long
/// as each position meets one fast spell.  A change to the program still
/// moves it, since such a change alters every repetition.
class best_of {
public:
    /// Fold one repetition of unit `unit` (one time per position; a
    /// position not timed in this repetition is HUGE_VAL).
    void add(std::size_t unit, const std::vector<double>& times);
    /// The per-position best times of every unit, concatenated; positions
    /// never timed are left out.
    [[nodiscard]] std::vector<double> values() const;
    /// The fewest repetitions any unit got.
    [[nodiscard]] std::uint64_t min_reps() const;

private:
    std::map<std::size_t, std::vector<double>> best_;
    std::map<std::size_t, std::uint64_t> reps_;
};

/// Peak resident set of this process / of the largest waited-for child, MiB.
[[nodiscard]] double peak_rss_mb_self();
[[nodiscard]] double peak_rss_mb_children();

/// splitmix64 of (seed, index): every generated input derives from the
/// workload seed through this, so one seed always gives the same inputs.
[[nodiscard]] std::uint64_t derive(std::uint64_t seed, std::uint64_t index);
/// Uniform double in [0,1) from a 64-bit hash.
[[nodiscard]] double unit(std::uint64_t h);

// ------------------------------------------------------------ result record --

struct metric {
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;  ///< timings state their sample count
};

/// Everything one run reports.  `e2e` holds user-visible metrics (tracing
/// off), `layer` the per-layer ones, `exact` the deterministic work counts
/// that must repeat bit-for-bit for a fixed seed.
struct record {
    std::map<std::string, metric> e2e;
    std::map<std::string, metric> layer;
    std::map<std::string, std::uint64_t> exact;
    std::map<std::string, std::string> info;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;  ///< first few failure messages
    /// Checks of a known program defect (README.md, "Known program
    /// defects"): run and reported on every run, counted apart from
    /// `failed` until the program is fixed.
    std::uint64_t known_attempted = 0;
    std::uint64_t known_failed = 0;
    std::vector<std::string> known_failures;

    void set_e2e(const std::string& name, double v, const std::string& unit,
                 std::uint64_t samples = 1) {
        e2e[name] = metric{v, unit, samples};
    }
    void set_layer(const std::string& name, double v, const std::string& unit,
                   std::uint64_t samples = 1) {
        layer[name] = metric{v, unit, samples};
    }
    /// Count one failed operation or output check (never hidden: every call
    /// lands in `failed`, the message in `failures` up to a cap).
    void fail(const std::string& what);
    /// Count one operation or check as attempted; `ok` false also fails it.
    void check(bool ok, const std::string& what) {
        ++attempted;
        if (!ok) fail(what);
    }
    void check_known_defect(bool ok, const std::string& what);

    void write_json(std::ostream& os) const;
};

// ------------------------------------------------------------ span recorder --

/// Collects the benchmark's own spans plus the spans harvested from the
/// program's per-context tracers, and writes them as one Chrome trace
/// (ph:"X" complete events, ts/dur in microseconds on a shared clock).
/// Disabled recorders cost one branch per span.
class span_log {
public:
    void enable() { on_.store(true); }
    void disable() { on_.store(false); }
    [[nodiscard]] bool on() const noexcept { return on_.load(std::memory_order_relaxed); }
    /// Forget every span recorded after `mark` (a size() taken earlier):
    /// traced work that only measures overhead stays out of the trace file.
    void rollback(std::size_t mark);

    /// Record a span [start_ns, end_ns) from the calling thread.
    void record(const char* name, const char* cat, std::int64_t start_ns,
                std::int64_t end_ns);
    /// Move every event of a program tracer into the log (the tracer's own
    /// lanes are process-wide thread ids, so lanes stay consistent).
    void harvest(sca::util::event_tracer& tracer);

    [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
    [[nodiscard]] std::size_t size() const;

    /// Write the trace; `overhead_frac` (the traced run's trace.overhead_frac)
    /// goes into otherData beside the dropped count.
    void write_chrome(const std::string& path, double overhead_frac) const;

private:
    std::atomic<bool> on_{false};
    mutable std::mutex mutex_;
    std::deque<sca::util::trace_event> events_;  // no moves on growth
    std::uint64_t dropped_ = 0;
};

/// The driver's one span log (spans from every workload thread land here).
span_log& spans();

/// RAII span around a public call: `span s("scenario.build", "core.scenario");`
class span {
public:
    span(const char* name, const char* cat)
        : name_(name), cat_(cat), t0_(spans().on() ? sca::util::event_tracer::now_ns() : 0) {}
    ~span() {
        if (t0_ != 0) spans().record(name_, cat_, t0_, sca::util::event_tracer::now_ns());
    }
    span(const span&) = delete;
    span& operator=(const span&) = delete;

private:
    const char* name_;
    const char* cat_;
    std::int64_t t0_;
};

// ----------------------------------------------------------- exact counters --

/// The kernel, TDF and solver counters every workload reports exactly.
extern const char* const k_exact_counters[8];

/// Record `counts` (one per k_exact_counters name) as exact counters and
/// per-layer metrics, plus the derived tdf.block_share and
/// solver.symbolic_reuse ratios.
void report_exact(record& rec, const std::map<std::string, std::uint64_t>& counts);

// ------------------------------------------------------------------ set-up --

/// Set-up cost samples: build + elaborate of one bench.  Workloads take
/// many before measuring and more between units of work, cycling over a few
/// fixed inputs, and report the median over inputs of the best repetition
/// (best_of), so the figure covers the whole run rather than one moment.
struct setup_samples {
    best_of total_s, build_ms, elaborate_ms;
    std::uint64_t taken = 0;

    /// Time one scenario build + elaborate of input `unit` with params `p`
    /// (spanned and harvested when tracing is on); the bench is discarded.
    void take(const sca::core::scenario& sc, const sca::core::params& p, std::size_t unit);
    /// setup_s (e2e) and scenario.build_ms / scenario.elaborate_ms (layer).
    void report(record& rec) const;
};

// ---------------------------------------------------------------- workloads --

void run_fig1(const options& opt, record& rec);
void run_sweep(const options& opt, record& rec);
void run_stream(const options& opt, record& rec);

/// Print the inputs a workload generates for `seed` (determinism tests).
void print_fig1_inputs(std::uint64_t seed, std::ostream& os);
void print_sweep_inputs(std::uint64_t seed, std::ostream& os);
void print_stream_inputs(std::uint64_t seed, std::ostream& os);

}  // namespace pb

#endif  // PERFBENCH_BENCH_HPP
