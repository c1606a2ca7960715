#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "core/scenario.hpp"

namespace pb {

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + frac * (v[hi] - v[lo]);
}

void best_of::add(std::size_t unit, const std::vector<double>& times) {
    auto& best = best_[unit];
    if (best.size() < times.size()) best.resize(times.size(), HUGE_VAL);
    for (std::size_t i = 0; i < times.size(); ++i) best[i] = std::min(best[i], times[i]);
    ++reps_[unit];
}

std::vector<double> best_of::values() const {
    std::vector<double> out;
    for (const auto& [unit, best] : best_) {
        for (const double t : best) {
            if (t != HUGE_VAL) out.push_back(t);
        }
    }
    return out;
}

std::uint64_t best_of::min_reps() const {
    std::uint64_t n = 0;
    for (const auto& [unit, reps] : reps_) n = n == 0 ? reps : std::min(n, reps);
    return n;
}

namespace {
double maxrss_mb(int who) {
    rusage ru{};
    if (::getrusage(who, &ru) != 0) return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}
}  // namespace

double peak_rss_mb_self() { return maxrss_mb(RUSAGE_SELF); }
double peak_rss_mb_children() { return maxrss_mb(RUSAGE_CHILDREN); }

std::uint64_t derive(std::uint64_t seed, std::uint64_t index) {
    return sca::core::detail::derive_seed(seed, index);
}

double unit(std::uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

// ------------------------------------------------------------------- record --

void record::fail(const std::string& what) {
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
}

void record::check_known_defect(bool ok, const std::string& what) {
    ++known_attempted;
    if (ok) return;
    ++known_failed;
    if (known_failures.size() < 5) known_failures.push_back(what);
}

namespace {

void json_string(std::ostream& os, const std::string& s) {
    os << '"';
    for (const char c : s) {
        switch (c) {
            case '"': os << "\\\""; break;
            case '\\': os << "\\\\"; break;
            case '\n': os << "\\n"; break;
            case '\t': os << "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    os << buf;
                } else {
                    os << c;
                }
        }
    }
    os << '"';
}

void json_strings(std::ostream& os, const std::vector<std::string>& v) {
    os << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i) os << ", ";
        json_string(os, v[i]);
    }
    os << ']';
}

void json_number(std::ostream& os, double v) {
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os << buf;
}

void json_metrics(std::ostream& os, const std::map<std::string, metric>& m) {
    os << '{';
    bool first = true;
    for (const auto& [name, mv] : m) {
        if (!first) os << ',';
        first = false;
        os << "\n    ";
        json_string(os, name);
        os << ": {\"value\": ";
        json_number(os, mv.value);
        os << ", \"unit\": ";
        json_string(os, mv.unit);
        os << ", \"samples\": " << mv.samples << '}';
    }
    os << "\n  }";
}

}  // namespace

void record::write_json(std::ostream& os) const {
    os << "{\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
       << ",\n  \"failures\": ";
    json_strings(os, failures);
    os << ",\n  \"known_attempted\": " << known_attempted
       << ",\n  \"known_failed\": " << known_failed << ",\n  \"known_failures\": ";
    json_strings(os, known_failures);
    os << ",\n  \"info\": {";
    bool first = true;
    for (const auto& [k, v] : info) {
        if (!first) os << ", ";
        first = false;
        json_string(os, k);
        os << ": ";
        json_string(os, v);
    }
    os << "},\n  \"exact\": {";
    first = true;
    for (const auto& [k, v] : exact) {
        if (!first) os << ", ";
        first = false;
        json_string(os, k);
        os << ": " << v;
    }
    os << "},\n  \"e2e\": ";
    json_metrics(os, e2e);
    os << ",\n  \"layer\": ";
    json_metrics(os, layer);
    os << "\n}\n";
}

// ----------------------------------------------------------------- span log --

span_log& spans() {
    static span_log log;
    return log;
}

namespace {
/// Lane id of the calling thread as the program's tracer numbers it (a
/// process-wide id per recording thread), so the benchmark's spans and the
/// program's spans of one thread share a track.
std::uint32_t this_lane() {
    thread_local const std::uint32_t lane = [] {
        sca::util::event_tracer probe(1);
        probe.enable();
        probe.record("lane", "lane", 0, 0);
        return probe.events().front().lane;
    }();
    return lane;
}
}  // namespace

void span_log::record(const char* name, const char* cat, std::int64_t start_ns,
                      std::int64_t end_ns) {
    if (!on()) return;
    sca::util::trace_event ev;
    ev.name = name;
    ev.cat = cat;
    ev.start_ns = start_ns;
    ev.dur_ns = end_ns - start_ns;
    ev.lane = this_lane();
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(ev));
}

void span_log::harvest(sca::util::event_tracer& tracer) {
    // Copying the program's spans is tracing overhead: it gets its own span
    // in the util layer so it never shows up as unattributed time.
    const std::int64_t t0 = sca::util::event_tracer::now_ns();
    std::vector<sca::util::trace_event> evs = tracer.events();
    const std::uint64_t lost = tracer.dropped();
    tracer.clear();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        dropped_ += lost;
        events_.insert(events_.end(), std::make_move_iterator(evs.begin()),
                       std::make_move_iterator(evs.end()));
    }
    record("trace.harvest", "util", t0, sca::util::event_tracer::now_ns());
}

void span_log::rollback(std::size_t mark) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (mark < events_.size()) events_.resize(mark);
}

std::size_t span_log::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

void span_log::write_chrome(const std::string& path, double overhead_frac) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::int64_t epoch = 0;
    for (std::size_t i = 0; i < events_.size(); ++i) {
        if (i == 0 || events_[i].start_ns < epoch) epoch = events_[i].start_ns;
    }
    std::ofstream os(path, std::ios::trunc);
    os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":" << dropped_
       << ",\"overhead_frac\":";
    json_number(os, overhead_frac);
    os << "},\"traceEvents\":[";
    char buf[64];
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const auto& ev = events_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":";
        json_string(os, ev.name);
        os << ",\"cat\":";
        json_string(os, ev.cat);
        std::snprintf(buf, sizeof buf, ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f",
                      static_cast<double>(ev.start_ns - epoch) / 1e3,
                      static_cast<double>(ev.dur_ns) / 1e3);
        os << buf << ",\"pid\":1,\"tid\":" << ev.lane << '}';
    }
    os << "\n]}\n";
}

// ----------------------------------------------------------- exact counters --

const char* const k_exact_counters[8] = {
    "kernel.delta_cycles",           "kernel.timed_notifications",
    "tdf.module.activations",        "tdf.cluster.cycles",
    "tdf.cluster.fused_cycles",      "tdf.module.block_firings",
    "solver.numeric_factorizations", "solver.symbolic_factorizations",
};

void report_exact(record& rec, const std::map<std::string, std::uint64_t>& counts) {
    const auto count = [&counts](const char* name) {
        const auto it = counts.find(name);
        return it == counts.end() ? std::uint64_t{0} : it->second;
    };
    for (const char* name : k_exact_counters) {
        rec.exact[name] = count(name);
        rec.set_layer(name, static_cast<double>(count(name)), "count");
    }
    const auto acts = static_cast<double>(count("tdf.module.activations"));
    rec.set_layer("tdf.block_share",
                  acts > 0 ? static_cast<double>(count("tdf.module.block_firings")) / acts : 0.0,
                  "ratio");
    const auto num = static_cast<double>(count("solver.numeric_factorizations"));
    rec.set_layer("solver.symbolic_reuse",
                  num > 0 ? 1.0 - static_cast<double>(count("solver.symbolic_factorizations")) / num
                          : 0.0,
                  "ratio");
}

// ------------------------------------------------------------------- set-up --

void setup_samples::take(const sca::core::scenario& sc, const sca::core::params& p,
                         std::size_t unit) {
    const auto t0 = steady::now();
    std::unique_ptr<sca::core::testbench> tb;
    {
        span s("scenario.build", "core.scenario");
        tb = sc.build(p);
    }
    const double b = seconds_since(t0);
    if (spans().on()) tb->context().tracer().enable();
    const auto t1 = steady::now();
    {
        span s("testbench.elaborate", "core.scenario");
        tb->elaborate();
    }
    const double e = seconds_since(t1);
    if (spans().on()) spans().harvest(tb->context().tracer());
    total_s.add(unit, {b + e});
    build_ms.add(unit, {1e3 * b});
    elaborate_ms.add(unit, {1e3 * e});
    ++taken;
}

void setup_samples::report(record& rec) const {
    rec.set_e2e("setup_s", median(total_s.values()), "s", taken);
    rec.set_layer("scenario.build_ms", median(build_ms.values()), "ms", taken);
    rec.set_layer("scenario.elaborate_ms", median(elaborate_ms.values()), "ms", taken);
}

}  // namespace pb
