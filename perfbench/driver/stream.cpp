// Workload stream_server: an in-process sim_server on loopback TCP under an
// open-loop session load.
//
// Why this workload: it is the only one on the server and on session frames,
// and it uses the wire as a stream where sweep_mp uses request/response.
// Its pure TDF chain (sine -> FIR -> biquad -> 2:1 decimator) takes the
// batched/block execution path that fig1_adsl's DE-coupled cluster bypasses.
// Latency at small concurrency is what it exposes.
//
// Load: sessions arrive as a seeded Poisson stream in two open-loop phases,
// a loaded one at about a quarter of the capacity measured on a 4-core host
// (at half of it, queueing amplified the host's timing drift past any usable
// bound) and a light one (the unloaded path length).  Closed-loop bursts
// measure the capacity in every run.  Each open-loop pattern has a fixed
// session count drawn uniformly over its duration (a Poisson process
// conditioned on its count), so seeds change the arrival pattern but not the
// offered load.  The loaded phase plays one such pattern over and over
// without a gap, so every session of the pattern is timed many times and
// the run reports the best of them (best_of); capacity bursts repeat one
// burst the same way.  At most k_generators threads and connections; an arrival
// that finds all of them busy waits in the generator, and that wait counts,
// because latency is timed from the session's due time.
//
// Each session: connect + hello, open_async / subscribe / await_opened /
// resume (configure-then-start), then read frames until the close frame.
#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <thread>

#include "core/run_protocol.hpp"
#include "core/scenario.hpp"
#include "kernel/context.hpp"
#include "lib/filters.hpp"
#include "lib/oscillator.hpp"
#include "server/server.hpp"
#include "tdf/block.hpp"
#include "tdf/connect.hpp"
#include "tdf/module.hpp"
#include "tdf/port.hpp"

namespace pb {
namespace {

namespace core = sca::core;
namespace de = sca::de;
namespace lib = sca::lib;
namespace server = sca::server;
namespace tdf = sca::tdf;
namespace wire = sca::core::wire;

constexpr int k_setup_reps = 100;            // set-up samples before measuring...
constexpr int k_setup_reps_per_phase = 24;   // ...and after every phase
constexpr unsigned k_generators = 4;       // threads = connections = nproc
constexpr std::size_t k_variants = 16;     // seeded parameter sets per run
constexpr double k_light_rate = 20.0;      // sessions/s, light phase
constexpr double k_loaded_rate = 60.0;     // sessions/s, loaded phase (~25% of capacity)
constexpr double k_light_share = 0.2;      // of --seconds
constexpr double k_loaded_share = 0.6;
constexpr double k_loaded_pattern_s = 0.5;        // loaded pattern, repeated
constexpr std::size_t k_warmup_sessions = 240;    // closed loop, before timing
constexpr std::size_t k_capacity_bursts = 5;      // capacity: closed-loop bursts...
constexpr std::size_t k_burst_sessions = 64;      // ...of this many sessions each

/// Consumes the decimated stream and anchors the cluster timestep.
struct stream_sink : tdf::module {
    tdf::in<double> in;
    explicit stream_sink(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void set_attributes() override { set_timestep(10.0, de::time_unit::us); }
    void processing() override { (void)in.read(); }
    [[nodiscard]] bool has_block_processing() const override { return true; }
    void processing(tdf::block_view&) override {}
};

void define_stream() {
    core::scenario::define(
        "pb_stream",
        core::params{{"amp", 1.0}, {"hz", 2e3}, {"fc", 0.2}, {"pole", 0.4}},
        [](core::testbench& tb, const core::params& p) {
            auto& src = tb.make<lib::sine_source>("src", p.number("amp"), p.number("hz"));
            auto& fir = tb.make<lib::fir>("fir", lib::fir::design_lowpass(31, p.number("fc")));
            const double a1 = -p.number("pole");
            auto& bq = tb.make<lib::biquad>(
                "bq", lib::biquad_coefficients{0.25, 0.5, 0.25, a1, 0.05});
            auto& down = tb.make<lib::decimator>("down", 2U);
            auto& sink = tb.make<stream_sink>("sink");
            connect(src.out, fir.in);
            connect(fir.out, bq.in);
            connect(bq.out, down.in);
            auto& y = connect(down.out, sink.in);
            tb.probe("y", y);
            tb.set_sample_period(de::time(10.0, de::time_unit::us));
            tb.set_stop_time(de::time(100.0, de::time_unit::ms));  // 10,001 samples
        });
}

core::params variant_params(std::uint64_t seed, std::size_t v) {
    const std::uint64_t h = derive(derive(seed, 77), v);
    return core::params{{"amp", 0.5 + 0.5 * unit(derive(h, 1))},
                        {"hz", 1e3 + 4e3 * unit(derive(h, 2))},
                        {"fc", 0.1 + 0.2 * unit(derive(h, 3))},
                        {"pole", 0.2 + 0.4 * unit(derive(h, 4))}};
}

struct arrival {
    double due_s;  ///< offset from the phase start
    std::size_t variant;
};

/// `n` arrivals uniform over [0, duration), sorted, with seeded variants.
std::vector<arrival> arrivals(std::uint64_t seed, std::uint64_t phase, std::size_t n,
                              double duration) {
    std::vector<arrival> out(n);
    const std::uint64_t h = derive(seed, 1000 + phase);
    for (std::size_t i = 0; i < n; ++i) {
        out[i].due_s = duration * unit(derive(h, 2 * i));
        out[i].variant = derive(h, 2 * i + 1) % k_variants;
    }
    std::sort(out.begin(), out.end(),
              [](const arrival& a, const arrival& b) { return a.due_s < b.due_s; });
    return out;
}

struct reference {
    std::vector<double> times, values;
};

struct session_result {
    double session_ms = 0, first_sample_ms = 0, connect_ms = 0, open_ms = 0;
    double first_frame_ms = 0, drain_ms = 0;
    std::uint64_t frames = 0, bytes = 0, slices = 0, max_queue = 0;
    std::uint64_t streamed = 0, dropped = 0;
};

struct phase_result {
    std::vector<session_result> sessions;
    double gen_lag_ms_max = 0.0;
    double wall_s = 0.0;  ///< phase start to the last close frame
};

/// One session, timed from its due time; every output check lands in `rec`.
session_result run_session(std::uint16_t port, const core::params& params,
                           const reference& ref, steady::time_point due, record& rec,
                           std::mutex& rec_mutex) {
    session_result r;
    bool ok = true;
    std::string why;
    try {
        span session_span("client.session", "client");
        const auto t0 = steady::now();
        server::client cl;
        {
            span s("client.connect", "server");
            cl = server::client::connect_tcp("127.0.0.1", port);
            (void)cl.hello();
        }
        const auto t1 = steady::now();
        {
            span s("client.open", "server");
            cl.open_async("pb_stream", params);
            cl.subscribe("y");
            (void)cl.await_opened();
        }
        const auto t2 = steady::now();
        cl.resume();
        wire::close_info info;
        steady::time_point t_first{};
        {
            span s("client.drain", "server");
            for (;;) {
                const wire::frame f = cl.read_frame();
                if (f.type == wire::msg_type::close) {
                    info = wire::decode_close(f.payload.data(), f.payload.size());
                    break;
                }
                if (f.type == wire::msg_type::samples) {
                    if (r.frames == 0) t_first = steady::now();
                    ++r.frames;
                    r.bytes += f.payload.size();
                }
                span a("client.absorb", "core.run_protocol");
                cl.absorb(f);
            }
        }
        const auto t3 = steady::now();
        const auto ms = [](steady::time_point a, steady::time_point b) {
            return 1e3 * std::chrono::duration<double>(b - a).count();
        };
        r.session_ms = ms(due, t3);
        r.connect_ms = ms(t0, t1);
        r.open_ms = ms(t1, t2);
        if (r.frames > 0) {
            r.first_sample_ms = ms(due, t_first);
            r.first_frame_ms = ms(t2, t_first);
            r.drain_ms = ms(t_first, t3);
        }
        r.slices = info.slices;
        r.max_queue = info.max_queue_depth;
        r.streamed = info.samples_streamed;
        r.dropped = info.samples_dropped;

        span c("check.stream", "bench.check");
        if (!cl.errors().empty()) {
            ok = false;
            why = "session error: " + cl.errors().front();
        } else if (info.reason != wire::close_reason::finished) {
            ok = false;
            why = "session did not finish";
        } else if (!cl.has_wave("y")) {
            ok = false;
            why = "no samples received";
        } else {
            const auto& w = cl.wave("y");
            if (w.values.size() != info.samples_streamed || w.dropped != info.samples_dropped) {
                ok = false;
                why = "close-frame totals differ from client-side counts";
            } else if (w.times.size() != ref.times.size() ||
                       std::memcmp(w.times.data(), ref.times.data(),
                                   ref.times.size() * sizeof(double)) != 0 ||
                       std::memcmp(w.values.data(), ref.values.data(),
                                   ref.values.size() * sizeof(double)) != 0) {
                ok = false;
                why = "streamed waveform differs from the offline run";
            }
        }
        cl.close();
    } catch (const std::exception& e) {
        ok = false;
        why = e.what();
    }
    const std::lock_guard<std::mutex> lock(rec_mutex);
    rec.check(ok, "stream session: " + why);
    return r;
}

/// Drive one open-loop phase on `k_generators` threads.
phase_result run_phase(std::uint16_t port, const std::vector<arrival>& plan,
                       const std::vector<core::params>& variants,
                       const std::vector<reference>& refs, record& rec, bool traced_root) {
    phase_result out;
    out.sessions.resize(plan.size());
    std::atomic<std::size_t> next{0};
    std::mutex rec_mutex;
    std::vector<double> lag_max(k_generators, 0.0);
    const auto start = steady::now() + std::chrono::milliseconds(5);
    auto body = [&](unsigned g) {
        const auto t_root = sca::util::event_tracer::now_ns();
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= plan.size()) break;
            const auto due = start + std::chrono::duration_cast<steady::duration>(
                                         std::chrono::duration<double>(plan[i].due_s));
            if (steady::now() < due) {
                // Idle generator: sleep to the due time; how late it wakes is
                // the generator's own lag (it also lands in the latency).
                {
                    span s("client.idle", "idle");
                    std::this_thread::sleep_until(due);
                }
                lag_max[g] = std::max(lag_max[g], ms_since(due));
            }
            out.sessions[i] = run_session(port, variants[plan[i].variant],
                                          refs[plan[i].variant], due, rec, rec_mutex);
        }
        if (traced_root) {
            spans().record("stream.generator", "bench", t_root,
                           sca::util::event_tracer::now_ns());
        }
    };
    std::vector<std::thread> threads;
    for (unsigned g = 0; g < k_generators; ++g) threads.emplace_back(body, g);
    for (auto& t : threads) t.join();
    out.wall_s = seconds_since(start);
    out.gen_lag_ms_max = *std::max_element(lag_max.begin(), lag_max.end());
    return out;
}

/// `pattern` played `reps` times back to back, each `period_s` long.
std::vector<arrival> repeated(const std::vector<arrival>& pattern, std::size_t reps,
                              double period_s) {
    std::vector<arrival> out;
    out.reserve(pattern.size() * reps);
    for (std::size_t r = 0; r < reps; ++r) {
        for (arrival a : pattern) {
            a.due_s += period_s * static_cast<double>(r);
            out.push_back(a);
        }
    }
    return out;
}

std::vector<double> column(const phase_result& p, double session_result::*field) {
    std::vector<double> v;
    v.reserve(p.sessions.size());
    for (const auto& s : p.sessions) v.push_back(s.*field);
    return v;
}

}  // namespace

void print_stream_inputs(std::uint64_t seed, std::ostream& os) {
    for (std::size_t v = 0; v < 4; ++v) {
        const auto p = variant_params(seed, v);
        char buf[200];
        std::snprintf(buf, sizeof buf, "variant %zu amp=%a hz=%a fc=%a pole=%a\n", v,
                      p.number("amp"), p.number("hz"), p.number("fc"), p.number("pole"));
        os << buf;
    }
    for (std::uint64_t phase = 0; phase < 2; ++phase) {
        const auto plan = arrivals(seed, phase, 4, 1.0);
        for (const auto& a : plan) {
            char buf[120];
            std::snprintf(buf, sizeof buf, "phase %llu due=%a variant=%zu\n",
                          static_cast<unsigned long long>(phase), a.due_s, a.variant);
            os << buf;
        }
    }
}

void run_stream(const options& opt, record& rec) {
    define_stream();
    rec.info["generators"] = std::to_string(k_generators);
    rec.info["light_rate_per_s"] = std::to_string(k_light_rate);
    rec.info["loaded_rate_per_s"] = std::to_string(k_loaded_rate);

    // --- offline references: one per parameter variant ------------------------
    std::vector<core::params> variants;
    std::vector<reference> refs;
    std::map<std::string, std::uint64_t> exact;
    const auto t_ref = sca::util::event_tracer::now_ns();
    for (std::size_t v = 0; v < k_variants; ++v) {
        variants.push_back(variant_params(opt.seed, v));
        std::unique_ptr<core::testbench> tb;
        {
            span s("scenario.build", "core.scenario");
            tb = core::scenario::find("pb_stream").build(variants.back());
        }
        if (spans().on()) tb->context().tracer().enable();
        {
            span s("testbench.run", "core.scenario");
            tb->run();
        }
        refs.push_back({tb->times(), tb->waveform("y")});
        for (const auto& mv : tb->context().collect_metrics()) {
            for (const char* name : k_exact_counters) {
                if (mv.name == name) exact[name] += mv.count;
            }
        }
        if (spans().on()) spans().harvest(tb->context().tracer());
    }
    if (spans().on()) {
        spans().record("stream.references", "bench", t_ref, sca::util::event_tracer::now_ns());
    }
    report_exact(rec, exact);

    // --- set-up: server start + first connect + hello --------------------------
    // A few samples now and more after every phase, so the median covers
    // the whole run rather than one moment of it.
    // Unlike the single-threaded set-ups of the other workloads this one is
    // mostly thread wake-ups, where the fastest sample is a rare lucky one:
    // the median over the run's samples read steadier than the best
    // (72-82 us against 40-65 us over six runs).
    std::vector<double> setup_s;
    const auto take_setup = [&setup_s](int n) {
        for (int i = 0; i < n; ++i) {
            server::sim_server s;
            const auto t0 = steady::now();
            s.start();
            auto cl = server::client::connect_tcp("127.0.0.1", s.port());
            (void)cl.hello();
            setup_s.push_back(seconds_since(t0));
            cl.close();
            s.stop();
        }
    };
    take_setup(k_setup_reps);

    spans().disable();
    server::sim_server srv;
    srv.start();

    // --- warm-up: the server's threads, sockets and heap reach their working
    // size at full concurrency before anything is timed.
    const phase_result warm = run_phase(
        srv.port(), arrivals(opt.seed, 4, k_warmup_sessions, 0.0), variants, refs, rec, false);
    take_setup(k_setup_reps_per_phase);
    // The warm-up is a fixed set of sessions in every mode, so its slice
    // total is the exact server count.
    std::uint64_t warm_slices = 0;
    for (const auto& s : warm.sessions) warm_slices += s.slices;
    rec.exact["server.slices"] = warm_slices;
    rec.set_layer("server.slices", static_cast<double>(warm_slices), "count",
                  warm.sessions.size());

    // --- loaded phase, then the capacity (or traced) phase, light phase last --
    // Busy phases run back to back: on a virtualised host a phase that follows
    // a quiet one ran severalfold slower for its first seconds.  Traced runs
    // split the loaded phase: untraced first, then traced, so the tracing
    // overhead is the ratio of the two loaded medians.
    const double loaded_s = (opt.trace ? 0.5 : 1.0) * k_loaded_share * opt.seconds;
    const auto reps = std::max<std::size_t>(
        1, static_cast<std::size_t>(loaded_s / k_loaded_pattern_s));
    const auto pattern = arrivals(opt.seed, 1, static_cast<std::size_t>(
                                                   k_loaded_rate * k_loaded_pattern_s),
                                  k_loaded_pattern_s);
    const auto plan = repeated(pattern, reps, k_loaded_pattern_s);
    const phase_result loaded = run_phase(srv.port(), plan, variants, refs, rec, false);
    const auto loaded_ms = column(loaded, &session_result::session_ms);
    best_of best_loaded_ms, best_first_ms;
    for (std::size_t r = 0; r < reps; ++r) {
        const auto begin = loaded.sessions.begin() + static_cast<std::ptrdiff_t>(r * pattern.size());
        std::vector<double> s_ms, f_ms;
        for (auto it = begin; it != begin + static_cast<std::ptrdiff_t>(pattern.size()); ++it) {
            s_ms.push_back(it->session_ms);
            f_ms.push_back(it->first_sample_ms);
        }
        best_loaded_ms.add(0, s_ms);
        best_first_ms.add(0, f_ms);
    }
    take_setup(k_setup_reps_per_phase);

    if (opt.trace) {
        spans().enable();
        const phase_result traced = run_phase(srv.port(), plan, variants, refs, rec, true);
        spans().disable();
        rec.set_layer("trace.overhead_frac",
                      median(column(traced, &session_result::session_ms)) / median(loaded_ms) -
                          1.0,
                      "ratio", traced.sessions.size());
        rec.set_layer("trace.dropped", static_cast<double>(spans().dropped()), "count");
    } else {
        // Closed loop: every session of a burst is due at once, so the
        // generators run back to back and each burst measures the server's
        // capacity; the same burst repeats and the fastest is reported.
        const auto burst = arrivals(opt.seed, 10, k_burst_sessions, 0.0);
        double best_wall_s = HUGE_VAL;
        for (std::size_t b = 0; b < k_capacity_bursts; ++b) {
            const phase_result sat = run_phase(srv.port(), burst, variants, refs, rec, false);
            best_wall_s = std::min(best_wall_s, sat.wall_s);
            take_setup(k_setup_reps_per_phase);
        }
        rec.set_e2e("capacity_sessions_per_s", static_cast<double>(k_burst_sessions) / best_wall_s,
                    "1/s", k_capacity_bursts * k_burst_sessions);
    }

    const double light_s = k_light_share * opt.seconds;
    const auto n_light = static_cast<std::size_t>(k_light_rate * light_s);
    const phase_result light =
        run_phase(srv.port(), arrivals(opt.seed, 0, n_light, light_s), variants, refs, rec,
                  false);
    take_setup(k_setup_reps_per_phase);
    rec.set_e2e("setup_s", median(setup_s), "s", setup_s.size());

    // Loaded phase: percentiles over the pattern's sessions of each one's
    // best repetition.
    const auto best_ms = best_loaded_ms.values();
    rec.set_e2e("session_ms_p50", median(best_ms), "ms", loaded_ms.size());
    rec.set_e2e("session_ms_p99", quantile(best_ms, 0.99), "ms", loaded_ms.size());
    rec.set_e2e("first_sample_ms_p99", quantile(best_first_ms.values(), 0.99), "ms",
                loaded.sessions.size());
    rec.info["loaded_repetitions"] = std::to_string(reps);
    rec.set_e2e("session_ms_p50_light", median(column(light, &session_result::session_ms)),
                "ms", light.sessions.size());

    const struct {
        const char* name;
        double session_result::*field;
    } timings[] = {{"server.connect_ms", &session_result::connect_ms},
                   {"server.open_ms", &session_result::open_ms},
                   {"server.first_frame_ms", &session_result::first_frame_ms},
                   {"server.drain_ms", &session_result::drain_ms}};
    for (const auto& t : timings) {
        const auto v = column(loaded, t.field);
        rec.set_layer(std::string(t.name) + "_p50", median(v), "ms", v.size());
        rec.set_layer(std::string(t.name) + "_p99", quantile(v, 0.99), "ms", v.size());
    }
    std::uint64_t max_queue = 0, streamed = 0, dropped = 0;
    std::vector<double> frames, bytes;
    for (const auto& s : loaded.sessions) {
        max_queue = std::max(max_queue, s.max_queue);
        streamed += s.streamed;
        dropped += s.dropped;
        frames.push_back(static_cast<double>(s.frames));
        bytes.push_back(static_cast<double>(s.bytes));
    }
    rec.set_layer("server.max_queue_depth", static_cast<double>(max_queue), "count");
    rec.set_layer("server.delivered_share",
                  streamed + dropped > 0
                      ? static_cast<double>(streamed) / static_cast<double>(streamed + dropped)
                      : 0.0,
                  "ratio");
    rec.set_layer("wire.sample_frames", median(frames), "count", frames.size());
    rec.set_layer("wire.sample_bytes", median(bytes), "B", bytes.size());
    rec.set_layer("client.gen_lag_ms_max",
                  std::max(light.gen_lag_ms_max, loaded.gen_lag_ms_max), "ms");
    rec.info["light_sessions"] = std::to_string(light.sessions.size());
    rec.info["loaded_sessions"] = std::to_string(loaded.sessions.size());
    srv.stop();
}

}  // namespace pb
