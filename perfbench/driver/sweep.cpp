// Workload sweep_mp: a Monte Carlo run_set over the PWM-switched buck
// converter on the multiprocess backend (2 worker processes).
//
// Why this workload: runs are short (1 ms simulated), so per-run overhead —
// dispatch, wire frames, scenario build + elaborate per run — is a large
// share of the time (the backend forks each worker once per campaign, so
// fork is not a per-run cost); it is the only workload on core.run_set,
// core.run_backend and the request/response use of the wire.  Every PWM
// edge is a numeric refactor of the switched network, the solver's
// refactor-heavy use beside fig1_adsl's factor-once, solve-many use.  Two
// workers (nproc/2 on a 4-core host) leave room for the parent dispatcher.
//
// The seed draws each campaign's base seed; the sampler then draws load,
// duty and L/C tolerances per run.  The run repeats k_campaigns distinct
// campaigns in turn, so every run index is timed many times (best_of).
// Campaigns have a fixed size, so the exact counters (taken from campaign
// 0) do not depend on host speed.
#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>

#include "core/run_protocol.hpp"
#include "core/run_set.hpp"
#include "core/scenario.hpp"
#include "eln/converter.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "kernel/context.hpp"
#include "kernel/signal.hpp"
#include "lib/pwm.hpp"

namespace pb {
namespace {

namespace core = sca::core;
namespace de = sca::de;
namespace eln = sca::eln;
namespace lib = sca::lib;
namespace wire = sca::core::wire;

constexpr int k_setup_reps = 100;        // set-up samples before measuring...
constexpr int k_setup_reps_between = 12;  // ...and after every campaign
constexpr int k_setup_units = 4;          // best_of positions for set-up samples
constexpr unsigned k_workers = 2;
constexpr std::uint64_t k_campaigns = 2;       // distinct campaigns, repeated in turn
constexpr std::size_t k_campaign_runs = 1000;  // runs per run_all call
constexpr std::size_t k_checked_per_campaign = 4;  // run_one re-checks
constexpr std::size_t k_traced_runs = 64;    // traced in_thread campaign
constexpr std::size_t k_traced_mp_runs = 256;

// Set while the traced in_thread campaign runs: each run's context records
// spans, harvested when the bench is torn down.
std::atomic<bool> g_trace_runs{false};

/// Owned by a traced bench (made first, destroyed last): moves the run's
/// program spans into the trace before the context goes away.
struct harvester {
    de::simulation_context& ctx;
    explicit harvester(de::simulation_context& c) : ctx(c) {}
    ~harvester() { spans().harvest(ctx.tracer()); }
    harvester(const harvester&) = delete;
    harvester& operator=(const harvester&) = delete;
};

void define_buck() {
    core::scenario::define(
        "pb_buck",
        core::params{{"load", 4.0}, {"duty", 0.5}, {"l_tol", 1.0}, {"c_tol", 1.0}},
        [](core::testbench& tb, const core::params& p) {
            if (g_trace_runs.load(std::memory_order_relaxed)) {
                tb.make<harvester>(tb.context());
                tb.context().tracer().enable();
            }
            auto& net = tb.make<eln::network>("net");
            net.set_timestep(1.0, de::time_unit::us);
            auto gnd = net.ground();
            auto vsrc = net.create_node("vsrc");
            auto vin = net.create_node("vin");
            auto sw = net.create_node("sw");
            auto vout = net.create_node("vout");
            tb.make<eln::vsource>("vs", net, vsrc, gnd, eln::waveform::dc(24.0));
            tb.make<eln::resistor>("esr", net, vsrc, vin, 0.01);
            tb.make<eln::capacitor>("cin", net, vin, gnd, 10e-6);
            auto& hi = tb.make<eln::de_rswitch>("hi_side", net, vin, sw, 0.05, 1e6);
            tb.make<eln::resistor>("freewheel", net, sw, gnd, 0.5);
            tb.make<eln::inductor>("filter_l", net, sw, vout, 100e-6 * p.number("l_tol"));
            tb.make<eln::capacitor>("filter_c", net, vout, gnd, 220e-6 * p.number("c_tol"));
            tb.make<eln::resistor>("load", net, vout, gnd, p.number("load"));

            auto& duty = tb.make<de::signal<double>>("duty", p.number("duty"));
            auto& gate = tb.make<de::signal<bool>>("gate", false);
            auto& pwm = tb.make<lib::pwm>("pwm", de::time(20.0, de::time_unit::us));  // 50 kHz
            pwm.duty.bind(duty);
            pwm.out.bind(gate);
            hi.ctrl.bind(gate);

            tb.measure("vout_final", [&net, vout] { return net.voltage(vout); });
            tb.measure("iload_final", [&net, vout, load = p.number("load")] {
                return net.voltage(vout) / load;
            });
            tb.set_stop_time(de::time(1.0, de::time_unit::ms));
        });
}

core::monte_carlo sampler(std::size_t n) {
    return core::monte_carlo(n)
        .uniform("load", 2.0, 8.0)
        .uniform("duty", 0.3, 0.7)
        .normal("l_tol", 1.0, 0.05)
        .normal("c_tol", 1.0, 0.05);
}

core::run_set campaign(std::uint64_t seed, std::uint64_t c, std::size_t n,
                       core::run_backend backend) {
    return core::run_set(core::scenario::find("pb_buck"))
        .with_samples(sampler(n))
        .set_base_seed(derive(seed, c))
        .set_workers(k_workers)
        .set_backend(backend)
        .keep_waveforms(false);
}

/// Per-campaign figures.  The run reports, per distinct campaign, the best
/// repetition of each run's turnaround and of the whole campaign (best_of).
struct campaign_stats {
    std::vector<double> run_ms;     // per-worker inter-arrival gaps, all campaigns
    best_of best_run_ms;            // per campaign and run index: fastest turnaround
    best_of best_campaign_s;        // per campaign: fastest run_all
    std::vector<double> run_all_s;  // wall time of each run_all
    std::map<int, std::uint64_t> per_worker;
    std::size_t runs = 0;
    double busy_s = 0.0;
    std::vector<double> result_bytes, encode_us, decode_us;
};

/// Execute one campaign, time it, and check its outputs: every run ok, and a
/// seeded subset recomputed in-process with run_one() must be bit-identical
/// (encoded result bytes and run metrics) to what the backend returned.
core::result_table run_campaign(std::uint64_t seed, std::uint64_t c, std::size_t n,
                                core::run_backend backend, campaign_stats& st,
                                record& rec, bool check) {
    std::map<int, steady::time_point> last_arrival;
    std::vector<double> gaps;
    std::vector<double> by_index(n, HUGE_VAL);  // the first result of a worker has no gap
    auto rs = campaign(seed, c, n, backend);
    rs.on_result([&](const core::run_result& r) {
        const auto now = steady::now();
        const auto it = last_arrival.find(r.worker);
        if (it != last_arrival.end()) {
            gaps.push_back(1e3 * std::chrono::duration<double>(now - it->second).count());
            if (r.index < n) by_index[r.index] = gaps.back();
        }
        last_arrival[r.worker] = now;
        ++st.per_worker[r.worker];
    });
    const auto t0 = steady::now();
    core::result_table table;
    try {
        span s("run_set.run_all", "core.run_set");
        table = rs.run_all();
    } catch (const std::exception& e) {
        rec.check(false, std::string("sweep campaign: ") + e.what());
        return table;
    }
    const double dt = seconds_since(t0);
    st.run_all_s.push_back(dt);
    st.busy_s += dt;
    st.runs += table.size();
    st.best_run_ms.add(c, by_index);
    st.best_campaign_s.add(c, {dt});
    st.run_ms.insert(st.run_ms.end(), gaps.begin(), gaps.end());

    for (const auto& r : table.runs()) {
        rec.check(r.ok, "sweep run " + std::to_string(r.index) + " failed: " + r.error);
    }
    if (!check) return table;

    // The wire's share of a run, measured by calling the codec on the
    // returned results (the backend's own framing is not visible outside).
    {
        const auto te = steady::now();
        std::vector<std::vector<std::uint8_t>> encoded;
        encoded.reserve(table.size());
        {
            span s("wire.encode_result", "core.run_protocol");
            for (const auto& r : table.runs()) encoded.push_back(wire::encode_result(r));
        }
        const double enc = seconds_since(te);
        const auto td = steady::now();
        std::size_t bytes = 0;
        bool same = true;
        {
            span s("wire.decode_result", "core.run_protocol");
            for (std::size_t i = 0; i < encoded.size(); ++i) {
                const auto back = wire::decode_result(encoded[i].data(), encoded[i].size());
                bytes += encoded[i].size();
                same = same && back.measurements == table[i].measurements;
            }
        }
        const double dec = seconds_since(td);
        rec.check(same, "sweep wire round trip changed a result");
        const auto nres = static_cast<double>(table.size());
        st.encode_us.push_back(1e6 * enc / nres);
        st.decode_us.push_back(1e6 * dec / nres);
        st.result_bytes.push_back(static_cast<double>(bytes) / nres);
    }

    const std::uint64_t cs = derive(seed, c);
    for (std::size_t j = 0; j < k_checked_per_campaign; ++j) {
        const std::size_t i = derive(cs, 1000 + j) % n;
        core::run_result mine;
        {
            span s("run_set.run_one", "core.run_set");
            mine = rs.run_one(i);
        }
        const auto& theirs = table[i];
        const bool same = wire::encode_result(mine) == wire::encode_result(theirs) &&
                          mine.run_metrics == theirs.run_metrics;
        rec.check(same, "sweep run " + std::to_string(i) +
                            ": in-process run_one differs from the backend result");
    }
    return table;
}

/// Runs per second of the median distinct campaign's best repetition.
double best_rate(const campaign_stats& st) {
    return static_cast<double>(k_campaign_runs) / median(st.best_campaign_s.values());
}

}  // namespace

void print_sweep_inputs(std::uint64_t seed, std::ostream& os) {
    define_buck();
    for (std::uint64_t c = 0; c < 2; ++c) {
        const auto rs = campaign(seed, c, 4, core::run_backend::in_thread);
        os << "campaign " << c << " base_seed " << rs.base_seed() << '\n';
        const auto s = sampler(4);
        for (std::size_t i = 0; i < 4; ++i) {
            const auto p = s.at(i, core::detail::derive_seed(rs.base_seed(), i));
            char buf[200];
            std::snprintf(buf, sizeof buf, "  run %zu load=%a duty=%a l_tol=%a c_tol=%a\n", i,
                          p.number("load"), p.number("duty"), p.number("l_tol"),
                          p.number("c_tol"));
            os << buf;
        }
    }
}

void run_sweep(const options& opt, record& rec) {
    define_buck();
    const auto sc = core::scenario::find("pb_buck");
    rec.info["campaign_runs"] = std::to_string(k_campaign_runs);
    rec.info["workers"] = std::to_string(k_workers);

    // --- set-up: build + elaborate of one sweep instance in-process ----------
    setup_samples setup;
    for (int i = 0; i < k_setup_reps; ++i) setup.take(sc, {}, i % k_setup_units);

    // --- measured phase: multiprocess campaigns --------------------------------
    spans().disable();
    const double budget = opt.trace ? 0.4 * opt.seconds : opt.seconds;
    campaign_stats mp;
    const auto t_start = steady::now();
    for (std::uint64_t c = 0; c == 0 || seconds_since(t_start) < budget; ++c) {
        const auto table = run_campaign(opt.seed, c % k_campaigns, k_campaign_runs,
                                        core::run_backend::multiprocess, mp, rec, true);
        for (int i = 0; i < k_setup_reps_between; ++i) setup.take(sc, {}, i % k_setup_units);
        if (c == 0) {
            std::map<std::string, std::uint64_t> exact;
            for (const char* name : k_exact_counters) {
                exact[name] = static_cast<std::uint64_t>(table.metrics_total(name));
            }
            report_exact(rec, exact);
        }
    }
    // Best-of-repetitions figures (sample counts are runs / turnaround gaps).
    const double runs_per_s = best_rate(mp);
    const auto best_ms = mp.best_run_ms.values();
    rec.set_e2e("runs_per_s", runs_per_s, "1/s", mp.runs);
    rec.set_e2e("run_ms_p50", median(best_ms), "ms", mp.run_ms.size());
    rec.set_e2e("run_ms_p95", quantile(best_ms, 0.95), "ms", mp.run_ms.size());
    rec.set_e2e("run_ms_p99", quantile(best_ms, 0.99), "ms", mp.run_ms.size());
    rec.info["campaigns"] = std::to_string(mp.run_all_s.size());
    rec.info["repetitions_per_campaign"] = std::to_string(mp.best_run_ms.min_reps());
    setup.report(rec);

    rec.set_layer("run_set.run_all_s", median(mp.run_all_s), "s", mp.run_all_s.size());
    std::uint64_t lo = ~0ULL, hi = 0;
    for (const auto& [w, n] : mp.per_worker) {
        lo = std::min(lo, n);
        hi = std::max(hi, n);
    }
    rec.set_layer("run_backend.worker_spread",
                  lo > 0 && lo != ~0ULL ? static_cast<double>(hi) / static_cast<double>(lo) : 0.0,
                  "ratio", mp.per_worker.size());
    rec.set_layer("wire.result_bytes", median(mp.result_bytes), "B", mp.result_bytes.size());
    rec.set_layer("wire.encode_us", median(mp.encode_us), "us", mp.encode_us.size());
    rec.set_layer("wire.decode_us", median(mp.decode_us), "us", mp.decode_us.size());

    if (!opt.trace) return;

    // --- traced pass ------------------------------------------------------------
    // Spans inside forked workers never reach the parent, so the same campaign
    // also runs on in_thread at the same worker count: untraced for the
    // backend-overhead ratio, then one fixed-size traced campaign for the
    // solver/scenario self times; a traced multiprocess campaign shows the
    // parent's side (dispatch, wire, run_one re-checks).
    campaign_stats it;
    const auto t_it = steady::now();
    for (std::uint64_t c = 0; c == 0 || seconds_since(t_it) < 0.35 * opt.seconds; ++c) {
        (void)run_campaign(opt.seed, c % k_campaigns, k_campaign_runs,
                           core::run_backend::in_thread, it, rec, false);
    }
    const double it_rate = best_rate(it);
    rec.set_layer("run_backend.overhead_frac", 1.0 - runs_per_s / it_rate, "ratio");
    rec.set_layer("run_backend.in_thread_runs_per_s", it_rate, "1/s", it.runs);

    campaign_stats traced;
    spans().enable();
    const auto t0 = sca::util::event_tracer::now_ns();
    g_trace_runs.store(true);
    (void)run_campaign(opt.seed, 0, k_traced_runs, core::run_backend::in_thread, traced, rec,
                       false);
    g_trace_runs.store(false);
    spans().record("sweep.traced_in_thread", "bench", t0, sca::util::event_tracer::now_ns());
    const double traced_rate = static_cast<double>(traced.runs) / traced.busy_s;
    rec.set_layer("trace.overhead_frac", it_rate / traced_rate - 1.0, "ratio", traced.runs);

    campaign_stats traced_mp;
    const auto t1 = sca::util::event_tracer::now_ns();
    (void)run_campaign(opt.seed, 0, k_traced_mp_runs, core::run_backend::multiprocess, traced_mp,
                       rec, true);
    spans().record("sweep.traced_multiprocess", "bench", t1, sca::util::event_tracer::now_ns());
    rec.set_layer("trace.dropped", static_cast<double>(spans().dropped()), "count");
}

}  // namespace pb
