// Workload fig1_adsl: the paper's Figure 1 (ADSL subscriber line interface
// and codec) as one long in-process transient.
//
// Why this workload: it is the paper's own system.  The comparator's DE
// output makes the whole cluster DE-coupled, so the kernel's per-period
// synchronisation, the per-sample TDF executor and the LSF/ELN linear solve
// (factor once, solve every step; a numeric refactor per termination
// switch) do the work.  run_set, the wire and the server do none, and the
// block kernels do almost none (a DE-coupled cluster never takes the block
// path).  Snapshots are light use of core.snapshot.
//
// Chain, built from the program's own blocks as examples/adsl_frontend.cpp
// builds it: tone (burst-gated) -> lsf::ltf_nd line driver (3rd-order
// Butterworth + gain) -> ELN line (RC two-port, DE-switched termination) ->
// lib::sigma_delta_modulator -> lib::sinc3_decimator -> lib::fir; a
// lib::comparator on the received signal at the modulator rate publishes
// line activity to a DE controller, which switches the line termination
// (one numeric refactor of the line per switch).
//
// The run is cut into episodes of fixed simulated length, each one long
// transient in 1 ms slices with a snapshot every few ms; at the end of each
// episode the last snapshot is decoded and continued, and the continuation
// must match the uninterrupted run bit for bit.  The program fails that
// check on this model (README.md, "Known program defects"), so it is a
// known-defect check: run and reported on every episode, counted apart from
// `failed`.  Fixed-length episodes keep memory and the exact counters
// independent of host speed.  Every episode plays the same seeded input, so
// each slice is timed once per episode (best_of); with one input rather
// than several, a fast spell of the host as short as one episode reaches
// every slice (five interleaved pairs of 30 s runs read 0.680-0.714 ms
// with one input and 0.708-0.758 ms with four).
#include "bench.hpp"

#include <cmath>
#include <cstdio>
#include <ostream>

#include "core/scenario.hpp"
#include "core/snapshot.hpp"
#include "eln/converter.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "kernel/context.hpp"
#include "kernel/signal.hpp"
#include "lib/converters.hpp"
#include "lib/filters.hpp"
#include "lib/sigma_delta.hpp"
#include "lsf/ltf.hpp"
#include "lsf/node.hpp"
#include "lsf/primitives.hpp"
#include "lsf/view.hpp"
#include "tdf/connect.hpp"
#include "tdf/converter.hpp"
#include "tdf/module.hpp"
#include "tdf/port.hpp"

namespace pb {
namespace {

namespace core = sca::core;
namespace de = sca::de;
namespace eln = sca::eln;
namespace lsf = sca::lsf;
namespace lib = sca::lib;
namespace tdf = sca::tdf;

constexpr double k_pi = 3.141592653589793;
constexpr int k_setup_reps = 100;         // set-up samples before measuring...
constexpr int k_setup_rounds = 3;         // ...and rounds over the set-up inputs after
                                          // every episode (the first round of a batch
                                          // meets caches the episode left cold)
constexpr std::uint64_t k_setup_inputs = 4;  // seeded inputs the set-up samples cycle over
constexpr int k_episode_ms = 200;         // simulated length of one episode
constexpr int k_snapshot_every_ms = 5;    // snapshot cadence inside an episode
constexpr int k_snapshot_phase_ms = 2;    // ...taken after slices 2, 7, 12, ...
constexpr int k_traced_episode_ms = 20;   // traced episodes: bounded span count
const de::time k_slice = de::time(1.0, de::time_unit::ms);

/// Burst-gated tone, stateless in time (the gate and phase are functions of
/// the sample time), so a restored bench needs no private state for it.
struct burst_tone : tdf::module {
    tdf::out<double> out;
    double amp, hz, slot_s, p;
    std::uint64_t burst_seed;

    burst_tone(const de::module_name& nm, double amplitude, double frequency,
               std::uint64_t seed, double probability, double slot)
        : tdf::module(nm), out("out"), amp(amplitude), hz(frequency), slot_s(slot),
          p(probability), burst_seed(seed) {}
    void set_attributes() override { set_timestep(0.5, de::time_unit::us); }  // 2 MHz
    void processing() override {
        const double t = tdf_time().to_seconds();
        const auto slot = static_cast<std::uint64_t>(t / slot_s);
        const bool active = unit(derive(burst_seed, slot)) < p;
        out.write(active ? amp * std::sin(2.0 * k_pi * hz * t) : 0.0);
    }
};

struct bool_sink : tdf::module {
    tdf::in<bool> in;
    explicit bool_sink(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void processing() override { (void)in.read(); }
};

struct double_sink : tdf::module {
    tdf::in<double> in;
    explicit double_sink(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void processing() override { (void)in.read(); }
};

struct fig1_inputs {
    double tone_hz, tone_amp, burst_seed, burst_p;
};

/// Episode `e` of seed `seed`: tone frequency/amplitude and the line-activity
/// burst pattern.  Ranges are narrow so seeds differ in detail, not in cost.
fig1_inputs inputs_for(std::uint64_t seed, std::uint64_t e) {
    const std::uint64_t h = derive(seed, e);
    fig1_inputs in{};
    in.tone_hz = 6e3 + 4e3 * unit(derive(h, 1));
    in.tone_amp = 0.45 + 0.1 * unit(derive(h, 2));
    in.burst_seed = static_cast<double>(derive(h, 3) >> 11);  // exact in a double
    in.burst_p = 0.5 + 0.2 * unit(derive(h, 4));
    return in;
}

core::params to_params(const fig1_inputs& in) {
    return core::params{{"tone_hz", in.tone_hz},
                        {"tone_amp", in.tone_amp},
                        {"burst_seed", in.burst_seed},
                        {"burst_p", in.burst_p}};
}

void define_fig1() {
    core::scenario::define(
        "pb_fig1",
        core::params{{"tone_hz", 40e3}, {"tone_amp", 0.5}, {"burst_seed", 1.0},
                     {"burst_p", 0.6}},
        [](core::testbench& tb, const core::params& p) {
            auto& tone = tb.make<burst_tone>(
                "tone", p.number("tone_amp"), p.number("tone_hz"),
                static_cast<std::uint64_t>(p.number("burst_seed")), p.number("burst_p"),
                1e-3);

            // Line driver: signal-flow (LSF) 3rd-order Butterworth lowpass at
            // 150 kHz plus gain.
            auto& drv = tb.make<lsf::system>("driver");
            auto u = drv.create_signal("u");
            auto filtered = drv.create_signal("filtered");
            auto y = drv.create_signal("y");
            auto& drv_in = tb.make<lsf::from_tdf>("drv_in", drv, u);
            const auto tf = lsf::filters::butterworth_lowpass(3, 150e3);
            tb.make<lsf::ltf_nd>("drv_filter", drv, u, filtered, tf.num, tf.den);
            tb.make<lsf::gain>("drv_gain", drv, filtered, y, 4.0);
            auto& drv_out = tb.make<lsf::to_tdf>("drv_out", drv, y);

            // Subscriber line: electrical (ELN) RC two-port with a termination
            // the software controller switches.
            auto& line = tb.make<eln::network>("line");
            auto gnd = line.ground();
            auto tx = line.create_node("tx");
            auto mid = line.create_node("mid");
            auto rx = line.create_node("rx");
            auto& drv_src = tb.make<eln::tdf_vsource>("drv_src", line, tx, gnd);
            tb.make<eln::resistor>("r_s", line, tx, mid, 100.0);
            tb.make<eln::capacitor>("c_line", line, mid, gnd, 10e-9);
            tb.make<eln::resistor>("r_line", line, mid, rx, 100.0);
            tb.make<eln::resistor>("r_term", line, rx, gnd, 100.0);
            auto& term = tb.make<eln::de_rswitch>("term_sw", line, rx, gnd, 1e3, 1e9);
            auto& rx_probe = tb.make<eln::tdf_vsink>("rx_probe", line, rx, gnd);

            // Receive codec: sigma-delta prefi/pofi and the FIR (dataflow).
            auto& prefi = tb.make<lib::sigma_delta_modulator>("prefi", 2U, 1.0);
            auto& pofi = tb.make<lib::sinc3_decimator>("pofi", 32U);
            auto& rx_fir = tb.make<lib::fir>("rx_fir", lib::fir::design_lowpass(63, 0.4));
            auto& dsp_sink = tb.make<double_sink>("dsp_sink");

            // Line-activity comparator at the modulator rate -> DE controller
            // (the software side of Fig. 1).  The controller counts activity
            // edges and toggles the line termination every 64th edge.
            auto& level = tb.make<lib::comparator>("level", 0.05, 0.02);
            auto& level_sink = tb.make<bool_sink>("level_sink");
            auto& line_active = tb.make<de::signal<bool>>("line_active", false);
            auto& term_on = tb.make<de::signal<bool>>("term_on", false);
            auto& changes = tb.make<de::signal<double>>("link_changes", 0.0);
            level.enable_de_output(line_active);
            term.ctrl.bind(term_on);

            connect(tone.out, drv_in.inp);
            connect(drv_out.outp, drv_src.inp);
            auto& w_rx = connect(rx_probe.outp, prefi.in);
            connect(prefi.out, pofi.in);
            connect(pofi.out, rx_fir.in);
            auto& w_fir = connect(rx_fir.out, dsp_sink.in);
            level.in.bind(w_rx);
            connect(level.out, level_sink.in);

            // The controller's whole state lives in DE signals, which the
            // snapshot carries.
            auto& ctl = tb.context().register_method(
                "controller", [&term_on, &changes] {
                    const double n = changes.read() + 1.0;
                    changes.write(n);
                    if (std::fmod(n, 64.0) == 0.0) term_on.write(!term_on.read());
                });
            ctl.dont_initialize();
            ctl.make_sensitive(line_active.value_changed_event());

            tb.probe("fir", w_fir);
            tb.probe("rx", w_rx);
            tb.probe("link_changes", changes);
            tb.measure("fir_last", [&w_fir] { return w_fir.last_value(); });
            tb.measure("link_changes", [&changes] { return changes.read(); });
            tb.set_sample_period(de::time(16.0, de::time_unit::us));
            tb.set_stop_time(de::time(static_cast<double>(k_episode_ms), de::time_unit::ms));
        });
}

std::map<std::string, std::uint64_t> exact_counters(core::testbench& tb) {
    std::map<std::string, std::uint64_t> out;
    for (const auto& mv : tb.context().collect_metrics()) {
        for (const char* name : k_exact_counters) {
            if (mv.name == name) out[name] = mv.count;
        }
    }
    return out;
}

/// Bit-for-bit comparison of the resumed tail against the uninterrupted run.
bool resume_matches(const core::testbench& full, const core::testbench& resumed,
                    std::string& why) {
    const auto& ft = full.times();
    const auto& rt = resumed.times();
    if (rt.empty() || rt.size() > ft.size()) {
        why = "resumed trace has " + std::to_string(rt.size()) + " samples";
        return false;
    }
    const std::size_t off = ft.size() - rt.size();
    for (const std::string& probe : full.probe_names()) {
        const auto a = full.waveform(probe);
        const auto b = resumed.waveform(probe);
        for (std::size_t i = 0; i < b.size(); ++i) {
            if (ft[off + i] != rt[i] || a[off + i] != b[i]) {
                why = "probe '" + probe + "' differs at resumed sample " + std::to_string(i);
                return false;
            }
        }
    }
    if (full.measurements() != resumed.measurements()) {
        why = "end measurements differ";
        return false;
    }
    return true;
}

/// Per-episode figures.  The slice times the run reports are the best of
/// the repetitions of each slice (see best_of).
struct episode_stats {
    std::vector<double> slice_ms;     ///< every steady-state slice of the run
    best_of best_slice_ms;            ///< per slice: the fastest repetition
    best_of best_save_ms;             ///< per snapshot save: the same
    std::vector<double> save_ms;
    std::vector<double> restore_ms;
    std::vector<double> snapshot_bytes;
    std::uint64_t episodes = 0;
    std::uint64_t dropped = 0;
};

/// One episode: build, run `len_ms` 1 ms slices with periodic snapshots,
/// then decode the last snapshot, continue it, and compare.  With `traced`
/// the bench's tracer (and the resumed bench's) records spans; `keep`
/// additionally moves them into the trace file.
void run_episode(const core::scenario& sc, const fig1_inputs& in, int len_ms,
                 bool traced, bool keep, episode_stats& st, record& rec,
                 std::map<std::string, std::uint64_t>* exact) {
    std::unique_ptr<core::testbench> tb;
    {
        span s("scenario.build", "core.scenario");
        tb = sc.build(to_params(in));
    }
    if (traced) tb->context().tracer().enable();
    std::vector<std::uint8_t> last;
    int last_at_ms = 0;
    std::vector<double> slices;
    std::vector<double> saves;
    try {
        for (int k = 0; k < len_ms; ++k) {
            const auto t0 = steady::now();
            {
                span s("testbench.run", "core.scenario");
                tb->run(k_slice);
            }
            const double dt = seconds_since(t0);
            ++rec.attempted;
            // Slice 0 also elaborates the model; it is set-up, not steady state.
            if (k > 0) {
                slices.push_back(1e3 * dt);
            }
            if (k % k_snapshot_every_ms == k_snapshot_phase_ms) {
                const auto t1 = steady::now();
                {
                    span s("encode_snapshot", "core.snapshot");
                    last = core::encode_snapshot(*tb);
                }
                const double ds = seconds_since(t1);
                ++rec.attempted;
                st.save_ms.push_back(1e3 * ds);
                saves.push_back(1e3 * ds);
                st.snapshot_bytes.push_back(static_cast<double>(last.size()));
                last_at_ms = k + 1;
            }
        }
    } catch (const std::exception& e) {
        rec.check(false, std::string("fig1 transient: ") + e.what());
        ++st.episodes;
        return;
    }
    if (exact != nullptr) *exact = exact_counters(*tb);
    st.best_slice_ms.add(0, slices);
    st.best_save_ms.add(0, saves);
    st.slice_ms.insert(st.slice_ms.end(), slices.begin(), slices.end());

    // Output check: continue the decoded last snapshot to the episode end.
    std::string why;
    bool ok = false;
    try {
        const auto t2 = steady::now();
        std::unique_ptr<core::testbench> resumed;
        {
            span s("decode_snapshot", "core.snapshot");
            resumed = core::decode_snapshot(last);
        }
        st.restore_ms.push_back(ms_since(t2));
        if (traced) resumed->context().tracer().enable();
        for (int k = last_at_ms; k < len_ms; ++k) {
            span s("testbench.run", "core.scenario");
            resumed->run(k_slice);
        }
        {
            span s("check.resume", "bench.check");
            ok = resume_matches(*tb, *resumed, why);
        }
        if (traced) {
            st.dropped += resumed->context().tracer().dropped();
            if (keep) spans().harvest(resumed->context().tracer());
        }
        span s("testbench.destroy", "core.scenario");
        resumed.reset();
    } catch (const std::exception& e) {
        why = e.what();
    }
    rec.check_known_defect(ok, "fig1 snapshot continuation: " + why);
    if (traced) {
        st.dropped += tb->context().tracer().dropped();
        if (keep) spans().harvest(tb->context().tracer());
    }
    {
        span s("testbench.destroy", "core.scenario");
        tb.reset();
    }
    ++st.episodes;
}

}  // namespace

void print_fig1_inputs(std::uint64_t seed, std::ostream& os) {
    for (std::uint64_t e = 0; e < 4; ++e) {
        const auto in = inputs_for(seed, e);
        char buf[160];
        std::snprintf(buf, sizeof buf, "episode %llu tone_hz=%a tone_amp=%a burst_seed=%a burst_p=%a\n",
                      static_cast<unsigned long long>(e), in.tone_hz, in.tone_amp,
                      in.burst_seed, in.burst_p);
        os << buf;
    }
}

void run_fig1(const options& opt, record& rec) {
    define_fig1();
    const auto sc = core::scenario::find("pb_fig1");
    rec.info["episode_ms"] = std::to_string(k_episode_ms);
    rec.info["snapshot_every_ms"] = std::to_string(k_snapshot_every_ms);

    // --- set-up: build + elaborate of Fig. 1 (more samples between episodes) --
    setup_samples setup;
    for (int i = 0; i < k_setup_reps; ++i) {
        const auto unit = static_cast<std::uint64_t>(i) % k_setup_inputs;
        setup.take(sc, to_params(inputs_for(opt.seed, unit)), unit);
    }

    // --- measured phase: untraced episodes ------------------------------------
    spans().disable();
    const double budget = opt.trace ? 0.45 * opt.seconds : opt.seconds;
    episode_stats st;
    std::map<std::string, std::uint64_t> exact;
    const fig1_inputs in = inputs_for(opt.seed, 0);
    const auto t_start = steady::now();
    for (std::uint64_t e = 0; e == 0 || seconds_since(t_start) < budget; ++e) {
        run_episode(sc, in, k_episode_ms, false, false, st, rec, e == 0 ? &exact : nullptr);
        for (int round = 0; round < k_setup_rounds; ++round) {
            for (std::uint64_t i = 0; i < k_setup_inputs; ++i) {
                setup.take(sc, to_params(inputs_for(opt.seed, i)), i);
            }
        }
    }
    setup.report(rec);
    report_exact(rec, exact);

    // Best-of-repetitions slice times (sample counts are all slices timed).
    const auto n = st.slice_ms.size();
    const auto best = st.best_slice_ms.values();
    // sim_speed counts the snapshot saves too.
    double best_sum_ms = 0.0;
    for (const double ms : best) best_sum_ms += ms;
    for (const double ms : st.best_save_ms.values()) best_sum_ms += ms;
    const double slices_per_s = 1e3 * static_cast<double>(best.size()) / best_sum_ms;
    rec.set_e2e("slices_per_s", slices_per_s, "1/s", n);
    rec.set_e2e("sim_speed", slices_per_s / 1e3, "sim_s/s", n);
    rec.set_e2e("slice_ms_p50", median(best), "ms", n);
    rec.set_e2e("slice_ms_p95", quantile(best, 0.95), "ms", n);
    rec.info["repetitions_per_slice"] = std::to_string(st.best_slice_ms.min_reps());
    rec.set_layer("snapshot.save_ms", median(st.save_ms), "ms", st.save_ms.size());
    rec.set_layer("snapshot.restore_ms", median(st.restore_ms), "ms", st.restore_ms.size());
    rec.set_layer("snapshot.bytes", median(st.snapshot_bytes), "B", st.snapshot_bytes.size());
    rec.info["episodes"] = std::to_string(st.episodes);

    if (!opt.trace) return;

    // --- traced phase: same episodes, shorter, tracer on ----------------------
    // Only the first traced episode goes to the trace file (a fixed amount of
    // work, so the per-layer table compares across runs); the rest measure
    // the tracing overhead on the same slice loop.
    episode_stats tr;
    spans().enable();
    const auto t_traced = steady::now();
    for (std::uint64_t e = 0; e == 0 || seconds_since(t_traced) < budget; ++e) {
        const bool keep = e == 0;
        const std::size_t mark = spans().size();
        const auto t0 = sca::util::event_tracer::now_ns();
        run_episode(sc, in, k_traced_episode_ms, true, keep, tr, rec,
                    nullptr);
        if (keep) {
            spans().record("fig1.traced_episode", "bench", t0, sca::util::event_tracer::now_ns());
        } else {
            spans().rollback(mark);
        }
    }
    const double untraced = median(st.slice_ms);
    rec.set_layer("trace.overhead_frac", untraced > 0 ? median(tr.slice_ms) / untraced - 1.0 : 0.0,
                  "ratio", tr.slice_ms.size());
    rec.set_layer("trace.dropped", static_cast<double>(tr.dropped + spans().dropped()), "count");
}

}  // namespace pb
