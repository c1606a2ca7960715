// Probe-tap suite (`ctest -L probe_tap`): a testbench probe on a TDF signal
// is recorded by a tap inside the cluster that writes it (tdf::probe_tap),
// not by the DE recorder process.  The DE recorder stays the oracle: the same
// signal probed through a callable is recorded by it, and both traces must be
// byte-identical — times and values — across sample periods below, equal to,
// above and not a multiple of the cluster period, block execution on/off,
// batch caps 1 and 64, elaboration before the first run or not, one run or
// slices, and a snapshot/resume in the middle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "kernel/process.hpp"
#include "kernel/scheduler.hpp"
#include "kernel/signal.hpp"
#include "lib/filters.hpp"
#include "lib/oscillator.hpp"
#include "tdf/cluster.hpp"
#include "tdf/connect.hpp"
#include "tdf/converter.hpp"
#include "tdf_random_graphs.hpp"

namespace core = sca::core;
namespace de = sca::de;
namespace tdf = sca::tdf;
namespace lib = sca::lib;
using namespace sca::de::literals;
using sca::test::collector;
using sca::test::idx_source;
using sca::test::poly_stage;

namespace {

// ------------------------------------------------------------------ benches

/// build_chain's graph interface on top of a testbench.
struct bench_graph {
    core::testbench& tb;
    std::vector<collector*> sinks;
    std::vector<tdf::signal<double>*> wires;

    template <typename M, typename... A>
    M& add(A&&... args) {
        return tb.make<M>(std::forward<A>(args)...);
    }
    tdf::signal<double>& wire(const std::string& nm) {
        auto& w = tb.make<tdf::signal<double>>(nm);
        wires.push_back(&w);
        return w;
    }
};

/// Probe every wire: through the tap (the signal overload) or through the
/// DE recorder (a callable reading what the recorder always read).
void probe_wires(core::testbench& tb, const std::vector<tdf::signal<double>*>& wires,
                 bool oracle) {
    for (tdf::signal<double>* w : wires) {
        if (oracle) {
            tb.probe(w->name(), [w] { return w->last_value(); });
        } else {
            tb.probe(w->name(), *w);
        }
    }
}

void configure(core::testbench& tb, const core::params& p) {
    auto& reg = tdf::registry::of(tb.context());
    reg.set_default_block_execution(p.number("block") != 0.0);
    reg.set_default_max_batch_periods(static_cast<std::uint64_t>(p.number("batch")));
}

/// Seeded random chain (rates 1..8, delays 0..4), sampled at
/// cluster period * p_num / p_den.
void define_chain() {
    core::scenario::define("probe_tap_chain", [](core::testbench& tb, const core::params& p) {
        configure(tb, p);
        bench_graph g{tb, {}, {}};
        std::mt19937 rng(static_cast<std::uint32_t>(p.number("seed")));
        const de::time dur = sca::test::build_chain(g, rng);
        auto* src = dynamic_cast<idx_source*>(tb.context().find_object("src"));
        const auto num = static_cast<std::int64_t>(p.number("p_num"));
        const auto den = static_cast<std::int64_t>(p.number("p_den"));
        tb.set_sample_period(de::time::from_fs(src->cluster_period.value_fs() * num / den));
        tb.note("dur_fs", static_cast<double>(dur.value_fs()));
        probe_wires(tb, g.wires, p.number("oracle") != 0.0);
    });
}

/// A dynamic source retiming its cluster between 10 us and 25 us every 16
/// firings, feeding a stateful stage and a sink.
struct retimer : idx_source {
    bool slow = false;
    using idx_source::idx_source;
    [[nodiscard]] bool does_attribute_changes() const override { return true; }
    void set_attributes() override { set_timestep(10_us); }
    void change_attributes() override {
        if (next % 16 == 0) {
            slow = !slow;
            request_timestep(slow ? 25_us : 10_us);
        }
    }
    void save_state(sca::util::byte_writer& w) const override {
        idx_source::save_state(w);
        w.boolean(slow);
    }
    void restore_state(sca::util::byte_reader& r) override {
        idx_source::restore_state(r);
        slow = r.boolean();
    }
};
struct retimed_stage : poly_stage {
    using poly_stage::poly_stage;
    [[nodiscard]] bool accept_attribute_changes() const override { return true; }
};
struct retimed_sink : collector {
    using collector::collector;
    [[nodiscard]] bool accept_attribute_changes() const override { return true; }
};

void define_retimer() {
    core::scenario::define("probe_tap_retimer", [](core::testbench& tb,
                                                   const core::params& p) {
        configure(tb, p);
        auto& src = tb.make<retimer>(de::module_name("src"), 1U);
        auto& st = tb.make<retimed_stage>(de::module_name("st"), 1U, 1U);
        auto& sink = tb.make<retimed_sink>(de::module_name("sink"));
        auto& w0 = tb.make<tdf::signal<double>>("w0");
        auto& w1 = tb.make<tdf::signal<double>>("w1");
        src.out.bind(w0);
        st.in.bind(w0);
        st.out.bind(w1);
        sink.in.bind(w1);
        tb.set_sample_period(de::time::from_fs(static_cast<std::int64_t>(p.number("p_fs"))));
        tb.note("dur_fs", static_cast<double>((3_ms).value_fs()));
        probe_wires(tb, {&w0, &w1}, p.number("oracle") != 0.0);
    });
}

/// Two independent pure clusters (peers) with different periods, both
/// probed: each tap replays its own cluster, whose batching ignores the
/// other's re-arms.
void define_peers() {
    core::scenario::define("probe_tap_peers", [](core::testbench& tb, const core::params& p) {
        configure(tb, p);
        std::vector<tdf::signal<double>*> wires;
        for (const auto& [tag, step, rate] :
             {std::tuple{"a", 3_us, 2U}, std::tuple{"b", 6_us, 3U}}) {
            const std::string t = tag;
            auto& src = tb.make<idx_source>(de::module_name(("src_" + t).c_str()), rate);
            src.step = step;
            auto& st = tb.make<poly_stage>(de::module_name(("st_" + t).c_str()), 1U, 2U);
            auto& sink = tb.make<collector>(de::module_name(("sink_" + t).c_str()), 1U);
            auto& w0 = tb.make<tdf::signal<double>>("w0_" + t);
            auto& w1 = tb.make<tdf::signal<double>>("w1_" + t);
            src.out.bind(w0);
            st.in.bind(w0);
            st.out.bind(w1);
            sink.in.bind(w1);
            wires.push_back(&w1);
        }
        tb.set_sample_period(de::time::from_fs(static_cast<std::int64_t>(p.number("p_fs"))));
        tb.note("dur_fs", static_cast<double>((2_ms).value_fs()));
        probe_wires(tb, wires, p.number("oracle") != 0.0);
    });
}

// ------------------------------------------------------------------ drivers

enum class drive { one_run, sliced, snapshot };

struct trace_rows {
    std::vector<double> times;
    std::vector<std::vector<double>> columns;

    void append(const core::testbench& tb) {
        times.insert(times.end(), tb.times().begin(), tb.times().end());
        const auto names = tb.probe_names();
        columns.resize(names.size());
        for (std::size_t c = 0; c < names.size(); ++c) {
            const auto w = tb.waveform(names[c]);
            columns[c].insert(columns[c].end(), w.begin(), w.end());
        }
    }
};

bool has_recorder(core::testbench& tb) {
    const auto& procs = tb.context().sched().processes();
    return std::any_of(procs.begin(), procs.end(), [](const de::method_process* p) {
        return p->name() == "trace_recorder";
    });
}

trace_rows run_bench(const std::string& scenario, const core::params& p, bool elaborate_first,
                     drive how) {
    auto tb = core::scenario::find(scenario).build(p);
    if (elaborate_first) tb->elaborate();
    const de::time dur = de::time::from_fs(static_cast<std::int64_t>(tb->note("dur_fs")));
    trace_rows rows;
    if (how == drive::one_run) {
        tb->run(dur);
        rows.append(*tb);
    } else if (how == drive::sliced) {
        // Slices that align with neither the cluster period nor the samples.
        const de::time slice = de::time::from_fs(dur.value_fs() / 7 + 13);
        while (tb->context().now() < dur) tb->run(std::min(slice, dur - tb->context().now()));
        rows.append(*tb);
    } else {
        const de::time mid = de::time::from_fs(dur.value_fs() / 20 * 9 + 7);
        tb->run(mid);
        rows.append(*tb);
        const std::string file = "probe_tap_" + scenario + ".bin";
        tb->snapshot(file);
        auto resumed = core::scenario::resume(file);
        std::remove(file.c_str());
        EXPECT_FALSE(has_recorder(*resumed));
        resumed->run(dur - mid);
        rows.append(*resumed);
    }
    EXPECT_EQ(has_recorder(*tb), p.number("oracle") != 0.0) << scenario;
    return rows;
}

void expect_identical(const trace_rows& oracle, const trace_rows& tap,
                      const std::string& what) {
    ASSERT_GT(oracle.times.size(), 4U) << what;
    ASSERT_EQ(oracle.times, tap.times) << what;
    ASSERT_EQ(oracle.columns.size(), tap.columns.size()) << what;
    for (std::size_t c = 0; c < oracle.columns.size(); ++c) {
        for (std::size_t i = 0; i < oracle.columns[c].size(); ++i) {
            ASSERT_EQ(oracle.columns[c][i], tap.columns[c][i])
                << what << " channel " << c << " row " << i << " t=" << oracle.times[i];
        }
    }
}

/// Every execution variant of `base` against the DE-recorder oracle.
void check_variants(const std::string& scenario, core::params base, const std::string& what) {
    for (const double block : {1.0, 0.0}) {
        for (const double batch : {64.0, 1.0}) {
            for (const bool elaborate_first : {false, true}) {
                core::params p = base;
                p.set("block", block).set("batch", batch);
                p.set("oracle", 1.0);
                const trace_rows oracle = run_bench(scenario, p, elaborate_first, drive::one_run);
                p.set("oracle", 0.0);
                const std::string tag = what + " block=" + std::to_string(int(block)) +
                                        " batch=" + std::to_string(int(batch)) +
                                        " elaborate_first=" + std::to_string(elaborate_first);
                expect_identical(oracle, run_bench(scenario, p, elaborate_first, drive::one_run),
                                 tag + " one run");
                expect_identical(oracle, run_bench(scenario, p, elaborate_first, drive::sliced),
                                 tag + " sliced");
                expect_identical(oracle,
                                 run_bench(scenario, p, elaborate_first, drive::snapshot),
                                 tag + " snapshot");
            }
        }
    }
}

}  // namespace

TEST(probe_tap, matches_recorder_on_random_chains) {
    define_chain();
    // Sample period / cluster period: below, equal, above, and two that are
    // neither a multiple nor a divisor of it.
    const std::vector<std::pair<int, int>> ratios = {{1, 2}, {1, 1}, {3, 1}, {7, 5}, {3, 4}};
    for (std::uint32_t seed = 0; seed < 4; ++seed) {
        for (const auto& [num, den] : ratios) {
            core::params p{{"seed", double(seed)}, {"p_num", double(num)}, {"p_den", double(den)}};
            check_variants("probe_tap_chain", p,
                           "seed " + std::to_string(seed) + " P=T*" + std::to_string(num) +
                               "/" + std::to_string(den));
        }
    }
}

TEST(probe_tap, matches_recorder_on_dynamic_retimer) {
    define_retimer();
    for (const de::time p : {5_us, 10_us, 30_us, 14_us, de::time(7.5, de::time_unit::us)}) {
        check_variants("probe_tap_retimer", core::params{{"p_fs", double(p.value_fs())}},
                       "retimer P=" + p.to_string());
    }
}

TEST(probe_tap, matches_recorder_on_peer_clusters) {
    define_peers();
    for (const de::time p : {1_us, 3_us, 6_us, 7_us, 15_us}) {
        check_variants("probe_tap_peers", core::params{{"p_fs", double(p.value_fs())}},
                       "peers P=" + p.to_string());
    }
}

namespace {

/// A chain whose last stage also hands its samples to the DE side, making
/// the cluster DE-coupled; a DE process consumes them.
struct de_writer : tdf::module {
    tdf::in<double> in;
    tdf::de_out<double> out;
    explicit de_writer(const de::module_name& nm) : tdf::module(nm), in("in"), out("out") {}
    void processing() override { out.write(in.read()); }
};

}  // namespace

TEST(probe_tap, matches_recorder_on_de_coupled_cluster) {
    for (const de::time period : {2_us, 4_us, 6_us, 10_us}) {
        auto run = [&](bool oracle) {
            core::testbench tb;
            auto& src = tb.make<idx_source>(de::module_name("src"), 1U);
            src.step = 4_us;
            auto& wr = tb.make<de_writer>(de::module_name("wr"));
            auto& w = tb.make<tdf::signal<double>>("w");
            auto& d = tb.make<de::signal<double>>("d");
            src.out.bind(w);
            wr.in.bind(w);
            wr.out.bind(d);
            double seen = 0.0;
            tb.context().register_method("consumer", [&] { seen += d.read(); })
                .make_sensitive(d.value_changed_event());
            if (oracle) {
                tb.probe("w", [&w] { return w.last_value(); });
            } else {
                tb.probe("w", w);
            }
            tb.set_sample_period(period);
            tb.run(1_ms);
            EXPECT_EQ(has_recorder(tb), oracle);
            trace_rows rows;
            rows.append(tb);
            return rows;
        };
        expect_identical(run(true), run(false), "de-coupled P=" + period.to_string());
    }
}

TEST(probe_tap, other_de_processes_keep_the_recorder) {
    // A DE process next to a pure cluster bounds its batching, which the tap
    // cannot replay: the probe stays with the DE recorder.
    auto run = [](bool oracle) {
        core::testbench tb;
        auto& src = tb.make<idx_source>(de::module_name("src"), 2U);
        auto& sink = tb.make<collector>(de::module_name("sink"), 1U);
        auto& w = tb.make<tdf::signal<double>>("w");
        src.out.bind(w);
        sink.in.bind(w);
        tb.context().register_method("ticker", [&tb] { tb.context().next_trigger(7_us); });
        if (oracle) {
            tb.probe("w", [&w] { return w.last_value(); });
        } else {
            tb.probe("w", w);
        }
        tb.set_sample_period(2_us);
        tb.run(500_us);
        EXPECT_TRUE(has_recorder(tb));
        trace_rows rows;
        rows.append(tb);
        return rows;
    };
    expect_identical(run(true), run(false), "pure cluster beside a DE process");
}

TEST(probe_tap, mixed_probes_keep_the_recorder) {
    core::testbench tb;
    auto& src = tb.make<idx_source>(de::module_name("src"), 1U);
    auto& sink = tb.make<collector>(de::module_name("sink"), 1U);
    auto& w = tb.make<tdf::signal<double>>("w");
    src.out.bind(w);
    sink.in.bind(w);
    tb.probe("w", w);
    tb.probe("w_callable", [&w] { return w.last_value(); });
    tb.set_sample_period(3_us);
    tb.run(200_us);
    EXPECT_TRUE(has_recorder(tb));
    EXPECT_EQ(tb.waveform("w"), tb.waveform("w_callable"));
}

namespace {

struct chain_sink : tdf::module {
    tdf::in<double> in;
    explicit chain_sink(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void set_attributes() override { set_timestep(10_us); }
    void processing() override { (void)in.read(); }
    [[nodiscard]] bool has_block_processing() const override { return true; }
    void processing(tdf::block_view&) override {}
};

struct chain_counts {
    std::uint64_t timed_notifications;
    std::uint64_t fused_cycles;
    std::uint64_t cycles;
};

/// sine -> fir -> biquad -> 2:1 decimator -> sink at 10 us, run in 1 ms
/// slices as a streaming session does, optionally probed at its period.
chain_counts run_chain(bool probed) {
    core::testbench tb;
    auto& src = tb.make<lib::sine_source>("src", 1.0, 2e3);
    auto& fir = tb.make<lib::fir>("fir", lib::fir::design_lowpass(31, 0.2));
    auto& bq = tb.make<lib::biquad>("bq", lib::biquad_coefficients{0.25, 0.5, 0.25, -0.4, 0.05});
    auto& down = tb.make<lib::decimator>("down", 2U);
    auto& sink = tb.make<chain_sink>("sink");
    tdf::connect(src.out, fir.in);
    tdf::connect(fir.out, bq.in);
    tdf::connect(bq.out, down.in);
    auto& y = tdf::connect(down.out, sink.in);
    if (probed) tb.probe("y", y);
    tb.set_sample_period(10_us);
    for (int i = 0; i < 20; ++i) tb.run(1_ms);
    if (probed) {
        EXPECT_FALSE(has_recorder(tb));
        EXPECT_EQ(tb.times().size(), 2001U);
    }
    const auto& c = *tdf::registry::of(tb.context()).clusters().front();
    return {tb.context().sched().timed_notification_count(), c.fused_cycle_count(),
            c.cycle_count()};
}

}  // namespace

TEST(probe_tap, probed_pure_chain_keeps_batching_and_fusion) {
    const chain_counts bare = run_chain(false);
    const chain_counts probed = run_chain(true);
    EXPECT_EQ(probed.cycles, bare.cycles);
    EXPECT_EQ(probed.timed_notifications, bare.timed_notifications);
    EXPECT_GT(probed.fused_cycles, 0U);
    EXPECT_EQ(probed.fused_cycles, bare.fused_cycles);
}
