// Differential suite for DE-switched linear networks (`ctest -L switched`).
//
// Seeded random models: RC/RLC ladders of 2–12 nodes with a de_rswitch, a
// de_vsource, a de_isource and an lsf::from_de path feeding the ladder, all
// driven by one DE process at random instants — some on cluster-period
// starts, some on run() slice boundaries, some off the grid — under both
// backward Euler and the trapezoidal rule.  The cluster only reads DE, so it
// batches periods between DE events and its solvers serve most switch
// events from the factor cache.  Every model must give:
//   1. byte-identical traces with period batching off (max batch 1), with
//      block execution off, and when run in slices;
//   2. after every step, x bitwise equal to a step computed here the plain
//      way (sparse multiply_into + solve_into against the solver's factors);
//   3. numeric factors bitwise equal to a fresh refactor() of the iteration
//      matrix they were used for (cache hits included);
//   4. byte-identical continuation after a snapshot at a random instant.
// Probed through the testbench at, below and above the cluster period, the
// same models must record byte-identical traces batched and per-period.
// Eight of them also run as a run_set on worker threads and on worker
// processes, with byte-identical waveforms, result CSV and metrics CSV.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/run_set.hpp"
#include "core/scenario.hpp"
#include "core/snapshot.hpp"
#include "eln/converter.hpp"
#include "eln/network.hpp"
#include "eln/primitives.hpp"
#include "kernel/context.hpp"
#include "kernel/module.hpp"
#include "kernel/scheduler.hpp"
#include "kernel/signal.hpp"
#include "lsf/ltf.hpp"
#include "lsf/node.hpp"
#include "lsf/primitives.hpp"
#include "numeric/sparse.hpp"
#include "solver/linear_dae.hpp"
#include "tdf/cluster.hpp"
#include "tdf/dae_module.hpp"
#include "tdf/module.hpp"
#include "tdf/port.hpp"
#include "util/bytes.hpp"

namespace core = sca::core;
namespace de = sca::de;
namespace eln = sca::eln;
namespace lsf = sca::lsf;
namespace num = sca::num;
namespace solver = sca::solver;
namespace tdf = sca::tdf;

namespace {

constexpr std::int64_t k_us = 1'000'000'000;  // femtoseconds per microsecond

/// splitmix64: portable, so a seed names the same model on every platform.
struct rng {
    std::uint64_t s;
    std::uint64_t next() {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    double uniform(double lo, double hi) {
        return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
    }
    std::uint64_t below(std::uint64_t n) { return next() % n; }
    bool chance(double p) { return uniform(0.0, 1.0) < p; }
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// One random switched model, fully determined by its seed.
struct model_spec {
    unsigned nodes = 2;
    std::int64_t period_us = 1;
    bool trapezoidal = true;
    bool with_lsf = false;
    bool with_isource = false;
    std::vector<bool> inductor_link;  // series element i -> i+1 is an inductor
    std::vector<double> r_series, c_shunt, l_series;
    unsigned switch_node = 0;
    double r_on = 1.0, r_off = 1e6;
    unsigned isource_node = 0;
    unsigned lsf_node = 0;
    double lsf_w = 1e5;
    std::int64_t end_us = 300;
    std::vector<std::int64_t> instants_fs;   // DE driver wake instants
    std::vector<std::array<double, 4>> values;  // gate, v, i, lsf level
    std::vector<std::int64_t> slice_ends_fs;  // run() boundaries, last = end
};

model_spec make_spec(std::uint64_t seed) {
    rng r{seed * 0x2545f4914f6cdd1dULL + 17};
    model_spec m;
    m.nodes = 2 + static_cast<unsigned>(r.below(11));
    m.period_us = 1 + static_cast<std::int64_t>(r.below(3));
    m.trapezoidal = seed % 2 == 0;
    m.with_lsf = r.chance(0.7);
    m.with_isource = r.chance(0.7);
    const bool rlc = r.chance(0.5);
    for (unsigned i = 0; i + 1 < m.nodes; ++i) {
        m.inductor_link.push_back(rlc && r.chance(0.4));
        m.r_series.push_back(r.uniform(10.0, 2e3));
        m.l_series.push_back(r.uniform(1e-5, 1e-3));
    }
    for (unsigned i = 0; i < m.nodes; ++i) m.c_shunt.push_back(r.uniform(1e-9, 1e-6));
    m.switch_node = static_cast<unsigned>(r.below(m.nodes));
    m.r_on = r.uniform(0.5, 50.0);
    m.r_off = r.uniform(1e5, 1e9);
    m.isource_node = static_cast<unsigned>(r.below(m.nodes));
    m.lsf_node = static_cast<unsigned>(r.below(m.nodes));
    m.lsf_w = r.uniform(2e4, 2e5);
    m.end_us = 240 + static_cast<std::int64_t>(r.below(120));

    // DE instants: random microseconds, cluster-period starts, and
    // off-grid half microseconds; t = 0 always (the driver's first run).
    std::vector<std::int64_t> at{0};
    const std::int64_t end_fs = m.end_us * k_us;
    const std::size_t n_events = 12 + r.below(20);
    for (std::size_t k = 0; k < n_events; ++k) {
        switch (r.below(3)) {
        case 0: at.push_back(static_cast<std::int64_t>(r.below(static_cast<std::uint64_t>(m.end_us))) * k_us); break;
        case 1: {
            const auto periods = static_cast<std::uint64_t>(m.end_us / m.period_us);
            at.push_back(static_cast<std::int64_t>(r.below(periods)) * m.period_us * k_us);
            break;
        }
        default:
            at.push_back(static_cast<std::int64_t>(r.below(static_cast<std::uint64_t>(m.end_us))) * k_us +
                         k_us / 2);
        }
    }
    // Slice boundaries: some on DE instants, some on cluster-period starts.
    std::vector<std::int64_t> slices;
    for (int k = 0; k < 3; ++k) slices.push_back(at[1 + r.below(at.size() - 1)]);
    for (int k = 0; k < 2; ++k) {
        const auto periods = static_cast<std::uint64_t>(m.end_us / m.period_us);
        const std::int64_t t = static_cast<std::int64_t>(1 + r.below(periods - 1)) * m.period_us * k_us;
        slices.push_back(t);
        at.push_back(t);  // a DE event right on a slice boundary
    }
    std::sort(at.begin(), at.end());
    at.erase(std::unique(at.begin(), at.end()), at.end());
    while (!at.empty() && at.back() >= end_fs) at.pop_back();
    m.instants_fs = at;
    bool gate = false;
    for (std::size_t k = 0; k < at.size(); ++k) {
        if (r.chance(0.7)) gate = !gate;
        m.values.push_back({gate ? 1.0 : 0.0, r.uniform(-5.0, 5.0), r.uniform(-1e-3, 1e-3),
                            r.uniform(-2.0, 2.0)});
    }
    slices.push_back(end_fs);
    std::sort(slices.begin(), slices.end());
    slices.erase(std::unique(slices.begin(), slices.end()), slices.end());
    slices.erase(std::remove_if(slices.begin(), slices.end(),
                                [&](std::int64_t t) { return t <= 0 || t > end_fs; }),
                 slices.end());
    m.slice_ends_fs = slices;
    return m;
}

/// DE process writing the spec's values at the spec's instants.
struct de_driver : de::module {
    de::out<bool> gate;
    de::out<double> v;
    de::out<double> i;
    de::out<double> level;
    const model_spec* spec;
    std::size_t k = 0;

    de_driver(const de::module_name& nm, const model_spec& s)
        : de::module(nm), gate("gate"), v("v"), i("i"), level("level"), spec(&s) {
        declare_method("drive", [this] { drive(); });
    }
    void drive() {
        const std::int64_t now_fs = now().value_fs();
        while (k < spec->instants_fs.size() && spec->instants_fs[k] <= now_fs) {
            gate.write(spec->values[k][0] != 0.0);
            v.write(spec->values[k][1]);
            i.write(spec->values[k][2]);
            level.write(spec->values[k][3]);
            ++k;
        }
        if (k < spec->instants_fs.size()) {
            next_trigger(de::time::from_fs(spec->instants_fs[k] - now_fs));
        }
    }
    [[nodiscard]] bool has_snapshot_state() const noexcept override { return true; }
    void save_state(sca::util::byte_writer& w) const override { w.u64(k); }
    void restore_state(sca::util::byte_reader& r) override { k = r.u64(); }
};

/// Replays the step `s` just took from (prev_x, prev_q) the plain way and
/// checks its factors against a fresh numeric pass; empty when all match.
std::string plain_step_mismatch(const solver::linear_dae_solver& s,
                                const solver::equation_system& sys,
                                const std::vector<double>& prev_x,
                                const std::vector<double>& prev_q) {
    const bool be = s.step_method() == solver::integration_method::backward_euler;
    const double h = s.timestep();
    // 2. The step as multiply_into + solve_into against the solver's factors.
    const std::vector<double> q1 = sys.rhs(s.time());
    std::vector<double> bx, ax;
    sys.b().multiply_into(prev_x, bx);
    sys.a().multiply_into(prev_x, ax);
    std::vector<double> rhs(q1.size());
    for (std::size_t r = 0; r < rhs.size(); ++r) {
        rhs[r] = be ? q1[r] + bx[r] / h : 0.5 * (q1[r] + prev_q[r]) + bx[r] / h - 0.5 * ax[r];
    }
    std::vector<double> x_ref;
    s.lu().solve_into(rhs, x_ref);
    if (!same_bits(x_ref, s.x())) return "x differs from multiply_into + solve_into";

    // 3. The factors against a fresh numeric pass over the same matrix.
    const num::sparse_matrix_d& m = s.iteration_matrix();
    num::sparse_lu_d fresh;
    if (!fresh.adopt_symbolic(s.lu().export_symbolic(), m) || !fresh.refactor(m)) {
        fresh.factor(m);
    }
    num::sparse_lu_d::numeric_values got, want;
    s.lu().save_numeric(got);
    fresh.save_numeric(want);
    if (!same_bits(got.l, want.l) || !same_bits(got.u, want.u) ||
        !same_bits(got.inv_diag, want.inv_diag)) {
        return "factors differ from a fresh refactor()";
    }
    // The iteration matrix itself: c_a A + B / h, entry for entry.
    num::sparse_matrix_d m_ref = m;
    m_ref.zero_values();
    m_ref.add_scaled(sys.a(), be ? 1.0 : 0.5);
    m_ref.add_scaled(sys.b(), 1.0 / h);
    for (std::size_t r = 0; r < m.size(); ++r) {
        if (m.row_values(r) != m_ref.row_values(r)) return "iteration matrix differs";
    }
    return {};
}

/// Fires after its view every period: records the view's output and state,
/// and replays the step the view just took the plain way.
struct step_oracle : tdf::module {
    tdf::in<double> in;
    tdf::dae_module* view;
    std::vector<double> trace;  // per firing: output sample, then x
    std::vector<double> prev_x, prev_q;
    std::uint64_t prev_solves = 0;
    bool have_prev = false;
    std::uint64_t checked = 0;
    std::uint64_t mismatches = 0;
    std::string first_mismatch;

    step_oracle(const de::module_name& nm, tdf::dae_module& v)
        : tdf::module(nm), in("in"), view(&v) {}

    void fail(const std::string& what) {
        if (mismatches++ == 0) first_mismatch = what + " at t=" + tdf_time().to_string();
    }

    void processing() override {
        trace.push_back(in.read());
        const solver::linear_dae_solver* s = view->linear_solver();
        if (s == nullptr) return;
        trace.insert(trace.end(), s->x().begin(), s->x().end());
        solver::equation_system& sys = view->equations();
        if (have_prev && s->solve_count() != prev_solves) check(*s, sys);
        prev_x = s->x();
        prev_q = sys.rhs(s->time());
        prev_solves = s->solve_count();
        have_prev = true;
    }

    void check(const solver::linear_dae_solver& s, const solver::equation_system& sys) {
        ++checked;
        const std::string why = plain_step_mismatch(s, sys, prev_x, prev_q);
        if (!why.empty()) fail(why);
    }

    [[nodiscard]] bool has_snapshot_state() const noexcept override { return true; }
    void save_state(sca::util::byte_writer& w) const override {
        w.f64_vec(prev_x);
        w.f64_vec(prev_q);
        w.u64(prev_solves);
        w.boolean(have_prev);
    }
    void restore_state(sca::util::byte_reader& r) override {
        prev_x = r.f64_vec();
        prev_q = r.f64_vec();
        prev_solves = r.u64();
        have_prev = r.boolean();
    }
};

/// Builds the model; with `sample_fs` > 0 the testbench also probes the far
/// node directly, the tdf_vsink's signal and the LSF output every sample_fs.
void build_model(core::testbench& tb, const model_spec& m, std::int64_t sample_fs = 0) {
    auto& gate = tb.make<de::signal<bool>>("gate", false);
    auto& v = tb.make<de::signal<double>>("v", 0.0);
    auto& i = tb.make<de::signal<double>>("i", 0.0);
    auto& level = tb.make<de::signal<double>>("level", 0.0);
    auto& drv = tb.make<de_driver>("driver", m);
    drv.gate.bind(gate);
    drv.v.bind(v);
    drv.i.bind(i);
    drv.level.bind(level);

    const auto method = m.trapezoidal ? solver::integration_method::trapezoidal
                                      : solver::integration_method::backward_euler;
    auto& net = tb.make<eln::network>("net");
    net.set_timestep(static_cast<double>(m.period_us), de::time_unit::us);
    net.set_integration_method(method);
    auto gnd = net.ground();
    std::vector<eln::node> n;
    for (unsigned k = 0; k < m.nodes; ++k) n.push_back(net.create_node("n" + std::to_string(k)));
    auto& src = tb.make<eln::de_vsource>("vin", net, n[0], gnd);
    src.inp.bind(v);
    for (unsigned k = 0; k + 1 < m.nodes; ++k) {
        const std::string id = std::to_string(k);
        if (m.inductor_link[k]) {
            tb.make<eln::inductor>("l" + id, net, n[k], n[k + 1], m.l_series[k]);
        } else {
            tb.make<eln::resistor>("r" + id, net, n[k], n[k + 1], m.r_series[k]);
        }
    }
    for (unsigned k = 0; k < m.nodes; ++k) {
        tb.make<eln::capacitor>("c" + std::to_string(k), net, n[k], gnd, m.c_shunt[k]);
    }
    // The far end always has a resistive load, so every node keeps a DC path
    // whatever the switch does.
    tb.make<eln::resistor>("load", net, n[m.nodes - 1], gnd, 1e3);
    auto& sw = tb.make<eln::de_rswitch>("sw", net, n[m.switch_node], gnd, m.r_on, m.r_off);
    sw.ctrl.bind(gate);
    if (m.with_isource) {
        auto& is = tb.make<eln::de_isource>("is", net, gnd, n[m.isource_node]);
        is.inp.bind(i);
    }
    auto& w_out = tb.make<tdf::signal<double>>("w_out");
    auto& probe = tb.make<eln::tdf_vsink>("probe", net, n[m.nodes - 1], gnd);
    probe.outp.bind(w_out);
    auto& net_oracle = tb.make<step_oracle>("net_oracle", net);
    net_oracle.in.bind(w_out);
    if (sample_fs > 0) {
        const eln::node far = n[m.nodes - 1];
        tb.probe("v_far", [&net, far] { return net.voltage(far); });
        tb.probe("w_out", w_out);
        tb.set_sample_period(de::time::from_fs(sample_fs));
    }

    if (m.with_lsf) {
        auto& sys = tb.make<lsf::system>("sys");
        sys.set_timestep(static_cast<double>(m.period_us), de::time_unit::us);
        sys.set_integration_method(method);
        const auto u = sys.create_signal("u");
        const auto y = sys.create_signal("y");
        auto& fd = tb.make<lsf::from_de>("fd", sys, u);
        fd.inp.bind(level);
        const double w = m.lsf_w;
        tb.make<lsf::ltf_nd>("lp", sys, u, y, std::vector<double>{1.0},
                             std::vector<double>{1.0, 1.2 / w, 1.0 / (w * w)});
        auto& tt = tb.make<lsf::to_tdf>("tt", sys, y);
        auto& w_y = tb.make<tdf::signal<double>>("w_y");
        tt.outp.bind(w_y);
        auto aux = net.create_node("aux");
        auto& drive = tb.make<eln::tdf_vsource>("drive", net, aux, gnd);
        drive.inp.bind(w_y);
        tb.make<eln::resistor>("r_aux", net, aux, n[m.lsf_node], 4.7e3);
        auto& sys_oracle = tb.make<step_oracle>("sys_oracle", sys);
        sys_oracle.in.bind(w_y);
        if (sample_fs > 0) tb.probe("w_y", w_y);
    }
    tb.set_stop_time(de::time::from_fs(m.end_us * k_us));
}

std::vector<step_oracle*> oracles_of(core::testbench& tb) {
    std::vector<step_oracle*> out;
    for (de::object* o : tb.context().objects()) {
        if (auto* s = dynamic_cast<step_oracle*>(o)) out.push_back(s);
    }
    return out;
}

/// Concatenated oracle traces plus the bench's DE-kernel interaction count.
struct run_record {
    std::vector<std::vector<double>> traces;
    std::uint64_t timed_notifications = 0;
    std::uint64_t cache_hits = 0;
};

void expect_oracles_clean(core::testbench& tb, const std::string& what) {
    for (step_oracle* o : oracles_of(tb)) {
        EXPECT_GT(o->checked, 0U) << what << " " << o->name();
        EXPECT_EQ(o->mismatches, 0U) << what << " " << o->name() << ": " << o->first_mismatch;
    }
}

run_record record_of(core::testbench& tb) {
    run_record rec;
    for (step_oracle* o : oracles_of(tb)) {
        rec.traces.push_back(o->trace);
        if (const auto* s = o->view->linear_solver()) rec.cache_hits += s->factor_cache_hits();
    }
    rec.timed_notifications = tb.context().sched().timed_notification_count();
    return rec;
}

/// The seed's model as a registered scenario; with `sample_fs` > 0 it also
/// probes (see build_model), so run_set results carry its waveforms.
core::scenario scenario_for(std::uint64_t seed, std::int64_t sample_fs = 0) {
    const std::string name =
        "switched_fast_path_" + std::to_string(seed) + (sample_fs > 0 ? "_probed" : "");
    // The spec outlives every bench built from it (scenario registry).
    static std::vector<std::unique_ptr<model_spec>> specs;
    specs.push_back(std::make_unique<model_spec>(make_spec(seed)));
    const model_spec* spec = specs.back().get();
    return core::scenario::define(name, [spec, sample_fs](core::testbench& tb,
                                                          const core::params&) {
        build_model(tb, *spec, sample_fs);
    });
}

run_record run_whole(const core::scenario& sc, std::uint64_t max_batch, bool block,
                     const std::string& what) {
    auto tb = sc.build();
    tdf::registry::of(tb->context()).set_default_max_batch_periods(max_batch);
    tdf::registry::of(tb->context()).set_default_block_execution(block);
    tb->run();
    expect_oracles_clean(*tb, what);
    return record_of(*tb);
}

run_record run_sliced(const core::scenario& sc, const model_spec& m, const std::string& what) {
    auto tb = sc.build();
    std::int64_t at = 0;
    for (const std::int64_t end : m.slice_ends_fs) {
        tb->run(de::time::from_fs(end - at));
        at = end;
    }
    expect_oracles_clean(*tb, what);
    return record_of(*tb);
}

void expect_same(const run_record& a, const run_record& b, const std::string& what) {
    ASSERT_EQ(a.traces.size(), b.traces.size()) << what;
    for (std::size_t k = 0; k < a.traces.size(); ++k) {
        ASSERT_EQ(a.traces[k].size(), b.traces[k].size()) << what << " oracle " << k;
        EXPECT_TRUE(same_bits(a.traces[k], b.traces[k])) << what << " oracle " << k;
    }
}

class switched_fast_path : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(switched_fast_path, batching_slicing_and_snapshots_are_invisible) {
    const std::uint64_t seed = GetParam();
    const model_spec spec = make_spec(seed);
    const core::scenario sc = scenario_for(seed);
    const std::string tag = "seed " + std::to_string(seed);

    const std::uint64_t batch = tdf::cluster::k_default_max_batch_periods;
    const run_record batched = run_whole(sc, batch, true, tag + " batched");
    const run_record per_period = run_whole(sc, 1, true, tag + " per-period");
    expect_same(per_period, batched, tag + ": batched vs per-period");
    // The cluster reads DE only, so it batches: fewer kernel interactions.
    EXPECT_LT(batched.timed_notifications, per_period.timed_notifications) << tag;
    expect_same(run_whole(sc, batch, false, tag + " block off"), batched,
                tag + ": block execution off vs on");
    expect_same(run_whole(sc, 1, false, tag + " per-period block off"), batched,
                tag + ": per-period block execution off vs batched on");
    expect_same(run_sliced(sc, spec, tag + " sliced"), batched, tag + ": sliced vs whole");

    // 4. Snapshot at a slice boundary, resume in a fresh context, continue.
    const std::int64_t cut = spec.slice_ends_fs[seed % spec.slice_ends_fs.size()];
    const std::int64_t end = spec.end_us * k_us;
    if (cut < end) {
        auto original = sc.build();
        original->run(de::time::from_fs(cut));
        const std::vector<std::uint8_t> bytes = core::encode_snapshot(*original);
        original.reset();
        auto resumed = core::decode_snapshot(bytes.data(), bytes.size());
        for (step_oracle* o : oracles_of(*resumed)) o->trace.clear();
        resumed->run(de::time::from_fs(end - cut));
        expect_oracles_clean(*resumed, tag + " resumed");
        const run_record tail = record_of(*resumed);
        ASSERT_EQ(tail.traces.size(), batched.traces.size()) << tag;
        for (std::size_t k = 0; k < tail.traces.size(); ++k) {
            const auto& full = batched.traces[k];
            const auto& part = tail.traces[k];
            ASSERT_FALSE(part.empty()) << tag;
            ASSERT_LE(part.size(), full.size()) << tag;
            const std::vector<double> full_tail(full.end() - static_cast<std::ptrdiff_t>(part.size()),
                                                full.end());
            EXPECT_TRUE(same_bits(full_tail, part)) << tag << ": resumed oracle " << k;
        }
    }
}

TEST_P(switched_fast_path, probes_record_what_per_period_sync_records) {
    // The DE recorder reads the network directly, not through a DE signal,
    // so what it records at an instant the cluster also wakes at depends on
    // their order in the kernel queue.  Batching must leave that order as
    // per-period sync has it.
    const std::uint64_t seed = GetParam();
    const model_spec spec = make_spec(seed);
    const std::int64_t period_fs = spec.period_us * k_us;
    for (const auto& [num, den] : {std::pair{1, 1}, {1, 2}, {2, 1}, {3, 2}}) {
        const std::int64_t sample_fs = period_fs * num / den;
        const auto record = [&](std::uint64_t max_batch) {
            core::testbench tb;
            tdf::registry::of(tb.context()).set_default_max_batch_periods(max_batch);
            build_model(tb, spec, sample_fs);
            tb.run();
            std::vector<std::vector<double>> rows{tb.times()};
            for (const char* name : {"v_far", "w_out", "w_y"}) {
                if (name != std::string("w_y") || spec.with_lsf) rows.push_back(tb.waveform(name));
            }
            return rows;
        };
        const auto batched = record(tdf::cluster::k_default_max_batch_periods);
        const auto per_period = record(1);
        const std::string tag = "seed " + std::to_string(seed) + " sample = period * " +
                                std::to_string(num) + "/" + std::to_string(den);
        ASSERT_EQ(batched.size(), per_period.size()) << tag;
        ASSERT_GT(batched[0].size(), 20U) << tag;
        for (std::size_t c = 0; c < batched.size(); ++c) {
            EXPECT_TRUE(same_bits(batched[c], per_period[c])) << tag << " column " << c;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, switched_fast_path, ::testing::Range<std::uint64_t>(1, 49));

TEST(switched_fast_path_suite, the_factor_cache_is_exercised) {
    // The suite proves cache hits equal fresh passes only if hits happen.
    std::uint64_t hits = 0;
    for (std::uint64_t seed = 1; seed < 5; ++seed) {
        hits += run_whole(scenario_for(100 + seed), tdf::cluster::k_default_max_batch_periods,
                          true, "hits").cache_hits;
    }
    EXPECT_GT(hits, 0U);
}

TEST(switched_fast_path_suite, run_set_backends_agree_byte_for_byte) {
    // Eight of the seeded models, probed at the cluster period, run as a
    // two-point run_set on two worker threads and on two worker processes:
    // waveforms, result CSV and metrics CSV must be the same bytes.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        const std::string tag = "seed " + std::to_string(seed);
        const core::scenario sc = scenario_for(seed, make_spec(seed).period_us * k_us);
        const auto table = [&sc](core::run_backend backend) {
            return core::run_set(sc)
                .add_point(core::params{})
                .add_point(core::params{})
                .set_workers(2)
                .set_backend(backend)
                .run_all();
        };
        const core::result_table threads = table(core::run_backend::in_thread);
        const core::result_table procs = table(core::run_backend::multiprocess);
        ASSERT_EQ(threads.failed_count(), 0U) << tag;
        ASSERT_EQ(procs.failed_count(), 0U) << tag;
        ASSERT_EQ(threads.size(), procs.size()) << tag;
        for (std::size_t k = 0; k < threads.size(); ++k) {
            EXPECT_TRUE(same_bits(threads[k].times, procs[k].times)) << tag << " run " << k;
            ASSERT_EQ(threads[k].waveforms.size(), procs[k].waveforms.size()) << tag;
            ASSERT_GE(threads[k].waveforms.size(), 2U) << tag;
            for (std::size_t w = 0; w < threads[k].waveforms.size(); ++w) {
                EXPECT_TRUE(same_bits(threads[k].waveforms[w], procs[k].waveforms[w]))
                    << tag << " run " << k << " probe " << threads[k].probe_names[w];
            }
        }
        std::ostringstream csv_threads, csv_procs, metrics_threads, metrics_procs;
        threads.write_csv(csv_threads);
        procs.write_csv(csv_procs);
        threads.write_metrics_csv(metrics_threads);
        procs.write_metrics_csv(metrics_procs);
        EXPECT_EQ(csv_threads.str(), csv_procs.str()) << tag;
        EXPECT_EQ(metrics_threads.str(), metrics_procs.str()) << tag;
        EXPECT_NE(metrics_threads.str().find("kernel.timed_notifications"), std::string::npos)
            << tag;
    }
}

// ------------------------------------------------- solver-level invariants --

/// Steps `s` once and checks the step against the plain formulation.
void step_and_check(solver::linear_dae_solver& s, const solver::equation_system& sys) {
    const std::vector<double> prev_x = s.x();
    const std::vector<double> prev_q = sys.rhs(s.time());
    s.step();
    EXPECT_EQ(plain_step_mismatch(s, sys, prev_x, prev_q), "") << "t=" << s.time();
}

TEST(switched_solver, cache_serves_revisited_matrices_and_drops_on_restamp) {
    solver::equation_system sys;
    const std::size_t x = sys.add_unknown("x");
    const std::size_t y = sys.add_unknown("y");
    const auto g = sys.add_stamp(1e3);
    sys.stamp_a(g, x, x, 1.0);
    sys.add_a(x, y, -1.0);
    sys.add_a(y, x, -1.0);
    sys.add_a(y, y, 2.0);
    sys.add_b(x, x, 1e-6);
    sys.add_b(y, y, 2e-6);
    sys.add_rhs_constant(x, 1.0);
    solver::linear_dae_solver s(sys, solver::integration_method::trapezoidal, 1e-6);
    s.set_initial_state({0.0, 0.0}, 0.0);
    step_and_check(s, sys);
    for (int k = 0; k < 6; ++k) {
        sys.set_stamp(g, k % 2 == 0 ? 1e-3 : 1e3);
        s.force_backward_euler_next();
        step_and_check(s, sys);  // forced BE
        step_and_check(s, sys);  // back to trapezoidal
    }
    // Four matrices ({1e3, 1e-3} x {BE, trapezoidal}); the trapezoidal/1e3
    // one was the first factorization, so 3 more passes and 9 hits.
    EXPECT_EQ(s.factor_count(), 4U);
    EXPECT_EQ(s.factor_cache_hits(), 9U);
    EXPECT_EQ(s.symbolic_factor_count(), 1U);

    // A restamp starts a new analysis: nothing recorded before it is served.
    sys.clear_stamps();
    const auto g2 = sys.add_stamp(1e3);
    sys.stamp_a(g2, x, x, 1.0);
    sys.add_a(x, y, -1.0);
    sys.add_a(y, x, -1.0);
    sys.add_a(y, y, 2.0);
    sys.add_b(x, x, 1e-6);
    sys.add_b(y, y, 2e-6);
    sys.add_rhs_constant(x, 1.0);
    step_and_check(s, sys);
    sys.set_stamp(g2, 1e-3);
    step_and_check(s, sys);
    EXPECT_EQ(s.symbolic_factor_count(), 2U);
    EXPECT_EQ(s.factor_count(), 6U);
    EXPECT_EQ(s.factor_cache_hits(), 9U);
    sys.set_stamp(g2, 1e3);
    step_and_check(s, sys);
    EXPECT_EQ(s.factor_cache_hits(), 10U);
}

TEST(switched_solver, tripped_refactor_guard_counts_a_fallback_and_rekeys_the_cache) {
    // [s 1; 1 1] factors without a row swap while s = 1; at s = 1e-14 the
    // frozen pivot falls below 1e-12 of its U row, so refactor() refuses
    // and a full factor() picks the other row.
    solver::equation_system sys;
    const std::size_t x = sys.add_unknown("x");
    const std::size_t y = sys.add_unknown("y");
    const auto g = sys.add_stamp(1.0);
    sys.stamp_a(g, x, x, 1.0);
    sys.add_a(x, y, 1.0);
    sys.add_a(y, x, 1.0);
    sys.add_a(y, y, 1.0);
    sys.add_b(y, y, 1e-6);
    sys.add_rhs_constant(y, 1.0);
    solver::linear_dae_solver s(sys, solver::integration_method::backward_euler, 1e-6);
    s.set_initial_state({0.0, 0.0}, 0.0);
    step_and_check(s, sys);
    sys.set_stamp(g, 1e-14);
    step_and_check(s, sys);
    EXPECT_EQ(s.refactor_fallbacks(), 1U);
    EXPECT_EQ(s.symbolic_factor_count(), 2U);
    // The s = 1 matrix was recorded under the old pivot order: a miss now.
    sys.set_stamp(g, 1.0);
    step_and_check(s, sys);
    EXPECT_EQ(s.factor_cache_hits(), 0U);
    sys.set_stamp(g, 1e-14);
    step_and_check(s, sys);
    EXPECT_EQ(s.factor_cache_hits(), 1U);
    EXPECT_EQ(s.refactor_fallbacks(), 1U);
    EXPECT_EQ(s.factor_count(), 3U);
}

TEST(switched_solver, a_run_of_misses_idles_the_cache_until_a_probe_hits) {
    // A swept stamp never revisits a matrix: after a run of misses the cache
    // stops looking up and recording on every refresh.  Once the values
    // start cycling again, a probing refresh finds its matrix and the cache
    // serves every revisit again.
    solver::equation_system sys;
    const std::size_t x = sys.add_unknown("x");
    const std::size_t y = sys.add_unknown("y");
    const auto g = sys.add_stamp(1.0);
    sys.stamp_a(g, x, x, 1.0);
    sys.add_a(x, y, -1.0);
    sys.add_a(y, x, -1.0);
    sys.add_a(y, y, 2.0);
    sys.add_b(x, x, 1e-6);
    sys.add_b(y, y, 2e-6);
    sys.add_rhs_constant(x, 1.0);
    solver::linear_dae_solver s(sys, solver::integration_method::trapezoidal, 1e-6);
    s.set_initial_state({0.0, 0.0}, 0.0);
    for (int k = 0; k < 100; ++k) {
        sys.set_stamp(g, 1.0 + 1e-3 * k);
        step_and_check(s, sys);
    }
    EXPECT_EQ(s.factor_cache_hits(), 0U);
    EXPECT_EQ(s.factor_count(), 100U);
    for (int k = 0; k < 200; ++k) {
        sys.set_stamp(g, k % 2 == 0 ? 5.0 : 7.0);
        step_and_check(s, sys);
    }
    // Idle refreshes miss without recording until a probe records one of
    // the two matrices and the next probe, on the same parity, hits it;
    // an always-recording cache would miss only twice (198 hits).
    EXPECT_GT(s.factor_cache_hits(), 100U);
    EXPECT_LT(s.factor_cache_hits(), 180U);
    EXPECT_EQ(s.factor_count() + s.factor_cache_hits(), 300U);
    EXPECT_EQ(s.symbolic_factor_count(), 1U);
}

TEST(switched_solver, scatter_follows_a_pattern_that_grows_without_a_restamp) {
    // A static add on a new entry grows A's pattern without a restamp: the
    // next values-only refresh must insert it and re-derive every scatter
    // address (ASan watches the old ones).
    solver::equation_system sys;
    const std::size_t x = sys.add_unknown("x");
    const std::size_t y = sys.add_unknown("y");
    const auto g = sys.add_stamp(2.0);
    sys.stamp_a(g, x, x, 1.0);
    sys.add_a(y, y, 1.0);
    sys.add_b(x, x, 1e-6);
    sys.add_b(y, y, 1e-6);
    sys.add_rhs_constant(x, 1.0);
    solver::linear_dae_solver s(sys, solver::integration_method::trapezoidal, 1e-6);
    s.set_initial_state({0.0, 0.0}, 0.0);
    step_and_check(s, sys);
    sys.add_a(y, x, -0.5);
    sys.set_stamp(g, 3.0);
    step_and_check(s, sys);
    sys.set_stamp(g, 2.0);
    step_and_check(s, sys);
    step_and_check(s, sys);
}

TEST(switched_solver, dense_toggle_drops_the_cache) {
    solver::equation_system sys;
    const std::size_t x = sys.add_unknown("x");
    const auto g = sys.add_stamp(1e3);
    sys.stamp_a(g, x, x, 1.0);
    sys.add_b(x, x, 1e-6);
    sys.add_rhs_constant(x, 1.0);
    solver::linear_dae_solver s(sys, solver::integration_method::backward_euler, 1e-6);
    s.set_initial_state({0.0}, 0.0);
    s.step();
    sys.set_stamp(g, 1e-3);
    s.step();
    sys.set_stamp(g, 1e3);
    s.step();
    EXPECT_EQ(s.factor_cache_hits(), 1U);
    s.set_use_dense(true);
    s.step();
    s.set_use_dense(false);
    sys.set_stamp(g, 1e-3);
    s.step();
    EXPECT_EQ(s.factor_cache_hits(), 1U) << "entries from before set_use_dense served";
}

}  // namespace
