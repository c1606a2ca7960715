// CLAIM-RESTAMP: switching workloads — the dominant virtual-prototyping
// scenario for power electronics (buck converters, power-state-driven
// models) — pay one stamp update + matrix factorization per DE switching
// event.  The incremental restamp pipeline turns that into a values-only
// slot rewrite plus a *numeric-only* refactorization against the symbolic
// analysis cached at elaboration; the rebuild-the-world baseline restamps
// every component and re-runs the full symbolic factorization per event.
//
// Two networks, each driven by a 50 kHz PWM gate:
//   switched_rc  - 8-section RC ladder with a shunt switch at the output
//   buck         - 24 V buck-style half bridge: source ESR + input
//                  decoupling, switch, freewheel path, LC output filter,
//                  resistive load (the power_driver net)
// Counters report events/sec, numeric factor passes, and symbolic analyses.
//
// swept_load is the opposite traffic: the buck with its switch held on and
// its load resistor retuned every 1 us step, so no iteration matrix ever
// comes back.  Every refresh misses the factor cache; the case measures
// what the cache costs when it cannot help.
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "bench_util.hpp"
#include "eln/converter.hpp"
#include "lib/pwm.hpp"

namespace de = sca::de;
namespace eln = sca::eln;
namespace lib = sca::lib;
using namespace bench_util;
using namespace sca::de::literals;

namespace {

constexpr double k_sim_seconds = 10e-3;  // 500 PWM periods, 1000 edges

struct switching_counters {
    std::uint64_t factors = 0;
    std::uint64_t symbolic = 0;
};

/// PWM-driven RC ladder with a shunt switch at the output; `incremental`
/// selects the values-only pipeline or the full-restamp baseline.
switching_counters run_switched_rc(bool incremental) {
    sca::core::testbench tb;

    de::signal<double> duty("duty", 0.5);
    de::signal<bool> gate("gate", false);
    lib::pwm pwm("pwm", 20_us);  // 50 kHz: one toggle every 10 us
    pwm.duty.bind(duty);
    pwm.out.bind(gate);

    rc_ladder ladder(8, de::time(1.0, de::time_unit::us), 470.0, 220e-9);
    ladder.net->set_incremental_updates(incremental);
    eln::de_rswitch sw("sw", *ladder.net, ladder.out_node, ladder.net->ground(), 10.0,
                       1e9);
    sw.ctrl.bind(gate);

    tb.run(de::time::from_seconds(k_sim_seconds));
    return {ladder.net->factorizations(), ladder.net->symbolic_factorizations()};
}

/// The power_driver buck converter (bench_util::switched_buck — the same
/// netlist tests/test_eln.cpp asserts bit-identical between the pipelines).
switching_counters run_buck(bool incremental, double& vout_sample) {
    sca::core::testbench tb;

    de::signal<double> duty("duty", 0.5);
    de::signal<bool> gate("gate", false);
    lib::pwm pwm("pwm", 20_us);
    pwm.duty.bind(duty);
    pwm.out.bind(gate);

    switched_buck buck;
    buck.net->set_incremental_updates(incremental);
    buck.hi_side->ctrl.bind(gate);

    tb.run(de::time::from_seconds(k_sim_seconds));
    vout_sample = buck.net->voltage(buck.vout_node);
    return {buck.net->factorizations(), buck.net->symbolic_factorizations()};
}

/// The buck with the switch on and the load retuned before every step.
switching_counters run_swept_load(double& vout_sample) {
    sca::core::testbench tb;

    de::signal<bool> gate("gate", true);
    switched_buck buck;
    buck.hi_side->ctrl.bind(gate);
    auto* load = dynamic_cast<eln::resistor*>(buck.parts.back().get());
    std::uint64_t k = 0;
    tb.context().register_method("sweep", [&] {
        load->set_value(4.0 + 1e-4 * static_cast<double>(k++));
        tb.context().next_trigger(1_us);
    });

    tb.run(de::time::from_seconds(k_sim_seconds));
    vout_sample = buck.net->voltage(buck.vout_node);
    return {buck.net->factorizations(), buck.net->symbolic_factorizations()};
}

void report(benchmark::State& state, const switching_counters& c) {
    const double events = k_sim_seconds / 10e-6;  // two edges per 20 us period
    state.counters["events_per_sec"] =
        benchmark::Counter(events, benchmark::Counter::kIsIterationInvariantRate);
    state.counters["numeric_factors"] = static_cast<double>(c.factors);
    state.counters["symbolic_factors"] = static_cast<double>(c.symbolic);
}

void switched_rc_incremental(benchmark::State& state) {
    switching_counters c;
    for (auto _ : state) c = run_switched_rc(true);
    report(state, c);
}

void switched_rc_full_restamp(benchmark::State& state) {
    switching_counters c;
    for (auto _ : state) c = run_switched_rc(false);
    report(state, c);
}

void buck_incremental(benchmark::State& state) {
    switching_counters c;
    double v = 0.0;
    for (auto _ : state) c = run_buck(true, v);
    benchmark::DoNotOptimize(v);
    report(state, c);
}

void buck_full_restamp(benchmark::State& state) {
    switching_counters c;
    double v = 0.0;
    for (auto _ : state) c = run_buck(false, v);
    benchmark::DoNotOptimize(v);
    report(state, c);
}

void swept_load(benchmark::State& state) {
    switching_counters c;
    double v = 0.0;
    for (auto _ : state) c = run_swept_load(v);
    benchmark::DoNotOptimize(v);
    state.counters["steps_per_sec"] = benchmark::Counter(
        k_sim_seconds / 1e-6, benchmark::Counter::kIsIterationInvariantRate);
    state.counters["numeric_factors"] = static_cast<double>(c.factors);
    state.counters["symbolic_factors"] = static_cast<double>(c.symbolic);
}

}  // namespace

BENCHMARK(switched_rc_incremental)->Unit(benchmark::kMillisecond);
BENCHMARK(switched_rc_full_restamp)->Unit(benchmark::kMillisecond);
BENCHMARK(buck_incremental)->Unit(benchmark::kMillisecond);
BENCHMARK(buck_full_restamp)->Unit(benchmark::kMillisecond);
BENCHMARK(swept_load)->Unit(benchmark::kMillisecond);

SCA_BENCH_MAIN(bench_switching_restamp)
