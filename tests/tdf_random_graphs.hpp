// Seeded random TDF chains shared by the block-execution and probe-tap
// suites: a deterministic source, stateful rate-converting stages and a
// capturing sink, each with a per-sample and a block path of identical
// floating-point order.
#ifndef SCA_TESTS_TDF_RANDOM_GRAPHS_HPP
#define SCA_TESTS_TDF_RANDOM_GRAPHS_HPP

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "tdf/block.hpp"
#include "tdf/module.hpp"
#include "tdf/port.hpp"
#include "tdf/schedule.hpp"
#include "util/bytes.hpp"

namespace sca::test {

namespace de = sca::de;
namespace tdf = sca::tdf;

// ------------------------------------------------------------ test modules
// Every module implements BOTH paths with the same floating-point operation
// order, so waveforms must match bit for bit (EXPECT_EQ, not NEAR).

/// Deterministic source: sample value is a pure function of the token index.
struct idx_source : tdf::module {
    tdf::out<double> out;
    std::uint64_t next = 0;
    de::time step{1.0, de::time_unit::us};
    de::time cluster_period;  // set by setup_timing

    idx_source(const de::module_name& nm, unsigned rate) : tdf::module(nm), out("out") {
        out.set_rate(rate);
    }
    static double value(std::uint64_t i) {
        return std::sin(1e-3 * static_cast<double>(i)) +
               1.0 / (1.0 + static_cast<double>(i));
    }
    void set_attributes() override { set_timestep(step); }
    void processing() override {
        for (unsigned k = 0; k < out.rate(); ++k) out.write(value(next++), k);
    }
    [[nodiscard]] bool has_block_processing() const override { return true; }
    void processing(tdf::block_view& blk) override {
        double* y = blk.out_span(out);
        const std::uint64_t tot = blk.count() * out.rate();
        for (std::uint64_t i = 0; i < tot; ++i) y[i] = value(next++);
    }
    [[nodiscard]] bool has_snapshot_state() const noexcept override { return true; }
    void save_state(sca::util::byte_writer& w) const override { w.u64(next); }
    void restore_state(sca::util::byte_reader& r) override { next = r.u64(); }
};

/// Stateful rate converter: reads `in.rate()` tokens, folds them into a
/// running state, emits `out.rate()` tokens.  The state makes any firing
/// reordering / sample loss visible in the waveform.
struct poly_stage : tdf::module {
    tdf::in<double> in;
    tdf::out<double> out;
    double state = 0.0;

    poly_stage(const de::module_name& nm, unsigned in_rate, unsigned out_rate)
        : tdf::module(nm), in("in"), out("out") {
        in.set_rate(in_rate);
        out.set_rate(out_rate);
    }
    void processing() override {
        double acc = 0.0;
        for (unsigned j = 0; j < in.rate(); ++j) {
            acc += static_cast<double>(j + 1) * in.read(j);
        }
        state = 0.5 * state + acc;
        for (unsigned k = 0; k < out.rate(); ++k) {
            out.write(state + static_cast<double>(k), k);
        }
    }
    [[nodiscard]] bool has_block_processing() const override { return true; }
    void processing(tdf::block_view& blk) override {
        const double* x = blk.in_span(in);
        double* y = blk.out_span(out);
        for (std::uint64_t f = 0; f < blk.count(); ++f) {
            const double* xf = x + f * in.rate();
            double acc = 0.0;
            for (unsigned j = 0; j < in.rate(); ++j) {
                acc += static_cast<double>(j + 1) * xf[j];
            }
            state = 0.5 * state + acc;
            double* yf = y + f * out.rate();
            for (unsigned k = 0; k < out.rate(); ++k) {
                yf[k] = state + static_cast<double>(k);
            }
        }
    }
    [[nodiscard]] bool has_snapshot_state() const noexcept override { return true; }
    void save_state(sca::util::byte_writer& w) const override { w.f64(state); }
    void restore_state(sca::util::byte_reader& r) override { state = r.f64(); }
};

/// Waveform capture sink (block-capable, so block runs are captured through
/// span reads and per-sample runs through read()).
struct collector : tdf::module {
    tdf::in<double> in;
    std::vector<double> samples;

    explicit collector(const de::module_name& nm, unsigned rate = 1)
        : tdf::module(nm), in("in") {
        in.set_rate(rate);
    }
    void processing() override {
        for (unsigned j = 0; j < in.rate(); ++j) samples.push_back(in.read(j));
    }
    [[nodiscard]] bool has_block_processing() const override { return true; }
    void processing(tdf::block_view& blk) override {
        const double* x = blk.in_span(in);
        samples.insert(samples.end(), x, x + blk.count() * in.rate());
    }
};

/// Derive exactly-divisible timing from the graph's repetition vector: the
/// cluster period is lcm(reps) picoseconds-ish, so every module timestep is
/// an integer femtosecond count.  Returns a run duration covering an odd,
/// non-power-of-two period count plus a fraction (forces fused-program
/// decomposition remainders and a final partial batch).
inline de::time setup_timing(idx_source& src, std::size_t n_mods,
                      const std::vector<tdf::rate_edge>& edges) {
    const auto reps = tdf::repetition_vector(n_mods, edges);
    std::uint64_t l = 1;
    for (const auto r : reps) l = std::lcm(l, r);
    const std::uint64_t period_fs = l * 1000;
    src.step = de::time::from_fs(static_cast<std::int64_t>(period_fs / reps[0]));
    src.cluster_period = de::time::from_fs(static_cast<std::int64_t>(period_fs));
    const std::uint64_t per_period =
        std::accumulate(reps.begin(), reps.end(), std::uint64_t{0});
    const std::uint64_t n_periods =
        std::clamp<std::uint64_t>(150'000 / per_period, 5, 257) | 1U;
    return de::time::from_fs(
        static_cast<std::int64_t>(period_fs * n_periods + period_fs / 3));
}

/// Seeded random chain: src -> k poly stages -> sink, rates 1..8 on every
/// port, delay 0..4 on every stage input.  `Graph` provides add<M>(args...),
/// wire(name) -> tdf::signal<double>& and a `sinks` vector of collector*.
template <typename Graph>
de::time build_chain(Graph& g, std::mt19937& rng) {
    std::uniform_int_distribution<unsigned> rate(1, 8);
    std::uniform_int_distribution<unsigned> delay(0, 4);
    std::uniform_int_distribution<int> len(2, 5);

    auto& src = g.template add<idx_source>(de::module_name("src"), rate(rng));
    std::vector<tdf::rate_edge> edges;
    unsigned prev_rate = src.out.rate();
    tdf::signal<double>* prev = &g.wire("w0");
    src.out.bind(*prev);
    const int n = len(rng);
    for (int i = 0; i < n; ++i) {
        auto& st = g.template add<poly_stage>(
            de::module_name(("st" + std::to_string(i)).c_str()), rate(rng), rate(rng));
        st.in.set_delay(delay(rng));
        st.in.bind(*prev);
        edges.push_back({static_cast<std::size_t>(i), static_cast<std::size_t>(i) + 1,
                         prev_rate, st.in.rate()});
        prev_rate = st.out.rate();
        prev = &g.wire("w" + std::to_string(i + 1));
        st.out.bind(*prev);
    }
    auto& sink = g.template add<collector>(de::module_name("sink"), rate(rng));
    sink.in.set_delay(delay(rng));
    sink.in.bind(*prev);
    edges.push_back({static_cast<std::size_t>(n), static_cast<std::size_t>(n) + 1,
                     prev_rate, sink.in.rate()});
    g.sinks.push_back(&sink);
    return setup_timing(src, static_cast<std::size_t>(n) + 2, edges);
}

}  // namespace sca::test

#endif  // SCA_TESTS_TDF_RANDOM_GRAPHS_HPP
