// Seeded mutation fuzzing of every byte decoder that reads data from outside
// the process: each wire::decode_* of the SCA1 protocol (core/run_protocol),
// whole frames through unpack_frame, and snapshot payloads through
// core::decode_snapshot.
//
// Valid messages are mutated by bit flips, byte overwrites, truncations,
// appended bytes and length-field edits (an "interesting" u32/u64 written
// over the bytes at an offset), for a fixed seed set and a bounded number of
// mutants per seed.  Every wire payload additionally gets the length-field
// edit at every offset, so each count and length prefix is hit for sure.
//
// The contract: a mutant either decodes or throws sca::util::error.  Any
// other exception (std::bad_alloc, std::length_error, ...) fails the test,
// and so does a heap request larger than the input can justify: a replaced
// global operator new records the largest single request made while a
// decoder runs, and refuses requests above 64 MiB outright, so a count field
// that sizes an allocation before checking the payload is caught instead of
// exhausting the host.  Crashes and out-of-bounds reads are what the ASan /
// UBSan job adds on top.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <new>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/run_protocol.hpp"
#include "core/scenario.hpp"
#include "core/snapshot.hpp"
#include "eln/converter.hpp"
#include "eln/network.hpp"
#include "eln/nonlinear.hpp"
#include "eln/primitives.hpp"
#include "eln/sources.hpp"
#include "kernel/signal.hpp"
#include "lib/filters.hpp"
#include "lib/oscillator.hpp"
#include "numeric/sparse.hpp"
#include "tdf/connect.hpp"
#include "tdf/module.hpp"
#include "util/report.hpp"

// ------------------------------------------------- allocation accounting ---

namespace {

constexpr std::size_t k_refused_request = 64U << 20U;  // 64 MiB
std::atomic<std::size_t> g_largest_request{0};

void* counted_alloc(std::size_t n) {
    std::size_t seen = g_largest_request.load(std::memory_order_relaxed);
    while (n > seen &&
           !g_largest_request.compare_exchange_weak(seen, n, std::memory_order_relaxed)) {
    }
    if (n > k_refused_request) throw std::bad_alloc();
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace core = sca::core;
namespace de = sca::de;
namespace eln = sca::eln;
namespace lib = sca::lib;
namespace tdf = sca::tdf;
namespace wire = sca::core::wire;
using namespace sca::de::literals;

namespace {

using bytes = std::vector<std::uint8_t>;
using decoder = std::function<void(const std::uint8_t*, std::size_t)>;

constexpr std::uint64_t k_seeds[] = {1, 2, 3, 5, 8, 13, 21, 34};

// ------------------------------------------------------------- mutations ---

/// Values written over length and count fields: empty, one, sign-bit and
/// all-ones patterns at both widths, and the input's own size (an in-range
/// count that still overruns the bytes after it).
std::vector<std::uint64_t> interesting_values(std::size_t size) {
    return {0,
            1,
            size,
            size + 1,
            0x7FFFFFFFULL,
            0x80000000ULL,
            0xFFFFFFFFULL,
            0x100000000ULL,
            0x7FFFFFFFFFFFFFFFULL,
            0xFFFFFFFFFFFFFFFFULL};
}

void write_le(bytes& b, std::size_t at, std::uint64_t v, std::size_t width) {
    for (std::size_t i = 0; i < width && at + i < b.size(); ++i) {
        b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
}

/// One mutant of `base`, fully determined by (seed, index).
bytes mutate(const bytes& base, std::uint64_t seed, std::uint64_t index) {
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ULL + index);
    auto below = [&rng](std::size_t n) {
        return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
    };
    bytes m = base;
    switch (rng() % 5) {
        case 0:  // flip 1..4 bits
            for (std::size_t k = 0, n = 1 + below(4); k < n && !m.empty(); ++k) {
                m[below(m.size())] ^= static_cast<std::uint8_t>(1U << below(8));
            }
            break;
        case 1: {  // overwrite 1..4 bytes
            static constexpr std::uint8_t pool[] = {0x00, 0x01, 0x7F, 0x80, 0xFF};
            for (std::size_t k = 0, n = 1 + below(4); k < n && !m.empty(); ++k) {
                m[below(m.size())] =
                    rng() % 2 ? pool[below(5)] : static_cast<std::uint8_t>(rng());
            }
            break;
        }
        case 2:  // truncate
            m.resize(below(m.size()));
            break;
        case 3:  // append 1..16 bytes
            for (std::size_t k = 0, n = 1 + below(16); k < n; ++k) {
                m.push_back(static_cast<std::uint8_t>(rng()));
            }
            break;
        default: {  // length-field edit
            const auto values = interesting_values(m.size());
            write_le(m, below(m.size()), values[below(values.size())],
                     rng() % 2 ? 4 : 8);
            break;
        }
    }
    return m;
}

// ------------------------------------------------------------ the oracle ---

/// Run `decode` on one mutant: it must return or throw sca::util::error, and
/// no single heap request may exceed `allowance`.  Returns false (after one
/// test failure naming the mutant) when the contract is broken.
bool decodes_or_throws(const decoder& decode, const bytes& m, std::size_t allowance,
                       const std::string& what) {
    g_largest_request.store(0, std::memory_order_relaxed);
    try {
        decode(m.data(), m.size());
    } catch (const sca::util::error&) {
    } catch (const std::exception& e) {
        ADD_FAILURE() << what << ": threw " << e.what() << " instead of sca::util::error";
        return false;
    }
    const std::size_t largest = g_largest_request.load(std::memory_order_relaxed);
    if (largest > allowance) {
        ADD_FAILURE() << what << ": a " << m.size() << "-byte input made a " << largest
                      << "-byte heap request (allowance " << allowance << ")";
        return false;
    }
    return true;
}

/// Wire payloads: no decoder needs more than a small multiple of its input
/// (a string header is 4 encoded bytes for a 32-byte std::string).
std::size_t wire_allowance(std::size_t n) { return 4096 + 16 * n; }

// ---------------------------------------------------------- wire codecs ---

struct codec {
    const char* name;
    std::optional<wire::msg_type> type;  ///< none: travels inside other payloads
    bytes payload;
    decoder decode;
};

template <typename F>
decoder discard(F f) {
    return [f](const std::uint8_t* d, std::size_t n) { (void)f(d, n); };
}

core::params sample_params() {
    core::params p{{"r", 2.2e3}, {"mode", "fast"}, {"c", -0.0}};
    p.set_run_identity(42, 0x5ca5eedULL);
    return p;
}

std::vector<codec> all_codecs() {
    core::run_result res;
    res.index = 7;
    res.seed = 1234;
    res.ok = false;
    res.error = "diverged";
    res.parameters = sample_params();
    res.measurements = {{"v_final", 0.5}, {"edges", 20.0}};
    res.times = {0.0, 1e-6, 2e-6};
    res.probe_names = {"vin", "vout"};
    res.waveforms = {{1.0, 2.0, 3.0}, {-1.0, -2.0, -3.0}};

    wire::sample_batch batch;
    batch.probe = "vout";
    batch.first_index = 100;
    batch.dropped = 3;
    batch.times = {1e-5, 2e-5};
    batch.values = {0.25, 0.5};

    wire::close_info close;
    close.reason = wire::close_reason::finished;
    close.sim_time_s = 1e-3;
    close.samples_streamed = 1000;
    close.samples_dropped = 2;
    close.max_queue_depth = 4;
    close.slices = 10;
    close.measurements = {{"a", 1.0}, {"b", 2.0}};

    wire::stats_info stats;
    stats.sim_time_s = 2e-3;
    stats.slices = 5;
    stats.queue_depth = 1;

    wire::run_metrics metrics;
    metrics.index = 9;
    metrics.entries = {
        {"kernel.delta_cycles", sca::util::metric_value::metric_kind::counter, 12, 0, 0, 0},
        {"solver.fill", sca::util::metric_value::metric_kind::gauge, 0, 0.5, 0, 0},
        {"time.run_s", sca::util::metric_value::metric_kind::histogram, 3, 1.5, 0.1, 1.0}};

    using wire::msg_type;
    return {
        {"job", msg_type::job, wire::encode_job(0xdeadbeefULL), discard(wire::decode_job)},
        {"result", msg_type::result, wire::encode_result(res),
         discard(wire::decode_result)},
        {"params", std::nullopt, wire::encode_params(sample_params()),
         discard(wire::decode_params)},
        {"hello", msg_type::hello, wire::encode_hello(wire::k_session_version),
         discard(wire::decode_hello)},
        {"catalog", msg_type::catalog,
         wire::encode_catalog({{"rc", sample_params()}, {"buck", core::params{}}}),
         discard(wire::decode_catalog)},
        {"open", msg_type::open, wire::encode_open({"rc", sample_params(), 100}),
         discard(wire::decode_open)},
        {"opened", msg_type::opened, wire::encode_opened({3, 1e-3, 1e-5, {"vin", "vout"}}),
         discard(wire::decode_opened)},
        {"poke", msg_type::param, wire::encode_poke({"r", 4.7e3}),
         discard(wire::decode_poke)},
        {"subscribe", msg_type::subscribe, wire::encode_subscribe({"vout", true}),
         discard(wire::decode_subscribe)},
        {"samples", msg_type::samples, wire::encode_samples(batch),
         discard(wire::decode_samples)},
        {"pace", msg_type::pace, wire::encode_pace({1.0, 0.01, 0.02}),
         discard(wire::decode_pace)},
        {"run_state", msg_type::run_state, wire::encode_run_state(true),
         discard(wire::decode_run_state)},
        {"close", msg_type::close, wire::encode_close(close), discard(wire::decode_close)},
        {"error", msg_type::error, wire::encode_error("no such scenario"),
         discard(wire::decode_error)},
        {"stats", msg_type::stats, wire::encode_stats(stats), discard(wire::decode_stats)},
        {"metrics", msg_type::metrics, wire::encode_metrics(metrics),
         discard(wire::decode_metrics)},
    };
}

/// Mutants per seed and codec (payload and whole-frame runs each).
constexpr std::uint64_t k_wire_mutants = 400;

// ------------------------------------------------------ snapshot sources ---

struct drain : tdf::module {
    tdf::in<double> in;
    explicit drain(const de::module_name& nm) : tdf::module(nm), in("in") {}
    void processing() override { (void)in.read(); }
};

/// Three small models that between them reach every restore hook with
/// variable-length state: DE signals and timed events, the linear solver's
/// sparse LU pivot order, the nonlinear solver's stored Jacobian patterns,
/// TDF ring positions, a FIR history and a probe tap.
void define_snapshot_sources() {
    core::scenario::define(
        "fuzz_eln_switch", [](core::testbench& tb, const core::params&) {
            auto& ctl = tb.make<de::signal<bool>>("ctl", false);
            auto& net = tb.make<eln::network>("net");
            net.set_timestep(2.0, de::time_unit::us);
            auto gnd = net.ground();
            auto vin = net.create_node("vin");
            auto mid = net.create_node("mid");
            auto vout = net.create_node("vout");
            tb.make<eln::vsource>("vs", net, vin, gnd, eln::waveform::sine(1.0, 2e3));
            tb.make<eln::resistor>("r1", net, vin, mid, 1e3);
            tb.make<eln::inductor>("l1", net, mid, vout, 1e-3);
            tb.make<eln::capacitor>("c1", net, vout, gnd, 100e-9);
            auto& sw = tb.make<eln::de_rswitch>("sw", net, vout, gnd, 50.0, 1e9);
            sw.ctrl.bind(ctl);
            tb.context().register_method("toggler", [&tb, &ctl] {
                ctl.write(!ctl.read());
                tb.context().next_trigger(50_us);
            });
            tb.probe("vout", [&net, vout] { return net.voltage(vout); });
            tb.set_sample_period(10_us);
        });
    core::scenario::define(
        "fuzz_rectifier", [](core::testbench& tb, const core::params&) {
            auto& net = tb.make<eln::network>("net");
            net.set_timestep(5.0, de::time_unit::us);
            auto gnd = net.ground();
            auto vin = net.create_node("vin");
            auto vout = net.create_node("vout");
            tb.make<eln::vsource>("vs", net, vin, gnd, eln::waveform::sine(5.0, 1e3));
            tb.make<eln::diode>("d", net, vin, vout);
            tb.make<eln::resistor>("rl", net, vout, gnd, 10e3);
            tb.make<eln::capacitor>("cl", net, vout, gnd, 1e-6);
            tb.probe("vout", [&net, vout] { return net.voltage(vout); });
            tb.set_sample_period(20_us);
        });
    core::scenario::define(
        "fuzz_fir_tap", [](core::testbench& tb, const core::params&) {
            auto& src = tb.make<lib::sine_source>("src", 1.0, 5e3);
            src.set_timestep(1.0, de::time_unit::us);
            auto& fir = tb.make<lib::fir>("fir", lib::fir::design_lowpass(15, 0.1));
            auto& sink = tb.make<drain>("sink");
            tdf::connect(src.out, fir.in);
            auto& y = tdf::connect(fir.out, sink.in);
            tb.probe("y", y);  // a TDF probe: recorded by a probe tap
            tb.set_sample_period(4_us);
        });
}

void decode_snapshot_payload(const std::uint8_t* d, std::size_t n) {
    (void)core::decode_snapshot(d, n);
}

/// A settled snapshot payload of one of the scenarios above, and the heap
/// allowance for its mutants: the rebuild through the scenario factory
/// allocates independently of the payload, so mutants may add only what
/// their own bytes can justify.
struct snapshot_source {
    bytes payload;
    std::size_t allowance = 0;
};

snapshot_source snapshot_source_of(const std::string& scenario) {
    define_snapshot_sources();
    snapshot_source src;
    {
        auto tb = core::scenario::find(scenario).build();
        tb->run(300_us);
        src.payload = core::encode_snapshot(*tb);
    }
    g_largest_request.store(0, std::memory_order_relaxed);
    decode_snapshot_payload(src.payload.data(), src.payload.size());
    src.allowance = g_largest_request.load(std::memory_order_relaxed) +
                    16 * src.payload.size() + 4096;
    return src;
}

constexpr std::uint64_t k_snapshot_seeds = 4;      // first entries of k_seeds
constexpr std::uint64_t k_snapshot_mutants = 150;  // per seed and scenario

void expect_snapshot_mutants_decode_or_throw(const std::string& scenario) {
    const snapshot_source src = snapshot_source_of(scenario);
    for (std::uint64_t s = 0; s < k_snapshot_seeds; ++s) {
        for (std::uint64_t i = 0; i < k_snapshot_mutants; ++i) {
            if (!decodes_or_throws(decode_snapshot_payload, mutate(src.payload, k_seeds[s], i),
                                   src.allowance,
                                   scenario + " seed " + std::to_string(k_seeds[s]) +
                                       " mutant " + std::to_string(i))) {
                return;
            }
        }
    }
}

}  // namespace

// ------------------------------------------------------------ wire tests ---

TEST(fuzz_wire, valid_payloads_decode) {
    for (const codec& c : all_codecs()) {
        EXPECT_TRUE(decodes_or_throws(c.decode, c.payload, wire_allowance(c.payload.size()),
                                      c.name));
        EXPECT_NO_THROW(c.decode(c.payload.data(), c.payload.size())) << c.name;
    }
}

TEST(fuzz_wire, mutated_payloads_decode_or_throw) {
    for (const codec& c : all_codecs()) {
        for (std::uint64_t seed : k_seeds) {
            for (std::uint64_t i = 0; i < k_wire_mutants; ++i) {
                const bytes m = mutate(c.payload, seed, i);
                ASSERT_TRUE(decodes_or_throws(c.decode, m, wire_allowance(m.size()),
                                              std::string(c.name) + " seed " +
                                                  std::to_string(seed) + " mutant " +
                                                  std::to_string(i)));
            }
        }
    }
}

TEST(fuzz_wire, length_edits_at_every_offset_decode_or_throw) {
    for (const codec& c : all_codecs()) {
        for (std::size_t at = 0; at < c.payload.size(); ++at) {
            for (std::uint64_t v : interesting_values(c.payload.size())) {
                for (std::size_t width : {4U, 8U}) {
                    bytes m = c.payload;
                    write_le(m, at, v, width);
                    ASSERT_TRUE(decodes_or_throws(
                        c.decode, m, wire_allowance(m.size()),
                        std::string(c.name) + " u" + std::to_string(8 * width) + " " +
                            std::to_string(v) + " at offset " + std::to_string(at)));
                }
            }
        }
    }
}

TEST(fuzz_wire, mutated_frames_unpack_and_decode_or_throw) {
    const auto codecs = all_codecs();
    const decoder unpack_and_decode = [&codecs](const std::uint8_t* d, std::size_t n) {
        std::size_t offset = 0;
        wire::frame f;
        while (wire::unpack_frame(d, n, offset, f)) {
            for (const codec& c : codecs) {
                if (c.type == f.type) c.decode(f.payload.data(), f.payload.size());
            }
        }
    };
    for (const codec& c : codecs) {
        if (!c.type) continue;
        const bytes frame = wire::pack_frame(*c.type, c.payload);
        for (std::uint64_t seed : k_seeds) {
            for (std::uint64_t i = 0; i < k_wire_mutants; ++i) {
                const bytes m = mutate(frame, seed, i);
                ASSERT_TRUE(decodes_or_throws(unpack_and_decode, m,
                                              wire_allowance(m.size()),
                                              std::string(c.name) + " frame seed " +
                                                  std::to_string(seed) + " mutant " +
                                                  std::to_string(i)));
            }
        }
    }
}

// -------------------------------------------------------- snapshot tests ---

TEST(fuzz_snapshot, eln_switching_network) {
    expect_snapshot_mutants_decode_or_throw("fuzz_eln_switch");
}

TEST(fuzz_snapshot, nonlinear_rectifier) {
    expect_snapshot_mutants_decode_or_throw("fuzz_rectifier");
}

TEST(fuzz_snapshot, fir_with_probe_tap) {
    expect_snapshot_mutants_decode_or_throw("fuzz_fir_tap");
}

// ------------------------------------------------------ found faults ---
// Mutants that broke the contract before their decoder was fixed, pinned by
// (seed, mutant index) so they keep running if the sweeps above change.

TEST(fuzz_regression, wire_mutants_that_found_faults) {
    // Each sized a reserve() from a count field before checking the count
    // against the payload: a four-byte edit asked for gigabytes.
    const struct {
        const char* codec;
        std::uint64_t seed, index;
    } cases[] = {
        {"result", 1, 99},    // probe-name count
        {"catalog", 1, 141},  // catalog entry count
        {"opened", 1, 2},     // probe-name count
        {"metrics", 1, 21},   // metric entry count
    };
    const auto codecs = all_codecs();
    for (const auto& k : cases) {
        for (const codec& c : codecs) {
            if (std::string(c.name) != k.codec) continue;
            const bytes m = mutate(c.payload, k.seed, k.index);
            EXPECT_TRUE(decodes_or_throws(c.decode, m, wire_allowance(m.size()),
                                          std::string(c.name) + " seed " +
                                              std::to_string(k.seed) + " mutant " +
                                              std::to_string(k.index)));
        }
    }
}

TEST(fuzz_regression, snapshot_mutants_that_found_faults) {
    const struct {
        const char* scenario;
        std::uint64_t seed, index;
    } cases[] = {
        // A process's event-key count sized a reserve().
        {"fuzz_eln_switch", 1, 17},
        // The nonlinear solver's saved Jacobian dimension sized a matrix
        // before it was compared with the rebuilt system.
        {"fuzz_rectifier", 2, 44},
        // A TDF signal's saved ring capacity sized the ring.
        {"fuzz_fir_tap", 5, 57},
        // An event's subscriber list disagreed with the processes' wait
        // lists; tearing the half-restored bench down then unlinked a freed
        // process (a use-after-free under ASan).
        {"fuzz_eln_switch", 5, 19},
        {"fuzz_rectifier", 2, 55},
    };
    for (const auto& k : cases) {
        const snapshot_source src = snapshot_source_of(k.scenario);
        EXPECT_TRUE(decodes_or_throws(decode_snapshot_payload,
                                      mutate(src.payload, k.seed, k.index), src.allowance,
                                      std::string(k.scenario) + " seed " +
                                          std::to_string(k.seed) + " mutant " +
                                          std::to_string(k.index)));
    }
}

// Two restore-path guards for inputs the mutation sweeps are unlikely to
// produce, built by hand.

TEST(fuzz_regression, lu_symbolic_counts_whose_sum_wraps_are_refused) {
    // n = 2 and U/L entry counts of 2^63 each: 3 + 3n + unz + lnz wraps to
    // the vector's own length, which used to pass the size check and size
    // the column arrays from the counts.
    sca::num::sparse_matrix_d a(2);
    a.add(0, 0, 1.0);
    a.add(1, 1, 1.0);
    const std::vector<std::uint64_t> w = {2, 1ULL << 63U, 1ULL << 63U, 0, 1, 1, 2, 0, 0};
    sca::num::sparse_lu_d lu;
    g_largest_request.store(0, std::memory_order_relaxed);
    EXPECT_FALSE(lu.adopt_symbolic(w, a));
    EXPECT_LE(g_largest_request.load(std::memory_order_relaxed), 4096U);
}

TEST(fuzz_regression, probe_tap_row_beyond_the_time_range_is_refused) {
    // The payload ends with the probe-tap count and the one tap's state:
    // next_row u64, last f64, wake i64, armed_at i64, batch_left u64,
    // cluster_first u8.  A row whose time overflows int64 femtoseconds
    // used to be multiplied out unchecked (signed overflow).
    const snapshot_source src = snapshot_source_of("fuzz_fir_tap");
    bytes m = src.payload;
    write_le(m, m.size() - 41, 0x7FFFFFFFFFFFFFFFULL, 8);
    EXPECT_THROW(decode_snapshot_payload(m.data(), m.size()), sca::util::error);
}
