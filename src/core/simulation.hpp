// The single-run simulation driver: owns one kernel context, provides the
// build / elaborate / run lifecycle, and hosts waveform tracing.
//
//   sca::core::simulation sim;
//   my_top top("top");                  // modules register with sim's context
//   sim.trace(file, sca::de::time(1.0, sca::de::time_unit::us));
//   file.add_channel("vout", sca::core::probe(vout_signal));
//   sim.run(sca::de::time(10.0, sca::de::time_unit::ms));
//
// This is the thin compatibility facade underneath the scenario front end
// (core/scenario.hpp): a testbench owns a simulation, and reusable scenario
// definitions plus core/run_set add typed parameters, probes/measurements,
// and parallel multi-run execution on top.  New code should prefer
// scenario/testbench; this class stays for imperative one-shot drivers.
#ifndef SCA_CORE_SIMULATION_HPP
#define SCA_CORE_SIMULATION_HPP

#include <functional>
#include <memory>

#include "kernel/context.hpp"
#include "kernel/signal.hpp"
#include "tdf/port.hpp"
#include "util/trace.hpp"

namespace sca::core {

class simulation {
public:
    /// Creates a fresh simulation context and makes it current, so model
    /// construction after this point lands in this simulation.
    simulation();
    ~simulation();

    simulation(const simulation&) = delete;
    simulation& operator=(const simulation&) = delete;

    [[nodiscard]] de::simulation_context& context() noexcept { return *ctx_; }

    /// Bind ports, build TDF clusters, compute schedules. Idempotent.
    void elaborate() { ctx_->elaborate(); }

    /// Advance simulated time.
    void run(const de::time& duration) { ctx_->run(duration); }
    void run_seconds(double seconds) { ctx_->run(de::time::from_seconds(seconds)); }

    [[nodiscard]] de::time now() const noexcept { return ctx_->now(); }

    /// Attach a trace file sampled every `period` by a DE method process
    /// (returned); channels are added by the caller on the file before the
    /// run starts.
    de::method_process& trace(util::trace_file& file, const de::time& period);

private:
    std::unique_ptr<de::simulation_context> ctx_;
};

/// Probe helpers for trace channels.
[[nodiscard]] std::function<double()> probe(const de::signal<double>& s);
[[nodiscard]] std::function<double()> probe(const de::signal<bool>& s);
[[nodiscard]] std::function<double()> probe(const tdf::signal<double>& s);

}  // namespace sca::core

#endif  // SCA_CORE_SIMULATION_HPP
