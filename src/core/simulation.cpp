#include "core/simulation.hpp"

namespace sca::core {

simulation::simulation() : ctx_(std::make_unique<de::simulation_context>()) {}

simulation::~simulation() = default;

de::method_process& simulation::trace(util::trace_file& file, const de::time& period) {
    util::require(period > de::time::zero(), "simulation::trace",
                  "trace period must be positive");
    // A plain method process: sample, then re-arm.
    return ctx_->register_method("trace_recorder", [this, &file, period] {
        file.sample(ctx_->now().to_seconds());
        ctx_->next_trigger(period);
    });
}

std::function<double()> probe(const de::signal<double>& s) {
    return [&s] { return s.read(); };
}

std::function<double()> probe(const de::signal<bool>& s) {
    return [&s] { return s.read() ? 1.0 : 0.0; };
}

std::function<double()> probe(const tdf::signal<double>& s) {
    return [&s] { return s.last_value(); };
}

}  // namespace sca::core
