#include "eln/sources.hpp"

#include <cmath>
#include <numbers>

#include "util/report.hpp"

namespace sca::eln {

// ------------------------------------------------------------------- vsource

vsource::vsource(const std::string& name, network& net, pin p_pin, pin n_pin, waveform w)
    : component(name, net), p("p", *this, nature::electrical),
      n("n", *this, nature::electrical), wave_(std::move(w)) {
    p.bind(p_pin);
    n.bind(n_pin);
}

void vsource::stamp(network& net) {
    const std::size_t k = net.branch_row(*this);
    net.add_a(network::row_of(p.get()), k, 1.0);
    net.add_a(network::row_of(n.get()), k, -1.0);
    net.add_a(k, network::row_of(p.get()), 1.0);
    net.add_a(k, network::row_of(n.get()), -1.0);
    if (wave_.is_dc()) {
        net.add_rhs_constant(k, wave_.dc_value());
    } else {
        const waveform w = wave_;
        net.add_rhs_source(k, [w](double t) { return w.at(t); });
    }
    if (ac_mag_ != 0.0) {
        const double phase = ac_phase_deg_ * std::numbers::pi / 180.0;
        net.add_ac_source(k, std::polar(ac_mag_, phase));
    }
    if (noise_psd_) {
        net.equations().add_noise_source({{k, 1.0}}, noise_psd_, name());
    }
}

void vsource::set_ac(double magnitude, double phase_deg) {
    ac_mag_ = magnitude;
    ac_phase_deg_ = phase_deg;
}

void vsource::set_noise_psd(std::function<double(double)> psd) {
    noise_psd_ = std::move(psd);
}

// ------------------------------------------------------------------- isource

isource::isource(const std::string& name, network& net, pin p_pin, pin n_pin, waveform w)
    : component(name, net), p("p", *this, nature::electrical),
      n("n", *this, nature::electrical), wave_(std::move(w)) {
    p.bind(p_pin);
    n.bind(n_pin);
}

void isource::stamp(network& net) {
    const std::size_t rp = network::row_of(p.get());
    const std::size_t rn = network::row_of(n.get());
    if (wave_.is_dc()) {
        net.add_rhs_constant(rp, -wave_.dc_value());
        net.add_rhs_constant(rn, wave_.dc_value());
    } else {
        const waveform w = wave_;
        net.add_rhs_source(rp, [w](double t) { return -w.at(t); });
        net.add_rhs_source(rn, [w](double t) { return w.at(t); });
    }
    if (ac_mag_ != 0.0) {
        const double phase = ac_phase_deg_ * std::numbers::pi / 180.0;
        net.add_ac_source(rp, -std::polar(ac_mag_, phase));
        net.add_ac_source(rn, std::polar(ac_mag_, phase));
    }
    if (noise_psd_) {
        std::vector<std::pair<std::size_t, double>> injections;
        if (!p.get().is_ground()) injections.emplace_back(p.get().index(), -1.0);
        if (!n.get().is_ground()) injections.emplace_back(n.get().index(), 1.0);
        if (!injections.empty()) {
            net.equations().add_noise_source(std::move(injections), noise_psd_, name());
        }
    }
}

void isource::set_ac(double magnitude, double phase_deg) {
    ac_mag_ = magnitude;
    ac_phase_deg_ = phase_deg;
}

void isource::set_noise_psd(std::function<double(double)> psd) {
    noise_psd_ = std::move(psd);
}

}  // namespace sca::eln
