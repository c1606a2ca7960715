#include "eln/multidomain.hpp"

#include "util/report.hpp"

namespace sca::eln {

namespace {
void stamp_waveform_flow(network& net, const node& p, const node& n, const waveform& w) {
    // A through-quantity source (force/torque/heat flow) is the analog of a
    // current source: inject into n, extract from p.
    const std::size_t rp = network::row_of(p);
    const std::size_t rn = network::row_of(n);
    if (w.is_dc()) {
        net.add_rhs_constant(rp, -w.dc_value());
        net.add_rhs_constant(rn, w.dc_value());
    } else {
        net.add_rhs_source(rp, [w](double t) { return -w.at(t); });
        net.add_rhs_source(rn, [w](double t) { return w.at(t); });
    }
}

void stamp_integral_branch(network& net, component& c, const node& a, const node& b,
                           double inverse_stiffness) {
    // Spring/torsion-spring: through quantity F with dF/dt = k*(v_a - v_b),
    // the exact analog of an inductor with L = 1/k.
    const std::size_t k = net.branch_row(c, "f");
    net.add_a(network::row_of(a), k, 1.0);
    net.add_a(network::row_of(b), k, -1.0);
    net.add_a(k, network::row_of(a), 1.0);
    net.add_a(k, network::row_of(b), -1.0);
    net.add_b(k, k, -inverse_stiffness);
}
}  // namespace

// ---------------------------------------------------------------------- mass

mass::mass(const std::string& name, network& net, pin n, double kilograms)
    : component(name, net), p("p", *this, nature::mechanical_translational),
      m_(kilograms) {
    util::require(kilograms > 0.0, this->name(), "mass must be positive");
    p.bind(n);
}

void mass::stamp(network& net) {
    net.stamp_capacitance(p.get(), net.ground(nature::mechanical_translational), m_);
}

// -------------------------------------------------------------------- damper

damper::damper(const std::string& name, network& net, pin a_pin, pin b_pin,
               double n_s_per_m)
    : component(name, net), a("a", *this, nature::mechanical_translational),
      b("b", *this, nature::mechanical_translational), d_(n_s_per_m) {
    util::require(n_s_per_m > 0.0, this->name(), "damping must be positive");
    a.bind(a_pin);
    b.bind(b_pin);
}

void damper::stamp(network& net) { net.stamp_conductance(a.get(), b.get(), d_); }

// -------------------------------------------------------------------- spring

spring::spring(const std::string& name, network& net, pin a_pin, pin b_pin,
               double n_per_m)
    : component(name, net), a("a", *this, nature::mechanical_translational),
      b("b", *this, nature::mechanical_translational), k_(n_per_m) {
    util::require(n_per_m > 0.0, this->name(), "stiffness must be positive");
    a.bind(a_pin);
    b.bind(b_pin);
}

void spring::stamp(network& net) {
    stamp_integral_branch(net, *this, a.get(), b.get(), 1.0 / k_);
}

// -------------------------------------------------------------- force_source

force_source::force_source(const std::string& name, network& net, pin p_pin,
                           pin n_pin, waveform w)
    : component(name, net), p("p", *this, nature::mechanical_translational),
      n("n", *this, nature::mechanical_translational), wave_(std::move(w)) {
    p.bind(p_pin);
    n.bind(n_pin);
}

void force_source::stamp(network& net) {
    stamp_waveform_flow(net, p.get(), n.get(), wave_);
}

// ------------------------------------------------------------ position_probe

position_probe::position_probe(const std::string& name, network& net, pin n)
    : component(name, net), p("p", *this, nature::mechanical_translational),
      outp("outp") {
    outp.set_owner(net);
    p.bind(n);
}

void position_probe::stamp(network& net) {
    row_ = net.branch_row(*this, "x");
    // dx/dt - v = 0
    net.add_b(row_, row_, 1.0);
    net.add_a(row_, network::row_of(p.get()), -1.0);
}

void position_probe::write_tdf_outputs(network& net) {
    outp.write(net.state()[row_]);
}

// ------------------------------------------------------------------- inertia

inertia::inertia(const std::string& name, network& net, pin n, double kg_m2)
    : component(name, net), p("p", *this, nature::mechanical_rotational), j_(kg_m2) {
    util::require(kg_m2 > 0.0, this->name(), "inertia must be positive");
    p.bind(n);
}

void inertia::stamp(network& net) {
    net.stamp_capacitance(p.get(), net.ground(nature::mechanical_rotational), j_);
}

// --------------------------------------------------------- rotational_damper

rotational_damper::rotational_damper(const std::string& name, network& net, pin a_pin,
                                     pin b_pin, double n_m_s_per_rad)
    : component(name, net), a("a", *this, nature::mechanical_rotational),
      b("b", *this, nature::mechanical_rotational), d_(n_m_s_per_rad) {
    util::require(n_m_s_per_rad > 0.0, this->name(), "damping must be positive");
    a.bind(a_pin);
    b.bind(b_pin);
}

void rotational_damper::stamp(network& net) {
    net.stamp_conductance(a.get(), b.get(), d_);
}

// ------------------------------------------------------------ torsion_spring

torsion_spring::torsion_spring(const std::string& name, network& net, pin a_pin,
                               pin b_pin, double n_m_per_rad)
    : component(name, net), a("a", *this, nature::mechanical_rotational),
      b("b", *this, nature::mechanical_rotational), k_(n_m_per_rad) {
    util::require(n_m_per_rad > 0.0, this->name(), "stiffness must be positive");
    a.bind(a_pin);
    b.bind(b_pin);
}

void torsion_spring::stamp(network& net) {
    stamp_integral_branch(net, *this, a.get(), b.get(), 1.0 / k_);
}

// ------------------------------------------------------------- torque_source

torque_source::torque_source(const std::string& name, network& net, pin p_pin,
                             pin n_pin, waveform w)
    : component(name, net), p("p", *this, nature::mechanical_rotational),
      n("n", *this, nature::mechanical_rotational), wave_(std::move(w)) {
    p.bind(p_pin);
    n.bind(n_pin);
}

void torque_source::stamp(network& net) {
    stamp_waveform_flow(net, p.get(), n.get(), wave_);
}

// ------------------------------------------------------- thermal_capacitance

thermal_capacitance::thermal_capacitance(const std::string& name, network& net, pin n,
                                         double j_per_k)
    : component(name, net), p("p", *this, nature::thermal), c_(j_per_k) {
    util::require(j_per_k > 0.0, this->name(), "heat capacity must be positive");
    p.bind(n);
}

void thermal_capacitance::stamp(network& net) {
    net.stamp_capacitance(p.get(), net.ground(nature::thermal), c_);
}

// -------------------------------------------------------- thermal_resistance

thermal_resistance::thermal_resistance(const std::string& name, network& net,
                                       pin a_pin, pin b_pin, double k_per_w)
    : component(name, net), a("a", *this, nature::thermal),
      b("b", *this, nature::thermal), r_(k_per_w) {
    util::require(k_per_w > 0.0, this->name(), "thermal resistance must be positive");
    a.bind(a_pin);
    b.bind(b_pin);
}

void thermal_resistance::stamp(network& net) {
    net.stamp_conductance(a.get(), b.get(), 1.0 / r_);
}

// --------------------------------------------------------------- heat_source

heat_source::heat_source(const std::string& name, network& net, pin p_pin,
                         pin n_pin, waveform w)
    : component(name, net), p("p", *this, nature::thermal),
      n("n", *this, nature::thermal), wave_(std::move(w)) {
    p.bind(p_pin);
    n.bind(n_pin);
}

void heat_source::stamp(network& net) {
    stamp_waveform_flow(net, p.get(), n.get(), wave_);
}

// ------------------------------------------------------------------ dc_motor

dc_motor::dc_motor(const std::string& name, network& net, pin elec_p, pin elec_n,
                   pin shaft_pin, double resistance, double inductance,
                   double k_torque)
    : component(name, net), p("p", *this, nature::electrical),
      n("n", *this, nature::electrical),
      shaft("shaft", *this, nature::mechanical_rotational), r_(resistance),
      l_(inductance), k_(k_torque) {
    util::require(resistance > 0.0 && inductance > 0.0 && k_torque > 0.0, this->name(),
                  "motor parameters must be positive");
    p.bind(elec_p);
    n.bind(elec_n);
    shaft.bind(shaft_pin);
}

void dc_motor::stamp(network& net) {
    const std::size_t k = net.branch_row(*this);  // armature current
    const std::size_t rp = network::row_of(p.get());
    const std::size_t rn = network::row_of(n.get());
    const std::size_t rw = network::row_of(shaft.get());
    // Electrical KCL.
    net.add_a(rp, k, 1.0);
    net.add_a(rn, k, -1.0);
    // Armature branch: v_p - v_n - R i - L di/dt - K w = 0.
    net.add_a(k, rp, 1.0);
    net.add_a(k, rn, -1.0);
    net.add_a(k, k, -r_);
    net.add_b(k, k, -l_);
    net.add_a(k, rw, -k_);
    // Electromagnetic torque K*i injected into the shaft node.
    net.add_a(rw, k, -k_);
}

}  // namespace sca::eln
