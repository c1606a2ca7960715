// Bindable conservative-law ports (the structural face of the ELN view).
//
// A terminal is the named connection point of a component or subcircuit.
// Components take their pins in their one constructor; each pin is either
// a node of the owning network (bound at once)
//
//   eln::resistor r("r", net, vin, vout, 1e3);
//
// or a terminal of the enclosing subcircuit (a hierarchical forward), so
// composite blocks expose their pins without knowing the outer netlist:
//
//   struct divider : eln::subcircuit {
//       eln::terminal in, out, ref;
//       eln::resistor top;
//       ...  top("top", net, in, out, 1e3) ...
//   };
//
// A subcircuit's own pins bind after construction (`d.in(vin)`).
// Forwarding chains are resolved at elaboration; an unbound chain is an
// elaboration error reporting the terminal's full hierarchical path.
#ifndef SCA_ELN_TERMINAL_HPP
#define SCA_ELN_TERMINAL_HPP

#include <optional>
#include <string>

#include "eln/node.hpp"
#include "kernel/object.hpp"

namespace sca::eln {

class component;
class network;
class subcircuit;
class terminal;

/// What a terminal binds to: a node of the owning network, or another
/// terminal (typically a subcircuit pin) resolved at elaboration.  Built
/// implicitly from either, so a component's pin arguments take both.
class pin {
public:
    pin(const node& n) noexcept : node_(n) {}    // NOLINT(google-explicit-constructor)
    pin(terminal& t) noexcept : forward_(&t) {}  // NOLINT(google-explicit-constructor)

private:
    node node_;
    terminal* forward_ = nullptr;
    friend class terminal;
};

class terminal : public de::object {
public:
    /// Terminal owned by a component; with `expected`, node bindings are
    /// nature-checked.
    terminal(std::string name, component& owner);
    terminal(std::string name, component& owner, nature expected);
    /// Exposed pin of a subcircuit.
    terminal(std::string name, subcircuit& owner);
    terminal(std::string name, subcircuit& owner, nature expected);

    ~terminal() override;

    [[nodiscard]] const char* kind() const noexcept override { return "eln_terminal"; }

    /// Bind to a node of the owning network, or hierarchically to another
    /// terminal (typically a subcircuit pin).  A terminal binds exactly once.
    void bind(const pin& to);
    void operator()(const pin& to) { bind(to); }

    [[nodiscard]] bool is_bound() const noexcept {
        return has_node_ || forward_ != nullptr;
    }

    /// Follow the forwarding chain to the terminal node.  Elaboration-time
    /// error (with this terminal's full hierarchical path) when unbound.
    void resolve();

    /// The resolved node.  Valid after resolve() — immediately for terminals
    /// bound directly to a node.
    [[nodiscard]] const node& get() const;

    [[nodiscard]] network& net() const noexcept { return *net_; }

private:
    terminal(std::string name, de::object& owner, network& net,
             std::optional<nature> expected);
    void check_node(const node& n) const;

    network* net_;
    node node_;
    terminal* forward_ = nullptr;
    bool has_node_ = false;
    std::optional<nature> expected_;

    // Teardown is order-agnostic: whichever of terminal/network dies first
    // unlinks from the other (see ~network).
    friend class network;
};

}  // namespace sca::eln

#endif  // SCA_ELN_TERMINAL_HPP
