// Data converters and mixed-signal glue: sample&hold, comparator, flash ADC,
// binary DAC (paper Figure 1: "A/D and D/A converters ... modelled as
// signal-flow blocks"; seed work [2]: module libraries with "functional
// models of relatively complex mixed-signal elements (e.g. flash ADC,
// switched capacitor DAC)").
#ifndef SCA_LIB_CONVERTERS_HPP
#define SCA_LIB_CONVERTERS_HPP

#include <cstdint>

#include "tdf/converter.hpp"
#include "tdf/module.hpp"
#include "util/bytes.hpp"

namespace sca::lib {

/// Ideal track-and-hold: holds the input sample for `hold` activations.
class sample_hold : public tdf::module {
public:
    tdf::in<double> in;
    tdf::out<double> out;

    sample_hold(const de::module_name& nm, unsigned hold_factor = 1);

    void set_attributes() override;
    void processing() override;

private:
    unsigned hold_factor_;
    double held_ = 0.0;
};

/// Comparator with hysteresis; optionally publishes to the DE world.
class comparator : public tdf::module {
public:
    tdf::in<double> in;
    tdf::out<bool> out;
    tdf::de_out<bool> de_out;  // optional DE notification (bind if needed)

    comparator(const de::module_name& nm, double threshold, double hysteresis = 0.0);

    void processing() override;

    [[nodiscard]] bool state() const noexcept { return state_; }

    /// Leave the DE port unbound if unused (bind() a dummy otherwise).
    void enable_de_output(de::signal<bool>& s) {
        de_out.bind(s);
        de_enabled_ = true;
    }

    // --- checkpoint/restore: the hysteresis state ---------------------------
    [[nodiscard]] bool has_snapshot_state() const noexcept override { return true; }
    void save_state(util::byte_writer& w) const override { w.boolean(state_); }
    void restore_state(util::byte_reader& r) override { state_ = r.boolean(); }

private:
    double threshold_;
    double hysteresis_;
    bool state_ = false;
    bool de_enabled_ = false;
};

/// Flash ADC: quantizes to a signed integer code with saturation; code and
/// quantized analog value are both produced.
class adc : public tdf::module {
public:
    tdf::in<double> in;
    tdf::out<std::int64_t> code;
    tdf::out<double> quantized;

    /// Full scale covers [-vref, +vref) with 2^bits levels.
    adc(const de::module_name& nm, unsigned bits, double vref);

    void processing() override;

    [[nodiscard]] double lsb() const noexcept { return lsb_; }

private:
    unsigned bits_;
    double vref_;
    double lsb_;
    std::int64_t max_code_;
    std::int64_t min_code_;
};

/// Binary-weighted DAC with optional per-bit mismatch errors.
class dac : public tdf::module {
public:
    tdf::in<std::int64_t> code;
    tdf::out<double> out;

    dac(const de::module_name& nm, unsigned bits, double vref);

    /// Relative weight error of each bit (index 0 = LSB), for INL studies.
    void set_bit_errors(std::vector<double> rel_errors);

    void processing() override;

private:
    unsigned bits_;
    double vref_;
    double lsb_;
    std::vector<double> bit_weight_;  // effective weight of each bit in volts
};

}  // namespace sca::lib

#endif  // SCA_LIB_CONVERTERS_HPP
