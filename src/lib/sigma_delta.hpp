// Discrete-time sigma-delta modulators and the matching sinc decimation
// filter (the "sigma-delta prefi/pofi" blocks of the paper's Figure 1 ADSL
// codec).  First- and second-order single-bit modulators with the classic
// noise-shaping behavior, testable via the SNR-vs-OSR sweep.
#ifndef SCA_LIB_SIGMA_DELTA_HPP
#define SCA_LIB_SIGMA_DELTA_HPP

#include <vector>

#include "tdf/block.hpp"
#include "tdf/module.hpp"
#include "util/bytes.hpp"
#include "util/report.hpp"

namespace sca::lib {

/// Single-bit sigma-delta modulator (order 1 or 2); output is +/- vref.
class sigma_delta_modulator : public tdf::module {
public:
    tdf::in<double> in;
    tdf::out<double> out;

    sigma_delta_modulator(const de::module_name& nm, unsigned order = 2,
                          double vref = 1.0);

    void processing() override;
    [[nodiscard]] bool has_block_processing() const override { return true; }
    void processing(tdf::block_view& blk) override;

    // --- checkpoint/restore: the two integrators ----------------------------
    [[nodiscard]] bool has_snapshot_state() const noexcept override { return true; }
    void save_state(util::byte_writer& w) const override {
        w.f64(int1_);
        w.f64(int2_);
    }
    void restore_state(util::byte_reader& r) override {
        int1_ = r.f64();
        int2_ = r.f64();
    }

private:
    unsigned order_;
    double vref_;
    double int1_ = 0.0;
    double int2_ = 0.0;
};

/// Third-order sinc (CIC-style) decimator matched to a sigma-delta stream:
/// consumes `osr` samples per output sample.
class sinc3_decimator : public tdf::module {
public:
    tdf::in<double> in;
    tdf::out<double> out;

    sinc3_decimator(const de::module_name& nm, unsigned osr);

    void set_attributes() override;
    void processing() override;
    [[nodiscard]] bool has_block_processing() const override { return true; }
    void processing(tdf::block_view& blk) override;

    // --- checkpoint/restore: the sliding window -----------------------------
    [[nodiscard]] bool has_snapshot_state() const noexcept override { return true; }
    void save_state(util::byte_writer& w) const override { w.f64_vec(window_); }
    void restore_state(util::byte_reader& r) override {
        std::vector<double> window = r.f64_vec();
        util::require(window.size() == window_.size(), "snapshot",
                      name() + ": sinc3 window length differs from snapshot");
        window_ = std::move(window);
    }

private:
    /// One output sample from the current window contents.
    [[nodiscard]] double window_dot() const;

    unsigned osr_;
    // Sliding 3*OSR window of modulator samples, newest at the back.
    std::vector<double> window_;
    // sinc^3 kernel (triple boxcar convolution), precomputed with its norm.
    std::vector<double> weights_;
    double norm_ = 0.0;
};

/// Complete oversampling converter as a hierarchical composite: modulator
/// followed by the matched sinc3 decimator.  `in` runs at the oversampled
/// rate; `out` produces one sample per `osr` inputs — the multirate boundary
/// lives inside the composite and is resolved by the cluster schedule.
class sigma_delta_adc : public tdf::composite {
public:
    tdf::in<double> in;
    tdf::out<double> out;

    sigma_delta_adc(const de::module_name& nm, unsigned order, double vref,
                    unsigned osr);

    [[nodiscard]] sigma_delta_modulator& modulator() noexcept { return *mod_; }
    [[nodiscard]] sinc3_decimator& decimator() noexcept { return *dec_; }

private:
    sigma_delta_modulator* mod_;
    sinc3_decimator* dec_;
};

}  // namespace sca::lib

#endif  // SCA_LIB_SIGMA_DELTA_HPP
