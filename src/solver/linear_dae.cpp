#include "solver/linear_dae.hpp"

#include <cmath>

#include "util/bytes.hpp"
#include "util/report.hpp"

namespace sca::solver {

linear_dae_solver::linear_dae_solver(equation_system& sys, integration_method method,
                                     double h)
    : sys_(&sys), method_(method), h_(h) {
    util::require(h > 0.0, "linear_dae_solver", "timestep must be positive");
    util::require(sys.is_linear(), "linear_dae_solver",
                  "system has nonlinear elements; use nonlinear_dae_solver");
    x_.assign(sys.size(), 0.0);
}

void linear_dae_solver::set_initial_state(std::vector<double> x0, double t0) {
    util::require(x0.size() == sys_->size(), "linear_dae_solver",
                  "initial state dimension mismatch");
    x_ = std::move(x0);
    t_ = t0;
    q_prev_ = sys_->rhs(t0);
}

void linear_dae_solver::set_timestep(double h) {
    util::require(h > 0.0, "linear_dae_solver", "timestep must be positive");
    if (h != h_) {
        h_ = h;
        factored_ = false;
    }
}

void linear_dae_solver::invalidate() { factored_ = false; }

void linear_dae_solver::ensure_factored(integration_method m) {
    const bool pattern_stale = stamp_generation_ != sys_->stamp_generation();
    const bool values_stale = values_generation_ != sys_->values_generation() ||
                              factored_method_ != m;
    if (factored_ && !pattern_stale && !values_stale) return;
    // M = c_a * A + B / h   (c_a = 1 for BE, 1/2 for trapezoidal)
    const double ca = m == integration_method::backward_euler ? 1.0 : 0.5;
    if (pattern_stale || !iter_mat_valid_) {
        // Pattern may have moved: rebuild the iteration matrix from scratch
        // (fresh pattern version forces a full symbolic factorization).
        iter_mat_ = num::sparse_matrix_d(sys_->size());
        iter_mat_valid_ = true;
    } else {
        // Values-only: reuse the pattern, rewrite the values in place.
        iter_mat_.zero_values();
    }
    iter_mat_.add_scaled(sys_->a(), ca);
    iter_mat_.add_scaled(sys_->b(), 1.0 / h_);
    if (use_dense_) {
        dense_lu_.factor(iter_mat_.to_dense());
        ++symbolic_factors_;
    } else if (!lu_.refactor(iter_mat_)) {
        lu_.factor(iter_mat_);
        ++symbolic_factors_;
    }
    ++factors_;
    factored_ = true;
    factored_method_ = m;
    stamp_generation_ = sys_->stamp_generation();
    values_generation_ = sys_->values_generation();
}

void linear_dae_solver::step() {
    // All scratch vectors are members reused across steps: when the TDF
    // synchronization layer batches many firings per DE interaction, each
    // step is one rhs assembly, one sparse mat-vec, and one triangular
    // solve against the cached factorization — no allocations, no refactor
    // (ensure_factored is a generation check unless the system restamped).
    const integration_method m =
        be_next_ ? integration_method::backward_euler : method_;
    be_next_ = false;
    ensure_factored(m);
    const double t1 = t_ + h_;
    sys_->rhs_into(t1, q1_);
    sys_->b().multiply_into(x_, bx_);

    rhs_.resize(sys_->size());
    if (m == integration_method::backward_euler) {
        for (std::size_t i = 0; i < rhs_.size(); ++i) rhs_[i] = q1_[i] + bx_[i] / h_;
    } else {
        sys_->a().multiply_into(x_, ax_);
        for (std::size_t i = 0; i < rhs_.size(); ++i) {
            rhs_[i] = 0.5 * (q1_[i] + q_prev_[i]) + bx_[i] / h_ - 0.5 * ax_[i];
        }
    }
    if (use_dense_) {
        dense_lu_.solve_into(rhs_, x_next_);
    } else {
        lu_.solve_into(rhs_, x_next_);
    }
    x_.swap(x_next_);
    ++solves_;
    t_ = t1;
    q_prev_.swap(q1_);
}

void linear_dae_solver::advance_to(double t_end) {
    // Steps are counted, not accumulated in floating point, to avoid drift.
    const auto n = static_cast<long long>(std::llround((t_end - t_) / h_));
    for (long long i = 0; i < n; ++i) step();
}

// --------------------------------------------------------------- snapshot --

void linear_dae_solver::save_state(util::byte_writer& w) const {
    w.u8(static_cast<std::uint8_t>(method_));
    w.f64(h_);
    w.f64(t_);
    w.f64_vec(x_);
    w.f64_vec(q_prev_);
    w.boolean(be_next_);
    w.boolean(use_dense_);
    w.boolean(factored_);
    w.u8(static_cast<std::uint8_t>(factored_method_));
    w.u64(stamp_generation_);
    w.u64(values_generation_);
    w.u64(factors_);
    w.u64(symbolic_factors_);
    w.u64(solves_);
    const bool has_symbolic = !use_dense_ && lu_.symbolic_valid();
    w.boolean(has_symbolic);
    if (has_symbolic) w.u64_vec(lu_.export_symbolic());
}

void linear_dae_solver::restore_state(util::byte_reader& r) {
    method_ = static_cast<integration_method>(r.u8());
    h_ = r.f64();
    t_ = r.f64();
    x_ = r.f64_vec();
    util::require(x_.size() == sys_->size(), "snapshot",
                  "linear solver: state dimension differs from rebuilt system");
    q_prev_ = r.f64_vec();
    util::require(q_prev_.size() == sys_->size(), "snapshot",
                  "linear solver: rhs history dimension differs from rebuilt system");
    be_next_ = r.boolean();
    use_dense_ = r.boolean();
    const bool was_factored = r.boolean();
    factored_method_ = static_cast<integration_method>(r.u8());
    const std::uint64_t stamp_gen = r.u64();
    const std::uint64_t values_gen = r.u64();
    const std::uint64_t factors = r.u64();
    const std::uint64_t symbolic_factors = r.u64();
    const std::uint64_t solves = r.u64();
    const bool has_symbolic = r.boolean();
    std::vector<std::uint64_t> symbolic;
    if (has_symbolic) symbolic = r.u64_vec();

    factored_ = false;
    iter_mat_valid_ = false;
    if (was_factored) {
        // Rebuild the iteration matrix the saving process held: its values
        // follow from the (already restored) A/B values and the factored
        // method/timestep, so the refactor below replays the exporting
        // process's last numeric factorization bit for bit.
        const double ca =
            factored_method_ == integration_method::backward_euler ? 1.0 : 0.5;
        iter_mat_ = num::sparse_matrix_d(sys_->size());
        iter_mat_.add_scaled(sys_->a(), ca);
        iter_mat_.add_scaled(sys_->b(), 1.0 / h_);
        iter_mat_valid_ = true;
        if (use_dense_) {
            dense_lu_.factor(iter_mat_.to_dense());
        } else {
            util::require(has_symbolic, "snapshot",
                          "linear solver: snapshot lacks the LU symbolic analysis");
            util::require(lu_.adopt_symbolic(symbolic, iter_mat_), "snapshot",
                          "linear solver: LU symbolic analysis does not fit the "
                          "rebuilt iteration matrix");
            if (!lu_.refactor(iter_mat_)) {
                // Pivots tiny enough to trip refactor()'s stability guard
                // are the ones the saver's own refactor() rejected too: it
                // fell back to factor(), so replay that — and insist it
                // lands on the saved pivot order rather than drifting.
                lu_.factor(iter_mat_);
                util::require(lu_.export_symbolic() == symbolic, "snapshot",
                              "linear solver: refactorization under the restored "
                              "pivot order failed and a fresh factorization chose "
                              "a different one");
            }
        }
        factored_ = true;
    }
    stamp_generation_ = stamp_gen;
    values_generation_ = values_gen;
    factors_ = factors;
    symbolic_factors_ = symbolic_factors;
    solves_ = solves;
}

}  // namespace sca::solver
