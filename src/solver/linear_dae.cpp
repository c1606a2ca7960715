#include "solver/linear_dae.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

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

void linear_dae_solver::csr_copy::assign(const num::sparse_matrix_d& m) {
    const std::size_t n = m.size();
    if (pattern_version != m.pattern_version() || ptr.size() != n + 1) {
        ptr.assign(n + 1, 0);
        col.clear();
        for (std::size_t r = 0; r < n; ++r) {
            const auto& idx = m.row_indices(r);
            col.insert(col.end(), idx.begin(), idx.end());
            ptr[r + 1] = col.size();
        }
        pattern_version = m.pattern_version();
    }
    val.resize(col.size());
    for (std::size_t r = 0; r < n; ++r) {
        const auto& v = m.row_values(r);
        std::copy(v.begin(), v.end(), val.begin() + static_cast<std::ptrdiff_t>(ptr[r]));
    }
}

void linear_dae_solver::refresh_step_plan() {
    const auto& a = sys_->a();
    const auto& b = sys_->b();
    if (plan_valid_ && plan_stamp_generation_ == sys_->stamp_generation() &&
        plan_values_generation_ == sys_->values_generation() &&
        a_csr_.pattern_version == a.pattern_version() &&
        b_csr_.pattern_version == b.pattern_version()) {
        return;
    }
    a_csr_.assign(a);
    b_csr_.assign(b);
    plan_stamp_generation_ = sys_->stamp_generation();
    plan_values_generation_ = sys_->values_generation();
    plan_valid_ = true;
}

void linear_dae_solver::build_scatter() {
    const auto fill = [this](const csr_copy& m, std::vector<double*>& out) {
        out.resize(m.col.size());
        for (std::size_t r = 0; r + 1 < m.ptr.size(); ++r) {
            for (std::size_t k = m.ptr[r]; k < m.ptr[r + 1]; ++k) {
                out[k] = iter_mat_.value_slot(r, m.col[k]);
            }
        }
    };
    fill(a_csr_, a_scatter_);
    fill(b_csr_, b_scatter_);
    scatter_iter_version_ = iter_mat_.pattern_version();
    scatter_a_version_ = a_csr_.pattern_version;
    scatter_b_version_ = b_csr_.pattern_version;
    scatter_valid_ = true;
}

void linear_dae_solver::ensure_factored(integration_method m) {
    const bool pattern_stale = stamp_generation_ != sys_->stamp_generation();
    const bool values_stale = values_generation_ != sys_->values_generation() ||
                              factored_method_ != m;
    if (factored_ && !pattern_stale && !values_stale) return;
    // M = c_a * A + B / h   (c_a = 1 for BE, 1/2 for trapezoidal)
    const double ca = m == integration_method::backward_euler ? 1.0 : 0.5;
    const double inv_h = 1.0 / h_;
    if (pattern_stale || !iter_mat_valid_) {
        // Pattern may have moved: rebuild the iteration matrix from scratch
        // (fresh pattern version forces a full symbolic factorization).
        // Inserting keeps a -0.0 product as is where the values-only path
        // below adds it to +0.0, so the two paths must stay separate.
        iter_mat_ = num::sparse_matrix_d(sys_->size());
        iter_mat_valid_ = true;
        iter_mat_.add_scaled(sys_->a(), ca);
        iter_mat_.add_scaled(sys_->b(), inv_h);
        build_scatter();
    } else if (scatter_valid_ && scatter_iter_version_ == iter_mat_.pattern_version() &&
               scatter_a_version_ == a_csr_.pattern_version &&
               scatter_b_version_ == b_csr_.pattern_version) {
        // Values-only through the precomputed addresses: the same
        // zero_values(); add_scaled(A, ca); add_scaled(B, 1/h) sums, entry
        // for entry, without the per-entry searches.
        iter_mat_.zero_values();
        const std::size_t na = a_scatter_.size();
        for (std::size_t k = 0; k < na; ++k) *a_scatter_[k] += ca * a_csr_.val[k];
        const std::size_t nb = b_scatter_.size();
        for (std::size_t k = 0; k < nb; ++k) *b_scatter_[k] += inv_h * b_csr_.val[k];
    } else {
        // No usable addresses (after a restore, or A/B grew entries without
        // a restamp): reuse the pattern, insert what is new, and re-derive
        // the scatter addresses.
        iter_mat_.zero_values();
        iter_mat_.add_scaled(sys_->a(), ca);
        iter_mat_.add_scaled(sys_->b(), inv_h);
        build_scatter();
    }
    if (use_dense_) {
        dense_lu_.factor(iter_mat_.to_dense());
        ++symbolic_factors_;
        ++factors_;
    } else {
        factor_sparse();
    }
    factored_ = true;
    factored_method_ = m;
    stamp_generation_ = sys_->stamp_generation();
    values_generation_ = sys_->values_generation();
}

const linear_dae_solver::factor_entry* linear_dae_solver::find_factors() const {
    if (cache_size_ == 0 || !lu_.symbolic_valid() ||
        lu_.symbolic_count() != cache_symbolic_ ||
        lu_.analyzed_pattern_version() != iter_mat_.pattern_version()) {
        return nullptr;
    }
    const std::size_t n = iter_mat_.size();
    for (std::size_t e = 0; e < cache_size_; ++e) {
        const factor_entry& entry = cache_[e];
        if (entry.key.size() != iter_mat_.nonzeros()) continue;
        std::size_t off = 0;
        bool same = true;
        for (std::size_t r = 0; r < n && same; ++r) {
            const auto& v = iter_mat_.row_values(r);
            if (v.empty()) continue;
            same = std::memcmp(v.data(), entry.key.data() + off, v.size() * sizeof(double)) == 0;
            off += v.size();
        }
        if (same) return &entry;
    }
    return nullptr;
}

void linear_dae_solver::factor_sparse() {
    // A long run of misses means the values do not come back (a swept
    // stamp, a changing timestep).  The cache then looks up and records only
    // every k_idle_probe_interval-th refresh: such traffic pays a small
    // share of the lookup and copies, and a later switching phase still
    // finds its matrices again.
    const bool use_cache = miss_streak_ < k_idle_after_misses ||
                           miss_streak_ % k_idle_probe_interval == 0;
    if (use_cache) {
        if (const factor_entry* hit = find_factors()) {
            lu_.load_numeric(hit->factors);
            ++cache_hits_;
            miss_streak_ = 0;
            return;
        }
    }
    ++miss_streak_;
    // refactor() refuses without a matching analysis (first factorization,
    // restamp) or when its stability guard trips; only the latter is a
    // fallback from a frozen pivot order.
    const bool guarded = lu_.symbolic_valid() && lu_.size() == iter_mat_.size() &&
                         lu_.analyzed_pattern_version() == iter_mat_.pattern_version();
    if (!lu_.refactor(iter_mat_)) {
        if (guarded) ++refactor_fallbacks_;
        lu_.factor(iter_mat_);
        ++symbolic_factors_;
    }
    ++factors_;
    if (!use_cache) return;
    // Record the pass under the analysis it ran against; a new analysis
    // (fallback, restamp) invalidates every earlier entry.
    if (lu_.symbolic_count() != cache_symbolic_) {
        drop_factor_cache();
        cache_symbolic_ = lu_.symbolic_count();
    }
    factor_entry& slot = cache_[cache_next_];
    cache_next_ = (cache_next_ + 1) % k_factor_cache_entries;
    cache_size_ = std::min(cache_size_ + 1, k_factor_cache_entries);
    slot.key.clear();
    for (std::size_t r = 0; r < iter_mat_.size(); ++r) {
        const auto& v = iter_mat_.row_values(r);
        slot.key.insert(slot.key.end(), v.begin(), v.end());
    }
    lu_.save_numeric(slot.factors);
}

void linear_dae_solver::drop_factor_cache() noexcept {
    cache_size_ = 0;
    cache_next_ = 0;
    cache_symbolic_ = ~0ULL;
    miss_streak_ = 0;
}

void linear_dae_solver::step() {
    // One fused row pass over flat copies of A and B builds the right-hand
    // side, then a raw-buffer triangular solve against the cached factors.
    // bx and ax accumulate from 0.0 in ascending column order, exactly as
    // sparse_matrix::multiply_into does, so the step is bit-identical to the
    // multiply + solve_into formulation.
    const integration_method m =
        be_next_ ? integration_method::backward_euler : method_;
    be_next_ = false;
    refresh_step_plan();
    ensure_factored(m);
    const double t1 = t_ + h_;
    const double h = h_;
    sys_->rhs_into(t1, q1_);
    const std::size_t n = sys_->size();
    rhs_.resize(n);
    x_next_.resize(n);
    const double* x = x_.data();
    const double* q1 = q1_.data();
    double* rhs = rhs_.data();
    const std::size_t* bp = b_csr_.ptr.data();
    const std::size_t* bc = b_csr_.col.data();
    const double* bv = b_csr_.val.data();
    if (m == integration_method::backward_euler) {
        for (std::size_t i = 0; i < n; ++i) {
            double bx = 0.0;
            for (std::size_t k = bp[i]; k < bp[i + 1]; ++k) bx += bv[k] * x[bc[k]];
            rhs[i] = q1[i] + bx / h;
        }
    } else {
        const std::size_t* ap = a_csr_.ptr.data();
        const std::size_t* ac = a_csr_.col.data();
        const double* av = a_csr_.val.data();
        const double* qp = q_prev_.data();
        for (std::size_t i = 0; i < n; ++i) {
            double bx = 0.0;
            for (std::size_t k = bp[i]; k < bp[i + 1]; ++k) bx += bv[k] * x[bc[k]];
            double ax = 0.0;
            for (std::size_t k = ap[i]; k < ap[i + 1]; ++k) ax += av[k] * x[ac[k]];
            rhs[i] = 0.5 * (q1[i] + qp[i]) + bx / h - 0.5 * ax;
        }
    }
    if (use_dense_) {
        dense_lu_.solve_into(rhs_, x_next_);
    } else {
        lu_.solve_unchecked(rhs_.data(), x_next_.data());
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
    // The step plan, the scatter addresses and the factor cache are derived
    // state: none is in the snapshot, all rebuild on demand.
    plan_valid_ = false;
    scatter_valid_ = false;
    drop_factor_cache();
    stamp_generation_ = stamp_gen;
    values_generation_ = values_gen;
    factors_ = factors;
    symbolic_factors_ = symbolic_factors;
    solves_ = solves;
}

}  // namespace sca::solver
