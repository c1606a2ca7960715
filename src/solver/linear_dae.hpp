// Fixed-timestep linear DAE solver.
//
// Solves  A x + B dx/dt = q(t)  with backward Euler or the trapezoidal rule
// at a fixed step h.  The iteration matrix (c_a A + B/h) is factored once and
// reused for every step — the "solved without iterations" property the paper
// attributes to linear systems (§3, citing [6]).  Refactoring is tiered:
// a values-only change (stamp-slot update — switch toggle, parameter write —
// or a timestep/method change) rebuilds the iteration matrix values in place
// and runs a numeric-only refactorization against the cached symbolic
// analysis; only a stamp-generation change (full restamp, pattern may have
// moved) re-runs the symbolic phase.
//
// The per-step cost is the arithmetic alone.  step() reads flat CSR copies
// of A and B (refreshed only when a stamp/values generation or a pattern
// moves) in one fused row pass and solves on raw buffers.  A values-only
// change rewrites the iteration matrix through scatter addresses fixed when
// its pattern was built, then looks the new values up in a small factor
// cache keyed by the exact value bits under the current symbolic analysis:
// a switched network cycling through a few matrices refactors each once.
// Every path performs the same floating-point operations in the same order
// as the plain multiply / refactor / solve it replaces, so results are
// bit-identical.
#ifndef SCA_SOLVER_LINEAR_DAE_HPP
#define SCA_SOLVER_LINEAR_DAE_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "numeric/sparse.hpp"
#include "solver/equation_system.hpp"

namespace sca::solver {

enum class integration_method { backward_euler, trapezoidal };

class linear_dae_solver {
public:
    /// `h` is the fixed timestep in seconds.
    linear_dae_solver(equation_system& sys, integration_method method, double h);

    /// Set the initial state (e.g. from a DC solve) and the start time.
    void set_initial_state(std::vector<double> x0, double t0);

    /// Advance one step of size h; afterwards x() is the solution at time().
    void step();

    /// Advance until `t_end` (an integer number of steps; t_end must be
    /// aligned with the step grid within rounding).
    void advance_to(double t_end);

    [[nodiscard]] const std::vector<double>& x() const noexcept { return x_; }
    [[nodiscard]] double time() const noexcept { return t_; }
    [[nodiscard]] double timestep() const noexcept { return h_; }
    /// Rule the iteration matrix is currently factored for: that of the last
    /// step (backward Euler when forced, else the configured method).
    [[nodiscard]] integration_method step_method() const noexcept {
        return factored_method_;
    }

    /// Change the timestep (forces a refactor at the next step).
    void set_timestep(double h);

    /// Force rebuild of the iteration matrix (after restamping the system).
    void invalidate();

    /// Take the next step with backward Euler even in trapezoidal mode.
    /// Required after discontinuities (switch events, restamps): the
    /// trapezoidal rule rings indefinitely on algebraic constraints whose
    /// stamps changed, BE re-establishes consistency in one step.
    void force_backward_euler_next() noexcept { be_next_ = true; }

    /// Numeric factorization passes (full factorizations included; factor
    /// cache hits are not passes and do not count).
    [[nodiscard]] std::uint64_t factor_count() const noexcept { return factors_; }
    /// Iteration-matrix refreshes served from the factor cache.
    [[nodiscard]] std::uint64_t factor_cache_hits() const noexcept { return cache_hits_; }
    /// Numeric refactors whose stability guard tripped, so a full factor()
    /// (new pivot order) ran instead.
    [[nodiscard]] std::uint64_t refactor_fallbacks() const noexcept {
        return refactor_fallbacks_;
    }
    /// Full symbolic analyses (pivot order + fill pattern). Values-only
    /// restamps keep this flat: only factor_count advances.
    [[nodiscard]] std::uint64_t symbolic_factor_count() const noexcept {
        return symbolic_factors_;
    }
    [[nodiscard]] std::uint64_t solve_count() const noexcept { return solves_; }

    /// Use dense factorization instead of sparse (ablation benches).
    void set_use_dense(bool dense) {
        use_dense_ = dense;
        drop_factor_cache();
        invalidate();
    }

    /// The iteration matrix and sparse factorization the last step used
    /// (introspection: tests replay them against fresh factorizations).
    [[nodiscard]] const num::sparse_matrix_d& iteration_matrix() const noexcept {
        return iter_mat_;
    }
    [[nodiscard]] const num::sparse_lu_d& lu() const noexcept { return lu_; }

    // --- checkpoint/restore ----------------------------------------------------
    /// Serialize integration state (t, x, q_prev, method/timestep flags),
    /// the cached LU symbolic analysis, and the generation/counter book-
    /// keeping.  The equation system is saved separately by its owner.
    void save_state(util::byte_writer& w) const;
    /// Restore onto a freshly constructed solver whose equation system has
    /// already been overlaid: rebuilds the iteration matrix from the
    /// restored A/B values, adopts the frozen pivot order, and refactors —
    /// bit-identical to the factorization the saving process held.
    void restore_state(util::byte_reader& r);

private:
    /// Flat row-major copy of A or B: what step() multiplies with, and the
    /// source of values-only iteration-matrix rewrites.
    struct csr_copy {
        std::vector<std::size_t> ptr, col;
        std::vector<double> val;
        std::uint64_t pattern_version = 0;
        /// Copy `m`'s values; the index arrays only when its pattern moved.
        void assign(const num::sparse_matrix_d& m);
    };
    /// One factor-cache entry: iteration-matrix values (row-major, exact
    /// bits) and the numeric factors a pass over them produced.
    struct factor_entry {
        std::vector<double> key;
        num::sparse_lu_d::numeric_values factors;
    };
    static constexpr std::size_t k_factor_cache_entries = 8;
    /// Consecutive misses after which the cache only probes, and the probe
    /// interval then (see factor_sparse).
    static constexpr std::uint64_t k_idle_after_misses = 2 * k_factor_cache_entries;
    static constexpr std::uint64_t k_idle_probe_interval = 32;

    void ensure_factored(integration_method m);
    /// Refresh the A/B copies when a generation or pattern moved.
    void refresh_step_plan();
    /// Scatter addresses of every A and B entry into the iteration matrix.
    void build_scatter();
    /// Sparse numeric factorization of the freshly refreshed iteration
    /// matrix: a cache hit loads factors, a miss refactors (falling back to
    /// a full factor()) and records them.
    void factor_sparse();
    [[nodiscard]] const factor_entry* find_factors() const;
    void drop_factor_cache() noexcept;

    equation_system* sys_;
    integration_method method_;
    double h_;
    double t_ = 0.0;
    std::vector<double> x_;
    std::vector<double> q_prev_;  // q(t) of the accepted point (trapezoidal)
    // Per-step scratch, reused so batched firings never allocate.
    std::vector<double> q1_;
    std::vector<double> bx_;
    std::vector<double> ax_;
    std::vector<double> rhs_;
    std::vector<double> x_next_;
    num::sparse_matrix_d iter_mat_;  // persistent c_a·A + B/h (pattern reused)
    bool iter_mat_valid_ = false;
    num::sparse_lu_d lu_;
    num::dense_lu_d dense_lu_;
    bool use_dense_ = false;
    bool factored_ = false;
    bool be_next_ = false;
    integration_method factored_method_ = integration_method::backward_euler;
    std::uint64_t stamp_generation_ = ~0ULL;
    std::uint64_t values_generation_ = ~0ULL;
    std::uint64_t factors_ = 0;
    std::uint64_t symbolic_factors_ = 0;
    std::uint64_t solves_ = 0;
    std::uint64_t cache_hits_ = 0;
    std::uint64_t refactor_fallbacks_ = 0;

    // --- compiled step plan (never snapshotted: rebuilt on demand) ---------
    csr_copy a_csr_;
    csr_copy b_csr_;
    bool plan_valid_ = false;
    std::uint64_t plan_stamp_generation_ = 0;
    std::uint64_t plan_values_generation_ = 0;
    // Addresses into iter_mat_'s value storage, one per A / B entry in CSR
    // order; usable only while iter_mat_ keeps scatter_iter_version_ and A/B
    // keep the pattern versions they were built from.
    std::vector<double*> a_scatter_;
    std::vector<double*> b_scatter_;
    bool scatter_valid_ = false;
    std::uint64_t scatter_iter_version_ = 0;
    std::uint64_t scatter_a_version_ = 0;
    std::uint64_t scatter_b_version_ = 0;

    // --- factor cache (never snapshotted) -----------------------------------
    std::array<factor_entry, k_factor_cache_entries> cache_;
    std::size_t cache_size_ = 0;
    std::size_t cache_next_ = 0;           // round-robin replacement
    std::uint64_t cache_symbolic_ = ~0ULL;  // lu_.symbolic_count() it is keyed to
    std::uint64_t miss_streak_ = 0;         // refreshes since the last hit
};

}  // namespace sca::solver

#endif  // SCA_SOLVER_LINEAR_DAE_HPP
