// Cluster discovery, static scheduling, and DE-kernel attachment: the
// synchronization layer between the dataflow/continuous-time world and the
// discrete-event kernel (paper §3: "the concept of a dedicated manager, let
// us call it the synchronization layer").
//
// At elaboration each cluster compiles its repetition vector into a flat
// firing program (run-length-encoded {module, count} entries with
// preallocated ring buffers); at runtime the program executes as a tight
// loop with no map lookups or allocations.  Clusters that write no DE
// signal batch several schedule periods per DE kernel interaction, bounded
// by the next pending DE event and the end of the current run: DE values
// they read cannot change before that event.  Clusters that write DE
// synchronize every period.
#ifndef SCA_TDF_CLUSTER_HPP
#define SCA_TDF_CLUSTER_HPP

#include <cstdint>
#include <vector>

#include "kernel/context.hpp"
#include "kernel/time.hpp"
#include "tdf/dynamic.hpp"
#include "tdf/schedule.hpp"

namespace sca::util {
class byte_writer;
class byte_reader;
class memory_trace;
}  // namespace sca::util

namespace sca::tdf {

class module;
class signal_base;
class port_base;
class cluster;
template <typename T>
class signal;

/// Records a tdf::signal<double> into one memory_trace column at the sample
/// instants k * sample_period, from inside the cluster that writes it, so a
/// probe costs no DE process and no kernel wake per sample.
///
/// Each row holds the value the testbench's DE trace recorder process
/// would have read at that instant: the last token written by the cluster
/// cycles that started before it, plus the cycle starting at the instant
/// itself when the kernel would have run the cluster first.  That same-instant
/// order is the kernel's: processes made runnable at one instant run
/// last-in-first-out, so the later of the two timed re-arms runs first (at
/// t = 0, the later registration).  The tap replays the cluster's wake/re-arm
/// sequence as it would have run next to a recorder process — period
/// batching bounded by the recorder's next sample, the run end and the batch
/// cap — to decide that order at every instant where a cycle starts.  The
/// replay is exact when the cluster's batching sees no other DE process
/// (testbench::run checks this and keeps the DE recorder otherwise).
class probe_tap {
public:
    /// `cluster_first_at_zero`: the cluster process would run before the
    /// recorder at t = 0, i.e. the recorder would have been registered first.
    probe_tap(const signal<double>& s, util::memory_trace& trace, std::size_t channel,
              const de::time& sample_period, bool cluster_first_at_zero);

    /// Fill every row at or before `now`; the caller guarantees that every
    /// cycle starting at or before `now` has run (run() has returned).
    void fill_until(const de::time& now);

    /// Grid index of the next row this tap will fill.
    [[nodiscard]] std::uint64_t next_row() const noexcept { return next_row_; }

    // --- checkpoint/restore (core/snapshot) ----------------------------------
    void save_state(util::byte_writer& w) const;
    /// Overlay the saved position; runs after the writing cluster restored.
    void restore_state(util::byte_reader& r);

private:
    friend class cluster;
    /// Cycles [start, start + n * step) of the writing cluster just ran;
    /// `rescheduled`: a dynamic cluster's change window after the (single)
    /// cycle installed a new schedule.
    void on_cycles(const cluster& c, const de::time& start, std::uint64_t n,
                   const de::time& step, bool rescheduled);
    /// The cluster's timed wake at `at` (cycle `at` just ran, the next
    /// starts at `next`): replay its batch-ahead plan.  `next_sample` is the
    /// first sample instant after `at` (fs).
    void plan(const cluster& c, const de::time& at, const de::time& next, bool on_grid,
              std::int64_t next_sample);
    /// The replayed cluster re-arms for `wake` at `armed_at`, from its
    /// settled zero-delay re-activation (`from_delta`) or its timed wake.
    void arm(const de::time& wake, const de::time& armed_at, bool from_delta,
             std::int64_t next_sample);
    /// Append the next row, holding last_.
    void push_row();

    const signal<double>* sig_;
    const port_base* writer_;
    util::memory_trace* trace_;
    std::size_t channel_;
    std::int64_t period_fs_;
    std::uint64_t next_row_ = 0;
    std::int64_t row_fs_ = 0;       // next_row_ * sample period
    std::uint64_t writer_pos_;      // writer position after the last cycle seen
    double last_;                   // value after the last cycle seen
    de::time wake_;                 // next replayed timed wake (when not batching)
    de::time armed_at_;             // where the running replayed batch was planned
    std::uint64_t batch_left_ = 0;  // replayed batch cycles still to come
    bool cluster_first_;            // at wake_: cluster runs before the recorder
};

/// A maximal set of TDF modules connected through TDF signals, executed as
/// one statically scheduled unit from a single DE process.
class cluster {
public:
    /// One compiled firing-program entry: `count` consecutive firings of
    /// `mod`, the first at cycle-relative firing index `first_firing`.
    struct program_entry {
        module* mod;
        std::uint64_t first_firing;
        std::uint64_t count;
    };

    /// A firing program compiled for `periods` schedule periods fused into
    /// one super-cycle: the PASS construction run on repetitions x periods,
    /// so chains collapse into long run-length entries (= large block calls)
    /// while delay-broken feedback loops keep their legal alternation.
    struct fused_program {
        std::uint64_t periods;
        std::vector<program_entry> entries;
    };

    /// Default cap on schedule periods executed per DE kernel interaction.
    static constexpr std::uint64_t k_default_max_batch_periods = 64;

    explicit cluster(std::vector<module*> modules);

    /// Compute repetition vector, resolve timesteps, compile the firing
    /// program (PASS), size the buffers, and call initialize() on modules.
    void elaborate();

    /// Register the driving DE process with the kernel.  The driving process
    /// runs one cycle per timed wake; for clusters that write no DE signal a
    /// zero-delay re-activation then runs further cycles ahead of DE time
    /// once the event queue has settled — never past the next pending DE
    /// event or the end of the current scheduler run.
    void attach(de::simulation_context& ctx);

    /// Peer-cluster processes whose re-arm events batch planning may ignore:
    /// the clusters that write no DE signal, which no other such cluster can
    /// observe through the kernel; set by the registry.
    void set_peer_processes(std::vector<const de::method_process*> peers);

    /// The driving DE process (valid after attach()).
    [[nodiscard]] const de::method_process* process() const noexcept { return proc_; }

    [[nodiscard]] const de::time& period() const noexcept { return period_; }
    [[nodiscard]] const std::vector<module*>& modules() const noexcept { return modules_; }
    /// Expanded firing order (one entry per firing); introspection/tests.
    [[nodiscard]] const std::vector<module*>& schedule() const noexcept { return schedule_; }
    /// The compiled (run-length-encoded) firing program.
    [[nodiscard]] const std::vector<program_entry>& program() const noexcept {
        return program_;
    }
    [[nodiscard]] std::uint64_t cycle_count() const noexcept { return cycles_; }

    /// True when any member module exchanges samples with the DE world
    /// (converter ports or DE-connected ELN/LSF components).
    [[nodiscard]] bool de_coupled() const noexcept { return reads_de_ || writes_de_; }
    /// True when a member writes DE signals (de::out / tdf::de_out ports,
    /// eln::de_vsink, lsf::to_de); such clusters synchronize with the DE
    /// kernel at every period boundary.  Clusters that only read DE batch
    /// like pure ones.
    [[nodiscard]] bool writes_de() const noexcept { return writes_de_; }

    /// Cap the number of schedule periods executed per DE kernel
    /// interaction (>= 1).  1 disables batching entirely.
    void set_max_batch_periods(std::uint64_t n);
    [[nodiscard]] std::uint64_t max_batch_periods() const noexcept { return max_batch_; }

    /// Feed `tap` every cycle this cluster runs from now on; `tap` must
    /// watch a signal this cluster writes and outlive the cluster's runs.
    /// Grows that signal's ring buffer so a fused program's writes all stay
    /// readable until the tap has seen them.
    void add_tap(probe_tap& tap);

    // --- block execution (see tdf/block.hpp) --------------------------------
    /// Enable/disable the block path (default on).  Off restores the exact
    /// per-sample executor — the A/B baseline; results are bit-identical
    /// either way.
    void set_block_execution(bool on) noexcept { block_execution_ = on; }
    [[nodiscard]] bool block_execution() const noexcept { return block_execution_; }

    /// Multi-period fused firing programs (pure static clusters only; empty
    /// for DE-coupled and dynamic clusters).  Descending period counts.
    [[nodiscard]] const std::vector<fused_program>& fused_programs() const noexcept {
        return fused_;
    }
    /// Cycles executed through fused programs (diagnostics/benches).
    [[nodiscard]] std::uint64_t fused_cycle_count() const noexcept {
        return fused_cycles_;
    }

    // --- dynamic TDF (runtime attribute changes) ----------------------------
    /// True when any member declares does_attribute_changes(): the cluster
    /// calls change_attributes() between periods and reschedules when a
    /// request lands.  Static clusters (the common case) never enter this
    /// path and keep the compiled fast path bit-identically.
    [[nodiscard]] bool is_dynamic() const noexcept { return dynamic_; }

    /// Reschedules applied so far (requests that actually changed something).
    [[nodiscard]] std::uint64_t reschedule_count() const noexcept { return reschedules_; }
    /// Full schedule compilations triggered by reschedules (cache misses);
    /// stays constant once every visited configuration is cached.
    [[nodiscard]] std::uint64_t recompile_count() const noexcept { return recompiles_; }
    [[nodiscard]] std::uint64_t schedule_cache_hits() const noexcept {
        return cache_.hits();
    }
    [[nodiscard]] std::uint64_t schedule_cache_misses() const noexcept {
        return cache_.misses();
    }
    [[nodiscard]] std::size_t schedule_cache_size() const noexcept {
        return cache_.size();
    }

    // --- checkpoint/restore (core/snapshot) ----------------------------------
    /// Serialize the cluster's runtime state at a settled point: the
    /// schedule-determining attributes of every member (with the installed
    /// attribute signature, so restore revalidates instead of trusting),
    /// per-port stream positions, every signal's ring-buffer tokens, and the
    /// cycle/reschedule bookkeeping.
    void save_state(util::byte_writer& w) const;
    /// Restore onto a freshly elaborated cluster: overlay the saved
    /// attributes, reinstall the matching schedule (cache hit or recompile —
    /// only when the saved signature differs from the elaborated one), then
    /// overlay stream positions and ring-buffer tokens.  Token overlay runs
    /// last because schedule installation resets positions and buffers.
    void restore_state(util::byte_reader& r);

private:
    friend class probe_tap;  // replays on_wake() against the kernel's run end

    void compute_repetitions();
    void resolve_timesteps();
    void build_schedule();
    void detect_de_coupling();
    /// Driving-process body: one cycle per timed wake plus the batched
    /// continuation on the zero-delay re-activation.
    void on_wake();
    /// Fire `n` cluster cycles, the first starting at virtual time `start`.
    void run_cycles(const de::time& start, std::uint64_t n);
    /// One dynamic-cluster cycle followed by its change_attributes() window.
    void run_dynamic_cycle(de::time start);  // by value: callers pass next_cycle_start_
    /// Hand cycles [start, start + n * step) to every probe tap.
    void feed_taps(const de::time& start, std::uint64_t n, const de::time& step,
                   bool rescheduled);
    /// Cycles safe to run ahead of DE time, starting at next_cycle_start_.
    /// `for_peek` skips the run_end clamp: the peek decides only whether to
    /// defer the re-arm to a settled delta, and that decision must not
    /// depend on where the current run() call happens to stop — otherwise a
    /// sliced run re-arms through a different path than a continuous one,
    /// flips same-instant event order after the boundary, and breaks
    /// bit-identity between sliced and full runs.
    [[nodiscard]] std::uint64_t plan_batch_ahead(bool for_peek = false) const;
    /// Re-activate in a zero-delay delta to plan a batch once the instant
    /// has settled.
    void defer_batch_check();
    /// The delta's timed re-arm for the next cycle start.
    void rearm_after_batch(const de::time& now);

    // --- dynamic rescheduling (see tdf/dynamic.hpp) -------------------------
    /// Compile the current rates/anchors into a firing program (the PASS run
    /// shared by elaboration and reschedule misses).  `periods` > 1 fuses
    /// that many schedule periods into one super-cycle program.
    [[nodiscard]] compiled_schedule compile_current(std::uint64_t periods = 1) const;
    /// Compile the power-of-two ladder of fused programs and fold their
    /// ring-buffer needs into `caps` (elementwise max).
    void build_fused_programs(std::vector<std::size_t>& caps);
    /// Install a compiled program into program_/schedule_.
    void install_program(const compiled_schedule& compiled);
    /// Run one pass of `prog` at cycle start `t` (block or per-sample).
    void exec_program(const std::vector<program_entry>& prog, const de::time& t);
    /// Allocate ring buffers and restart stream positions.  `in_place`
    /// grows buffers only when needed (reschedules); elaboration allocates
    /// exactly.
    void size_buffers(const std::vector<std::size_t>& capacities, bool in_place);
    /// Call change_attributes() on every dynamic member; reschedule if a
    /// request landed.  Runs between periods (after a cycle's firings).
    void run_change_attributes();
    /// Gate, apply staged requests, and swap in the new configuration —
    /// from the schedule cache when this signature was visited before,
    /// otherwise via a full recompile that seeds the cache.
    void apply_attribute_changes();
    /// Current schedule-determining attributes as a cache key.
    [[nodiscard]] attribute_signature compute_signature() const;
    /// Snapshot the installed configuration (for caching after a compile).
    [[nodiscard]] cluster_config snapshot_config() const;
    /// Install a cached configuration (timing + program + buffers).
    void install_config(const cluster_config& cfg);

    std::vector<module*> modules_;
    std::vector<signal_base*> signals_;
    std::vector<program_entry> program_;
    std::vector<module*> schedule_;               // expanded firing order
    std::vector<std::uint64_t> schedule_firing_;  // firing index per entry
    std::vector<const de::method_process*> peers_;
    std::vector<module*> dynamic_modules_;
    std::vector<fused_program> fused_;  // descending periods, pure static only
    std::vector<probe_tap*> taps_;
    mutable std::vector<const de::event*> ignore_scratch_;
    schedule_cache cache_;
    compiled_schedule last_compiled_;  // index form of the installed program
    de::time period_;
    de::time next_cycle_start_;
    std::uint64_t cycles_ = 0;
    std::uint64_t max_batch_ = k_default_max_batch_periods;
    std::uint64_t reschedules_ = 0;
    std::uint64_t recompiles_ = 0;
    std::uint64_t fused_cycles_ = 0;
    bool reads_de_ = false;
    bool writes_de_ = false;
    bool dynamic_ = false;
    bool block_execution_ = true;
    bool batch_check_pending_ = false;
    // Where a DE-reading cluster's re-arm would have gone at its timed wake
    // (instant and same-instant entries ahead of it); see defer_batch_check.
    de::time rearm_at_;
    std::size_t rearm_behind_ = 0;
    de::method_process* proc_ = nullptr;
    de::simulation_context* ctx_ = nullptr;
};

/// Per-context registry of TDF modules; installs the elaboration hook that
/// builds clusters (created lazily through simulation_context::domain_data).
class registry {
public:
    explicit registry(de::simulation_context& ctx);
    ~registry();  // out of line: adopted signals need the complete type

    static registry& of(de::simulation_context& ctx);

    void add_module(module& m);

    [[nodiscard]] const std::vector<std::unique_ptr<cluster>>& clusters() const noexcept {
        return clusters_;
    }

    /// Batch cap applied to every cluster (existing and future).
    void set_default_max_batch_periods(std::uint64_t n);

    /// Block-execution default applied to every cluster (existing and
    /// future); the per-sample A/B baseline is set_default_block_execution(false).
    void set_default_block_execution(bool on);

    /// Cluster discovery + scheduling; runs as an elaboration hook.  Resolves
    /// every TDF port's forwarding chain first, so discovery traverses
    /// hierarchical (port-to-port) bindings transparently.
    void elaborate_clusters();

    /// Take ownership of an auto-created signal (see tdf/connect.hpp); the
    /// signal lives until the context is destroyed.
    signal_base& adopt_signal(std::unique_ptr<signal_base> s);

private:
    /// Metrics collector body (registered with the context): publish the
    /// cluster/module/solver counter totals into the context's registry.
    void publish_metrics();

    de::simulation_context* ctx_;
    std::vector<module*> modules_;
    std::vector<std::unique_ptr<cluster>> clusters_;
    std::vector<std::unique_ptr<signal_base>> adopted_signals_;
    std::uint64_t default_max_batch_ = cluster::k_default_max_batch_periods;
    bool default_block_execution_ = true;
    bool elaborated_ = false;
};

}  // namespace sca::tdf

#endif  // SCA_TDF_CLUSTER_HPP
