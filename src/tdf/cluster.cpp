#include "tdf/cluster.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <numeric>

#include "kernel/process.hpp"
#include "kernel/signal.hpp"
#include "tdf/dae_module.hpp"
#include "tdf/module.hpp"
#include "tdf/port.hpp"
#include "util/bytes.hpp"
#include "util/report.hpp"
#include "util/trace.hpp"
#include "util/trace_export.hpp"

namespace sca::tdf {

namespace {

/// Classify the bound DE ports below `o` (converter ports are members of
/// the module, so they appear in its object subtree) as reads or writes.
void scan_bound_de_ports(const de::object* o, bool& reads, bool& writes) {
    for (const de::object* c : o->children()) {
        if (const auto* p = dynamic_cast<const de::port_base*>(c); p != nullptr && p->bound()) {
            (p->writes() ? writes : reads) = true;
        }
        scan_bound_de_ports(c, reads, writes);
    }
}

}  // namespace

cluster::cluster(std::vector<module*> modules) : modules_(std::move(modules)) {
    // Collect the signals touched by member ports (unique, writer required).
    for (module* m : modules_) {
        for (port_base* p : m->ports()) {
            signal_base* s = p->bound_signal();
            util::require(s != nullptr, p->name(), "TDF port is unbound");
            if (std::find(signals_.begin(), signals_.end(), s) == signals_.end()) {
                signals_.push_back(s);
            }
        }
    }
    for (signal_base* s : signals_) {
        util::require(s->writer() != nullptr, s->name(), "TDF signal has no writer");
    }
}

void cluster::compute_repetitions() {
    std::map<module*, std::size_t> index;
    for (std::size_t i = 0; i < modules_.size(); ++i) index[modules_[i]] = i;

    std::vector<rate_edge> edges;
    for (signal_base* s : signals_) {
        const std::size_t from = index.at(s->writer()->owner());
        for (port_base* r : s->readers()) {
            edges.push_back({from, index.at(r->owner()), s->writer()->rate(), r->rate()});
        }
    }
    const auto reps = repetition_vector(modules_.size(), edges);
    for (std::size_t i = 0; i < modules_.size(); ++i) {
        modules_[i]->set_repetitions(reps[i]);
    }
}

void cluster::resolve_timesteps() {
    // Collect timestep anchors: module-level requests and port-level requests
    // (a port request anchors its owner at rate * port_timestep).
    period_ = de::time::zero();
    std::string anchor_name;
    auto consider = [&](const de::time& t_module, module& m, const std::string& who) {
        const de::time tc = t_module * static_cast<std::int64_t>(m.repetitions());
        if (period_ == de::time::zero()) {
            period_ = tc;
            anchor_name = who;
        } else {
            util::require(period_ == tc, who,
                          "conflicting TDF timestep anchors (first anchor: " + anchor_name +
                              " giving cluster period " + period_.to_string() + ", this one " +
                              tc.to_string() + ")");
        }
    };
    for (module* m : modules_) {
        if (m->timestep_request() > de::time::zero()) {
            consider(m->timestep_request(), *m, m->name());
        }
        for (port_base* p : m->ports()) {
            if (p->timestep_request() > de::time::zero()) {
                consider(p->timestep_request() * static_cast<std::int64_t>(p->rate()),
                         *p->owner(), p->name());
            }
        }
    }
    util::require(period_ > de::time::zero(), "tdf_cluster",
                  "no timestep anchor in TDF cluster: call set_timestep on at least "
                  "one module or port");

    for (module* m : modules_) {
        const auto reps = static_cast<std::int64_t>(m->repetitions());
        util::require(period_.value_fs() % reps == 0, m->name(),
                      "cluster period is not an integer multiple of the module period "
                      "at femtosecond resolution; choose rounder timesteps");
        const de::time tm = de::time::from_fs(period_.value_fs() / reps);
        m->set_resolved_timestep(tm);
        for (port_base* p : m->ports()) {
            p->set_resolved_timestep(
                de::time::from_fs(tm.value_fs() / static_cast<std::int64_t>(p->rate())));
        }
    }
}

compiled_schedule cluster::compile_current(std::uint64_t periods) const {
    // Describe the graph abstractly and compile it (PASS construction and
    // run-length encoding live in schedule.cpp).  `periods` > 1 scales the
    // repetition vector: the resulting program is a legal schedule for that
    // many periods fused into one super-cycle (SDF determinacy makes the
    // token streams identical to per-period execution).
    std::map<const module*, std::size_t> index;
    for (std::size_t i = 0; i < modules_.size(); ++i) index[modules_[i]] = i;

    std::vector<sdf_signal_desc> descs(signals_.size());
    for (std::size_t s = 0; s < signals_.size(); ++s) {
        const port_base* w = signals_[s]->writer();
        descs[s].writer = {index.at(w->owner()), w->rate(), w->delay()};
        for (port_base* r : signals_[s]->readers()) {
            descs[s].readers.push_back({index.at(r->owner()), r->rate(), r->delay()});
        }
    }
    std::vector<std::uint64_t> reps(modules_.size());
    for (std::size_t i = 0; i < modules_.size(); ++i) {
        reps[i] = modules_[i]->repetitions() * periods;
    }

    return compile_schedule(reps, descs);
}

void cluster::build_fused_programs(std::vector<std::size_t>& caps) {
    // Power-of-two ladder of fused programs for pure static clusters: the
    // batch planner hands run_cycles() up to max_batch_ periods at a time,
    // and greedy decomposition over {.., 16, 8, 4, 2} periods turns almost
    // all of them into long block calls.  Only pure clusters fuse: DE-writing
    // clusters execute one period per kernel interaction, DE-reading ones
    // are driven by ELN/LSF views that fire per sample anyway, and dynamic
    // clusters must offer the change_attributes() window between periods.
    fused_.clear();
    if (de_coupled() || dynamic_ || max_batch_ < 2) return;
    // Guard: fused buffers hold `periods` periods of tokens per signal; stop
    // the ladder before memory blows up on very high-rate clusters.
    constexpr std::size_t k_max_tokens_per_signal = std::size_t{1} << 16;
    for (std::uint64_t b = 2; b <= max_batch_; b *= 2) {
        compiled_schedule cs = compile_current(b);
        if (std::any_of(cs.buffer_capacity.begin(), cs.buffer_capacity.end(),
                        [&](std::size_t c) { return c > k_max_tokens_per_signal; })) {
            break;
        }
        for (std::size_t s = 0; s < caps.size(); ++s) {
            caps[s] = std::max(caps[s], cs.buffer_capacity[s]);
        }
        std::vector<program_entry> entries;
        entries.reserve(cs.program.size());
        for (const firing_entry& e : cs.program) {
            entries.push_back({modules_[e.module], e.first_firing, e.count});
        }
        fused_.push_back({b, std::move(entries)});
    }
    std::reverse(fused_.begin(), fused_.end());  // descending periods
}

void cluster::install_program(const compiled_schedule& compiled) {
    program_.clear();
    program_.reserve(compiled.program.size());
    schedule_.clear();
    schedule_firing_.clear();
    schedule_.reserve(compiled.total_firings);
    schedule_firing_.reserve(compiled.total_firings);
    for (const firing_entry& e : compiled.program) {
        program_.push_back({modules_[e.module], e.first_firing, e.count});
        for (std::uint64_t k = 0; k < e.count; ++k) {
            schedule_.push_back(modules_[e.module]);
            schedule_firing_.push_back(e.first_firing + k);
        }
    }
}

void cluster::size_buffers(const std::vector<std::size_t>& capacities, bool in_place) {
    // (Re)allocate the ring buffers and reset port stream positions: writers
    // start after their delay tokens.  Reschedules resize in place where the
    // existing capacity suffices; the streams restart either way, so delay
    // tokens re-read the initial value deterministically.
    for (std::size_t s = 0; s < signals_.size(); ++s) {
        if (in_place) {
            signals_[s]->ensure_allocated(capacities[s]);
        } else {
            signals_[s]->allocate(capacities[s]);
        }
        signals_[s]->writer()->reset_position(signals_[s]->writer()->delay());
        for (port_base* r : signals_[s]->readers()) r->reset_position(0);
    }
}

void cluster::build_schedule() {
    last_compiled_ = compile_current();
    install_program(last_compiled_);
    // Ring buffers are sized for the largest program that can run on them:
    // the per-period program or any fused multi-period program.  Capacity
    // only affects layout, not values, so the per-sample path is unchanged.
    std::vector<std::size_t> caps = last_compiled_.buffer_capacity;
    build_fused_programs(caps);
    size_buffers(caps, /*in_place=*/false);
}

void cluster::detect_de_coupling() {
    reads_de_ = false;
    writes_de_ = false;
    for (module* m : modules_) {
        reads_de_ = reads_de_ || m->de_reads_declared();
        writes_de_ = writes_de_ || m->de_writes_declared();
        scan_bound_de_ports(m, reads_de_, writes_de_);
    }
}

void cluster::elaborate() {
    compute_repetitions();
    resolve_timesteps();
    // DE-coupling and dynamic membership gate fused-program compilation, so
    // both are detected before the schedule is built.
    detect_de_coupling();
    dynamic_modules_.clear();
    for (module* m : modules_) {
        if (m->does_attribute_changes()) dynamic_modules_.push_back(m);
    }
    dynamic_ = !dynamic_modules_.empty();
    build_schedule();
    if (dynamic_) {
        // Seed the schedule cache with the elaborated configuration, so a
        // model that wanders away and back reinstates it with a hash lookup.
        cache_.insert(compute_signature(), snapshot_config());
    }
    for (module* m : modules_) m->set_owning_cluster(*this);
    for (module* m : modules_) m->initialize();
}

// ----------------------------------------------------- dynamic rescheduling

attribute_signature cluster::compute_signature() const {
    attribute_signature sig;
    for (const module* m : modules_) {
        sig.words.push_back(static_cast<std::uint64_t>(m->timestep_request().value_fs()));
        for (const port_base* p : m->ports()) {
            sig.words.push_back((static_cast<std::uint64_t>(p->rate()) << 32U) |
                                static_cast<std::uint64_t>(p->delay()));
        }
    }
    return sig;
}

cluster_config cluster::snapshot_config() const {
    cluster_config cfg;
    cfg.period = period_;
    cfg.compiled = last_compiled_;
    for (const module* m : modules_) {
        cfg.repetitions.push_back(m->repetitions());
        cfg.module_timesteps.push_back(m->timestep());
        for (const port_base* p : m->ports()) {
            cfg.port_timesteps.push_back(p->timestep());
        }
    }
    return cfg;
}

void cluster::install_config(const cluster_config& cfg) {
    period_ = cfg.period;
    std::size_t pi = 0;
    for (std::size_t i = 0; i < modules_.size(); ++i) {
        modules_[i]->set_repetitions(cfg.repetitions[i]);
        modules_[i]->set_resolved_timestep(cfg.module_timesteps[i]);
        for (port_base* p : modules_[i]->ports()) {
            p->set_resolved_timestep(cfg.port_timesteps[pi++]);
        }
    }
    last_compiled_ = cfg.compiled;
    install_program(cfg.compiled);
    size_buffers(cfg.compiled.buffer_capacity, /*in_place=*/true);
}

void cluster::run_change_attributes() {
    // Block/reschedule barrier: this window only opens between periods, and
    // block calls never span a period boundary on dynamic clusters (they
    // compile no fused programs), so any in-flight block is already flushed
    // — every staged token is written and every port position advanced —
    // before a reschedule can land.
    bool any = false;
    for (module* m : dynamic_modules_) {
        m->set_in_change_attributes(true);
        m->change_attributes();
        m->set_in_change_attributes(false);
        if (m->has_pending_timestep()) any = true;
        for (port_base* p : m->ports()) {
            if (p->has_staged_rate()) any = true;
        }
    }
    if (any) apply_attribute_changes();
}

void cluster::apply_attribute_changes() {
    // A request that restates the current configuration is a no-op: clear
    // the staged values without touching the schedule (so a module may
    // unconditionally re-request its state every period for free).  The
    // timestep comparison is against the module's *resolved* timestep —
    // for an anchored module that equals its request, and for an
    // unanchored module it is the state a restatement restates.
    bool changed = false;
    std::string requester;
    for (module* m : dynamic_modules_) {
        if (m->has_pending_timestep() && m->pending_timestep() != m->timestep()) {
            changed = true;
            requester = m->name();
        }
        for (port_base* p : m->ports()) {
            if (p->has_staged_rate() && p->staged_rate() != p->rate()) {
                changed = true;
                requester = m->name();
            }
        }
    }
    if (!changed) {
        for (module* m : dynamic_modules_) {
            m->clear_pending_timestep();
            for (port_base* p : m->ports()) p->clear_staged_rate();
        }
        return;
    }

    // Gating: every member must tolerate the retiming.  Modules that change
    // attributes themselves accept by default (see module.hpp).
    for (module* m : modules_) {
        util::require(m->accept_attribute_changes(), m->name(),
                      "rejects the TDF attribute change requested by " + requester +
                          ": override accept_attribute_changes() to return true "
                          "(its timestep/port sample periods would move at runtime)");
    }

    // Apply the staged requests, then swap in the matching schedule: a hash
    // lookup for configurations visited before, a full recompile otherwise.
    // Restatements riding along with another module's real change are
    // dropped, not applied: turning them into fresh anchors would conflict
    // with the new timing they merely restated.
    for (module* m : dynamic_modules_) {
        if (m->has_pending_timestep()) {
            if (m->pending_timestep() != m->timestep()) {
                m->set_timestep(m->pending_timestep());
            }
            m->clear_pending_timestep();
        }
        for (port_base* p : m->ports()) {
            if (p->has_staged_rate()) p->set_rate(p->staged_rate());
            p->clear_staged_rate();
        }
    }
    SCA_TRACE_SPAN(ctx_ != nullptr ? &ctx_->tracer() : nullptr, "tdf.cluster.reschedule",
                   "tdf");
    ++reschedules_;
    const attribute_signature sig = compute_signature();
    if (const cluster_config* cfg = cache_.find(sig)) {
        install_config(*cfg);
        return;
    }
    ++recompiles_;
    compute_repetitions();
    resolve_timesteps();
    last_compiled_ = compile_current();
    install_program(last_compiled_);
    size_buffers(last_compiled_.buffer_capacity, /*in_place=*/true);
    cache_.insert(sig, snapshot_config());
}

void cluster::attach(de::simulation_context& ctx) {
    ctx_ = &ctx;
    proc_ = &ctx.register_method("tdf_cluster_exec", [this] { on_wake(); });
}

void cluster::set_max_batch_periods(std::uint64_t n) {
    util::require(n >= 1, "tdf_cluster", "max batch periods must be >= 1");
    max_batch_ = n;
}

void cluster::set_peer_processes(std::vector<const de::method_process*> peers) {
    peers_ = std::move(peers);
}

void cluster::exec_program(const std::vector<program_entry>& prog, const de::time& t) {
    if (block_execution_) {
        for (const program_entry& e : prog) {
            if (e.mod->has_block_processing()) {
                e.mod->fire_block_run(t, e.first_firing, e.count);
            } else {
                e.mod->fire_run(t, e.first_firing, e.count);
            }
        }
    } else {
        for (const program_entry& e : prog) {
            e.mod->fire_run(t, e.first_firing, e.count);
        }
    }
}

void cluster::run_cycles(const de::time& start, std::uint64_t n) {
    SCA_TRACE_SPAN_T(ctx_ != nullptr ? &ctx_->tracer() : nullptr, "tdf.cluster.cycles",
                     "tdf", start.to_seconds());
    de::time t = start;
    std::uint64_t left = n;
    // Greedy decomposition over the fused-program ladder (descending
    // periods): a 63-period batch runs as 32+16+8+4+2 fused super-cycles
    // plus one per-period pass.  Fused programs only exist for pure static
    // clusters and only pay off on the block path.
    if (block_execution_) {
        for (const fused_program& fp : fused_) {
            while (left >= fp.periods) {
                exec_program(fp.entries, t);
                if (!taps_.empty()) feed_taps(t, fp.periods, period_, false);
                cycles_ += fp.periods;
                fused_cycles_ += fp.periods;
                t += period_ * static_cast<std::int64_t>(fp.periods);
                left -= fp.periods;
            }
        }
    }
    for (std::uint64_t c = 0; c < left; ++c) {
        exec_program(program_, t);
        // Dynamic clusters feed their taps after the change window instead
        // (run_dynamic_cycle): the replay needs to know about reschedules.
        if (!taps_.empty() && !dynamic_) feed_taps(t, 1, period_, false);
        ++cycles_;
        t += period_;
    }
    next_cycle_start_ = t;
}

void cluster::run_dynamic_cycle(const de::time start) {
    const std::uint64_t before = reschedules_;
    run_cycles(start, 1);
    run_change_attributes();
    if (!taps_.empty()) {
        feed_taps(start, 1, next_cycle_start_ - start, reschedules_ != before);
    }
}

void cluster::feed_taps(const de::time& start, std::uint64_t n, const de::time& step,
                        bool rescheduled) {
    for (probe_tap* tap : taps_) tap->on_cycles(*this, start, n, step, rescheduled);
}

void cluster::add_tap(probe_tap& tap) {
    util::require(tap.writer_->owner() != nullptr &&
                      tap.writer_->owner()->owning_cluster() == this,
                  "tdf_cluster", "probe tap on a signal another cluster writes");
    if (!fused_.empty()) {
        // A fused program of b periods writes b * per tokens in one go; the
        // tap reads the last token of each of those periods afterwards.
        const std::uint64_t per =
            tap.writer_->rate() * tap.writer_->owner()->repetitions();
        const auto need = static_cast<std::size_t>(fused_.front().periods * per);
        for (signal_base* s : signals_) {
            if (s == tap.sig_ && s->capacity() < need) s->allocate(need);
        }
    }
    taps_.push_back(&tap);
}

std::uint64_t cluster::plan_batch_ahead(bool for_peek) const {
    // Batching contract: run cycles ahead of DE time only when no DE process
    // could observe the difference.  Clusters that write DE never qualify.
    // For the others the bound is the next pending timed event — except the
    // re-arms of peer clusters, which write no DE and so cannot change what
    // this one reads — and the end of the current scheduler run, so the
    // final state matches per-period execution exactly.  DE values a
    // DE-reading cluster samples cannot change before that bound: no
    // process runs in between.  This runs in a zero-delay re-activation
    // of the driving process: every same-timestamp process has already
    // executed and re-armed, making the timed queue authoritative.
    const std::int64_t p = period_.value_fs();
    if (p <= 0) return 0;
    const de::time s = next_cycle_start_;
    std::uint64_t n = max_batch_ - 1;  // one cycle already ran this interaction

    const de::scheduler& sch = static_cast<const de::simulation_context&>(*ctx_).sched();
    const de::time end = sch.run_end();
    // The run_end clamp is a batch-size bound only.  The peek must ignore it
    // (see the header comment): whether the re-arm goes through the settled
    // delta has to be a function of the model state alone, not of the
    // caller's slice length, or sliced and continuous runs diverge in
    // same-instant event order right after a run() boundary.
    if (!for_peek && end != de::time::max()) {
        if (s > end) return 0;
        n = std::min(n, static_cast<std::uint64_t>((end - s).value_fs() / p) + 1);
    }
    ignore_scratch_.clear();
    for (const de::method_process* peer : peers_) {
        if (const de::event* ev = peer->timeout_event(); ev != nullptr) {
            ignore_scratch_.push_back(ev);
        }
    }
    const de::time next_ev = sch.next_event_time_ignoring(ignore_scratch_);
    if (next_ev != de::time::max()) {
        if (next_ev <= s) return 0;
        const std::int64_t gap = (next_ev - s).value_fs();
        n = std::min(n, static_cast<std::uint64_t>((gap + p - 1) / p));
    }
    return n;
}

void cluster::on_wake() {
    const de::time now = ctx_->now();
    if (!batch_check_pending_) {
        // Timed wake at a cycle boundary.
        if (dynamic_) {
            // Dynamic clusters give their members the change_attributes()
            // window after each period, then re-arm with whatever period the
            // (possibly rescheduled) configuration resolved to — this is the
            // DE re-sync: the next timed wake lands on the new grid.  The
            // cycle just run still spans its old period, so the next cycle
            // starts at next_cycle_start_ regardless of a period change.
            run_dynamic_cycle(now);
            // Pure dynamic clusters batch too (via the settled re-check
            // below): periods execute back-to-back with the change window
            // interleaved, so only the kernel re-arms are elided — the
            // per-period sequence the modules observe is unchanged.
            if (!writes_de_ && max_batch_ > 1 && plan_batch_ahead(true) > 0) {
                defer_batch_check();
                return;
            }
            ctx_->next_trigger(next_cycle_start_ - now);
            return;
        }
        run_cycles(now, 1);
        // Peek: schedule the batch-check re-activation only when the (possibly
        // still unsettled) queue suggests batching could yield anything —
        // event-dense models otherwise pay a useless delta round per period.
        // The peek may overestimate; the settled re-check below is what
        // guarantees correctness.
        if (!writes_de_ && max_batch_ > 1 && plan_batch_ahead(true) > 0) {
            defer_batch_check();
            return;
        }
        ctx_->next_trigger(period_);
        return;
    }
    // Zero-delay (delta) re-activation: plan only once the instant has
    // settled, so every same-timestamp process has executed and armed its
    // next timed event.  Peer clusters are ignored — their same-instant
    // wakes and deferral deltas cannot interact with this cluster, and two
    // deferring clusters would otherwise ping-pong forever.  Anything else
    // still active at this instant -> defer one more delta cycle.
    ignore_scratch_.clear();
    for (const de::method_process* peer : peers_) {
        if (const de::event* ev = peer->timeout_event(); ev != nullptr) {
            ignore_scratch_.push_back(ev);
        }
    }
    if (static_cast<const de::simulation_context&>(*ctx_).sched().instant_active_ignoring(
            peers_, ignore_scratch_)) {
        ctx_->next_trigger(de::time::zero());
        return;
    }
    batch_check_pending_ = false;
    if (dynamic_) {
        // Interleaved batch: the same per-period sequence as the timed path
        // (one cycle, then the change_attributes() window), minus the DE
        // re-arm between periods.  A reschedule invalidates the plan — the
        // remaining periods were bounded assuming the old timestep — so the
        // batch breaks and the next timed wake re-syncs on the new grid.
        std::uint64_t ahead = plan_batch_ahead();
        const std::uint64_t planned_at = reschedules_;
        while (ahead-- > 0) {
            run_dynamic_cycle(next_cycle_start_);
            if (reschedules_ != planned_at) break;
        }
        rearm_after_batch(now);
        return;
    }
    const std::uint64_t ahead = plan_batch_ahead();
    if (ahead > 0) run_cycles(next_cycle_start_, ahead);
    rearm_after_batch(now);
}

void cluster::defer_batch_check() {
    // A DE-reading cluster whose batch turns out empty must re-arm where
    // per-period sync re-arms: in the queue at the timed wake, ahead of
    // whatever same-instant processes arm later.  The recorder and any DE
    // process that reads the views directly (not through a DE signal) at
    // this cluster's period see the two in that order.  Pure clusters have
    // always re-armed from the settled delta; the probe tap replays that.
    if (reads_de_) {
        rearm_at_ = next_cycle_start_;
        rearm_behind_ = static_cast<const de::simulation_context&>(*ctx_).sched().timed_entries_at(
            rearm_at_);
    }
    batch_check_pending_ = true;
    ctx_->next_trigger(de::time::zero());
}

void cluster::rearm_after_batch(const de::time& now) {
    if (reads_de_ && next_cycle_start_ == rearm_at_) {
        proc_->next_trigger(next_cycle_start_ - now, rearm_behind_);
    } else {
        ctx_->next_trigger(next_cycle_start_ - now);
    }
}

// ------------------------------------------------------------------ snapshot

void cluster::save_state(util::byte_writer& w) const {
    w.u64(static_cast<std::uint64_t>(modules_.size()));
    for (const module* m : modules_) {
        w.i64(m->timestep_request().value_fs());
        w.i64(m->timestep().value_fs());
        w.u64(m->repetitions());
        w.i64(m->tdf_time().value_fs());
        w.u64(m->activation_count());
        w.u64(m->block_call_count());
        w.u64(m->block_firing_count());
        w.u64(static_cast<std::uint64_t>(m->ports().size()));
        for (const port_base* p : m->ports()) {
            w.u32(p->rate());
            w.u32(p->delay());
            w.i64(p->timestep_request().value_fs());
            w.i64(p->timestep().value_fs());
            w.u64(p->position());
        }
    }
    // The installed attribute signature: restore recomputes it from the
    // overlaid attributes and refuses on mismatch (revalidation, not trust).
    w.u64_vec(compute_signature().words);
    w.u64(static_cast<std::uint64_t>(signals_.size()));
    for (const signal_base* s : signals_) s->save_tokens(w);
    w.i64(period_.value_fs());
    w.i64(next_cycle_start_.value_fs());
    w.u64(cycles_);
    w.u64(fused_cycles_);
    w.u64(reschedules_);
    w.u64(recompiles_);
    w.boolean(de_coupled());
    w.boolean(dynamic_);
}

void cluster::restore_state(util::byte_reader& r) {
    util::require(r.u64() == modules_.size(), "snapshot",
                  "cluster: rebuilt module count differs from snapshot");
    // The signature the *rebuilt* model elaborated with; if the saved run had
    // rescheduled away from it, the matching program must be reinstalled.
    const attribute_signature elaborated_sig = compute_signature();

    struct module_state {
        de::time current_time;
        std::uint64_t activations, block_calls, block_firings;
        std::vector<std::uint64_t> positions;
    };
    std::vector<module_state> saved(modules_.size());
    for (std::size_t i = 0; i < modules_.size(); ++i) {
        module* m = modules_[i];
        const auto ts_request = de::time::from_fs(r.i64());
        const auto ts_resolved = de::time::from_fs(r.i64());
        const std::uint64_t reps = r.u64();
        saved[i].current_time = de::time::from_fs(r.i64());
        saved[i].activations = r.u64();
        saved[i].block_calls = r.u64();
        saved[i].block_firings = r.u64();
        util::require(r.u64() == m->ports().size(), "snapshot",
                      "cluster: rebuilt port count of '" + m->name() +
                          "' differs from snapshot");
        // Overlay the schedule-determining attributes first: the reinstall
        // below compiles (or cache-installs) against them.
        m->set_timestep(ts_request);
        m->set_resolved_timestep(ts_resolved);
        m->set_repetitions(reps);
        for (port_base* p : m->ports()) {
            p->set_rate(r.u32());
            p->set_delay(r.u32());
            p->set_timestep(de::time::from_fs(r.i64()));
            p->set_resolved_timestep(de::time::from_fs(r.i64()));
            saved[i].positions.push_back(r.u64());
        }
    }

    attribute_signature saved_sig;
    saved_sig.words = r.u64_vec();
    util::require(compute_signature() == saved_sig, "snapshot",
                  "cluster: rebuilt attribute signature differs from snapshot");
    if (!(saved_sig == elaborated_sig)) {
        // The saved run had rescheduled: reinstall the matching program — a
        // schedule-cache hit when this configuration was visited before
        // (elaboration seeds the cache), otherwise a full recompile that
        // seeds it now.  Counters are overlaid afterwards either way.
        if (const cluster_config* cfg = cache_.find(saved_sig)) {
            install_config(*cfg);
        } else {
            compute_repetitions();
            resolve_timesteps();
            last_compiled_ = compile_current();
            install_program(last_compiled_);
            size_buffers(last_compiled_.buffer_capacity, /*in_place=*/true);
            cache_.insert(saved_sig, snapshot_config());
        }
        // install_config/resolve_timesteps recompute what the overlay already
        // set; re-overlay repetitions and timesteps so bookkeeping that is
        // not signature-determined (an unanchored module's resolved step) is
        // exactly the saved one.  Port positions are overlaid below.
    }

    // Positions and tokens go last: schedule installation resets both.
    for (std::size_t i = 0; i < modules_.size(); ++i) {
        module* m = modules_[i];
        m->restore_runtime_state(saved[i].current_time, saved[i].activations,
                                 saved[i].block_calls, saved[i].block_firings);
        std::size_t pi = 0;
        for (port_base* p : m->ports()) p->reset_position(saved[i].positions[pi++]);
    }
    util::require(r.u64() == signals_.size(), "snapshot",
                  "cluster: rebuilt signal count differs from snapshot");
    for (signal_base* s : signals_) s->restore_tokens(r);
    period_ = de::time::from_fs(r.i64());
    next_cycle_start_ = de::time::from_fs(r.i64());
    cycles_ = r.u64();
    fused_cycles_ = r.u64();
    reschedules_ = r.u64();
    recompiles_ = r.u64();
    util::require(r.boolean() == de_coupled(), "snapshot",
                  "cluster: DE coupling differs from snapshot");
    util::require(r.boolean() == dynamic_, "snapshot",
                  "cluster: dynamic membership differs from snapshot");
    batch_check_pending_ = false;  // settled points never carry a pending check
}

// ----------------------------------------------------------------- probe tap

probe_tap::probe_tap(const signal<double>& s, util::memory_trace& trace, std::size_t channel,
                     const de::time& sample_period, bool cluster_first_at_zero)
    : sig_(&s),
      writer_(s.writer()),
      trace_(&trace),
      channel_(channel),
      period_fs_(sample_period.value_fs()),
      writer_pos_(s.writer() != nullptr ? s.writer()->position() : 0),
      last_(s.last_value()),
      wake_(de::time::zero()),
      cluster_first_(cluster_first_at_zero) {
    util::require(writer_ != nullptr, s.name(), "probe tap on a TDF signal without writer");
    util::require(period_fs_ > 0, s.name(), "probe tap needs a positive sample period");
}

void probe_tap::push_row() {
    trace_->push_value(channel_, last_);
    ++next_row_;
    row_fs_ += period_fs_;
}

void probe_tap::fill_until(const de::time& now) {
    while (row_fs_ <= now.value_fs()) push_row();
}

void probe_tap::arm(const de::time& wake, const de::time& armed_at, bool from_delta,
                    std::int64_t next_sample) {
    batch_left_ = 0;
    wake_ = wake;
    const std::int64_t w = wake.value_fs();
    if (w < next_sample || (w > next_sample && (w - next_sample) % period_fs_ != 0)) {
        return;  // no sample at `wake`
    }
    // The recorder armed its sample at `wake` when it sampled wake - P.  Of
    // two timed re-arms for one instant, the later one runs first.  A
    // re-arm from the settled zero-delay re-activation comes after every
    // process of that instant; a re-arm from the timed wake comes in the
    // order the two processes ran there, which the instant then reverses.
    const std::int64_t u = armed_at.value_fs();
    const std::int64_t rec_armed_at = w - period_fs_;
    if (u < rec_armed_at) {
        cluster_first_ = false;
    } else if (u > rec_armed_at) {
        cluster_first_ = true;
    } else {
        cluster_first_ = from_delta || !cluster_first_;
    }
}

void probe_tap::plan(const cluster& c, const de::time& at, const de::time& next,
                     bool on_grid, std::int64_t next_sample) {
    // Mirrors cluster::on_wake()/plan_batch_ahead() with the recorder's next
    // sample as the only pending timed event.  When the cluster runs first
    // at a sample instant, the recorder has not re-armed yet when the
    // cluster peeks: nothing bounds the peek.
    const std::uint64_t max_batch = c.max_batch_periods();
    const bool rec_pending = !(on_grid && cluster_first_);
    const std::int64_t gap = next_sample - next.value_fs();
    if (c.writes_de() || max_batch < 2 || (rec_pending && gap <= 0)) {
        arm(next, at, /*from_delta=*/false, next_sample);
        return;
    }
    std::uint64_t ahead = 0;
    if (gap > 0) {
        const std::int64_t p = c.period().value_fs();
        ahead = std::min(max_batch - 1, static_cast<std::uint64_t>((gap + p - 1) / p));
        const de::time end =
            static_cast<const de::simulation_context&>(*c.ctx_).sched().run_end();
        if (end != de::time::max()) {
            ahead = next > end ? 0
                               : std::min(ahead, static_cast<std::uint64_t>(
                                                     (end - next).value_fs() / p) + 1);
        }
    }
    if (ahead == 0) {
        arm(next, at, /*from_delta=*/true, next_sample);
    } else {
        batch_left_ = ahead;
        armed_at_ = at;
    }
}

void probe_tap::on_cycles(const cluster& c, const de::time& start, std::uint64_t n,
                          const de::time& step, bool rescheduled) {
    // A single cycle leaves its value in last_value() — exactly what the
    // recorder reads.  Inside a fused program the per-period values are read
    // back by write index (a dynamic cluster, whose reschedules restart the
    // streams, never fuses), and only for periods a sample lands in.
    const std::uint64_t pos = writer_->position();
    const std::uint64_t per = n > 1 ? (pos - writer_pos_) / n : 0;
    std::int64_t pending = -1;  // token index last_ still has to be read from
    de::time at = start;
    for (std::uint64_t j = 0; j < n; ++j, at += step) {
        if (row_fs_ < at.value_fs() && pending >= 0) {
            last_ = sig_->read_token(pending);
            pending = -1;
        }
        while (row_fs_ < at.value_fs()) push_row();
        const bool on_grid = row_fs_ == at.value_fs();
        const std::int64_t next_sample = on_grid ? row_fs_ + period_fs_ : row_fs_;
        bool before_sample = true;  // cycle `at` runs before a sample at `at`
        if (batch_left_ == 0) {
            util::require(at == wake_, sig_->name(),
                          "probe tap lost track of the cluster's wakes");
            if (on_grid) before_sample = cluster_first_;
            plan(c, at, at + step, on_grid, next_sample);
        } else if (--batch_left_ == 0 || (rescheduled && j + 1 == n)) {
            arm(at + step, armed_at_, /*from_delta=*/true, next_sample);
        }
        if (on_grid && !before_sample) {
            if (pending >= 0) last_ = sig_->read_token(pending);
            push_row();
        }
        if (n == 1) {
            last_ = sig_->last_value();
        } else {
            pending = static_cast<std::int64_t>(writer_pos_ + (j + 1) * per) - 1;
        }
        if (on_grid && before_sample) {
            if (pending >= 0) last_ = sig_->read_token(pending);
            pending = -1;
            push_row();
        }
    }
    if (pending >= 0) last_ = sig_->read_token(pending);
    writer_pos_ = pos;
}

void probe_tap::save_state(util::byte_writer& w) const {
    w.u64(next_row_);
    w.f64(last_);
    w.i64(wake_.value_fs());
    w.i64(armed_at_.value_fs());
    w.u64(batch_left_);
    w.boolean(cluster_first_);
}

void probe_tap::restore_state(util::byte_reader& r) {
    next_row_ = r.u64();
    util::require(next_row_ <= static_cast<std::uint64_t>(
                                   std::numeric_limits<std::int64_t>::max() / period_fs_),
                  "snapshot", "probe tap row in snapshot lies beyond the time range");
    row_fs_ = static_cast<std::int64_t>(next_row_) * period_fs_;
    last_ = r.f64();
    wake_ = de::time::from_fs(r.i64());
    armed_at_ = de::time::from_fs(r.i64());
    batch_left_ = r.u64();
    cluster_first_ = r.boolean();
    writer_pos_ = writer_->position();
}

// ------------------------------------------------------------------ registry

registry::registry(de::simulation_context& ctx) : ctx_(&ctx) {
    ctx.add_elaboration_hook([this] { elaborate_clusters(); });
    // The hot per-object counters (module activations, cluster cycles,
    // schedule-cache hits) stay where the firing loops write them; this
    // collector publishes their totals into the context registry on demand
    // with set-semantics, so repeated collection never double-counts.
    ctx.add_metrics_collector([this] { publish_metrics(); });
}

void registry::publish_metrics() {
    util::metrics_registry& reg = ctx_->metrics();
    std::uint64_t cycles = 0, fused = 0, resched = 0, recompiles = 0, hits = 0, misses = 0;
    for (const auto& c : clusters_) {
        cycles += c->cycle_count();
        fused += c->fused_cycle_count();
        resched += c->reschedule_count();
        recompiles += c->recompile_count();
        hits += c->schedule_cache_hits();
        misses += c->schedule_cache_misses();
    }
    std::uint64_t activations = 0, block_calls = 0, block_firings = 0;
    std::uint64_t numeric = 0, symbolic = 0, cache_hits = 0, fallbacks = 0;
    for (module* m : modules_) {
        activations += m->activation_count();
        block_calls += m->block_call_count();
        block_firings += m->block_firing_count();
        if (const auto* d = dynamic_cast<const dae_module*>(m)) {
            numeric += d->factorizations();
            symbolic += d->symbolic_factorizations();
            cache_hits += d->factor_cache_hits();
            fallbacks += d->refactor_fallbacks();
        }
    }
    reg.get_counter("tdf.clusters").set(clusters_.size());
    reg.get_counter("tdf.cluster.cycles").set(cycles);
    reg.get_counter("tdf.cluster.fused_cycles").set(fused);
    reg.get_counter("tdf.cluster.reschedules").set(resched);
    reg.get_counter("tdf.cluster.recompiles").set(recompiles);
    reg.get_counter("tdf.schedule_cache.hits").set(hits);
    reg.get_counter("tdf.schedule_cache.misses").set(misses);
    reg.get_counter("tdf.module.activations").set(activations);
    reg.get_counter("tdf.module.block_calls").set(block_calls);
    reg.get_counter("tdf.module.block_firings").set(block_firings);
    reg.get_counter("solver.numeric_factorizations").set(numeric);
    reg.get_counter("solver.symbolic_factorizations").set(symbolic);
    reg.get_counter("solver.factor_cache_hits").set(cache_hits);
    reg.get_counter("solver.refactor_fallbacks").set(fallbacks);
}

registry::~registry() = default;

registry& registry::of(de::simulation_context& ctx) { return ctx.domain_data<registry>(); }

void registry::add_module(module& m) { modules_.push_back(&m); }

signal_base& registry::adopt_signal(std::unique_ptr<signal_base> s) {
    adopted_signals_.push_back(std::move(s));
    return *adopted_signals_.back();
}

void registry::set_default_max_batch_periods(std::uint64_t n) {
    util::require(n >= 1, "tdf_registry", "max batch periods must be >= 1");
    default_max_batch_ = n;
    for (auto& c : clusters_) c->set_max_batch_periods(n);
}

void registry::set_default_block_execution(bool on) {
    default_block_execution_ = on;
    for (auto& c : clusters_) c->set_block_execution(on);
}

void registry::elaborate_clusters() {
    if (elaborated_) return;
    elaborated_ = true;
    SCA_TRACE_SPAN(&ctx_->tracer(), "tdf.elaborate_clusters", "tdf");

    // Binding resolution: follow every port's forwarding chain to its
    // terminal signal and attach dataflow endpoints there.  This covers
    // module ports, composite forwarding ports, and the converter ports of
    // ELN/LSF components alike; unbound chains fail here with the port's
    // full hierarchical path.
    for (de::object* o : ctx_->objects()) {
        if (auto* p = dynamic_cast<port_base*>(o)) p->resolve();
    }

    // Attribute settling: modules declare rates/delays/timesteps.
    for (module* m : modules_) m->set_attributes();

    // Union-find over modules connected through TDF signals.
    std::map<module*, std::size_t> index;
    for (std::size_t i = 0; i < modules_.size(); ++i) index[modules_[i]] = i;
    std::vector<std::size_t> parent(modules_.size());
    std::iota(parent.begin(), parent.end(), std::size_t{0});
    std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    };
    auto unite = [&](std::size_t a, std::size_t b) { parent[find(a)] = find(b); };

    for (module* m : modules_) {
        for (port_base* p : m->ports()) {
            util::require(p->owner() != nullptr, p->name(), "TDF port has no owner module");
            signal_base* s = p->bound_signal();
            util::require(s != nullptr, p->name(), "TDF port is unbound");
            if (s->writer() != nullptr && s->writer()->owner() != nullptr) {
                unite(index.at(m), index.at(s->writer()->owner()));
            }
            for (port_base* r : s->readers()) {
                if (r->owner() != nullptr) unite(index.at(m), index.at(r->owner()));
            }
        }
    }

    std::map<std::size_t, std::vector<module*>> groups;
    for (std::size_t i = 0; i < modules_.size(); ++i) {
        groups[find(i)].push_back(modules_[i]);
    }
    for (auto& [root, members] : groups) {
        clusters_.push_back(std::make_unique<cluster>(std::move(members)));
        clusters_.back()->set_max_batch_periods(default_max_batch_);
        clusters_.back()->set_block_execution(default_block_execution_);
        clusters_.back()->elaborate();
        clusters_.back()->attach(*ctx_);
    }

    // A cluster that writes no DE signal cannot change anything another
    // such cluster reads, so their batch planning ignores one another's
    // re-arms and settling deltas.  Each must ignore the others: two that
    // defer to a settled delta at one instant would otherwise wait on each
    // other forever.
    std::vector<const de::method_process*> batching_procs;
    for (const auto& c : clusters_) {
        if (!c->writes_de()) batching_procs.push_back(c->process());
    }
    for (const auto& c : clusters_) {
        if (!c->writes_de()) c->set_peer_processes(batching_procs);
    }
}

}  // namespace sca::tdf
