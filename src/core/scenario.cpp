#include "core/scenario.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "kernel/scheduler.hpp"
#include "tdf/cluster.hpp"
#include "tdf/dae_module.hpp"
#include "tdf/module.hpp"
#include "util/bytes.hpp"

namespace sca::core {

// ----------------------------------------------------------------- params --

double params::get(const std::string& name, double fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    util::require(std::holds_alternative<double>(it->second), "params",
                  "parameter '" + name + "' is not numeric");
    return std::get<double>(it->second);
}

std::string params::get(const std::string& name, const std::string& fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    util::require(std::holds_alternative<std::string>(it->second), "params",
                  "parameter '" + name + "' is not a string");
    return std::get<std::string>(it->second);
}

double params::number(const std::string& name) const {
    util::require(has(name), "params", "missing required parameter '" + name + "'");
    return get(name, 0.0);
}

std::string params::text(const std::string& name) const {
    util::require(has(name), "params", "missing required parameter '" + name + "'");
    return get(name, std::string());
}

params params::merged_onto(const params& defaults) const {
    params out = defaults;
    for (const auto& [name, v] : values_) out.values_[name] = v;
    out.run_index_ = run_index_;
    out.seed_ = seed_;
    return out;
}

// -------------------------------------------------------------- testbench --

testbench::testbench(std::string name)
    : name_(std::move(name)), ctx_(std::make_unique<de::simulation_context>()) {}

testbench::~testbench() {
    // Model objects must unregister from a live context: activate ours (the
    // thread may have another testbench current) and drop them explicitly
    // before the members' natural teardown reaches ctx_.
    activate();
    bag_.clear();
}

void testbench::probe(std::string name, std::function<double()> fn) {
    // The recorder process arms at the first run's initialization phase, so
    // later probes could never fire — reject them instead of losing data.
    util::require(!has_run_, "testbench", "probes must be added before the first run");
    trace_.add_channel(std::move(name), std::move(fn));
    tdf_probes_.push_back(nullptr);
}

void testbench::probe(std::string name, const tdf::signal<double>& s) {
    probe(std::move(name), [&s] { return s.last_value(); });
    tdf_probes_.back() = &s;
}

void testbench::measure(std::string name, std::function<double()> fn) {
    measurement_defs_.emplace_back(std::move(name), std::move(fn));
}

void testbench::on_param(std::string name, std::function<void(double)> apply) {
    util::require(static_cast<bool>(apply), "testbench", "param hook must be callable");
    param_hooks_[std::move(name)] = std::move(apply);
}

void testbench::poke(const std::string& name, double value) {
    auto it = param_hooks_.find(name);
    util::require(it != param_hooks_.end(), "testbench",
                  "no param hook registered for '" + name + "'");
    activate();
    it->second(value);
}

std::vector<std::string> testbench::param_names() const {
    std::vector<std::string> names;
    names.reserve(param_hooks_.size());
    for (const auto& [name, fn] : param_hooks_) names.push_back(name);
    return names;
}

double testbench::note(const std::string& name) const {
    auto it = notes_.find(name);
    util::require(it != notes_.end(), "testbench", "unknown note '" + name + "'");
    return it->second;
}

void testbench::elaborate() {
    activate();
    ctx_->elaborate();
}

void testbench::run() {
    util::require(stop_time_ > de::time::zero(), "testbench",
                  "set_stop_time before run(), or pass an explicit duration");
    run(stop_time_);
}

void testbench::run(const de::time& duration) {
    attach_probes();
    ctx_->run(duration);
    if (!taps_.empty()) complete_tapped_rows();
    measured_.clear();
    for (const auto& [name, fn] : measurement_defs_) measured_[name] = fn();
}

void testbench::attach_trace_for_resume() { attach_probes(); }

void testbench::attach_probes() {
    activate();
    has_run_ = true;
    if (probes_attached_ || trace_.channel_count() == 0) return;
    util::require(sample_period_ > de::time::zero(), "testbench",
                  "set_sample_period before running with probes");
    probes_attached_ = true;
    // Taps need the clusters, so elaborate first.  A DE recorder registered
    // afterwards takes the place it would have had before elaboration:
    // registration order decides the t = 0 sample and snapshot identity.
    de::scheduler& sched = context().sched();
    const bool elaborated = context().elaborated();
    const std::size_t index = sched.processes().size();
    ctx_->elaborate();
    if (attach_taps(/*cluster_first_at_zero=*/!elaborated)) return;
    de::method_process& recorder =
        ctx_->register_method("trace_recorder", [this, period = sample_period_] {
            trace_.sample(ctx_->now().to_seconds());
            ctx_->next_trigger(period);
        });
    if (!elaborated) sched.move_process(recorder, index);
}

bool testbench::attach_taps(bool cluster_first_at_zero) {
    std::vector<tdf::cluster*> clusters;
    for (const tdf::signal<double>* s : tdf_probes_) {
        if (s == nullptr || s->writer() == nullptr || s->writer()->owner() == nullptr ||
            s->writer()->owner()->owning_cluster() == nullptr) {
            return false;
        }
        clusters.push_back(s->writer()->owner()->owning_cluster());
    }
    // The tap replays a pure cluster's batching against the recorder alone,
    // so no process other than pure clusters may bound that batching; a
    // DE-reading cluster batches against every DE event, so it is never
    // tapped.  Clusters that write DE re-arm every period whatever else runs.
    std::vector<const de::method_process*> pure;
    for (const auto& c : tdf::registry::of(context()).clusters()) {
        if (!c->de_coupled()) pure.push_back(c->process());
    }
    bool foreign = false;
    for (const de::method_process* p : context().sched().processes()) {
        if (std::find(pure.begin(), pure.end(), p) == pure.end()) foreign = true;
    }
    for (const tdf::cluster* c : clusters) {
        if (foreign && !c->writes_de()) return false;
    }
    for (std::size_t ch = 0; ch < clusters.size(); ++ch) {
        taps_.push_back(std::make_unique<tdf::probe_tap>(
            *tdf_probes_[ch], trace_, ch, sample_period_, cluster_first_at_zero));
        clusters[ch]->add_tap(*taps_.back());
    }
    return true;
}

void testbench::complete_tapped_rows() {
    const de::time now = ctx_->now();
    for (const auto& tap : taps_) tap->fill_until(now);
    const std::size_t rows = trace_.filled(0);
    for (std::size_t i = trace_.size(); i < rows; ++i) {
        const auto k = static_cast<std::int64_t>(first_tapped_row_ + i);
        trace_.push_time(de::time::from_fs(k * sample_period_.value_fs()).to_seconds());
    }
}

void testbench::save_probe_taps(util::byte_writer& w) const {
    w.u64(taps_.size());
    for (const auto& tap : taps_) tap->save_state(w);
}

void testbench::restore_probe_taps(util::byte_reader& r) {
    util::require(r.u64() == taps_.size(), "snapshot",
                  "the rebuilt testbench records its probes differently from the snapshot");
    for (const auto& tap : taps_) tap->restore_state(r);
    // The resumed trace starts empty at the first row not yet recorded.
    if (!taps_.empty()) first_tapped_row_ = taps_.front()->next_row();
}

std::vector<double> testbench::waveform(const std::string& probe_name) const {
    for (std::size_t c = 0; c < trace_.channel_count(); ++c) {
        if (trace_.channel_name(c) == probe_name) return trace_.column(c);
    }
    util::report_fatal("testbench", "unknown probe '" + probe_name + "'");
}

std::vector<std::string> testbench::probe_names() const {
    std::vector<std::string> names;
    names.reserve(trace_.channel_count());
    for (std::size_t c = 0; c < trace_.channel_count(); ++c) {
        names.push_back(trace_.channel_name(c));
    }
    return names;
}

double testbench::measurement(const std::string& name) const {
    auto it = measured_.find(name);
    util::require(it != measured_.end(), "testbench",
                  "unknown measurement '" + name + "' (did the run finish?)");
    return it->second;
}

void testbench::save_trace(const std::string& path) const {
    util::tabular_trace_file out(path);
    for (std::size_t c = 0; c < trace_.channel_count(); ++c) {
        out.add_channel(trace_.channel_name(c), [] { return 0.0; });
    }
    const auto& times = trace_.times();
    std::vector<double> row(trace_.channel_count());
    for (std::size_t i = 0; i < times.size(); ++i) {
        for (std::size_t c = 0; c < row.size(); ++c) row[c] = trace_.column_data(c)[i];
        out.replay_row(times[i], row);
    }
    out.close();
}

tdf::dae_module& testbench::view() {
    elaborate();
    tdf::dae_module* found = nullptr;
    for (de::object* o : context().objects()) {
        if (auto* v = dynamic_cast<tdf::dae_module*>(o)) {
            util::require(found == nullptr, "testbench",
                          "several continuous-time views exist; use view(name)");
            found = v;
        }
    }
    util::require(found != nullptr, "testbench", "no continuous-time view in testbench");
    return *found;
}

tdf::dae_module& testbench::view(const std::string& full_name) {
    elaborate();
    de::object* o = context().find_object(full_name);
    util::require(o != nullptr, "testbench", "no object named '" + full_name + "'");
    auto* v = dynamic_cast<tdf::dae_module*>(o);
    util::require(v != nullptr, "testbench",
                  "'" + full_name + "' is not a continuous-time view");
    return *v;
}

// --------------------------------------------------------------- scenario --

struct scenario::impl {
    std::string name;
    params defaults;
    build_fn build;
};

namespace {
std::mutex& registry_mutex() {
    static std::mutex m;
    return m;
}
std::unordered_map<std::string, std::shared_ptr<const scenario::impl>>& registry() {
    static std::unordered_map<std::string, std::shared_ptr<const scenario::impl>> reg;
    return reg;
}
}  // namespace

scenario scenario::define(std::string name, build_fn build) {
    return define(std::move(name), params{}, std::move(build));
}

scenario scenario::define(std::string name, params defaults, build_fn build) {
    util::require(static_cast<bool>(build), "scenario", "build function must be set");
    auto i = std::make_shared<const impl>(
        impl{std::move(name), std::move(defaults), std::move(build)});
    {
        std::lock_guard<std::mutex> lock(registry_mutex());
        registry()[i->name] = i;  // redefinition replaces (tests, notebooks)
    }
    return scenario(std::move(i));
}

scenario scenario::find(const std::string& name) {
    std::lock_guard<std::mutex> lock(registry_mutex());
    auto it = registry().find(name);
    util::require(it != registry().end(), "scenario", "no scenario named '" + name + "'");
    return scenario(it->second);
}

std::vector<std::string> scenario::names() {
    std::lock_guard<std::mutex> lock(registry_mutex());
    std::vector<std::string> names;
    names.reserve(registry().size());
    for (const auto& [name, i] : registry()) names.push_back(name);
    std::sort(names.begin(), names.end());
    return names;
}

const std::string& scenario::name() const {
    util::require(impl_ != nullptr, "scenario", "empty scenario handle");
    return impl_->name;
}

const params& scenario::defaults() const {
    util::require(impl_ != nullptr, "scenario", "empty scenario handle");
    return impl_->defaults;
}

std::unique_ptr<testbench> scenario::build(const params& overrides) const {
    util::require(impl_ != nullptr, "scenario", "empty scenario handle");
    auto tb = std::make_unique<testbench>(impl_->name);
    params merged = overrides.merged_onto(impl_->defaults);
    tb->set_parameters(merged);
    impl_->build(*tb, tb->parameters());
    return tb;
}

namespace detail {
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) noexcept {
    std::uint64_t x = base ^ (index + 1);
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}
}  // namespace detail

}  // namespace sca::core
