#include "core/run_protocol.hpp"

#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <string>
#include <variant>

#include "util/net.hpp"
#include "util/report.hpp"

namespace sca::core::wire {

std::uint32_t fnv1a(const std::uint8_t* data, std::size_t n) noexcept {
    std::uint32_t h = 0x811c9dc5U;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x01000193U;
    }
    return h;
}

namespace {

// ------------------------------------------------------------- byte writer --

struct writer {
    std::vector<std::uint8_t> buf;

    void put_u8(std::uint8_t v) { buf.push_back(v); }
    void put_u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void put_u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void put_double(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
    void put_string(const std::string& s) {
        put_u32(static_cast<std::uint32_t>(s.size()));
        buf.insert(buf.end(), s.begin(), s.end());
    }
    void put_doubles(const std::vector<double>& v) {
        put_u64(v.size());
        for (double d : v) put_double(d);
    }
};

// ------------------------------------------------------------- byte reader --

struct reader {
    const std::uint8_t* data;
    std::size_t size;
    std::size_t pos = 0;

    void need(std::size_t n) const {
        util::require(size - pos >= n, "run_protocol",
                      "truncated message: need " + std::to_string(n) + " bytes at offset " +
                          std::to_string(pos) + ", have " + std::to_string(size - pos));
    }
    std::uint8_t get_u8() {
        need(1);
        return data[pos++];
    }
    std::uint32_t get_u32() {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data[pos++]) << (8 * i);
        return v;
    }
    std::uint64_t get_u64() {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data[pos++]) << (8 * i);
        return v;
    }
    double get_double() { return std::bit_cast<double>(get_u64()); }
    std::string get_string() {
        const std::uint32_t n = get_u32();
        need(n);
        std::string s(reinterpret_cast<const char*>(data + pos), n);
        pos += n;
        return s;
    }
    std::vector<double> get_doubles() {
        const std::uint64_t n = get_u64();
        // Bound the count against the actual payload size before allocating
        // (and before n * 8 could wrap for a hostile length prefix).
        util::require(n <= (size - pos) / 8, "run_protocol",
                      "truncated message: double array count " + std::to_string(n) +
                          " exceeds the remaining payload");
        std::vector<double> v(n);
        for (std::uint64_t i = 0; i < n; ++i) v[i] = get_double();
        return v;
    }
    void expect_done() const {
        util::require(pos == size, "run_protocol",
                      "oversized message: " + std::to_string(size - pos) +
                          " trailing bytes after a complete payload");
    }
};

void put_params(writer& w, const params& p) {
    const auto& entries = p.entries();
    w.put_u64(p.run_index());
    w.put_u64(p.seed());
    w.put_u32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& [name, v] : entries) {
        w.put_string(name);
        if (std::holds_alternative<double>(v)) {
            w.put_u8(0);
            w.put_double(std::get<double>(v));
        } else {
            w.put_u8(1);
            w.put_string(std::get<std::string>(v));
        }
    }
}

params get_params(reader& r) {
    params p;
    const std::uint64_t run_index = r.get_u64();
    const std::uint64_t seed = r.get_u64();
    p.set_run_identity(run_index, seed);
    const std::uint32_t n = r.get_u32();
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string name = r.get_string();
        const std::uint8_t kind = r.get_u8();
        util::require(kind <= 1, "run_protocol", "unknown params value kind");
        if (kind == 0) {
            p.set(name, r.get_double());
        } else {
            p.set(name, r.get_string());
        }
    }
    return p;
}

}  // namespace

// ----------------------------------------------------------- job messages --

std::vector<std::uint8_t> encode_job(std::uint64_t index) {
    writer w;
    w.put_u64(index);
    return std::move(w.buf);
}

std::uint64_t decode_job(const std::uint8_t* data, std::size_t n) {
    reader r{data, n};
    const std::uint64_t index = r.get_u64();
    r.expect_done();
    return index;
}

// -------------------------------------------------------- result messages --

std::vector<std::uint8_t> encode_result(const run_result& res) {
    writer w;
    w.put_u64(res.index);
    w.put_u64(res.seed);
    w.put_u8(res.ok ? 1 : 0);
    w.put_string(res.error);
    put_params(w, res.parameters);
    w.put_u32(static_cast<std::uint32_t>(res.measurements.size()));
    for (const auto& [name, v] : res.measurements) {
        w.put_string(name);
        w.put_double(v);
    }
    w.put_doubles(res.times);
    w.put_u32(static_cast<std::uint32_t>(res.probe_names.size()));
    for (const auto& name : res.probe_names) w.put_string(name);
    w.put_u32(static_cast<std::uint32_t>(res.waveforms.size()));
    for (const auto& wf : res.waveforms) w.put_doubles(wf);
    return std::move(w.buf);
}

run_result decode_result(const std::uint8_t* data, std::size_t n) {
    reader r{data, n};
    run_result res;
    res.index = r.get_u64();
    res.seed = r.get_u64();
    res.ok = r.get_u8() != 0;
    res.error = r.get_string();
    res.parameters = get_params(r);
    const std::uint32_t n_meas = r.get_u32();
    for (std::uint32_t i = 0; i < n_meas; ++i) {
        std::string name = r.get_string();
        res.measurements[name] = r.get_double();
    }
    res.times = r.get_doubles();
    const std::uint32_t n_probes = r.get_u32();
    res.probe_names.reserve(n_probes);
    for (std::uint32_t i = 0; i < n_probes; ++i) res.probe_names.push_back(r.get_string());
    const std::uint32_t n_waves = r.get_u32();
    res.waveforms.reserve(n_waves);
    for (std::uint32_t i = 0; i < n_waves; ++i) res.waveforms.push_back(r.get_doubles());
    r.expect_done();
    return res;
}

std::vector<std::uint8_t> encode_params(const params& p) {
    writer w;
    put_params(w, p);
    return std::move(w.buf);
}

params decode_params(const std::uint8_t* data, std::size_t n) {
    reader r{data, n};
    params p = get_params(r);
    r.expect_done();
    return p;
}

// ------------------------------------------------------- session messages --

std::vector<std::uint8_t> encode_hello(std::uint8_t version) {
    writer w;
    w.put_u8(version);
    return std::move(w.buf);
}

std::uint8_t decode_hello(const std::uint8_t* data, std::size_t n) {
    reader r{data, n};
    const std::uint8_t version = r.get_u8();
    // Versions start at 1; a future version still decodes (the reply tells
    // the peer what this side actually speaks — negotiation, not rejection).
    util::require(version >= 1, "run_protocol", "invalid session protocol version 0");
    r.expect_done();
    return version;
}

std::vector<std::uint8_t> encode_catalog(const std::vector<catalog_entry>& entries) {
    writer w;
    w.put_u32(static_cast<std::uint32_t>(entries.size()));
    for (const catalog_entry& e : entries) {
        w.put_string(e.name);
        put_params(w, e.defaults);
    }
    return std::move(w.buf);
}

std::vector<catalog_entry> decode_catalog(const std::uint8_t* data, std::size_t n) {
    reader r{data, n};
    const std::uint32_t count = r.get_u32();
    std::vector<catalog_entry> entries;
    entries.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        catalog_entry e;
        e.name = r.get_string();
        e.defaults = get_params(r);
        entries.push_back(std::move(e));
    }
    r.expect_done();
    return entries;
}

std::vector<std::uint8_t> encode_open(const open_request& req) {
    writer w;
    w.put_string(req.scenario);
    put_params(w, req.overrides);
    w.put_u64(req.slice_us);
    return std::move(w.buf);
}

open_request decode_open(const std::uint8_t* data, std::size_t n) {
    reader r{data, n};
    open_request req;
    req.scenario = r.get_string();
    req.overrides = get_params(r);
    req.slice_us = r.get_u64();
    r.expect_done();
    return req;
}

std::vector<std::uint8_t> encode_opened(const session_info& info) {
    writer w;
    w.put_u64(info.session_id);
    w.put_double(info.stop_time_s);
    w.put_double(info.sample_period_s);
    w.put_u32(static_cast<std::uint32_t>(info.probes.size()));
    for (const std::string& p : info.probes) w.put_string(p);
    return std::move(w.buf);
}

session_info decode_opened(const std::uint8_t* data, std::size_t n) {
    reader r{data, n};
    session_info info;
    info.session_id = r.get_u64();
    info.stop_time_s = r.get_double();
    info.sample_period_s = r.get_double();
    const std::uint32_t count = r.get_u32();
    info.probes.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) info.probes.push_back(r.get_string());
    r.expect_done();
    return info;
}

std::vector<std::uint8_t> encode_poke(const param_poke& poke) {
    writer w;
    w.put_string(poke.name);
    w.put_double(poke.value);
    return std::move(w.buf);
}

param_poke decode_poke(const std::uint8_t* data, std::size_t n) {
    reader r{data, n};
    param_poke poke;
    poke.name = r.get_string();
    poke.value = r.get_double();
    r.expect_done();
    return poke;
}

std::vector<std::uint8_t> encode_subscribe(const subscribe_request& req) {
    writer w;
    w.put_string(req.probe);
    w.put_u8(req.on ? 1 : 0);
    return std::move(w.buf);
}

subscribe_request decode_subscribe(const std::uint8_t* data, std::size_t n) {
    reader r{data, n};
    subscribe_request req;
    req.probe = r.get_string();
    req.on = r.get_u8() != 0;
    r.expect_done();
    return req;
}

std::vector<std::uint8_t> encode_samples(const sample_batch& batch) {
    writer w;
    w.put_string(batch.probe);
    w.put_u64(batch.first_index);
    w.put_u64(batch.dropped);
    w.put_doubles(batch.times);
    w.put_doubles(batch.values);
    return std::move(w.buf);
}

sample_batch decode_samples(const std::uint8_t* data, std::size_t n) {
    reader r{data, n};
    sample_batch batch;
    batch.probe = r.get_string();
    batch.first_index = r.get_u64();
    batch.dropped = r.get_u64();
    batch.times = r.get_doubles();
    batch.values = r.get_doubles();
    util::require(batch.times.size() == batch.values.size(), "run_protocol",
                  "sample batch times/values length mismatch");
    r.expect_done();
    return batch;
}

std::vector<std::uint8_t> encode_pace(const pace_info& info) {
    writer w;
    w.put_double(info.real_time_factor);
    w.put_double(info.drift_s);
    w.put_double(info.max_drift_s);
    return std::move(w.buf);
}

pace_info decode_pace(const std::uint8_t* data, std::size_t n) {
    reader r{data, n};
    pace_info info;
    info.real_time_factor = r.get_double();
    info.drift_s = r.get_double();
    info.max_drift_s = r.get_double();
    r.expect_done();
    return info;
}

std::vector<std::uint8_t> encode_run_state(bool running) {
    writer w;
    w.put_u8(running ? 1 : 0);
    return std::move(w.buf);
}

bool decode_run_state(const std::uint8_t* data, std::size_t n) {
    reader r{data, n};
    const std::uint8_t v = r.get_u8();
    util::require(v <= 1, "run_protocol", "unknown run_state value");
    r.expect_done();
    return v != 0;
}

std::vector<std::uint8_t> encode_close(const close_info& info) {
    writer w;
    w.put_u8(static_cast<std::uint8_t>(info.reason));
    w.put_double(info.sim_time_s);
    w.put_u64(info.samples_streamed);
    w.put_u64(info.samples_dropped);
    w.put_double(info.pace_drift_s);
    w.put_double(info.pace_max_drift_s);
    w.put_u64(info.max_queue_depth);
    w.put_u64(info.slices);
    w.put_u32(static_cast<std::uint32_t>(info.measurements.size()));
    for (const auto& [name, v] : info.measurements) {
        w.put_string(name);
        w.put_double(v);
    }
    return std::move(w.buf);
}

close_info decode_close(const std::uint8_t* data, std::size_t n) {
    reader r{data, n};
    close_info info;
    const std::uint8_t reason = r.get_u8();
    util::require(reason <= static_cast<std::uint8_t>(close_reason::failed),
                  "run_protocol", "unknown close reason");
    info.reason = static_cast<close_reason>(reason);
    info.sim_time_s = r.get_double();
    info.samples_streamed = r.get_u64();
    info.samples_dropped = r.get_u64();
    info.pace_drift_s = r.get_double();
    info.pace_max_drift_s = r.get_double();
    info.max_queue_depth = r.get_u64();
    info.slices = r.get_u64();
    const std::uint32_t count = r.get_u32();
    for (std::uint32_t i = 0; i < count; ++i) {
        std::string name = r.get_string();
        info.measurements[name] = r.get_double();
    }
    r.expect_done();
    return info;
}

std::vector<std::uint8_t> encode_error(const std::string& message) {
    writer w;
    w.put_string(message);
    return std::move(w.buf);
}

std::string decode_error(const std::uint8_t* data, std::size_t n) {
    reader r{data, n};
    std::string message = r.get_string();
    r.expect_done();
    return message;
}

std::vector<std::uint8_t> encode_stats(const stats_info& info) {
    writer w;
    w.put_double(info.sim_time_s);
    w.put_u64(info.slices);
    w.put_u64(info.samples_streamed);
    w.put_u64(info.samples_dropped);
    w.put_u64(info.queue_depth);
    w.put_u64(info.max_queue_depth);
    w.put_double(info.pace_drift_s);
    w.put_double(info.pace_max_drift_s);
    return std::move(w.buf);
}

stats_info decode_stats(const std::uint8_t* data, std::size_t n) {
    reader r{data, n};
    stats_info info;
    info.sim_time_s = r.get_double();
    info.slices = r.get_u64();
    info.samples_streamed = r.get_u64();
    info.samples_dropped = r.get_u64();
    info.queue_depth = r.get_u64();
    info.max_queue_depth = r.get_u64();
    info.pace_drift_s = r.get_double();
    info.pace_max_drift_s = r.get_double();
    r.expect_done();
    return info;
}

std::vector<std::uint8_t> encode_metrics(const run_metrics& m) {
    writer w;
    w.put_u64(m.index);
    w.put_u32(static_cast<std::uint32_t>(m.entries.size()));
    for (const util::metric_value& mv : m.entries) {
        w.put_string(mv.name);
        w.put_u8(static_cast<std::uint8_t>(mv.kind));
        w.put_u64(mv.count);
        w.put_double(mv.value);
        w.put_double(mv.min);
        w.put_double(mv.max);
    }
    return std::move(w.buf);
}

run_metrics decode_metrics(const std::uint8_t* data, std::size_t n) {
    reader r{data, n};
    run_metrics m;
    m.index = r.get_u64();
    const std::uint32_t count = r.get_u32();
    m.entries.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        util::metric_value mv;
        mv.name = r.get_string();
        const std::uint8_t kind = r.get_u8();
        util::require(kind <= static_cast<std::uint8_t>(
                                  util::metric_value::metric_kind::histogram),
                      "run_protocol", "unknown metric kind");
        mv.kind = static_cast<util::metric_value::metric_kind>(kind);
        mv.count = r.get_u64();
        mv.value = r.get_double();
        mv.min = r.get_double();
        mv.max = r.get_double();
        m.entries.push_back(std::move(mv));
    }
    r.expect_done();
    return m;
}

// ----------------------------------------------------------------- frames --

void append_frame(std::vector<std::uint8_t>& out, msg_type type,
                  const std::vector<std::uint8_t>& payload) {
    if (payload.size() > k_max_payload) {
        util::report_fatal("run_protocol", "frame payload exceeds the " +
                                               std::to_string(k_max_payload) +
                                               "-byte protocol limit");
    }
    const auto put_u32 = [&out](std::uint32_t v) {
        for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    put_u32(k_magic);
    put_u32(static_cast<std::uint32_t>(payload.size()));
    out.push_back(static_cast<std::uint8_t>(type));
    out.insert(out.end(), payload.begin(), payload.end());
    put_u32(fnv1a(payload.data(), payload.size()));
}

std::vector<std::uint8_t> pack_frame(msg_type type,
                                     const std::vector<std::uint8_t>& payload) {
    std::vector<std::uint8_t> bytes;
    bytes.reserve(payload.size() + 13);
    append_frame(bytes, type, payload);
    return bytes;
}

std::size_t frame_size_hint(const std::uint8_t* data, std::size_t size) {
    if (size < 9) return 0;  // header incomplete: read more
    reader r{data, size};
    util::require(r.get_u32() == k_magic, "run_protocol", "bad frame magic");
    const std::uint32_t len = r.get_u32();
    if (len > k_max_payload) {
        util::report_fatal("run_protocol", "frame payload length " + std::to_string(len) +
                                               " exceeds the protocol limit");
    }
    // Types 1..k_max_msg_type are assigned (the run_set originals plus the
    // session protocol); everything else is rejected.
    const std::uint8_t type = r.get_u8();
    util::require(type >= static_cast<std::uint8_t>(msg_type::job) && type <= k_max_msg_type,
                  "run_protocol", "unknown frame type");
    return 13 + static_cast<std::size_t>(len);  // header + payload + checksum
}

bool unpack_frame(const std::uint8_t* data, std::size_t size, std::size_t& offset,
                  frame& out) {
    if (offset == size) return false;
    const std::size_t n = frame_size_hint(data + offset, size - offset);
    if (n == 0 || n > size - offset) {
        util::report_fatal("run_protocol", "truncated frame: " + std::to_string(size - offset) +
                                               " bytes at offset " + std::to_string(offset));
    }
    const std::uint8_t* f = data + offset;
    out.type = static_cast<msg_type>(f[8]);
    out.payload.assign(f + 9, f + n - 4);
    reader trailer{f + n - 4, 4};
    util::require(trailer.get_u32() == fnv1a(out.payload.data(), out.payload.size()),
                  "run_protocol", "frame checksum mismatch");
    offset += n;
    return true;
}

bool write_frame(int fd, msg_type type, const std::vector<std::uint8_t>& payload) {
    const std::vector<std::uint8_t> bytes = pack_frame(type, payload);
    return net::write_all(fd, bytes.data(), bytes.size());
}

// ----------------------------------------------------------- frame_reader --

constexpr std::size_t k_read_chunk = 64 * 1024;

frame_reader::fill_status frame_reader::fill(int fd) {
    // Compact: only a partial frame is ever left behind by next().
    if (begin_ > 0) {
        std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
        end_ -= begin_;
        begin_ = 0;
    }
    if (buf_.size() - end_ < k_read_chunk) buf_.resize(end_ + k_read_chunk);
    for (;;) {
        const ssize_t r = ::read(fd, buf_.data() + end_, buf_.size() - end_);
        if (r > 0) {
            end_ += static_cast<std::size_t>(r);
            return fill_status::data;
        }
        if (r < 0 && errno == EINTR) continue;
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            return fill_status::would_block;
        }
        return fill_status::eof;  // orderly shutdown, ECONNRESET and friends
    }
}

bool frame_reader::next(frame& out) {
    const std::size_t n = frame_size_hint(buf_.data() + begin_, end_ - begin_);
    if (n == 0 || n > end_ - begin_) return false;
    return unpack_frame(buf_.data(), end_, begin_, out);
}

bool frame_reader::read_blocking(int fd, frame& out) {
    while (!next(out)) {
        if (fill(fd) == fill_status::eof) {
            util::require(begin_ == end_, "run_protocol", "truncated frame: EOF mid-message");
            return false;
        }
    }
    return true;
}

}  // namespace sca::core::wire
