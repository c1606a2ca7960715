// Wire protocol for out-of-process run_set execution: length-prefixed binary
// frames carrying jobs (parent -> worker) and run results (worker -> parent),
// shared verbatim by the fork-based multiprocess backend, the remote-TCP
// worker backend, and the checkpoint journal.
//
// Framing (all integers little-endian regardless of host byte order):
//
//   u32 magic 'SCA1' | u32 payload_len | u8 type | payload | u32 fnv1a(payload)
//
// Doubles travel as their raw IEEE-754 bit pattern (bit_cast to u64), so a
// result decoded on the parent side is byte-exact — NaN payloads, signed
// zeros, infinities and denormals all survive the pipe, which is what keeps
// the multiprocess result table bit-identical to the in-thread one.
//
// Robustness contract (tests/test_run_protocol.cpp): truncated frames,
// payloads above k_max_payload, magic/type/checksum mismatches and short
// payloads all throw sca::util::error instead of yielding garbage.
//
// Session protocol (src/server/): types 5..15 carry the streaming-server
// session traffic over the same 'SCA1' framing.  The numeric values of the
// original run_set frames (1..4) are frozen, so journals and multiprocess
// workers from before the session extension stay byte-compatible; a client
// and server agree on the session dialect through the version byte carried
// by the hello frame (k_session_version) before any other session frame is
// exchanged.
#ifndef SCA_CORE_RUN_PROTOCOL_HPP
#define SCA_CORE_RUN_PROTOCOL_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/run_set.hpp"
#include "util/telemetry.hpp"

namespace sca::core::wire {

/// Frame header magic ('SCA1' little-endian).
inline constexpr std::uint32_t k_magic = 0x31414353U;

/// Upper bound on a frame payload (rejects corrupt/hostile length prefixes
/// before any allocation happens).
inline constexpr std::uint32_t k_max_payload = 256U * 1024U * 1024U;

/// Version of the session dialect (frame types >= hello).  Negotiated once
/// per connection: the client's hello carries the version it speaks, the
/// server answers with the version it accepted or an error frame.
/// v2 adds the stats frame (periodic/on-request in-band session telemetry)
/// and extends the close reply with max_queue_depth and the slice count.
inline constexpr std::uint8_t k_session_version = 2;

enum class msg_type : std::uint8_t {
    job = 1,       ///< parent -> worker: u64 run index
    result = 2,    ///< worker -> parent: encoded run_result
    shutdown = 3,  ///< parent -> worker: finish and exit (empty payload)
    header = 4,    ///< checkpoint journal only: campaign fingerprint

    // --- session protocol (version byte: k_session_version via hello) ------
    hello = 5,      ///< both ways: u8 session protocol version
    catalog = 6,    ///< request (empty) / reply (scenario names + defaults)
    open = 7,       ///< client -> server: scenario name + params + slice
    opened = 8,     ///< server -> client: session id, probes, timing
    param = 9,      ///< client -> server: live poke {name, value}
    subscribe = 10, ///< client -> server: probe name + on/off
    samples = 11,   ///< server -> client: framed waveform batch
    pace = 12,      ///< both ways: wall-clock pacing factor (+ drift in reply)
    run_state = 13, ///< client -> server: u8 0 = pause, 1 = resume
    close = 14,     ///< request (empty) / reply (final session statistics)
    error = 15,     ///< server -> client: diagnostic message

    // --- full-state snapshots (core/snapshot) ------------------------------
    snapshot_state = 16,  ///< snapshot file / journal: full simulation state

    // --- telemetry (session v2 / run_set metrics) --------------------------
    stats = 17,    ///< session: request (empty) / reply or periodic push
    metrics = 18,  ///< worker -> parent: per-run metrics (precedes result)
};

/// Largest assigned frame type (frame validation bound).
inline constexpr std::uint8_t k_max_msg_type = 18;

/// One decoded frame.
struct frame {
    msg_type type = msg_type::shutdown;
    std::vector<std::uint8_t> payload;
};

/// FNV-1a over the payload — cheap torn-write/corruption detection for the
/// checkpoint journal and a sanity check on sockets.
[[nodiscard]] std::uint32_t fnv1a(const std::uint8_t* data, std::size_t n) noexcept;

// -------------------------------------------------------- encode / decode --

[[nodiscard]] std::vector<std::uint8_t> encode_job(std::uint64_t index);
[[nodiscard]] std::uint64_t decode_job(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_result(const run_result& r);
[[nodiscard]] run_result decode_result(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_params(const params& p);
[[nodiscard]] params decode_params(const std::uint8_t* data, std::size_t n);

// ------------------------------------------------- session protocol types --

/// One service-catalog row: a registered scenario and its default parameters.
struct catalog_entry {
    std::string name;
    params defaults;
};

/// Client request to instantiate a scenario as a live session.
struct open_request {
    std::string scenario;
    params overrides;
    std::uint64_t slice_us = 0;  ///< kernel slice bound; 0 = server default
};

/// Server reply to a successful open: the session identity and everything a
/// client needs to subscribe (probe names) and interpret the stream.
struct session_info {
    std::uint64_t session_id = 0;
    double stop_time_s = 0.0;
    double sample_period_s = 0.0;
    std::vector<std::string> probes;
};

/// Live parameter poke, applied between kernel slices through the scenario's
/// testbench::on_param hooks.
struct param_poke {
    std::string name;
    double value = 0.0;
};

struct subscribe_request {
    std::string probe;
    bool on = true;
};

/// One streamed waveform batch.  `first_index` is the absolute sample index
/// of times[0]/values[0] within the session's probe record, so a client can
/// detect (and size) gaps left by backpressure drops; `dropped` is the
/// cumulative count of samples dropped on this subscription so far.
struct sample_batch {
    std::string probe;
    std::uint64_t first_index = 0;
    std::uint64_t dropped = 0;
    std::vector<double> times;
    std::vector<double> values;
};

/// Pacing control/status.  The client sends the factor it wants (drift
/// fields ignored); the server's reply echoes the factor and reports the
/// drift measured so far.
struct pace_info {
    double real_time_factor = 0.0;  ///< <= 0 disables pacing
    double drift_s = 0.0;
    double max_drift_s = 0.0;
};

/// Why a session ended (close reply).
enum class close_reason : std::uint8_t {
    client_request = 0,  ///< client sent close
    finished = 1,        ///< simulation reached its stop time
    failed = 2,          ///< session error (message went out as an error frame)
};

/// Final session statistics, sent as the close reply.  This is the
/// authoritative end-of-session telemetry: streamed/dropped totals, the
/// deepest the stream queue ever got, pacing drift extremes, and the number
/// of kernel slices the session executed.
struct close_info {
    close_reason reason = close_reason::client_request;
    double sim_time_s = 0.0;
    std::uint64_t samples_streamed = 0;
    std::uint64_t samples_dropped = 0;
    double pace_drift_s = 0.0;
    double pace_max_drift_s = 0.0;
    std::uint64_t max_queue_depth = 0;  ///< session v2
    std::uint64_t slices = 0;           ///< session v2
    std::map<std::string, double> measurements;
};

/// In-band session telemetry: pushed every options.stats_every_slices kernel
/// slices while streaming, and on demand as the reply to an (empty) stats
/// request.  Counts are cumulative for the session.
struct stats_info {
    double sim_time_s = 0.0;
    std::uint64_t slices = 0;
    std::uint64_t samples_streamed = 0;
    std::uint64_t samples_dropped = 0;
    std::uint64_t queue_depth = 0;      ///< batches queued right now
    std::uint64_t max_queue_depth = 0;  ///< deepest the queue has been
    double pace_drift_s = 0.0;
    double pace_max_drift_s = 0.0;
};

/// Per-run telemetry attached to a run_result: the deterministic
/// counter/gauge subset of the worker context's registry (sorted by name),
/// sent as its own frame immediately before the result frame so journals and
/// old parents that ignore it stay compatible.
struct run_metrics {
    std::uint64_t index = 0;  ///< run index the metrics belong to
    util::metrics_snapshot entries;
};

[[nodiscard]] std::vector<std::uint8_t> encode_hello(std::uint8_t version);
[[nodiscard]] std::uint8_t decode_hello(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_catalog(
    const std::vector<catalog_entry>& entries);
[[nodiscard]] std::vector<catalog_entry> decode_catalog(const std::uint8_t* data,
                                                        std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_open(const open_request& req);
[[nodiscard]] open_request decode_open(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_opened(const session_info& info);
[[nodiscard]] session_info decode_opened(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_poke(const param_poke& poke);
[[nodiscard]] param_poke decode_poke(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_subscribe(const subscribe_request& req);
[[nodiscard]] subscribe_request decode_subscribe(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_samples(const sample_batch& batch);
[[nodiscard]] sample_batch decode_samples(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_pace(const pace_info& info);
[[nodiscard]] pace_info decode_pace(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_run_state(bool running);
[[nodiscard]] bool decode_run_state(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_close(const close_info& info);
[[nodiscard]] close_info decode_close(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_error(const std::string& message);
[[nodiscard]] std::string decode_error(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_stats(const stats_info& info);
[[nodiscard]] stats_info decode_stats(const std::uint8_t* data, std::size_t n);

[[nodiscard]] std::vector<std::uint8_t> encode_metrics(const run_metrics& m);
[[nodiscard]] run_metrics decode_metrics(const std::uint8_t* data, std::size_t n);

/// Append one full frame (header + payload + checksum) to `out` — the single
/// frame serializer behind pack_frame(), write_frame() and the server's
/// per-connection outbound buffer.
void append_frame(std::vector<std::uint8_t>& out, msg_type type,
                  const std::vector<std::uint8_t>& payload);

/// A full frame as its own byte buffer (snapshot files, tests).
[[nodiscard]] std::vector<std::uint8_t> pack_frame(msg_type type,
                                                   const std::vector<std::uint8_t>& payload);

/// Size in bytes of the complete frame starting at data[0], parsing only the
/// header: 0 when fewer than the 9 header bytes are available yet ("read
/// more"), the full frame length otherwise.  This is the only frame-header
/// parser: it validates magic, length and type, so a reader rejects a
/// garbage stream after 9 bytes instead of buffering up to k_max_payload.
[[nodiscard]] std::size_t frame_size_hint(const std::uint8_t* data, std::size_t size);

/// Parse one frame from `data`; advances `offset` past it.  Returns false on
/// a clean end (no bytes left), throws on truncation/corruption.
bool unpack_frame(const std::uint8_t* data, std::size_t size, std::size_t& offset,
                  frame& out);

// ------------------------------------------------------------- fd framing --

/// Write a frame to a socket/pipe/file fd (retries short writes, suppresses
/// SIGPIPE).  Returns false when the peer is gone (EPIPE/ECONNRESET), throws
/// on other I/O errors.
bool write_frame(int fd, msg_type type, const std::vector<std::uint8_t>& payload);

/// Inbound frame buffer for one stream fd: the run_set dispatcher, its
/// workers, the sim_server connections and the client all read through it.
/// fill() does a single read, so a poll()-driven caller never waits on a peer
/// that sent half a frame.
class frame_reader {
public:
    enum class fill_status { data, would_block, eof };

    /// One read() into the buffer; `eof` also covers connection errors.
    fill_status fill(int fd);
    /// Next complete buffered frame; false when none is.  Throws on garbage.
    bool next(frame& out);
    /// Block until a whole frame arrives on a blocking fd.  False on EOF
    /// between frames; throws on EOF mid-frame or a corrupt frame.
    bool read_blocking(int fd, frame& out);

private:
    std::vector<std::uint8_t> buf_;  ///< storage; [begin_, end_) is unread
    std::size_t begin_ = 0;
    std::size_t end_ = 0;
};

}  // namespace sca::core::wire

#endif  // SCA_CORE_RUN_PROTOCOL_HPP
