// Full-state snapshots and deterministic resume (checkpoint/restore).
//
// A snapshot captures everything a settled simulation needs to continue
// bit-identically: the kernel clock and counters, every pending timed
// notification (in queue order, so same-instant events refire in the
// original registration order), process wait states, DE signal values, TDF
// ring-buffer tokens and read/write positions, compiled-schedule signatures,
// and the solvers' integration history including the frozen LU pivot order.
//
// What a snapshot does NOT capture is behavioral *code*: restore rebuilds
// the model through the scenario factory (the same build lambda that made
// the original), then overlays the saved state onto the rebuilt objects.  A
// structural fingerprint — scenario name, parameters, the object hierarchy,
// the process list — is verified before any overlay; a mismatch is refused
// with a diagnostic instead of producing a silently wrong simulation.
//
// On-disk format: exactly one SCA1 frame (the framing, checksum, and
// size-limit discipline of core/run_protocol) of type
// wire::msg_type::snapshot_state, whose payload starts with a format
// version.  The same frame can be appended to a run_set checkpoint journal
// (journal readers skip non-result frames), which is how a campaign records
// a warm-start state under its fingerprint header.
#ifndef SCA_CORE_SNAPSHOT_HPP
#define SCA_CORE_SNAPSHOT_HPP

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace sca::core {

class testbench;

/// Version of the snapshot payload layout (inside the SCA1 frame).
inline constexpr std::uint32_t k_snapshot_version = 2;

// ----------------------------------------------------------- payload level --

/// Serialize a settled testbench into a snapshot payload (no framing).
/// Requires: the bench was built by a registered scenario, has run at least
/// once, and run() has returned (the instant is fully evaluated).
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot(testbench& tb);

/// Rebuild a testbench from a snapshot payload: look up the scenario, build
/// with the saved parameters, verify the structural fingerprint, overlay the
/// saved state.  Throws sca::util::error on version/fingerprint mismatch or
/// a malformed payload.
[[nodiscard]] std::unique_ptr<testbench> decode_snapshot(const std::uint8_t* data,
                                                         std::size_t n);
[[nodiscard]] std::unique_ptr<testbench> decode_snapshot(
    const std::vector<std::uint8_t>& payload);

// ------------------------------------------------------------ stream level --

/// Write one SCA1 frame of type wire::msg_type::snapshot_state.
void save_snapshot(testbench& tb, std::ostream& os);

/// Read one snapshot frame and resume from it.  Throws on bad magic,
/// checksum mismatch, truncation, wrong frame type, or trailing bytes.
[[nodiscard]] std::unique_ptr<testbench> resume_snapshot(std::istream& is);

// -------------------------------------------------------------- file level --

void save_snapshot(testbench& tb, const std::string& path);
[[nodiscard]] std::unique_ptr<testbench> resume_snapshot(const std::string& path);

}  // namespace sca::core

#endif  // SCA_CORE_SNAPSHOT_HPP
